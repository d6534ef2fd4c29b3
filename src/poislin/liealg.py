"""Finite-dimensional Lie algebras over the rationals.

Structure constants follow [e_i, e_j] = sum_k c[i][j][k] e_k.  All subspace
computations (derived algebra, radical, complements) reduce to the
deterministic elimination in `linalg`, so bases come out identical across
runs.  The Levi lift delegates its 2-coboundary equations to `cohomology`;
that import is function-local because `cohomology` needs LieAlgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    LinearSolver,
    Matrix,
    Vector,
    det,
    extend_to_basis,
    mat_mul,
    rank,
    row_space_solver,
    symmetric_signature,
    zero_vector,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class SolverFailure(RuntimeError):
    """An internal solve had no solution; only reachable when an input object
    violates the invariants its constructor is supposed to enforce."""


def _constant_table(constants) -> tuple:
    return tuple(
        tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in constants
    )


class LieAlgebra:
    """Immutable structure-constant table with validated antisymmetry and
    Jacobi identity."""

    __slots__ = ("dim", "constants")

    def __init__(self, constants):
        constants = _constant_table(constants)
        n = len(constants)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in constants):
            raise ValueError("structure constants must form an n*n*n array")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if constants[i][j][k] != -constants[j][i][k]:
                        raise ValueError(
                            f"structure constants are not antisymmetric at ({i},{j},{k})"
                        )
        # with antisymmetry the Jacobiator is totally antisymmetric and
        # vanishes on repeated indices, so the first failing ordered triple
        # is a sorted one
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(n):
                        total = ZERO
                        for m in range(n):
                            total += (
                                constants[i][j][m] * constants[m][k][l]
                                + constants[j][k][m] * constants[m][i][l]
                                + constants[k][i][m] * constants[m][j][l]
                            )
                        if total:
                            raise ValueError(
                                f"Jacobi identity fails on basis triple ({i},{j},{k})"
                            )
        self.dim = n
        self.constants = constants

    @classmethod
    def _trusted(cls, constants) -> "LieAlgebra":
        """Skip the shape, antisymmetry and Jacobi checks; for constants read
        off a jet that already passed them.  A PoissonJet checks the Jacobi
        identity through its order, which covers its linear part, and
        transport keeps it."""
        algebra = cls.__new__(cls)
        algebra.constants = _constant_table(constants)
        algebra.dim = len(algebra.constants)
        return algebra

    @classmethod
    def abelian(cls, n: int) -> "LieAlgebra":
        return cls([[[ZERO] * n for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_sparse(cls, dim: int, entries) -> "LieAlgebra":
        """Build from (i, j, k, value) items; the (j, i, k) mirror is implied.
        Listing both orientations of a pair is rejected as a duplicate."""
        table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for i, j, k, value in entries:
            c = Fraction(value)
            if i == j:
                if c:
                    raise ValueError(f"[e_{i}, e_{i}] must vanish")
                continue
            if (i, j, k) in seen or (j, i, k) in seen:
                raise ValueError(f"duplicate structure constant entry ({i},{j},{k})")
            seen.add((i, j, k))
            table[i][j][k] = c
            table[j][i][k] = -c
        return cls(table)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        out = zero_vector(self.dim)
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                row = self.constants[i][j]
                for k in range(self.dim):
                    if row[k]:
                        out[k] += ui * vj * row[k]
        return out

    def ad(self, u: Vector) -> Matrix:
        """Matrix of ad_u on basis coordinates: ad(u)[k][j] is the e_k
        component of [u, e_j]."""
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j in range(n):
                for k in range(n):
                    if self.constants[i][j][k]:
                        out[k][j] += ui * self.constants[i][j][k]
        return out

    def basis_vector(self, i: int) -> Vector:
        return [ONE if j == i else ZERO for j in range(self.dim)]

    def basis(self) -> list[Vector]:
        return [self.basis_vector(i) for i in range(self.dim)]

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.constants == other.constants

    def __repr__(self):
        return f"<LieAlgebra dim={self.dim}>"


def isotropy_from_linear_part(pi) -> LieAlgebra:
    """Lie algebra read off the degree-1 coefficients of a valid bivector."""
    return LieAlgebra._trusted(pi.linear_constants())


def killing_form(L: LieAlgebra) -> Matrix:
    ads = [L.ad(L.basis_vector(i)) for i in range(L.dim)]
    out = [[ZERO] * L.dim for _ in range(L.dim)]
    for a in range(L.dim):
        for b in range(a, L.dim):
            prod = mat_mul(ads[a], ads[b])
            tr = sum((prod[i][i] for i in range(L.dim)), ZERO)
            out[a][b] = tr
            out[b][a] = tr
    return out


def is_semisimple(L: LieAlgebra) -> bool:
    return det(killing_form(L)) != 0


def is_compact_type(L: LieAlgebra) -> bool:
    """Negative-definite Killing form: every direction of its exact
    signature is negative."""
    return symmetric_signature(killing_form(L))[1] == L.dim


def _span_basis(vectors: Matrix, dim: int) -> list[Vector]:
    """Deterministic (RREF) basis of the span of the given vectors."""
    nonzero = [v for v in vectors if any(v)]
    if not nonzero:
        return []
    return [list(row) for row in LinearSolver(nonzero, dim).rref_rows]


def derived_subalgebra(L: LieAlgebra) -> list[Vector]:
    products = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            products.append(list(L.constants[i][j]))
    return _span_basis(products, L.dim)


def radical(L: LieAlgebra) -> list[Vector]:
    """Basis of the Killing-orthogonal complement of [L, L], which is the
    maximal solvable ideal."""
    derived = derived_subalgebra(L)
    if not derived:
        return [L.basis_vector(i) for i in range(L.dim)]
    k = killing_form(L)
    rows = []
    for d in derived:
        rows.append([sum((k[i][t] * d[t] for t in range(L.dim)), ZERO) for i in range(L.dim)])
    return LinearSolver(rows, L.dim).kernel_basis()


def center(L: LieAlgebra) -> list[Vector]:
    rows = []
    for j in range(L.dim):
        for k in range(L.dim):
            rows.append([L.constants[i][j][k] for i in range(L.dim)])
    return LinearSolver(rows, L.dim).kernel_basis()


def _bracket_span(L: LieAlgebra, basis_a: Matrix, basis_b: Matrix) -> list[Vector]:
    products = [L.bracket(u, v) for u in basis_a for v in basis_b]
    return _span_basis(products, L.dim)


def is_abelian_span(L: LieAlgebra, basis: Matrix) -> bool:
    return not _bracket_span(L, basis, basis)


def derived_series(L: LieAlgebra, basis: Matrix) -> list[list[Vector]]:
    """Descending derived series of the span, starting from its RREF basis,
    ending with the last nonzero term."""
    current = _span_basis(basis, L.dim)
    series = [current]
    while current:
        nxt = _bracket_span(L, current, current)
        if len(nxt) == len(current):
            # stable: perfect subalgebra, series stops here
            break
        if not nxt:
            break
        series.append(nxt)
        current = nxt
    return series


def subalgebra_constants(L: LieAlgebra, basis: Matrix) -> list:
    """Structure constants induced on a bracket-closed subspace."""
    solver = row_space_solver(basis, L.dim)
    m = len(basis)
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            coords = solver.solve(L.bracket(basis[a], basis[b]))
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            table[a][b] = list(coords)
            table[b][a] = [-x for x in coords]
    return table


@dataclass
class _Quotient:
    algebra: LieAlgebra
    complement_indices: list[int]
    solver: LinearSolver  # columns: ideal basis then complement unit vectors
    ideal_dim: int
    ambient_dim: int

    def split_coordinates(self, vec: Vector) -> tuple[Vector, Vector]:
        coords = self.solver.solve(vec)
        if coords is None:
            raise SolverFailure("vector outside the algebra span")
        return coords[: self.ideal_dim], coords[self.ideal_dim:]

    def lift(self, qvec: Vector) -> Vector:
        out = zero_vector(self.ambient_dim)
        for a, idx in enumerate(self.complement_indices):
            out[idx] += qvec[a]
        return out


def _quotient_by_ideal(L: LieAlgebra, ideal: Matrix) -> _Quotient:
    comp = extend_to_basis(ideal, L.dim)
    columns = [list(v) for v in ideal] + [L.basis_vector(j) for j in comp]
    solver = row_space_solver(columns, L.dim)
    k = len(ideal)
    q = len(comp)
    table = [[[ZERO] * q for _ in range(q)] for _ in range(q)]
    for a in range(q):
        for b in range(a + 1, q):
            w = L.bracket(L.basis_vector(comp[a]), L.basis_vector(comp[b]))
            coords = solver.solve(w)
            if coords is None:
                raise SolverFailure("ideal plus complement does not span")
            table[a][b] = list(coords[k:])
            table[b][a] = [-x for x in coords[k:]]
    return _Quotient(LieAlgebra(table), comp, solver, k, L.dim)


# ---------------------------------------------------------------------------
# Levi decompositions


class LeviSplitError(ValueError):
    """A proposed Levi pair failed one of the four certification checks;
    `violation` names which one."""

    def __init__(self, violation: str, message: str):
        super().__init__(message)
        self.violation = violation


@dataclass
class LeviSplit:
    """Certified decomposition: s a semisimple subalgebra, r an invariant
    complement.  Construct through verify_levi_split or levi_lift."""

    algebra: LieAlgebra
    s_basis: tuple
    r_basis: tuple


def verify_levi_split(L: LieAlgebra, s_basis, r_basis) -> LeviSplit:
    """Check the four split invariants and return the certified pair."""
    s_basis = [[Fraction(x) for x in v] for v in s_basis]
    r_basis = [[Fraction(x) for x in v] for v in r_basis]
    n = L.dim
    if any(len(v) != n for v in s_basis + r_basis):
        raise LeviSplitError("NotDirectSum", "basis vector of wrong length")
    if len(s_basis) + len(r_basis) != n or rank(s_basis + r_basis, n) != n:
        raise LeviSplitError(
            "NotDirectSum", "s and r do not span the algebra as a direct sum"
        )
    try:
        s_constants = subalgebra_constants(L, s_basis)
    except ValueError as exc:
        raise LeviSplitError("SNotSubalgebra", str(exc)) from exc
    if det(killing_form(LieAlgebra(s_constants))) == 0:
        raise LeviSplitError("SNotSemisimple", "induced Killing form is degenerate")
    if r_basis:
        r_solver = row_space_solver(r_basis, n)
        for i in range(n):
            for v in r_basis:
                if r_solver.solve(L.bracket(L.basis_vector(i), v)) is None:
                    raise LeviSplitError(
                        "RNotInvariant", "[L, r] is not contained in r"
                    )
    return LeviSplit(
        L,
        tuple(tuple(v) for v in s_basis),
        tuple(tuple(v) for v in r_basis),
    )


def levi_lift(L: LieAlgebra) -> LeviSplit:
    """Compute a certified Levi pair: the radical plus a semisimple complement
    lifted through the derived series by solving 2-coboundary equations."""
    rad = radical(L)
    if len(rad) == L.dim:
        return verify_levi_split(L, [], rad)
    s_basis = _levi_complement(L, rad)
    return verify_levi_split(L, s_basis, rad)


def _levi_complement(L: LieAlgebra, rad: list[Vector]) -> list[Vector]:
    if not rad:
        return L.basis()
    series = derived_series(L, rad)
    if len(series) == 1:
        return _levi_abelian_radical(L, rad)
    last = series[-1]
    quot = _quotient_by_ideal(L, last)
    s_bar = _levi_complement(quot.algebra, radical(quot.algebra))
    h_basis = [quot.lift(v) for v in s_bar] + [list(v) for v in last]
    sub = LieAlgebra(subalgebra_constants(L, h_basis))
    inner = _levi_abelian_radical(sub, radical(sub))
    out = []
    for v in inner:
        combo = zero_vector(L.dim)
        for c, w in zip(v, h_basis):
            if c:
                for t in range(L.dim):
                    combo[t] += c * w[t]
        out.append(combo)
    return out


def _levi_abelian_radical(L: LieAlgebra, rad: list[Vector]) -> list[Vector]:
    """Levi complement when the radical is abelian: one 2-coboundary solve in
    the quotient acting on the radical."""
    from .cohomology import Cochain, GModule, ObstructionClass, solve_coboundary

    if not rad:
        return L.basis()
    if not is_abelian_span(L, rad):
        raise SolverFailure("radical passed to the abelian-case lift is not abelian")
    quot = _quotient_by_ideal(L, rad)
    q = quot.algebra.dim
    if q == 0:
        return []
    k = len(rad)
    rho = []
    for a in range(q):
        gen = L.basis_vector(quot.complement_indices[a])
        cols = []
        for v in rad:
            ideal_part, q_part = quot.split_coordinates(L.bracket(gen, v))
            if any(q_part):
                raise SolverFailure("radical is not an ideal")
            cols.append(ideal_part)
        rho.append([[cols[j][l] for j in range(k)] for l in range(k)])
    module = GModule(quot.algebra, rho)
    defect = {}
    for a in range(q):
        for b in range(a + 1, q):
            gen_a = L.basis_vector(quot.complement_indices[a])
            gen_b = L.basis_vector(quot.complement_indices[b])
            ideal_part, _ = quot.split_coordinates(L.bracket(gen_a, gen_b))
            defect[(a, b)] = ideal_part
    omega = Cochain.from_components(module, 2, defect)
    tau = solve_coboundary(omega)
    if isinstance(tau, ObstructionClass):
        raise SolverFailure("2-coboundary equation for the Levi lift is inconsistent")
    out = []
    for a in range(q):
        vec = list(L.basis_vector(quot.complement_indices[a]))
        correction = tau.component((a,))
        for l in range(k):
            if correction[l]:
                for t in range(L.dim):
                    vec[t] -= correction[l] * rad[l][t]
        out.append(vec)
    return out
