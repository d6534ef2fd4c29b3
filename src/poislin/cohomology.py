"""Chevalley-Eilenberg cochain complexes with exact coefficient modules.

A cochain of degree r assigns a module vector to every strictly increasing
r-tuple of basis indices; alternation is structural.  The differential is

    (dw)(X_0,..,X_r) = sum_a (-1)^a X_a . w(.., X_a omitted, ..)
                     + sum_{a<b} (-1)^{a+b} w([X_a,X_b], .., both omitted, ..)

realized as one exact matrix per (module, degree), built once and cached on
the module together with the eliminated solver.  Primitive selection is the
deterministic rule from `linalg` (lowest-index pivots, free variables zero),
so outputs reproduce bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import LinearSolver, Matrix, Vector, dot, mat_mul, mat_vec
from .liealg import LieAlgebra
from .polyalg import monomials

ZERO = Fraction(0)
ONE = Fraction(1)


class InputNotCocycle(ValueError):
    """solve_coboundary was handed a cochain that is not closed."""


class GModule:
    """Finite-dimensional module over a LieAlgebra, given by one operator
    matrix per generator: (X_i . v)_l = sum_u matrices[i][l][u] v_u."""

    __slots__ = ("algebra", "matrices", "labels", "dim", "_subset_cache",
                 "_matrix_cache", "_solver_cache")

    def __init__(self, algebra: LieAlgebra, matrices, labels=None):
        self._install(algebra, matrices, labels)
        n = algebra.dim
        for i in range(n):
            for j in range(i + 1, n):
                lhs = [
                    [
                        sum(
                            (algebra.constants[i][j][k] * self.matrices[k][l][u]
                             for k in range(n)),
                            ZERO,
                        )
                        for u in range(self.dim)
                    ]
                    for l in range(self.dim)
                ]
                ij = mat_mul(self.matrices[i], self.matrices[j])
                ji = mat_mul(self.matrices[j], self.matrices[i])
                comm = [
                    [ij[l][u] - ji[l][u] for u in range(self.dim)]
                    for l in range(self.dim)
                ]
                if lhs != comm:
                    raise ValueError(
                        f"matrices violate the representation property on ({i},{j})"
                    )

    def _install(self, algebra, matrices, labels):
        matrices = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in mat) for mat in matrices
        )
        if len(matrices) != algebra.dim:
            raise ValueError("need one matrix per algebra generator")
        dim = len(matrices[0]) if matrices else 0
        for mat in matrices:
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError("representation matrices must be square, equal size")
        self.algebra = algebra
        self.matrices = matrices
        self.dim = dim
        self.labels = list(labels) if labels is not None else list(range(dim))
        if len(self.labels) != dim:
            raise ValueError("need one label per module basis vector")
        self._subset_cache = {}
        self._matrix_cache = {}
        self._solver_cache = {}

    @classmethod
    def _trusted(cls, algebra, matrices, labels=None) -> "GModule":
        """Skip the representation-property check; for constructions that are
        homomorphisms by design (covered by property tests instead)."""
        module = cls.__new__(cls)
        module._install(algebra, matrices, labels)
        return module

    def subsets(self, r: int) -> list[tuple[int, ...]]:
        cached = self._subset_cache.get(r)
        if cached is None:
            cached = list(combinations(range(self.algebra.dim), r))
            self._subset_cache[r] = cached
        return cached

    def cochain_dim(self, r: int) -> int:
        return len(self.subsets(r)) * self.dim

    def differential_matrix(self, r: int) -> Matrix:
        """Matrix of d: C^r -> C^{r+1} on flat coordinates (subset-major,
        module index minor)."""
        cached = self._matrix_cache.get(r)
        if cached is None:
            cached = _build_differential(self, r)
            self._matrix_cache[r] = cached
        return cached

    def coboundary_solver(self, r: int) -> LinearSolver:
        """Eliminated solver for d: C^{r-1} -> C^r (right-hand sides in C^r)."""
        cached = self._solver_cache.get(r)
        if cached is None:
            cached = LinearSolver(self.differential_matrix(r - 1), self.cochain_dim(r - 1))
            self._solver_cache[r] = cached
        return cached

    def __repr__(self):
        return f"<GModule dim={self.dim} over algebra dim={self.algebra.dim}>"


def _insert_index(k: int, rest: tuple[int, ...]):
    """Sign and sorted tuple for prepending index k to a sorted tuple; sign 0
    when k already occurs (alternation kills the term)."""
    if k in rest:
        return 0, rest
    before = sum(1 for x in rest if x < k)
    merged = tuple(sorted(rest + (k,)))
    return (-1) ** before, merged


def _build_differential(module: GModule, r: int) -> Matrix:
    n = module.algebra.dim
    d = module.dim
    rows_subsets = module.subsets(r + 1)
    cols_subsets = module.subsets(r)
    col_index = {s: i for i, s in enumerate(cols_subsets)}
    nrows = len(rows_subsets) * d
    ncols = len(cols_subsets) * d
    mat = [[ZERO] * ncols for _ in range(nrows)]
    constants = module.algebra.constants
    for t_pos, t_set in enumerate(rows_subsets):
        row_base = t_pos * d
        for a, ta in enumerate(t_set):
            rest = t_set[:a] + t_set[a + 1:]
            col_base = col_index[rest] * d
            sign = -ONE if a % 2 else ONE
            action = module.matrices[ta]
            for l in range(d):
                arow = action[l]
                out = mat[row_base + l]
                for u in range(d):
                    if arow[u]:
                        out[col_base + u] += sign * arow[u]
        for a in range(len(t_set)):
            for b in range(a + 1, len(t_set)):
                rest = tuple(x for p, x in enumerate(t_set) if p not in (a, b))
                pair_sign = -ONE if (a + b) % 2 else ONE
                for k in range(n):
                    c = constants[t_set[a]][t_set[b]][k]
                    if not c:
                        continue
                    ins_sign, subset = _insert_index(k, rest)
                    if ins_sign == 0:
                        continue
                    col_base = col_index[subset] * d
                    factor = pair_sign * ins_sign * c
                    for l in range(d):
                        mat[row_base + l][col_base + l] += factor
    return mat


class Cochain:
    """Alternating form with module values, stored as one flat coefficient
    vector in subset-major order."""

    __slots__ = ("module", "degree", "vector")

    def __init__(self, module: GModule, degree: int, vector):
        if degree < 0:
            raise ValueError("cochain degree must be non-negative")
        vector = [Fraction(x) for x in vector]
        if len(vector) != module.cochain_dim(degree):
            raise ValueError(
                f"flat vector length {len(vector)} does not match C^{degree}"
            )
        self.module = module
        self.degree = degree
        self.vector = vector

    @classmethod
    def zero(cls, module: GModule, degree: int) -> "Cochain":
        return cls(module, degree, [ZERO] * module.cochain_dim(degree))

    @classmethod
    def from_components(cls, module: GModule, degree: int, components: dict) -> "Cochain":
        """Build from {increasing index tuple: module vector}; omitted subsets
        are zero."""
        index = {s: i for i, s in enumerate(module.subsets(degree))}
        vec = [ZERO] * module.cochain_dim(degree)
        d = module.dim
        for subset, block in components.items():
            subset = tuple(subset)
            if subset not in index:
                raise ValueError(f"{subset} is not an increasing index tuple")
            if len(block) != d:
                raise ValueError("component block has wrong module dimension")
            base = index[subset] * d
            for l, x in enumerate(block):
                vec[base + l] = Fraction(x)
        return cls(module, degree, vec)

    def component(self, subset) -> Vector:
        subset = tuple(subset)
        subsets = self.module.subsets(self.degree)
        try:
            pos = subsets.index(subset)
        except ValueError:
            raise ValueError(f"{subset} is not an increasing index tuple") from None
        d = self.module.dim
        return self.vector[pos * d:(pos + 1) * d]

    def components(self) -> dict:
        d = self.module.dim
        out = {}
        for pos, subset in enumerate(self.module.subsets(self.degree)):
            block = self.vector[pos * d:(pos + 1) * d]
            if any(block):
                out[subset] = block
        return out

    def is_zero(self) -> bool:
        return not any(self.vector)

    def __add__(self, other):
        self._check(other)
        return Cochain(self.module, self.degree,
                       [a + b for a, b in zip(self.vector, other.vector)])

    def __sub__(self, other):
        self._check(other)
        return Cochain(self.module, self.degree,
                       [a - b for a, b in zip(self.vector, other.vector)])

    def __neg__(self):
        return Cochain(self.module, self.degree, [-a for a in self.vector])

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return Cochain(self.module, self.degree, [a * c for a in self.vector])

    __rmul__ = __mul__

    def _check(self, other):
        if self.module is not other.module or self.degree != other.degree:
            raise ValueError("cochains live in different spaces")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.module is other.module and self.degree == other.degree
                and self.vector == other.vector)

    def __repr__(self):
        return f"<Cochain degree={self.degree} on {self.module!r}>"


def ce_differential(omega: Cochain) -> Cochain:
    mat = omega.module.differential_matrix(omega.degree)
    return Cochain(omega.module, omega.degree + 1, mat_vec(mat, omega.vector))


def is_cocycle(omega: Cochain) -> bool:
    return ce_differential(omega).is_zero()


@dataclass
class ObstructionClass:
    """Certificate that a cocycle has no primitive: a functional annihilating
    every coboundary but not the cocycle, plus the cohomology dimension."""

    cocycle: Cochain
    functional: Vector
    h_dim: int

    def verify(self) -> bool:
        module = self.cocycle.module
        r = self.cocycle.degree
        mat = module.differential_matrix(r - 1)
        lam = self.functional
        for col in range(module.cochain_dim(r - 1)):
            if sum((lam[row] * mat[row][col] for row in range(len(mat))), ZERO):
                return False
        return dot(lam, self.cocycle.vector) != 0


def solve_coboundary(target: Cochain):
    """Primitive of a closed cochain under the deterministic pivot rule, or a
    verified ObstructionClass when none exists."""
    if target.degree < 1:
        raise ValueError("a degree-0 cochain has no primitive space")
    if not is_cocycle(target):
        raise InputNotCocycle("right-hand side is not closed")
    module = target.module
    solver = module.coboundary_solver(target.degree)
    x = solver.solve(target.vector)
    if x is not None:
        return Cochain(module, target.degree - 1, x)
    lam = solver.null_functional(target.vector)
    return ObstructionClass(target, lam, cohomology_dimension(module, target.degree))


def cohomology_dimension(module, r: int) -> int:
    """dim H^r = dim ker(d_r) - rank(d_{r-1}), by exact rank computation.

    Works on any complex with `cochain_dim` and `coboundary_solver`; the
    ranks come from the complex's cached coboundary solvers, so H^r and
    H^{r+1} share the elimination of d_r.
    """
    if r < 0:
        raise ValueError("negative cohomology degree")
    kernel_dim = module.cochain_dim(r) - _differential_rank(module, r)
    image_dim = _differential_rank(module, r - 1) if r >= 1 else 0
    return kernel_dim - image_dim


def _differential_rank(module, r: int) -> int:
    if module.cochain_dim(r) == 0 or module.cochain_dim(r + 1) == 0:
        return 0
    return module.coboundary_solver(r + 1).rank


# ---------------------------------------------------------------------------
# induced polynomial modules


class LRUCache:
    """Map of at most CAPACITY entries that evicts the least recently used.

    Holds the modules and complexes a long-lived process builds, each with
    its differentials and eliminated solvers.  A batch normalizing jets of a
    few linear parts touches a few dozen of them.
    """

    CAPACITY = 64

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.CAPACITY:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


_INDUCED_CACHE = LRUCache()


def induced_polynomial_module(
    L: LieAlgebra,
    nvars: int,
    rep,
    degree: int,
    monomial_filter=None,
    filter_key=None,
) -> GModule:
    """Module of homogeneous degree-d polynomials in `nvars` variables under
    the derivation extension of a linear action.

    `rep` gives operator matrices on the coordinate functions:
    X_i . x^u = sum_l rep[i][l][u] x^l.  With a `monomial_filter` the basis is
    restricted to the monomials accepted; the restriction must be closed under
    every generator or ValueError is raised.  Results are cached per structural
    key (pass `filter_key` to make filtered modules cacheable).
    """
    rep = tuple(tuple(tuple(Fraction(x) for x in row) for row in mat) for mat in rep)
    cache_key = None
    if monomial_filter is None or filter_key is not None:
        cache_key = (L.constants, nvars, rep, degree,
                     filter_key if monomial_filter is not None else None)
        hit = _INDUCED_CACHE.get(cache_key)
        if hit is not None:
            return hit
    if len(rep) != L.dim:
        raise ValueError("need one linear action matrix per generator")
    for mat in rep:
        if len(mat) != nvars or any(len(row) != nvars for row in mat):
            raise ValueError("linear action matrices must be nvars x nvars")
    # representation property at degree 1 guarantees it for every extension
    GModule(L, rep)
    basis = [m for m in monomials(nvars, degree) if monomial_filter is None or monomial_filter(m)]
    index = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    mats = []
    for i in range(L.dim):
        mat = [[ZERO] * d for _ in range(d)]
        rmat = rep[i]
        for col, mono in enumerate(basis):
            for k, e in enumerate(mono):
                if not e:
                    continue
                for l in range(nvars):
                    c = rmat[l][k]
                    if not c:
                        continue
                    target = list(mono)
                    target[k] -= 1
                    target[l] += 1
                    target = tuple(target)
                    row = index.get(target)
                    if row is None:
                        raise ValueError(
                            "monomial filter does not cut out a submodule"
                        )
                    mat[row][col] += e * c
        mats.append(mat)
    module = GModule._trusted(L, mats, labels=basis)
    if cache_key is not None:
        _INDUCED_CACHE[cache_key] = module
    return module


def coadjoint_rep(L: LieAlgebra):
    """Linear action matrices read off a linear bivector's bracket on the
    coordinate functions: X_i . x^j has coefficient c[i][j][k] on x^k."""
    n = L.dim
    return [
        [[L.constants[i][j][k] for j in range(n)] for k in range(n)]
        for i in range(n)
    ]
