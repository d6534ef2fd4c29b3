"""Chevalley-Eilenberg cochain complexes with exact coefficient modules.

A cochain of degree r assigns a module vector to every strictly increasing
r-tuple of basis indices; alternation is structural.  The differential is

    (dw)(X_0,..,X_r) = sum_a (-1)^a X_a . w(.., X_a omitted, ..)
                     + sum_{a<b} (-1)^{a+b} w([X_a,X_b], .., both omitted, ..)

realized as one exact matrix per (module, degree), built once and cached on
the module together with the eliminated solver.  `_build_differential` is the
only code that writes it; a slot rule that keeps some module indices on each
subset gives the matrices of a subcomplex, such as the fiber-degree graded
piece the algebroid engine solves in.  Primitive selection is the
deterministic rule from `linalg` (lowest-index pivots, free variables zero),
so outputs reproduce bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import LinearSolver, Matrix, Vector, dot, mat_vec
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
                 "_matrix_cache", "_solver_cache", "_nonzeros")

    def __init__(self, algebra: LieAlgebra, matrices, labels=None):
        matrices = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in mat) for mat in matrices
        )
        self._install(algebra, matrices, labels)
        self._check_representation()

    def _install(self, algebra, matrices, labels):
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
        self._nonzeros = None

    def _check_representation(self) -> None:
        """[X_i, X_j] = sum_k c_ij^k X_k on every pair, row by row over the
        nonzero entries only."""
        rows = self._nonzero_rows()
        for i, j in combinations(range(self.algebra.dim), 2):
            terms = [(-c, rows[k]) for k, c in enumerate(self.algebra.constants[i][j]) if c]
            for l in range(self.dim):
                acc = {}
                for sign, first, second in ((ONE, rows[i], rows[j]), (-ONE, rows[j], rows[i])):
                    for u, x in first[l]:
                        for w, y in second[u]:
                            acc[w] = acc.get(w, ZERO) + sign * x * y
                for c, mat in terms:
                    for u, x in mat[l]:
                        acc[u] = acc.get(u, ZERO) + c * x
                if any(acc.values()):
                    raise ValueError(
                        f"matrices violate the representation property on ({i},{j})"
                    )

    @classmethod
    def _trusted(cls, algebra, matrices, labels=None, nonzeros=None) -> "GModule":
        """Keep the matrices as given and skip the representation-property
        check; for constructions that are homomorphisms by design, with
        Fraction entries already (covered by property tests instead).  A
        builder that knows its nonzero entries may pass them as `nonzeros`,
        in the form `_nonzero_rows` returns."""
        module = cls.__new__(cls)
        module._install(algebra, matrices, labels)
        module._nonzeros = nonzeros
        return module

    def _nonzero_rows(self) -> list:
        """Per generator and row, the (column, entry) pairs with a nonzero
        entry, built once."""
        if self._nonzeros is None:
            self._nonzeros = [
                [[(u, x) for u, x in enumerate(row) if x] for row in mat]
                for mat in self.matrices
            ]
        return self._nonzeros

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


def _cochain_layout(module: GModule, r: int, slots):
    """(subsets, offsets, total dimension) of C^r when each subset S keeps
    only the module indices slots(S)."""
    subsets = module.subsets(r)
    offsets = {}
    total = 0
    for s in subsets:
        offsets[s] = total
        total += len(slots(s))
    return subsets, offsets, total


def _build_differential(module: GModule, r: int, slots=None) -> Matrix:
    """Matrix of d: C^r -> C^{r+1}, the only place the differential is written.

    `slots(S)` lists, in module order, the module indices kept on subset S;
    the default keeps them all.  Only kept rows are built and columns are
    numbered by kept source positions, so slots that cut out a subcomplex
    give its differential without building the rest.
    """
    if slots is None:
        every = range(module.dim)
        slots = lambda subset: every
    row_subsets, row_offsets, nrows = _cochain_layout(module, r + 1, slots)
    col_subsets, col_offsets, ncols = _cochain_layout(module, r, slots)
    columns = {
        s: {u: col_offsets[s] + p for p, u in enumerate(slots(s))}
        for s in col_subsets
    }
    mat = [[ZERO] * ncols for _ in range(nrows)]
    constants = module.algebra.constants
    action = module._nonzero_rows()
    for t_set in row_subsets:
        kept = slots(t_set)
        rows = mat[row_offsets[t_set]:row_offsets[t_set] + len(kept)]
        for a, ta in enumerate(t_set):
            cols = columns[t_set[:a] + t_set[a + 1:]]
            sign = -ONE if a % 2 else ONE
            for out, l in zip(rows, kept):
                for u, x in action[ta][l]:
                    col = cols.get(u)
                    if col is not None:
                        out[col] += sign * x
        for a in range(len(t_set)):
            for b in range(a + 1, len(t_set)):
                rest = tuple(x for p, x in enumerate(t_set) if p not in (a, b))
                pair_sign = -ONE if (a + b) % 2 else ONE
                for k in range(module.algebra.dim):
                    c = constants[t_set[a]][t_set[b]][k]
                    if not c:
                        continue
                    ins_sign, subset = _insert_index(k, rest)
                    if ins_sign == 0:
                        continue
                    cols = columns[subset]
                    factor = pair_sign * ins_sign * c
                    for out, l in zip(rows, kept):
                        col = cols.get(l)
                        if col is not None:
                            out[col] += factor
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
    key (pass `filter_key` to make filtered modules cacheable).  The cached
    unfiltered degree-1 module is the validated copy of `rep`: the
    representation property at degree 1 gives it for every extension, so
    other degrees only look that module up.
    """
    rep = tuple(tuple(tuple(Fraction(x) for x in row) for row in mat) for mat in rep)
    return _induced_module(L, nvars, rep, degree, monomial_filter, filter_key)


def _induced_module(L, nvars, rep, degree, monomial_filter, filter_key) -> GModule:
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
    validate = degree == 1 and monomial_filter is None
    if not validate:
        _induced_module(L, nvars, rep, 1, None, None)
    basis = [m for m in monomials(nvars, degree) if monomial_filter is None or monomial_filter(m)]
    index = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    mats = []
    nonzeros = []
    for i in range(L.dim):
        mat = [[ZERO] * d for _ in range(d)]
        rows = [[] for _ in range(d)]
        # X_i . x^k = sum_l c x^l over the nonzero c only
        moves = [[(l, row[k]) for l, row in enumerate(rep[i]) if row[k]]
                 for k in range(nvars)]
        for col, mono in enumerate(basis):
            column = {}
            for k, e in enumerate(mono):
                if not e:
                    continue
                for l, c in moves[k]:
                    target = list(mono)
                    target[k] -= 1
                    target[l] += 1
                    row = index.get(tuple(target))
                    if row is None:
                        raise ValueError(
                            "monomial filter does not cut out a submodule"
                        )
                    column[row] = column.get(row, ZERO) + e * c
            for row, x in column.items():
                if x:
                    mat[row][col] = x
                    rows[row].append((col, x))
        mats.append(mat)
        nonzeros.append(rows)
    module = GModule._trusted(L, mats, labels=basis, nonzeros=nonzeros)
    if validate:
        module._check_representation()
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
