"""Chevalley-Eilenberg cochain complexes with exact coefficient modules.

A cochain of degree r assigns a module vector to every strictly increasing
r-tuple of basis indices; alternation is structural.  The differential is

    (dw)(X_0,..,X_r) = sum_a (-1)^a X_a . w(.., X_a omitted, ..)
                     + sum_{a<b} (-1)^{a+b} w([X_a,X_b], .., both omitted, ..)

realized as one exact sparse matrix per degree, `IntegerRows`: {column: int}
numerator rows over one denominator E, built once from the module's nonzero
action entries.  Modules, too, keep only the nonzero entries of their
operator matrices, as integer numerators over one module-wide denominator
(1 in any basis with integral structure constants).  From the module to the
rank no dense matrix and no rational entry is built; the rational matrices
are views at the edges (`GModule.matrices`, the rows `differential_matrix`
returns when read as rationals).

There is one complex class, `CochainComplex`: a module plus a slot rule
that keeps some module indices on each subset of generators.  It owns the
layout, the differential (written only by `_build_differential`), the
eliminated coboundary solvers and the ranks of every degree.  A `GModule`
is its own complex and keeps every index; a rule that keeps fewer cuts out
a subcomplex, such as the fiber-degree graded piece the algebroid engine
solves in, whose matrices come from the kept rows and columns alone.
Cohomology dimensions need only ranks.  rank d_r is one least-fill pass on
d_r^T with clearing: im d_{r-1} projects isomorphically onto some
coordinates P_{r-1} of C^r, the others span a complement that d_r kills,
so the rows in P_{r-1} are dropped, and the pivot columns left are P_r.
This holds only on a complex.  Primitive selection is the solver's
deterministic rule (lowest-index pivots, earliest row, free variables
zero), so outputs reproduce bit for bit.

The polynomial modules the engines solve in come from two builders,
`induced_polynomial_module` and `twisted_field_module`, each a
`functools.lru_cache` of 64 entries keyed by its own arguments: a
LieAlgebra hashes by its constants and a table by its ExactTable text, so
equal inputs built apart share one module, with its differentials, solvers
and ranks.  `poislin.clear_caches()` empties them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .linalg import (IntegerRows, LinearSolver, Vector, _integer_rows, _pivot_columns, dot,
                     exact_scalar, numerators, rationals)
from .liealg import ExactTable, LieAlgebra
from .polyalg import monomials, packed_basis

ZERO = Fraction(0)


class InputNotCocycle(ValueError):
    """solve_coboundary was handed a cochain that is not closed."""


class CochainComplex:
    """The Chevalley-Eilenberg complex of `module` in which a cochain of
    degree r keeps, on each increasing r-subset S of generators, the module
    indices `slots(S)`, in module order.  A subclass gives `module` and
    `slots`; the layout, the differential, the eliminated coboundary solver
    and the rank of each degree are built here once and cached."""

    __slots__ = ("_layouts", "_matrices", "_solvers", "_ranks")

    def __init__(self):
        self._layouts = {}
        self._matrices = {}
        self._solvers = {}
        self._ranks = {}

    def layout(self, r: int):
        """(subsets, offsets, total dimension) of C^r: subset S holds the
        flat coordinates offsets[S] .. offsets[S] + len(slots(S)) - 1."""
        cached = self._layouts.get(r)
        if cached is None:
            subsets = list(combinations(range(self.module.algebra.dim), r))
            offsets = {}
            total = 0
            for s in subsets:
                offsets[s] = total
                total += len(self.slots(s))
            cached = self._layouts[r] = (subsets, offsets, total)
        return cached

    def subsets(self, r: int) -> list[tuple[int, ...]]:
        return self.layout(r)[0]

    def cochain_dim(self, r: int) -> int:
        return self.layout(r)[2]

    def differential_matrix(self, r: int) -> IntegerRows:
        """Rows of d: C^r -> C^{r+1} on flat coordinates, each a
        {column: value} map of its nonzero entries when read as rationals,
        held as integer numerators over one denominator."""
        cached = self._matrices.get(r)
        if cached is None:
            cached = self._matrices[r] = _build_differential(self, r)
        return cached

    def coboundary_solver(self, r: int) -> LinearSolver:
        """Eliminated solver for d: C^{r-1} -> C^r (right-hand sides in C^r)."""
        cached = self._solvers.get(r)
        if cached is None:
            cached = LinearSolver(self.differential_matrix(r - 1), self.cochain_dim(r - 1))
            self._solvers[r] = cached
        return cached

    def differential_rank(self, r: int) -> int:
        """rank of d_r: C^r -> C^{r+1}, read off a coboundary solver already
        eliminated, or else computed once with clearing: the least-fill
        pass runs on d_r^T without the rows in P_{r-1} (cached, or the pivot
        rows of a solver of d_{r-1}), and its pivot columns are cached as
        P_r, whose size is the rank."""
        if self.cochain_dim(r) == 0 or self.cochain_dim(r + 1) == 0:
            return 0
        solver = self._solvers.get(r + 1)
        if solver is not None:
            return solver.rank
        pivots = self._ranks.get(r)
        if pivots is None:
            below = self._solvers.get(r)
            cleared = set(below.pivot_rows if below is not None else self._ranks.get(r - 1, ()))
            rows, ncols = _integer_rows(self.differential_matrix(r), self.cochain_dim(r))
            # a scale per row of d_r scales a column of d_r^T: same pivot columns
            transposed = [{} for _ in range(ncols)]
            for i, (ints, _) in enumerate(rows):
                for j, x in ints.items():
                    transposed[j][i] = x
            kept = [row for j, row in enumerate(transposed) if j not in cleared]
            pivots = self._ranks[r] = _pivot_columns(IntegerRows(kept, 1),
                                                     self.cochain_dim(r + 1))
        return len(pivots)


class GModule(CochainComplex):
    """Finite-dimensional module over a LieAlgebra, stored as the nonzero
    entries of one operator matrix per generator, as integer numerators over
    one positive denominator `den`: `_nonzero_rows[i][l]` lists the
    (column u, numerator x) pairs of row l in column order, and
    (X_i . v)_l = sum x v_u / den over them.  The constructor takes the
    dense rational matrices; `matrices` rebuilds them as a dense view on
    each call.  A module is its own cochain complex, keeping every index on
    every subset, so C^r is subset-major with module index minor."""

    __slots__ = ("algebra", "labels", "dim", "den", "_nonzero_rows", "_packed")

    def __init__(self, algebra: LieAlgebra, matrices, labels=None):
        if len(matrices) != algebra.dim:
            raise ValueError("need one matrix per algebra generator")
        dim = len(matrices[0]) if matrices else 0
        for mat in matrices:
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError("representation matrices must be square, equal size")
        mats = [[[exact_scalar(x) for x in row] for row in mat] for mat in matrices]
        den = lcm(*(x.denominator for mat in mats for row in mat for x in row))
        rows = [[[(u, x.numerator * (den // x.denominator)) for u, x in enumerate(row) if x]
                 for row in mat] for mat in mats]
        self._install(algebra, rows, den,
                      list(labels) if labels is not None else list(range(dim)))
        if len(self.labels) != dim:
            raise ValueError("need one label per module basis vector")
        self._check_representation()

    def _install(self, algebra, rows, den, labels):
        self.algebra = algebra
        self._nonzero_rows = rows
        self.den = den
        self.labels = labels
        self.dim = len(labels)
        self._packed = {}
        super().__init__()

    def packed_labels(self, order: int) -> tuple[list[int], dict[int, int]]:
        """`polyalg.packed_basis` of monomial labels at `order`, built once
        per order."""
        cached = self._packed.get(order)
        if cached is None:
            cached = self._packed[order] = packed_basis(self.labels, order)
        return cached

    def _check_representation(self) -> None:
        """[X_i, X_j] = sum_k c_ij^k X_k on every pair, row by row over the
        nonzero entries only, on integers: with N = den X and C the lcm of
        the pair's constant denominators, C [N_i, N_j] = den sum_k (C c_ij^k) N_k."""
        rows, den = self._nonzero_rows, self.den
        for i, j in combinations(range(self.algebra.dim), 2):
            plane = self.algebra.constants[i][j]
            scale = lcm(*(c.denominator for c in plane if c))
            terms = [(-den * c.numerator * (scale // c.denominator), rows[k])
                     for k, c in enumerate(plane) if c]
            for l in range(self.dim):
                acc = {}
                for sign, first, second in ((scale, rows[i], rows[j]),
                                            (-scale, rows[j], rows[i])):
                    for u, x in first[l]:
                        for w, y in second[u]:
                            acc[w] = acc.get(w, 0) + sign * x * y
                for c, mat in terms:
                    for u, x in mat[l]:
                        acc[u] = acc.get(u, 0) + c * x
                if any(acc.values()):
                    raise ValueError(
                        f"matrices violate the representation property on ({i},{j})"
                    )

    @classmethod
    def _trusted(cls, algebra, rows, den, labels) -> "GModule":
        """A module from its nonzero rows, in the form of `_nonzero_rows`:
        integer numerators over the positive denominator `den`, one row per
        label, skipping the representation-property check; for
        constructions that are homomorphisms by design (covered by property
        tests instead)."""
        module = cls.__new__(cls)
        module._install(algebra, rows, den, list(labels))
        return module

    @property
    def matrices(self) -> tuple:
        """The operator matrices as dense tuples of Fractions, built anew on
        each call; the module itself keeps only the nonzero numerators."""
        out = []
        for mat in self._nonzero_rows:
            dense = []
            for row in mat:
                line = [ZERO] * self.dim
                for u, x in row:
                    line[u] = Fraction(x, self.den)
                dense.append(tuple(line))
            out.append(tuple(dense))
        return tuple(out)

    @property
    def module(self) -> "GModule":
        return self

    def slots(self, subset) -> range:
        return range(self.dim)

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


def _build_differential(cx: CochainComplex, r: int) -> IntegerRows:
    """Rows of d: C^r -> C^{r+1} of a complex, the only place the
    differential is written.

    Each row is a {column: int} map of its nonzero entries over one
    denominator E, the lcm of the module's and the structure constants'
    denominators, built from the nonzero action entries and structure
    constants, so no zero entry is ever written or scanned.  Only the rows
    of kept slots are built and columns are numbered by kept source
    positions, so slots that cut out a subcomplex give its differential
    without building the rest.
    """
    module, slots = cx.module, cx.slots
    row_subsets, row_offsets, nrows = cx.layout(r + 1)
    col_subsets, col_offsets, _ = cx.layout(r)
    columns = {
        s: {u: col_offsets[s] + p for p, u in enumerate(slots(s))}
        for s in col_subsets
    }
    mat = [{} for _ in range(nrows)]
    constants = module.algebra.constants
    den = lcm(module.den, *(c.denominator for plane in constants for row in plane
                            for c in row if c))
    action = module._nonzero_rows
    if den != module.den:
        up = den // module.den
        action = [[[(u, x * up) for u, x in row] for row in op] for op in action]

    def add(out: dict, col: int, x: int) -> None:
        y = out.get(col)
        if y is None:
            out[col] = x
            return
        y += x
        if y:
            out[col] = y
        else:
            del out[col]

    for t_set in row_subsets:
        kept = slots(t_set)
        rows = mat[row_offsets[t_set]:row_offsets[t_set] + len(kept)]
        for a, ta in enumerate(t_set):
            cols = columns[t_set[:a] + t_set[a + 1:]]
            odd = a % 2
            for out, l in zip(rows, kept):
                for u, x in action[ta][l]:
                    col = cols.get(u)
                    if col is not None:
                        add(out, col, -x if odd else x)
        for a in range(len(t_set)):
            for b in range(a + 1, len(t_set)):
                rest = tuple(x for p, x in enumerate(t_set) if p not in (a, b))
                for k in range(module.algebra.dim):
                    c = constants[t_set[a]][t_set[b]][k]
                    if not c:
                        continue
                    ins_sign, subset = _insert_index(k, rest)
                    if ins_sign == 0:
                        continue
                    cols = columns[subset]
                    factor = c.numerator * (den // c.denominator)
                    if (-1) ** (a + b) * ins_sign < 0:
                        factor = -factor
                    for out, l in zip(rows, kept):
                        col = cols.get(l)
                        if col is not None:
                            add(out, col, factor)
    return IntegerRows(mat, den)


class Cochain:
    """Alternating form with module values, stored as one flat coefficient
    vector in subset-major order."""

    __slots__ = ("module", "degree", "vector")

    def __init__(self, module: GModule, degree: int, vector):
        if degree < 0:
            raise ValueError("cochain degree must be non-negative")
        vector = [x if type(x) is Fraction else exact_scalar(x) for x in vector]
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
                vec[base + l] = exact_scalar(x)
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
        c = exact_scalar(scalar)
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


def _combine(weights, rows) -> dict:
    """sum of w * rows[k] over the (k, w) pairs, as a {column: value} map;
    one pass over the nonzero entries of the rows it reads."""
    out = {}
    for k, w in weights:
        for j, x in rows[k].items():
            out[j] = out.get(j, ZERO) + w * x
    return out


def ce_differential(omega: Cochain) -> Cochain:
    vec = omega.vector
    rows = omega.module.differential_matrix(omega.degree)
    return Cochain(omega.module, omega.degree + 1,
                   [sum((x * vec[j] for j, x in row.items()), ZERO) for row in rows])


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
        rows = list(module.differential_matrix(r - 1))   # rational rows, read once
        lam = self.functional
        if len(lam) != len(rows):
            return False
        # lam . d must vanish on every column
        if any(_combine(((k, w) for k, w in enumerate(lam) if w), rows).values()):
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
    y, scale, violated = solver.solve_numerators(*numerators(target.vector))
    if violated is None:
        return Cochain(module, target.degree - 1, rationals(y, scale))
    return ObstructionClass(target, rationals(violated),
                            cohomology_dimension(module, target.degree))


def cohomology_dimension(cx: CochainComplex, r: int) -> int:
    """dim H^r = dim ker(d_r) - rank(d_{r-1}), by exact rank computation on
    the ranks the complex caches, so H^r and H^{r+1} share the rank of d_r
    and its coordinates P_r.  rank d_{r-1} is asked for first, so that its
    P_{r-1} clears the elimination of d_r."""
    if r < 0:
        raise ValueError("negative cohomology degree")
    image_dim = cx.differential_rank(r - 1) if r >= 1 else 0
    return cx.cochain_dim(r) - cx.differential_rank(r) - image_dim


def squares_to_zero(cx: CochainComplex, r: int) -> bool:
    """d_r . d_{r-1} = 0, composed over the nonzero entries of the rows the
    complex has built."""
    if r < 1:
        return True
    lower = list(cx.differential_matrix(r - 1))   # rational rows, read once
    return not any(any(_combine(row.items(), lower).values())
                   for row in cx.differential_matrix(r))


# ---------------------------------------------------------------------------
# polynomial modules, cached by their arguments


def induced_polynomial_module(L: LieAlgebra, nvars: int, rep, degree: int,
                              fiber=None) -> GModule:
    """Module of homogeneous degree-d polynomials in `nvars` variables under
    the derivation extension of a linear action.

    `rep` gives operator matrices on the coordinate functions:
    X_i . x^u = sum_l rep[i][l][u] x^l.  With `fiber=(f, w)` the basis is
    cut to the monomials of fiber degree w, their degree in the variables
    from x^f on; the cut must be closed under every generator or ValueError
    is raised.  Modules are cached by these arguments, at most 64, the least
    recently used evicted first; a caller that queries many degrees passes
    `rep` as an ExactTable, hashed once.  The cached uncut degree-1 module
    is the validated copy of `rep`: the representation property at degree 1
    gives it for every extension, so other degrees only look that module up.
    """
    if not isinstance(rep, ExactTable):
        rep = ExactTable(rep)
    return _induced_module(L, nvars, rep, degree, fiber)


@lru_cache(maxsize=64)
def _induced_module(L, nvars, rep, degree, fiber) -> GModule:
    if len(rep) != L.dim:
        raise ValueError("need one linear action matrix per generator")
    for mat in rep:
        if len(mat) != nvars or any(len(row) != nvars for row in mat):
            raise ValueError("linear action matrices must be nvars x nvars")
    validate = degree == 1 and fiber is None
    if not validate:
        _induced_module(L, nvars, rep, 1, None)
    basis = monomials(nvars, degree)
    if fiber is not None:
        first, weight = fiber
        basis = [m for m in basis if sum(m[first:]) == weight]
    index = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    den = lcm(*(c.denominator for mat in rep for row in mat for c in row if c))
    nonzeros = []
    for i in range(L.dim):
        rows = [[] for _ in range(d)]
        # X_i . x^k = sum_l (c / den) x^l over the nonzero numerators c only
        moves = [[(l, row[k].numerator * (den // row[k].denominator))
                  for l, row in enumerate(rep[i]) if row[k]]
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
                        raise ValueError("the fiber cut is not a submodule")
                    column[row] = column.get(row, 0) + e * c
            for row, x in column.items():
                if x:
                    rows[row].append((col, x))
        nonzeros.append(rows)
    module = GModule._trusted(L, nonzeros, den, basis)
    if validate:
        module._check_representation()
    return module


@lru_cache(maxsize=64)
def twisted_field_module(base: GModule, twists: ExactTable) -> GModule:
    """Module of tuples over `base` twisted by matrices T_i:
    (X_i . u)^a = base action on u^a minus sum_b T_i[a][b] u^b, cached by
    its arguments like the induced modules.

    Its numerators share one denominator, the lcm of the base's and the
    twists' denominators.  The rep property follows from
    T_j T_i - T_i T_j = sum_l c_ij^l T_l, which holds for linear parts of an
    action and for the r-block constants of a certified Levi split."""
    d = base.dim
    copies = len(twists[0]) if twists else 0
    den = lcm(base.den, *(t.denominator for tw in twists for row in tw for t in row if t))
    up = den // base.den
    rows = []
    for vrows, tw in zip(base._nonzero_rows, twists):
        mat = []
        for a in range(copies):
            moves = [(b * d, -t.numerator * (den // t.denominator))
                     for b, t in enumerate(tw[a]) if t]
            for l in range(d):
                entries = {a * d + u: x * up for u, x in vrows[l]}
                for shift, t in moves:
                    y = entries.get(shift + l, 0) + t
                    if y:
                        entries[shift + l] = y
                    else:
                        del entries[shift + l]
                mat.append(sorted(entries.items()))
        rows.append(mat)
    labels = [(a, mono) for a in range(copies) for mono in base.labels]
    return GModule._trusted(base.algebra, rows, den, labels)


def coadjoint_rep(L: LieAlgebra):
    """Linear action matrices read off a linear bivector's bracket on the
    coordinate functions: X_i . x^j has coefficient c[i][j][k] on x^k."""
    n = L.dim
    return [
        [[L.constants[i][j][k] for j in range(n)] for k in range(n)]
        for i in range(n)
    ]


def linear_field_rep(matrices):
    """Operator matrices a linear action x -> A_i x induces on the
    coordinate functions: X_i . x^u = (A_i x)^u, the transpose of A_i in
    the layout `induced_polynomial_module` reads."""
    return [[list(col) for col in zip(*mat)] for mat in matrices]
