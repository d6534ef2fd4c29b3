"""Exact rational linear algebra shared by the structure and cohomology solvers.

Everything here is deterministic: elimination picks the lowest-index pivot
column first and, within a column, the sparsest remaining row (Markowitz's
row rule, which limits fill) or, for certificates, the earliest one.  Either
row rule gives the same pivot columns.  Solutions set all free variables to
zero, so repeated runs are bit-for-bit identical.

A matrix comes as dense rows, as {column: value} rows of its nonzero
entries, or as `IntegerRows`: {column: int} numerator rows over one
denominator.  The coboundary matrices of the cohomology solvers are built in
the last form, a few percent nonzero and split into many small blocks; they
are eliminated as they are, with no rational entry built and no zero cell
scanned.  Rational rows are scaled to integers once, row by row, on the way
in.  The one elimination, `_eliminate`, is an integer forward pass that
never touches a row above its pivot, so it never leaves a block.  `rank`
runs it on M with the least-fill row rule, and `LinearSolver` on [M | I]
with the same rule; its first `rank` positions hold independent rows of M,
kept as `pivot_rows`: coordinates onto which the column span of M projects
isomorphically.  A consistent right-hand side has the same solution under
either rule, and any left-null basis decides consistency; the null row an
inconsistent one violates (the obstruction certificate), its partial
solution and the null and transform rows depend on the row order and are
read off the same pass under the positional rule, run once on first need.

A right-hand side is solved on integers too: `solve_numerators` takes b as
numerators over one denominator and, in one pass over its nonzeros, applies
L and pairs b with the left-null rows; back substitution through the
echelon rows gives the solution as integers over one scale, returned with
the first null row b violates.  The rational `solve`, `solve_partial`,
`null_functional` and `is_consistent` and the RREF, transform and kernel
views are read off the same integers, with `numerators` and `rationals`
converting at that edge.  There is no determinant: invertibility and
nondegeneracy are read as `rank(M, n) == n`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def exact_scalar(value) -> Fraction:
    """An outside scalar as a Fraction; a binary float is refused, since its
    exact value is rarely the number that was meant."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return Fraction(value)


def zero_vector(n: int) -> Vector:
    return [ZERO] * n


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def mat_vec(mat: Matrix, v: Vector) -> Vector:
    return [dot(row, v) for row in mat]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def identity_matrix(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def numerators(b: Vector) -> tuple[list[int], int]:
    """b, each entry read by `exact_scalar`, as integer numerators over the
    lcm of its denominators."""
    b = [exact_scalar(x) for x in b]
    den = lcm(*(x.denominator for x in b if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in b], den


def rationals(nums: list[int], den: int = 1) -> Vector:
    """The rational vector nums / den."""
    return [Fraction(x, den) if x else ZERO for x in nums]


class IntegerRows(Sequence):
    """A sparse matrix as {column: int} numerator rows over one positive
    denominator: row i reads as {j: x / den for j, x in numerators[i]}.

    Indexing and iteration give that rational view, which is the numerator
    dict itself when den is 1; `rank` and `LinearSolver` eliminate copies of
    the numerators with no rational entry built.  Keys must lie in the
    column range the eliminating caller is given; they are not checked."""

    __slots__ = ("numerators", "den")

    def __init__(self, numerators: list[dict], den: int):
        self.numerators = numerators
        self.den = den

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i) -> dict:
        row = self.numerators[i]
        if self.den == 1:
            return row
        return {j: Fraction(x, self.den) for j, x in row.items()}


def _integer_rows(rows, ncols: int | None) -> tuple[list[tuple[dict, int]], int]:
    """The rows as (numerators, denominator) pairs, each row's nonzero
    entries as a new {column: int} dict the caller may change, over the lcm
    of their denominators (over `den` for IntegerRows, copied as they are);
    and the column count.  A row is a dense sequence of ncols entries or a
    {column: value} map; ncols may be left out only for dense rows."""
    if ncols is None:
        if rows and isinstance(rows[0], dict):
            raise ValueError("ncols is required for dict rows")
        ncols = len(rows[0]) if rows else 0
    if isinstance(rows, IntegerRows):
        return [(dict(row), rows.den) for row in rows.numerators], ncols
    out = []
    for row in rows:
        if isinstance(row, dict):
            if row and (min(row) < 0 or max(row) >= ncols):
                raise ValueError("column index out of range")
            items = row.items()
        else:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            items = enumerate(row)
        entries = {j: x if type(x) is Fraction else exact_scalar(x) for j, x in items if x}
        scale = lcm(*(x.denominator for x in entries.values()))
        out.append(({j: x.numerator if scale == 1 else x.numerator * (scale // x.denominator)
                     for j, x in entries.items()}, scale))
    return out, ncols


def _eliminate(work: list[dict], ncols: int, sparsest: bool = False
               ) -> tuple[list[int], list[int]]:
    """Integer forward elimination of the {column: int} rows `work` in place;
    returns (position -> row, pivot columns).

    The pivot column is the lowest one with a nonzero entry at or below the
    next pivot position.  In it the positional rule takes the row at the
    lowest position; with `sparsest` the row with the fewest current
    entries, ties to the lowest position (Markowitz's row rule, which
    limits fill).  The row is swapped into place.  Each later row with an
    entry in the pivot column becomes row*p - prow*q over all its entries,
    keys at or past ncols included, and is divided by the gcd of its
    entries.  A placed pivot row is never touched again, so under either
    rule a column gets a pivot exactly when it lies outside the span of the
    columns before it: the pivot columns are the first maximal independent
    set of columns.  Either way the rows placed at the first rank positions
    are independent rows of the input, each one itself plus rows placed
    before it.  Under the positional rule the rows below the rank are also
    the ones a Gauss-Jordan pass would leave.
    """
    n = len(work)
    by_col: list[set] = [set() for _ in range(ncols)]
    for i, row in enumerate(work):
        for j in row:
            if j < ncols:
                by_col[j].add(i)
    order = list(range(n))      # position -> row
    where = list(range(n))      # row -> position
    choice = (lambda r: len(work[r]) * n + where[r]) if sparsest else where.__getitem__
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == n:
            break
        live = by_col[col]
        remaining = [r for r in live if where[r] >= pivot_row]
        if not remaining:
            continue
        rid = min(remaining, key=choice)
        found, other = where[rid], order[pivot_row]
        order[pivot_row], order[found] = rid, other
        where[rid], where[other] = pivot_row, found
        prow = work[rid]
        p = prow[col]
        for r in remaining:
            if r == rid:
                continue
            row = work[r]
            q = row[col]
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -x * q
                    if j < ncols:
                        by_col[j].add(r)
                    continue
                y -= x * q
                if y:
                    row[j] = y
                else:
                    del row[j]
                    if j < ncols:
                        by_col[j].discard(r)
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        pivots.append(col)
        pivot_row += 1
    return order, pivots


class LinearSolver:
    """Forward elimination of a matrix, reusable for many right-hand sides.

    `_eliminate` runs once on [M | I] under the least-fill row rule, scaled
    to integer rows whose identity tail sits at keys ncols + i.  Of the
    echelon rows [U | L] it leaves (U = L*M) the solver keeps, per pivot,
    the value and the other entries of U, and per row of M its columns of L
    and of the left-null rows below the rank; the rows of M it placed at the
    pivots are `pivot_rows`.  `solve_numerators` is the one solve; the
    rational solves and the kernel and RREF views read its integers.  A
    right-hand side that violates a null row, and the null and transform
    views, go to `_positional`, the positional elimination of the same rows,
    built at most once.  Free variables are zero in every returned solution
    (the deterministic minimal primitive used throughout the package).
    """

    def __init__(self, rows, ncols: int | None = None):
        # kept to rebuild from: _integer_rows copies the rows and never changes them
        self._given, self._positional_solver = (rows, ncols), None
        self._build(sparsest=True)

    def _build(self, sparsest: bool) -> None:
        rows, self.ncols = _integer_rows(*self._given)
        self._sparsest = sparsest
        self.nrows = n = len(rows)
        m = self.ncols
        work = []
        for i, (ints, scale) in enumerate(rows):
            ints[m + i] = scale
            work.append(ints)
        order, pivots = _eliminate(work, m, sparsest)
        self.rank = len(pivots)
        self.pivot_cols = pivots
        self.pivot_rows = order[:self.rank]
        # Per pivot: (value, {later pivot column: entry of U}, {free column:
        # entry of U}); per row i of M, L's column i as (pivot, entry) pairs.
        self._pivots: list[tuple[int, dict, dict]] = []
        self._l_columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        pivot_set = set(pivots)
        for k, col in enumerate(pivots):
            row = work[order[k]]
            p = row.pop(col)
            self._pivots.append((p, {j: x for j, x in row.items() if j in pivot_set},
                                 {j: x for j, x in row.items() if j < m and j not in pivot_set}))
            for j, x in row.items():
                if j >= m:
                    self._l_columns[j - m].append((k, x))
        # Left-null rows: the L part of each row below the rank, made
        # primitive with its first nonzero entry positive, stored by column
        # as (null row, entry) pairs.
        self._null_columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k, pos in enumerate(range(self.rank, n)):
            row = work[order[pos]]
            if any(j < m for j in row):
                raise AssertionError("elimination left a nonzero row below the rank")
            g = gcd(*row.values())
            if row and row[min(row)] < 0:
                g = -g
            for j, x in row.items():
                self._null_columns[j - m].append((k, x // g))

    def _positional(self) -> LinearSolver:
        """The same matrix eliminated under the positional row rule, built on
        first use and kept: the row order that left-null rows, certificates
        and partial solutions of inconsistent systems are read off."""
        if not self._sparsest:
            return self
        if self._positional_solver is None:
            solver = self._positional_solver = object.__new__(LinearSolver)
            solver._given = self._given
            solver._build(sparsest=False)
        return self._positional_solver

    def solve_numerators(self, nums: list[int], den: int = 1
                         ) -> tuple[list[int], int, list[int] | None]:
        """M x = b for b = nums / den on integers: (y, scale, violated).

        One pass over b's nonzeros gives L b and b's pairing with every
        left-null row.  x = y / scale is L b back-substituted through U, the
        solution when b is consistent; `violated` is then None.  Else all
        three come from the positional elimination: its partial solution and
        its first null row, dense, that b does not annihilate."""
        if len(nums) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        rhs = [0] * self.rank
        pairings = [0] * (self.nrows - self.rank)
        for v, l_column, null_column in zip(nums, self._l_columns, self._null_columns):
            if v:
                for k, e in l_column:
                    rhs[k] += e * v
                for k, e in null_column:
                    pairings[k] += e * v
        violated = next((k for k, x in enumerate(pairings) if x), None)
        if violated is not None and self._sparsest:
            return self._positional().solve_numerators(nums, den)
        y, scale = self._back_substitute(rhs)
        return y, scale * den, None if violated is None else self._null_row(violated)

    def _null_row(self, k: int) -> list[int]:
        """Left-null row k, dense, read off the null columns."""
        return [next((x for j, x in column if j == k), 0) for column in self._null_columns]

    def _back_substitute(self, rhs: list[int]) -> tuple[list[int], int]:
        """(y, scale) with U (y / scale) = rhs and y zero on the free columns,
        filled from the last pivot up; the scale grows only by the part of
        each pivot that does not divide its numerator."""
        y = [0] * self.ncols
        scale = 1
        for (p, later, _), col, c in zip(reversed(self._pivots), reversed(self.pivot_cols),
                                         reversed(rhs)):
            t = c * scale - sum(a * y[j] for j, a in later.items())
            if t:
                g = gcd(t, p) if p > 0 else -gcd(t, p)
                if g != p:
                    scale *= p // g
                    y = [v * (p // g) for v in y]
                y[col] = t // g
        return y, scale

    def kernel_basis(self) -> Matrix:
        """One kernel vector per free column f: 1 at f, and on the pivot
        columns the back substitution of minus U's column f."""
        basis = []
        for f in range(self.ncols):
            if f not in self.pivot_cols:
                rhs = [-free.get(f, 0) for *_, free in self._pivots]
                basis.append(rationals(*self._back_substitute(rhs)))
                basis[-1][f] = ONE
        return basis

    @property
    def rref_rows(self) -> Matrix:
        """Reduced row echelon rows: 1 at the pivot, minus the kernel vectors."""
        free = [j for j in range(self.ncols) if j not in self.pivot_cols]
        kernel = dict(zip(free, self.kernel_basis()))
        return [[-kernel[j][col] if j in kernel else ONE if j == col else ZERO
                 for j in range(self.ncols)] for col in self.pivot_cols]

    @property
    def transform_rows(self) -> Matrix:
        """The rows of the transform E that belong to the pivots, one column
        per column of L: their product with M is rref_rows."""
        columns = [self._positional().solve_partial(unit) for unit in identity_matrix(self.nrows)]
        return [[x[col] for x in columns] for col in self.pivot_cols]

    @property
    def null_rows(self) -> Matrix:
        """A basis of the left null space of M: the L parts below the rank."""
        return [rationals(self._positional()._null_row(k)) for k in range(self.nrows - self.rank)]

    @property
    def kernel_dimension(self) -> int:
        return self.ncols - self.rank

    def is_consistent(self, b: Vector) -> bool:
        return self.solve_numerators(*numerators(b))[2] is None

    def solve(self, b: Vector) -> Vector | None:
        """Solve M x = b; None when inconsistent.  Free variables are zero."""
        y, scale, violated = self.solve_numerators(*numerators(b))
        return None if violated is not None else rationals(y, scale)

    def solve_partial(self, b: Vector) -> Vector:
        """Best deterministic partial solution: x from the pivot rows, with
        M x = b exactly when the system is consistent."""
        return rationals(*self.solve_numerators(*numerators(b))[:2])

    def null_functional(self, b: Vector) -> Vector | None:
        """A row functional vanishing on the column span of M but not on b."""
        violated = self.solve_numerators(*numerators(b))[2]
        return None if violated is None else rationals(violated)


def _pivot_columns(rows, ncols: int | None) -> list[int]:
    """The pivot columns of a matrix given as `LinearSolver` takes it, by the
    same pass with no identity tail and the least-fill row rule."""
    rows, ncols = _integer_rows(rows, ncols)
    return _eliminate([ints for ints, _ in rows], ncols, sparsest=True)[1]


def rank(rows, ncols: int | None = None) -> int:
    """Rank of a matrix given as `LinearSolver` takes it."""
    return len(_pivot_columns(rows, ncols))


def symmetric_signature(mat: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix,
    via exact congruence diagonalization: each step counts a nonzero
    diagonal pivot and passes to its Schur complement.  When the diagonal
    vanishes, adding row and column j to row and column i turns a nonzero
    entry a_ij into the pivot 2 a_ij."""
    a = [[exact_scalar(x) for x in row] for row in mat]
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    pos = neg = 0
    while a:
        k = next((k for k in range(len(a)) if a[k][k]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                        (None, None))
            if k is None:
                break
            for row in a:
                row[k] += row[j]
            a[k] = [x + y for x, y in zip(a[k], a[j])]
        p = a[k][k]
        pos, neg = pos + (p > 0), neg + (p < 0)
        a = [[x - a[r][k] * a[k][c] / p for c, x in enumerate(row) if c != k]
             for r, row in enumerate(a) if r != k]
    return pos, neg, n - pos - neg


def row_space_solver(vectors: Matrix, ambient_dim: int) -> LinearSolver:
    """Solver whose columns are the given vectors: membership and coordinates
    in their span via solve()."""
    cols = [list(v) for v in vectors]
    rows = [[col[i] for col in cols] for i in range(ambient_dim)]
    return LinearSolver(rows, len(cols))


def extend_to_basis(vectors: Matrix, dim: int) -> list[int]:
    """Indices of standard basis vectors completing the span of `vectors` to
    the full space (lowest indices first)."""
    pivot_set = set(_pivot_columns(vectors, dim))
    return [j for j in range(dim) if j not in pivot_set]
