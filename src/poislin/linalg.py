"""Exact rational linear algebra shared by the structure and cohomology solvers.

Everything here is deterministic: elimination picks the lowest-index pivot
column first and, within a column, the earliest remaining row.  Solutions set
all free variables to zero, so repeated runs are bit-for-bit identical.

A matrix comes as dense rows, as {column: value} rows of its nonzero
entries, or as `IntegerRows`: {column: int} numerator rows over one
denominator.  The coboundary matrices of the cohomology solvers are built in
the last form, a few percent nonzero and split into many small blocks; they
are eliminated as they are, with no rational entry built and no zero cell
scanned.  Rational rows are scaled to integers once, row by row, on the way
in.  The one elimination, `_eliminate`,
is an integer forward pass that never touches a row above its pivot, so it
never leaves a block.  `rank` runs it on M; `LinearSolver` runs it on
[M | I] and back-substitutes through the echelon rows on integers, for every
solve and for its RREF, transform and kernel views.  There is no
determinant: invertibility and nondegeneracy are read as `rank(M, n) == n`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


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
        entries = {j: x if type(x) is Fraction else Fraction(x) for j, x in items if x}
        scale = lcm(*(x.denominator for x in entries.values()))
        out.append(({j: x.numerator if scale == 1 else x.numerator * (scale // x.denominator)
                     for j, x in entries.items()}, scale))
    return out, ncols


def _eliminate(work: list[dict], ncols: int) -> tuple[list[int], list[int]]:
    """Integer forward elimination of the {column: int} rows `work` in place;
    returns (position -> row, pivot columns).

    The pivot rule is the dense one: the lowest column with a nonzero entry
    at or below the next pivot position, and in it the row at the lowest
    position, swapped into place.  Each later row with an entry in the pivot
    column becomes row*p - prow*q over all its entries, keys at or past ncols
    included, and is divided by the gcd of its entries.  A placed pivot row
    is never touched again, so the pivot columns are the first maximal
    independent set of columns and the rows below the rank are the same as
    a Gauss-Jordan pass would leave.
    """
    n = len(work)
    by_col: list[set] = [set() for _ in range(ncols)]
    for i, row in enumerate(work):
        for j in row:
            if j < ncols:
                by_col[j].add(i)
    order = list(range(n))      # position -> row
    where = list(range(n))      # row -> position
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == n:
            break
        live = by_col[col]
        found = n
        for r in live:
            pos = where[r]
            if pivot_row <= pos < found:
                found = pos
        if found == n:
            continue
        rid, other = order[found], order[pivot_row]
        order[pivot_row], order[found] = rid, other
        where[rid], where[other] = pivot_row, found
        prow = work[rid]
        p = prow[col]
        for r in list(live):
            if where[r] <= pivot_row:
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

    `_eliminate` runs once on [M | I], scaled to integer rows whose identity
    tail sits at keys ncols + i.  Of the echelon rows [U | L] it leaves
    (U = L*M) the solver keeps, per pivot, the value and the other entries
    of U and L, and the left-null rows below the rank.  A solve checks b
    against the null rows, applies L and back-substitutes through U; the
    kernel, RREF and transform views back-substitute a column of U or of L.
    Free variables are zero in every returned solution (the deterministic
    minimal primitive used throughout the package).
    """

    def __init__(self, rows, ncols: int | None = None):
        rows, self.ncols = _integer_rows(rows, ncols)
        self.nrows = n = len(rows)
        m = self.ncols
        work = []
        for i, (ints, scale) in enumerate(rows):
            ints[m + i] = scale
            work.append(ints)
        order, pivots = _eliminate(work, m)
        self.rank = len(pivots)
        self.pivot_cols = pivots
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
        # primitive with its first nonzero entry positive.
        self._null_rows: list[dict] = []
        for pos in range(self.rank, n):
            row = work[order[pos]]
            if any(j < m for j in row):
                raise AssertionError("elimination left a nonzero row below the rank")
            g = gcd(*row.values())
            if row and row[min(row)] < 0:
                g = -g
            self._null_rows.append({j - m: x // g for j, x in row.items()})

    def _back_substitute(self, rhs: list[int], den: int = 1) -> Vector:
        """x with U x = rhs / den and zero on the free columns, filled from
        the last pivot up as integers y over one scale, which grows only by
        the part of each pivot that does not divide its numerator."""
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
        scale *= den
        return [Fraction(v, scale) if v else ZERO for v in y]

    def kernel_basis(self) -> Matrix:
        """One kernel vector per free column f: 1 at f, and on the pivot
        columns the back substitution of minus U's column f."""
        basis = []
        for f in range(self.ncols):
            if f not in self.pivot_cols:
                basis.append(self._back_substitute([-free.get(f, 0) for *_, free in self._pivots]))
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
        n = self.nrows
        columns = [self._pivot_solution([int(i == j) for i in range(n)], 1) for j in range(n)]
        return [[x[col] for x in columns] for col in self.pivot_cols]

    @property
    def null_rows(self) -> Matrix:
        """A basis of the left null space of M: the L parts below the rank."""
        n = self.nrows
        return [[Fraction(row.get(i, 0)) for i in range(n)] for row in self._null_rows]

    @property
    def kernel_dimension(self) -> int:
        return self.ncols - self.rank

    def _scaled(self, b: Vector) -> tuple[list[int], int]:
        """b as integer numerators over one common denominator."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        den = lcm(*(x.denominator for x in b if x))
        return [x.numerator * (den // x.denominator) if x else 0 for x in b], den

    def _consistent(self, ints: list[int]) -> bool:
        return not any(sum(x * ints[i] for i, x in row.items()) for row in self._null_rows)

    def is_consistent(self, b: Vector) -> bool:
        return self._consistent(self._scaled(b)[0])

    def solve(self, b: Vector) -> Vector | None:
        """Solve M x = b; None when inconsistent.  Free variables are zero."""
        ints, den = self._scaled(b)
        if not self._consistent(ints):
            return None
        return self._pivot_solution(ints, den)

    def solve_partial(self, b: Vector) -> Vector:
        """Best deterministic partial solution: x from the pivot rows, with
        M x = b exactly when the system is consistent."""
        return self._pivot_solution(*self._scaled(b))

    def null_functional(self, b: Vector) -> Vector | None:
        """A row functional vanishing on the column span of M but not on b."""
        ints, _ = self._scaled(b)
        for row in self._null_rows:
            if sum(x * ints[i] for i, x in row.items()):
                return [Fraction(row.get(i, 0)) for i in range(self.nrows)]
        return None

    def _pivot_solution(self, ints: list[int], den: int) -> Vector:
        """The solution for b = ints / den with the free variables zero: L
        applied to ints column by column, then back substitution."""
        rhs = [0] * self.rank
        for i, v in enumerate(ints):
            if v:
                for k, e in self._l_columns[i]:
                    rhs[k] += e * v
        return self._back_substitute(rhs, den)


def _pivot_columns(rows, ncols: int | None) -> list[int]:
    """The pivot columns of a matrix given as `LinearSolver` takes it, by the
    same pass with no identity tail."""
    rows, ncols = _integer_rows(rows, ncols)
    return _eliminate([ints for ints, _ in rows], ncols)[1]


def rank(rows, ncols: int | None = None) -> int:
    """Rank of a matrix given as `LinearSolver` takes it."""
    return len(_pivot_columns(rows, ncols))


def symmetric_signature(mat: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix,
    via exact congruence diagonalization."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = zero = 0
    k = 0
    while k < n:
        if a[k][k] == 0:
            swap = -1
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    swap = j
                    break
            if swap >= 0:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = -1
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        off = j
                        break
                if off < 0:
                    # Row and column k vanish on the remaining block.
                    empty = all(
                        a[i][j] == 0
                        for i in range(k, n)
                        for j in range(k, n)
                    )
                    if empty:
                        zero += n - k
                        break
                    zero += 1
                    # Move the zero row/column to the end.
                    a.append(a.pop(k))
                    for row in a:
                        row.append(row.pop(k))
                    n -= 1
                    continue
                # a[k][k] = 0 but a[k][off] != 0: add row/col off into k.
                for j in range(len(a[k])):
                    a[k][j] += a[off][j]
                for row in a:
                    row[k] += row[off]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            q = a[r][k]
            if q:
                factor = q / p
                for j in range(len(a[r])):
                    a[r][j] -= factor * a[k][j]
                for row in a:
                    row[r] -= factor * row[k]
        k += 1
    return pos, neg, zero


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
