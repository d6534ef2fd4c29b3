"""Exact rational linear algebra shared by the structure and cohomology solvers.

Everything here is deterministic: elimination picks the lowest-index pivot
column first and, within a column, the earliest remaining row.  Solutions set
all free variables to zero, so repeated runs are bit-for-bit identical.

`LinearSolver` eliminates sparsely: it replays integer Gauss-Jordan on
[M | I] over the nonzero entries only, with the same pivot rule, the same row
swaps and the same row updates as a dense elimination, so its RREF rows,
transform rows and left-null rows equal the dense ones entry for entry.  The
coboundary matrices of the cohomology solvers are a few percent nonzero and
split into many small blocks; the elimination never leaves a block.
"""

from __future__ import annotations

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


class LinearSolver:
    """Reduced row echelon factorization of a matrix, reusable for many
    right-hand sides.

    Each row of [M | I] is a {column: int} map, scaled to integers, whose
    identity tail sits at keys ncols + i; a column index lists the rows with
    a nonzero in each column, so a pivot step touches only those rows.  Keeps
    the sparse row-operation rows E with E*M in reduced row echelon form and
    the sparse left-null rows, so each later solve is a few integer dot
    products plus a consistency check.  Free variables are zero in every
    returned solution (the deterministic minimal primitive used throughout
    the package).
    """

    def __init__(self, rows: Matrix, ncols: int | None = None):
        self.nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        self._elim(rows)

    def _elim(self, rows: Matrix) -> None:
        n, m = self.nrows, self.ncols
        # Integer Gauss-Jordan on [M | I]; row scaling does not disturb the
        # pivot structure and keeps the inner loop in machine integers.
        self._input_rows: list[dict] = []
        work: list[dict] = []
        by_col: list[set] = [set() for _ in range(m)]
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("ragged matrix")
            entries = {j: Fraction(x) for j, x in enumerate(row) if x}
            self._input_rows.append(entries)
            scale = lcm(*(f.denominator for f in entries.values()))
            scaled = {j: f.numerator * (scale // f.denominator) for j, f in entries.items()}
            scaled[m + i] = scale
            work.append(scaled)
            for j in entries:
                by_col[j].add(i)
        order = list(range(n))      # position -> row
        where = list(range(n))      # row -> position
        pivots: list[int] = []
        pivot_row = 0
        for col in range(m):
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
                if r == rid:
                    continue
                row = work[r]
                q = row[col]
                # row*p - prow*q over the whole row, including entries left
                # of col (a previously placed pivot lives there).
                if p != 1:
                    for j in row:
                        row[j] *= p
                for j, x in prow.items():
                    y = row.get(j)
                    if y is None:
                        row[j] = -x * q
                        if j < m:
                            by_col[j].add(r)
                        continue
                    y -= x * q
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        if j < m:
                            by_col[j].discard(r)
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
            pivots.append(col)
            pivot_row += 1
        self.rank = len(pivots)
        self.pivot_cols = pivots
        # Per pivot: its value and the integer RREF and E parts of its row;
        # every RREF and E entry is the integer over the pivot value.
        self._pivot_rows: list[tuple[int, dict, dict]] = []
        for pos, col in enumerate(pivots):
            row = work[order[pos]]
            self._pivot_rows.append((
                row[col],
                {j: x for j, x in row.items() if j < m},
                {j - m: x for j, x in row.items() if j >= m},
            ))
        # Left-null rows: the E part of each row below the rank, made
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

    @property
    def rref_rows(self) -> Matrix:
        m = self.ncols
        return [[Fraction(row.get(j, 0), p) for j in range(m)]
                for p, row, _ in self._pivot_rows]

    @property
    def transform_rows(self) -> Matrix:
        """The rows of E that belong to the pivots: their product with M is
        rref_rows."""
        n = self.nrows
        return [[Fraction(row.get(i, 0), p) for i in range(n)]
                for p, _, row in self._pivot_rows]

    @property
    def null_rows(self) -> Matrix:
        """A basis of the left null space of M: the rows of E below the rank."""
        n = self.nrows
        return [[Fraction(row.get(i, 0)) for i in range(n)] for row in self._null_rows]

    @property
    def kernel_dimension(self) -> int:
        return self.ncols - self.rank

    def _scaled(self, b: Vector) -> tuple[list[int], int]:
        """b as integer numerators over one common denominator."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        nonzero = [(i, x) for i, x in enumerate(b) if x]
        den = lcm(*(x.denominator for _, x in nonzero))
        ints = [0] * len(b)
        for i, x in nonzero:
            ints[i] = x.numerator * (den // x.denominator)
        return ints, den

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

    def solve_partial(self, b: Vector) -> tuple[Vector, Vector]:
        """Best deterministic partial solution: x from the pivot rows plus the
        unremovable residual b - M x (zero iff the system was consistent)."""
        x = self._pivot_solution(*self._scaled(b))
        return x, [bi - sum((a * x[j] for j, a in row.items()), ZERO)
                   for bi, row in zip(b, self._input_rows)]

    def null_functional(self, b: Vector) -> Vector | None:
        """A row functional vanishing on the column span of M but not on b."""
        ints, _ = self._scaled(b)
        for row in self._null_rows:
            if sum(x * ints[i] for i, x in row.items()):
                return [Fraction(row.get(i, 0)) for i in range(self.nrows)]
        return None

    def _pivot_solution(self, ints: list[int], den: int) -> Vector:
        x = zero_vector(self.ncols)
        for col, (p, _, erow) in zip(self.pivot_cols, self._pivot_rows):
            x[col] = Fraction(sum(e * ints[i] for i, e in erow.items()), p * den)
        return x

    def kernel_basis(self) -> Matrix:
        basis = []
        pivot_set = set(self.pivot_cols)
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = zero_vector(self.ncols)
            v[free] = ONE
            for col, (p, row, _) in zip(self.pivot_cols, self._pivot_rows):
                if free in row:
                    v[col] = -Fraction(row[free], p)
            basis.append(v)
        return basis


def rank(mat: Matrix, ncols: int | None = None) -> int:
    return LinearSolver(mat, ncols).rank


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    work = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    result = ONE
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if work[r][col]:
                piv = r
                break
        if piv < 0:
            return ZERO
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        p = work[col][col]
        result *= p
        for r in range(col + 1, n):
            q = work[r][col]
            if q:
                factor = q / p
                row = work[r]
                prow = work[col]
                for j in range(col, n):
                    row[j] -= factor * prow[j]
    return result * sign


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
    if not vectors:
        return list(range(dim))
    solver = LinearSolver([list(v) for v in vectors], dim)
    pivot_set = set(solver.pivot_cols)
    return [j for j in range(dim) if j not in pivot_set]
