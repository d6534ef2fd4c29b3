"""Exact linear algebra layer, cross-checked against sympy matrices."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from poislin.algebroid import LinearAlgebroid
from poislin.cohomology import Cochain, GModule, coadjoint_rep, induced_polynomial_module
from poislin.liealg import ExactTable, LeviSplit, LieAlgebra
from poislin.linalg import (
    IntegerRows,
    LinearSolver,
    _eliminate,
    _integer_rows,
    _pivot_columns,
    dot,
    exact_scalar,
    extend_to_basis,
    identity_matrix,
    mat_mul,
    mat_vec,
    rank,
    row_space_solver,
    symmetric_signature,
)
from poislin.normalform import hermitian_inner, hermitian_weights, linearize_poisson
from poislin.polyalg import Jet, format_rational

from helpers import (
    gl2_algebra,
    random_rational_basis,
    rebased_algebra,
    record_row_rules,
    sl2_algebra,
    so3_algebra,
    so3_bivector,
    solvable2_algebra,
)


def random_matrix(rng, nrows, ncols, pool=(-3, -2, -1, 0, 0, 1, 2, 3)):
    return [[Fraction(rng.choice(pool)) for _ in range(ncols)] for _ in range(nrows)]


def _line_module():
    return GModule(LieAlgebra.abelian(1), [[[1]]])


# every site that turns an outside scalar into a Fraction
FLOAT_SITES = {
    "exact_scalar": lambda: exact_scalar(0.1),
    "ExactTable": lambda: ExactTable([[[0.5]]]),
    "LieAlgebra": lambda: LieAlgebra([[[0.0]]]),
    "_trusted_sparse": lambda: LieAlgebra._trusted_sparse(2, [(0, 1, 1, 0.5)]),
    "LeviSplit": lambda: LeviSplit(LieAlgebra.abelian(1), [], [[1.0]]),
    "_integer_rows dense": lambda: LinearSolver([[0.1, 1]], 2),
    "_integer_rows sparse": lambda: rank([{0: 0.5}], 1),
    "symmetric_signature": lambda: symmetric_signature([[0.5]]),
    "GModule": lambda: GModule(LieAlgebra.abelian(1), [[[0.5]]]),
    "Cochain": lambda: Cochain(_line_module(), 0, [0.5]),
    "Cochain.from_components": lambda: Cochain.from_components(_line_module(), 0, {(): [0.5]}),
    "Cochain.__mul__": lambda: Cochain.zero(_line_module(), 0) * 0.5,
    "Cochain.__rmul__": lambda: 0.5 * Cochain.zero(_line_module(), 0),
    "LinearAlgebroid": lambda: LinearAlgebroid(LieAlgebra.abelian(1), [[[0.5]]]),
    "hermitian_weights": lambda: hermitian_weights(2, 2, 0.3),
    "hermitian_inner": lambda: hermitian_inner(Jet.variable(0, 1, 2), Jet.variable(0, 1, 2), 0.3),
    "_run_scheduler": lambda: linearize_poisson(so3_bivector(3), radius=0.3),
    "LinearSolver.solve": lambda: LinearSolver([[1, 0], [0, 1]], 2).solve([0.5, 1]),
    "LinearSolver.solve_partial": lambda: LinearSolver([[1, 0]], 2).solve_partial([0.5]),
    "LinearSolver.null_functional": lambda: LinearSolver([[1], [0]], 1).null_functional([1, 0.5]),
    "LinearSolver.is_consistent": lambda: LinearSolver([[1], [0]], 1).is_consistent([0.5, 0]),
    "format_rational": lambda: format_rational(0.1),
}


@pytest.mark.parametrize("build", FLOAT_SITES.values(), ids=FLOAT_SITES.keys())
def test_exact_constructors_refuse_binary_floats(build):
    """A binary float's exact value is rarely the number meant (0.1 would be
    3602879701896397/36028797018963968), so every exact site refuses one."""
    with pytest.raises(TypeError, match="float coefficients are not allowed"):
        build()


def test_rank_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        assert rank(mat) == sympy.Matrix(mat).rank()


def test_solve_consistent_systems():
    rng = random.Random(33)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        b = mat_vec(mat, x_true)
        x = LinearSolver(mat).solve(b)
        assert x is not None
        assert mat_vec(mat, x) == b


def test_solve_sets_free_variables_to_zero():
    mat = [[Fraction(1), Fraction(1)]]
    x = LinearSolver(mat).solve([Fraction(5)])
    assert x == [Fraction(5), Fraction(0)]


def test_solve_detects_inconsistency():
    rng = random.Random(34)
    hits = 0
    for _ in range(60):
        n, m = rng.randint(2, 5), rng.randint(1, 4)
        mat = random_matrix(rng, n, m)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        solver = LinearSolver(mat)
        x = solver.solve(b)
        sol = sympy.linsolve((sympy.Matrix(mat), sympy.Matrix(b)))
        if x is None:
            hits += 1
            assert sol == sympy.EmptySet
        else:
            assert sol != sympy.EmptySet
            assert mat_vec(mat, x) == b
    assert hits > 5  # the sample actually exercised the inconsistent branch


def test_solver_inverts_matrices():
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        if rank(mat, n) != n:
            continue
        solver = LinearSolver(mat)
        inv_cols = [solver.solve([Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
        inv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
        assert mat_mul(mat, inv) == identity_matrix(n)
        assert mat_mul(inv, mat) == identity_matrix(n)


def test_kernel_basis():
    rng = random.Random(36)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        solver = LinearSolver(mat)
        basis = solver.kernel_basis()
        assert len(basis) == solver.kernel_dimension == m - solver.rank
        for v in basis:
            assert mat_vec(mat, v) == [Fraction(0)] * n
        assert rank(basis, m) == len(basis) if basis else True


def test_left_null_rows_annihilate_columns():
    rng = random.Random(37)
    for _ in range(30):
        n, m = rng.randint(2, 5), rng.randint(1, 4)
        mat = random_matrix(rng, n, m)
        solver = LinearSolver(mat)
        for row in solver.null_rows:
            for j in range(m):
                assert sum(row[i] * mat[i][j] for i in range(n)) == 0


def test_null_functional_certifies_unsolvable_rhs():
    mat = [[Fraction(1)], [Fraction(1)]]
    solver = LinearSolver(mat)
    lam = solver.null_functional([Fraction(1), Fraction(2)])
    assert lam is not None
    assert lam[0] * 1 + lam[1] * 1 == 0
    assert lam[0] * 1 + lam[1] * 2 != 0
    assert solver.null_functional([Fraction(3), Fraction(3)]) is None


def test_solve_partial_residual():
    rng = random.Random(38)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        solver = LinearSolver(mat)
        x = solver.solve_partial(b)
        res = [bi - ri for bi, ri in zip(b, mat_vec(mat, x))]
        if solver.is_consistent(b):
            assert res == [Fraction(0)] * n
        else:
            assert any(res)


def test_elimination_is_deterministic():
    rng = random.Random(39)
    mat = random_matrix(rng, 4, 6)
    a = LinearSolver(mat)
    b = LinearSolver(mat)
    assert a.rref_rows == b.rref_rows
    assert a.transform_rows == b.transform_rows
    assert a.null_rows == b.null_rows
    assert a.pivot_cols == b.pivot_cols


def test_rref_transform_consistency():
    """transform_rows * M reproduces rref_rows, the heart of solve()."""
    rng = random.Random(40)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        solver = LinearSolver(mat)
        if solver.rank:
            product = mat_mul(solver.transform_rows, mat)
            assert product == solver.rref_rows
        for row, col in zip(solver.rref_rows, solver.pivot_cols):
            assert row[col] == 1


def _descartes_signature(sym):
    """Eigenvalue sign counts from the characteristic polynomial: symmetric
    matrices have all roots real, so Descartes' rule of signs is exact."""
    n = len(sym)
    lam = sympy.symbols("lam")
    coeffs = sympy.Matrix(sym).charpoly(lam).all_coeffs()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    zero = n - (len(coeffs) - 1)

    def changes(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = changes([sympy.sign(c) for c in coeffs])
    neg = changes([sympy.sign(c) * (-1) ** i for i, c in enumerate(coeffs)])
    return pos, neg, zero


def test_symmetric_signature_matches_charpoly_oracle():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 5)
        base = random_matrix(rng, n, n)
        sym = [[base[i][j] + base[j][i] for j in range(n)] for i in range(n)]
        assert symmetric_signature(sym) == _descartes_signature(sym)
    # Killing forms of so(3) and sl(2), and the zero-diagonal cases that need
    # the off-diagonal pivot path or end in an all-zero block
    cases = [
        ([[-2, 0, 0], [0, -2, 0], [0, 0, -2]], (0, 3, 0)),
        ([[2, 0, 0], [0, 2, 0], [0, 0, -2]], (2, 1, 0)),
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
    ]
    for mat, signature in cases:
        sym = [[Fraction(x) for x in row] for row in mat]
        assert symmetric_signature(sym) == signature == _descartes_signature(sym)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_symmetric_signature_of_zero_diagonal_matrices(base):
    """Every pivot of a zero-diagonal matrix starts off the diagonal; half
    the cases also zero a row and column, so an all-zero block is left."""
    n = len(base)
    sym = [[base[i][j] + base[j][i] if i != j else Fraction(0) for j in range(n)]
           for i in range(n)]
    if n > 1 and base[0][0] > 0:
        sym = [[Fraction(0) if 0 in (i, j) else x for j, x in enumerate(row)]
               for i, row in enumerate(sym)]
    assert symmetric_signature(sym) == _descartes_signature(sym)


def test_symmetric_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_signature([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])


def test_row_space_solver_membership():
    vectors = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    solver = row_space_solver(vectors, 3)
    coords = solver.solve([Fraction(2), Fraction(3), Fraction(5)])
    assert coords == [Fraction(2), Fraction(3)]
    assert solver.solve([Fraction(1), Fraction(0), Fraction(0)]) is None


def test_extend_to_basis():
    vectors = [[Fraction(1), Fraction(1), Fraction(0)]]
    extra = extend_to_basis(vectors, 3)
    assert len(extra) == 2
    full = [list(v) for v in vectors] + [
        [Fraction(int(i == j)) for i in range(3)] for j in extra
    ]
    assert rank(full, 3) == 3
    assert extend_to_basis([], 2) == [0, 1]


# ---------------------------------------------------------------------------
# differential test against sympy's fraction-free sparse RREF


def _sympy_rref(mat, ncols):
    """(pivot columns, RREF rows as Fractions) from sympy's DomainMatrix."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not mat:
        return [], []
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in mat],
                      (len(mat), ncols), QQ)
    rref, den, pivots = dm.rref_den()
    den = Fraction(int(den.numerator), int(den.denominator))
    rows = rref.to_list()[:len(pivots)]
    return list(pivots), [
        [Fraction(int(x.numerator), int(x.denominator)) / den for x in row] for row in rows
    ]


def _sparse_block_matrix(rng):
    """A random block-diagonal rational matrix with some dense blocks, extra
    zero rows and columns, and its rows and columns shuffled."""
    blocks = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
    nrows = sum(b for b, _ in blocks) + rng.randint(0, 2)
    ncols = sum(c for _, c in blocks) + rng.randint(0, 2)
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for bn, bm in blocks:
        fill = rng.choice((0.4, 1.0))
        for i in range(bn):
            for j in range(bm):
                if rng.random() < fill:
                    mat[r0 + i][c0 + j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        r0, c0 = r0 + bn, c0 + bm
    row_perm, col_perm = list(range(nrows)), list(range(ncols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return [[mat[i][j] for j in col_perm] for i in row_perm], ncols


def test_solver_matches_sympy_on_sparse_block_matrices():
    rng = random.Random(42)
    cases = [_sparse_block_matrix(rng) for _ in range(60)]
    cases.append(([], 3))                            # no rows, ncols given
    cases.append((random_matrix(rng, 6, 5, pool=(-3, -1, 1, 2, 5)), 5))   # one dense block
    inconsistent = 0
    for mat, ncols in cases:
        solver = LinearSolver(mat, ncols)
        pivots, rref = _sympy_rref(mat, ncols)
        assert solver.rank == len(pivots)
        assert solver.pivot_cols == pivots
        assert solver.rref_rows == rref
        # the pivot solution: free variables zero, pivot k gets (R v)_k
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        expected = [Fraction(0)] * ncols
        for col, row in zip(pivots, rref):
            expected[col] = sum((a * b for a, b in zip(row, v)), Fraction(0))
        assert solver.solve(mat_vec(mat, v)) == expected
        b = [Fraction(rng.randint(-3, 3)) for _ in mat]
        if solver.solve(b) is None:
            inconsistent += 1
            lam = solver.null_functional(b)
            assert all(sum(lam[i] * mat[i][j] for i in range(len(mat))) == 0
                       for j in range(ncols))
            assert sum(x * y for x, y in zip(lam, b)) != 0
    assert inconsistent > 10


def _rows(text_rows):
    return [[Fraction(x) for x in row.split()] for row in text_rows]


# Transform and null rows as a dense integer Gauss-Jordan on [M | I] with the
# same pivot rule computes them; the sparse elimination must reproduce them
# entry for entry.
GOLDEN = [
    (["1/2 0 3 -1", "0 0 0 0", "2 0 -1/3 5", "1 0 6 -2"],
     [0, 2],
     ["2/37 0 18/37 0", "12/37 0 -3/37 0"],
     ["0 1 0 0", "2 0 0 -1"]),
    (["0 2 1", "0 0 0", "3 1 0", "0 4 2", "1/2 -1 0"],
     [0, 1, 2],
     ["0 0 2/7 0 2/7", "0 0 1/7 0 -6/7", "1 0 -2/7 0 12/7"],
     ["2 0 0 -1 0", "0 1 0 0 0"]),
    (["2/3 -1 0 4 1/5", "-3 1/2 7 0 2", "1 1 1 1 1", "-2/3 1/2 7 4 11/5",
      "29/3 -5/2 -21 4 -29/5"],
     [0, 1, 2, 3],
     ["-78/59 -87/59 -84/59 99/59 0", "71/59 86/59 140/59 -106/59 0",
      "-77/118 -35/59 -46/59 50/59 0", "91/118 36/59 49/59 -43/59 0"],
     ["1 -3 0 0 -1"]),
]


def test_elimination_matches_golden_transform_and_null_rows():
    for mat, pivots, transform, null in GOLDEN:
        solver = LinearSolver(_rows(mat))
        assert solver.pivot_cols == pivots
        assert solver.transform_rows == _rows(transform)
        assert solver.null_rows == _rows(null)


def test_coboundary_elimination_matches_golden_digest():
    """sha256 of the pivot, RREF, transform and null rows of three coadjoint
    coboundary matrices, as a dense elimination computes them."""

    def text(rows):
        return [" ".join(str(x) for x in row) for row in rows]

    for algebra, degree, r, digest in ((so3_algebra(), 3, 1, "084323e4d37707dd"),
                                       (gl2_algebra(), 2, 1, "6a0360a94e1a9796"),
                                       (gl2_algebra(), 2, 2, "c5c57858ff2c6727")):
        module = induced_polynomial_module(algebra, algebra.dim, coadjoint_rep(algebra), degree)
        solver = LinearSolver(module.differential_matrix(r), module.cochain_dim(r))
        state = repr((solver.pivot_cols, text(solver.rref_rows),
                      text(solver.transform_rows), text(solver.null_rows)))
        assert hashlib.sha256(state.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# sparse input: {column: value} rows


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _rational_matrices(draw):
    """(dense rows, ncols): small rational matrices, about half zeros."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    cell = st.one_of(st.just(Fraction(0)), _entries)
    return [[draw(cell) for _ in range(ncols)] for _ in range(nrows)], ncols


def _dict_rows(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def _integer_form(mat):
    """IntegerRows of the dense rows: numerators over the lcm of all their
    entries' denominators."""
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return IntegerRows([{j: int(x * den) for j, x in row.items()} for row in _dict_rows(mat)], den)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rational_matrices())
def test_dict_rows_and_dense_rows_eliminate_alike(case):
    """Dense rows, {column: value} rows and IntegerRows (numerators over the
    lcm of all entries' denominators, read back as the dict rows) give the
    same pivots, views and solutions."""
    mat, ncols = case
    numerators = _integer_form(mat)
    assert list(numerators) == _dict_rows(mat)
    dense = LinearSolver(mat, ncols)
    assert rank(numerators, ncols) == dense.rank
    for sparse in (LinearSolver(_dict_rows(mat), ncols), LinearSolver(numerators, ncols)):
        assert sparse.pivot_cols == dense.pivot_cols
        assert sparse.rref_rows == dense.rref_rows
        assert sparse.transform_rows == dense.transform_rows
        assert sparse.null_rows == dense.null_rows
        for b in ([Fraction(1)] * len(mat), [Fraction(i, 3) for i in range(len(mat))]):
            assert sparse.solve(b) == dense.solve(b)
            assert sparse.solve_partial(b) == dense.solve_partial(b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rational_matrices())
def test_rank_without_the_transform_matches_the_solver_and_sympy(case):
    mat, ncols = case
    expected = sympy.Matrix(len(mat), ncols, [x for row in mat for x in row]).rank()
    assert rank(mat, ncols) == rank(_dict_rows(mat), ncols) == expected
    assert LinearSolver(mat, ncols).rank == expected


@st.composite
def _matrices_with_zero_and_repeated_rows(draw):
    """(dense rows, ncols): `_rational_matrices` with up to three copies of
    its rows or zero rows inserted at drawn positions."""
    mat, ncols = draw(_rational_matrices())
    drawn = len(mat)
    for k in draw(st.lists(st.integers(0, drawn), max_size=3)):
        row = list(mat[k]) if k < drawn else [Fraction(0)] * ncols
        mat.insert(draw(st.integers(0, len(mat))), row)
    return mat, ncols


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_matrices_with_zero_and_repeated_rows())
def test_least_fill_rank_has_the_solvers_pivot_columns(case):
    """The rank pass takes the sparsest row of each pivot column, the solver
    the earliest; their pivot columns, and so the rank and the columns
    extend_to_basis adds, agree on dense, dict and IntegerRows input."""
    mat, ncols = case
    solver = LinearSolver(mat, ncols)
    for rows in (mat, _dict_rows(mat), _integer_form(mat)):
        assert _pivot_columns(rows, ncols) == solver.pivot_cols
        assert rank(rows, ncols) == solver.rank
    assert extend_to_basis(mat, ncols) == [j for j in range(ncols) if j not in solver.pivot_cols]


def _sympy_free_zero_solution(mat, ncols, b):
    """sympy's Gauss-Jordan solution of M x = b with its parameters, the
    free variables, set to zero."""
    if not mat:
        return [Fraction(0)] * ncols
    solution, params = sympy.Matrix(mat).gauss_jordan_solve(sympy.Matrix(b))
    solution = solution.subs({p: 0 for p in params})
    return [Fraction(int(x.p), int(x.q)) for x in solution]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_least_fill_solver_solves_as_sympy_and_places_independent_rows(data):
    """The solver eliminates under the least-fill row rule.  On dense, dict
    and IntegerRows input with zero and repeated rows, M x0 solves to
    sympy's solution with the free variables zero, the pivot columns are the
    rank pass's, and the rows in `pivot_rows` have full rank, which clearing
    in `differential_rank` relies on."""
    mat, ncols = data.draw(_matrices_with_zero_and_repeated_rows())
    b = mat_vec(mat, [data.draw(_entries) for _ in range(ncols)])
    expected = _sympy_free_zero_solution(mat, ncols, b)
    for rows in (mat, _dict_rows(mat), _integer_form(mat)):
        solver = LinearSolver(rows, ncols)
        assert solver.solve(b) == expected
        assert solver.pivot_cols == _pivot_columns(rows, ncols)
        kept = [rows[i] for i in solver.pivot_rows]
        assert len(kept) == solver.rank == rank(kept, ncols)


def test_the_positional_elimination_is_built_once_and_only_on_demand(monkeypatch):
    """Consistent solves and the kernel and RREF views eliminate nothing
    after the least-fill build; the first inconsistent right-hand side
    builds the positional elimination, and later inconsistent ones,
    null_rows and transform_rows reuse it.  On a fresh solver a read of
    null_rows or transform_rows builds it, once."""
    rules = record_row_rules(monkeypatch)
    F = Fraction
    mat = [[F(1), F(2), F(0)], [F(2), F(4), F(1)], [F(0), F(0), F(3)], [F(1), F(2), F(1)]]
    solver = LinearSolver(mat, 3)
    assert rules == [True]
    consistent = mat_vec(mat, [F(1), F(-2), F(1, 3)])
    assert solver.solve(consistent) is not None and solver.is_consistent(consistent)
    assert solver.null_functional(consistent) is None
    assert mat_vec(mat, solver.solve_partial(consistent)) == consistent
    solver.kernel_basis(), solver.rref_rows
    assert rules == [True]
    assert solver.null_functional([F(1), F(0), F(0), F(0)]) is not None
    assert rules == [True, False]
    assert solver.solve([F(0), F(1), F(0), F(2)]) is None
    solver.solve_partial([F(0), F(0), F(0), F(1)]), solver.null_rows, solver.transform_rows
    assert rules == [True, False]
    for view in ("null_rows", "transform_rows"):
        del rules[:]
        fresh = LinearSolver(mat, 3)
        getattr(fresh, view), fresh.null_rows, fresh.transform_rows
        assert rules == [True, False]


REBASED = {"so3": so3_algebra, "sl2": sl2_algebra, "gl2": gl2_algebra,
           "aff1": solvable2_algebra}


def _rebased_differential(name, seed, degree, r):
    """The coadjoint d^r at module degree `degree` of an algebra in a seeded
    random rational basis, and its column count."""
    standard = REBASED[name]()
    L = rebased_algebra(standard, random_rational_basis(random.Random(seed), standard.dim))
    module = induced_polynomial_module(L, L.dim, coadjoint_rep(L), degree)
    return module.differential_matrix(r), module.cochain_dim(r)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(REBASED)), seed=st.integers(0, 10 ** 6),
       degree=st.integers(1, 3), r=st.integers(0, 2))
def test_least_fill_rank_matches_the_solver_on_rational_basis_coboundaries(name, seed, degree, r):
    mat, ncols = _rebased_differential(name, seed, degree, r)
    solver = LinearSolver(mat, ncols)
    assert _pivot_columns(mat, ncols) == solver.pivot_cols
    assert rank(mat, ncols) == solver.rank


def test_least_fill_rule_leaves_fewer_nonzeros_on_a_rational_basis_d1():
    """gl(2) in the rational basis of seed 5, coadjoint d^1 at module degree
    2 (60 x 40, 660 nonzeros): the rank pass leaves fewer nonzeros in its
    work rows than the positional pass, with the same pivot columns."""
    mat, ncols = _rebased_differential("gl2", 5, 2, 1)
    assert (len(mat), ncols, sum(map(len, mat.numerators))) == (60, 40, 660)
    left = {}
    for sparsest in (False, True):
        work = [ints for ints, _ in _integer_rows(mat, ncols)[0]]
        pivots = _eliminate(work, ncols, sparsest=sparsest)[1]
        left[sparsest] = (pivots, sum(map(len, work)))
    assert left[True][0] == left[False][0]
    assert left[True][1] < left[False][1]


def test_dict_row_columns_must_lie_in_range():
    for row in ({3: Fraction(1)}, {-1: Fraction(2)}, {0: Fraction(1), 7: Fraction(0)}):
        with pytest.raises(ValueError, match="column"):
            LinearSolver([{0: Fraction(1)}, row], 3)
        with pytest.raises(ValueError, match="column"):
            rank([row], 3)
    with pytest.raises(ValueError, match="ncols"):
        LinearSolver([{0: Fraction(1)}])
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 2], [3]], 2)


# ---------------------------------------------------------------------------
# partial solutions of inconsistent systems, against sympy's RREF of [M | I]


def _placed_rows(mat, ncols):
    """Original indices of the rows the dense pivot rule places, in pivot
    order, from a plain Fraction forward elimination with its row swaps."""
    rows = [list(row) for row in mat]
    order = list(range(len(rows)))
    k = 0
    for col in range(ncols):
        found = next((pos for pos in range(k, len(rows)) if rows[pos][col]), None)
        if found is None:
            continue
        rows[k], rows[found] = rows[found], rows[k]
        order[k], order[found] = order[found], order[k]
        for pos in range(k + 1, len(rows)):
            f = rows[pos][col] / rows[k][col]
            rows[pos] = [a - f * b for a, b in zip(rows[pos], rows[k])]
        k += 1
    return order[:k]


def _sympy_transform(mat, ncols):
    """The pivot rows E of sympy's rref_den of [M | I], rows of M and I moved
    alike so that the placed rows come last: the identity columns of the
    other rows then hold the pivots below the rank, and E is supported on
    the placed rows, as the pivot rule's transform is."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(mat)
    placed = _placed_rows(mat, ncols)
    perm = [i for i in range(n) if i not in placed] + placed
    aug = [[QQ(x.numerator, x.denominator) for x in mat[i]] + [QQ(int(i == j)) for j in perm]
           for i in perm]
    rref, den, pivots = DomainMatrix(aug, (n, ncols + n), QQ).rref_den()
    den = Fraction(int(den.numerator), int(den.denominator))
    rank = sum(1 for p in pivots if p < ncols)
    transform = [[Fraction(0)] * n for _ in range(rank)]
    for k, row in enumerate(rref.to_list()[:rank]):
        for c, i in enumerate(perm):
            x = row[ncols + c]
            transform[k][i] = Fraction(int(x.numerator), int(x.denominator)) / den
    return list(pivots[:rank]), transform


@st.composite
def _inconsistent_systems(draw):
    """(dense rows, ncols, b) with more rows than columns and b outside the
    column span."""
    nrows = draw(st.integers(2, 6))
    ncols = draw(st.integers(1, nrows - 1))
    cell = st.one_of(st.just(Fraction(0)), _entries)
    mat = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(_entries) for _ in range(nrows)]
    return mat, ncols, b


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_inconsistent_systems())
def test_solve_partial_of_an_inconsistent_system_is_the_transform_applied_to_b(case):
    mat, ncols, b = case
    pivots, transform = _sympy_transform(mat, ncols)
    for rows in (mat, _dict_rows(mat)):
        solver = LinearSolver(rows, ncols)
        if solver.is_consistent(b):
            # a left-null row n of M has n.b = 0; b + n misses the span
            b = [x + y for x, y in zip(b, solver.null_rows[0])]
        assert not solver.is_consistent(b)
        expected = [Fraction(0)] * ncols
        for col, row in zip(pivots, transform):
            expected[col] = sum((e * x for e, x in zip(row, b)), Fraction(0))
        assert solver.pivot_cols == pivots
        assert solver.transform_rows == transform
        assert solver.solve_partial(b) == expected


def test_coboundary_solver_stores_less_transform_than_gauss_jordan():
    """The so(3) coadjoint degree-12 d^1 solver keeps only L, the identity
    tail of its echelon pivot rows: fewer nonzeros than the 3150 that
    Gauss-Jordan's transform rows on the same matrix hold."""
    algebra = so3_algebra()
    module = induced_polynomial_module(algebra, algebra.dim, coadjoint_rep(algebra), 12)
    solver = module.coboundary_solver(2)
    assert solver.rank == 183
    assert sum(map(len, solver._l_columns)) < 3150


# ---------------------------------------------------------------------------
# the integer entry point against the rational wrappers


def _check_integer_solve(solver, rows, b):
    """solve_numerators on b, over the lcm of its denominators and over three
    times that, against the rational wrappers and the rows of M themselves."""
    den = math.lcm(*(x.denominator for x in b))
    for k in (1, 3):
        y, scale, violated = solver.solve_numerators([int(x * den * k) for x in b], den * k)
        assert all(type(v) is int for v in y) and type(scale) is int and scale > 0
        x = [Fraction(v, scale) for v in y]
        assert x == solver.solve_partial(b)
        assert all(x[j] == 0 for j in range(solver.ncols) if j not in solver.pivot_cols)
        if violated is None:
            assert solver.is_consistent(b) and solver.null_functional(b) is None
            assert solver.solve(b) == x
            assert [sum((e * x[j] for j, e in row.items()), Fraction(0)) for row in rows] == b
        else:
            assert not solver.is_consistent(b) and solver.solve(b) is None
            lam = [Fraction(v) for v in violated]
            assert lam == solver.null_functional(b)
            assert lam == next(row for row in solver.null_rows if dot(row, b))
            assert not any(sum((lam[i] * row[j] for i, row in enumerate(rows) if j in row),
                               Fraction(0)) for j in range(solver.ncols))


@st.composite
def _right_hand_sides(draw, rows, ncols):
    """b = M v, the same plus a random vector, and zero: the first and last
    are consistent, the middle one mostly not; entries reach denominator 3."""
    v = [draw(_entries) for _ in range(ncols)]
    image = [sum((x * v[j] for j, x in row.items()), Fraction(0)) for row in rows]
    noise = [draw(_entries) for _ in rows]
    return [image, [x + y for x, y in zip(image, noise)], [Fraction(0)] * len(rows)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_integer_solves_match_the_rational_wrappers(data):
    """Dense rows, {column: value} rows and IntegerRows give one solver each,
    and every right-hand side reads the same through both entry points."""
    mat, ncols = data.draw(_rational_matrices())
    rows = _dict_rows(mat)
    numerators = _integer_form(mat)
    for b in data.draw(_right_hand_sides(rows, ncols)):
        for given_rows in (mat, rows, numerators):
            _check_integer_solve(LinearSolver(given_rows, ncols), rows, b)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_integer_solves_match_on_a_cached_coboundary_solver(data):
    """The so(3) coadjoint d^1 at module degrees 1-3, solved through the
    module's cached solver as the engines solve it."""
    algebra = so3_algebra()
    degree = data.draw(st.integers(1, 3))
    module = induced_polynomial_module(algebra, algebra.dim, coadjoint_rep(algebra), degree)
    rows = list(module.differential_matrix(1))
    for b in data.draw(_right_hand_sides(rows, module.cochain_dim(1))):
        _check_integer_solve(module.coboundary_solver(2), rows, b)
