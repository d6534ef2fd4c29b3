"""Exact linear algebra layer, cross-checked against sympy matrices."""

import random
from fractions import Fraction

import pytest
import sympy

from poislin.linalg import (
    LinearSolver,
    det,
    extend_to_basis,
    identity_matrix,
    mat_mul,
    mat_vec,
    rank,
    row_space_solver,
    symmetric_signature,
)


def random_matrix(rng, nrows, ncols, pool=(-3, -2, -1, 0, 0, 1, 2, 3)):
    return [[Fraction(rng.choice(pool)) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        assert rank(mat) == sympy.Matrix(mat).rank()


def test_det_matches_sympy():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        expected = Fraction(sympy.Rational(sympy.Matrix(mat).det()))
        assert det(mat) == expected


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
        if det(mat) == 0:
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
        x, res = solver.solve_partial(b)
        assert [bi - ri for bi, ri in zip(b, mat_vec(mat, x))] == res
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
