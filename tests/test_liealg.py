"""Lie algebra structure theory: Killing form, radical, Levi pairs."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from poislin.liealg import (
    ExactTable,
    LeviSplit,
    LeviSplitError,
    LieAlgebra,
    center,
    derived_series,
    derived_subalgebra,
    is_compact_type,
    is_semisimple,
    isotropy_from_linear_part,
    killing_form,
    levi_lift,
    radical,
    subalgebra_constants,
    verify_levi_split,
)
from poislin.linalg import mat_mul, rank, row_space_solver
from poislin.polyalg import pushforward

from helpers import (
    change_basis_constants,
    gl2_algebra,
    random_invertible_matrix,
    random_near_identity_change,
    random_rational_basis,
    rebased_algebra,
    record_calls,
    sl2_algebra,
    sl2_nonabelian_radical_algebra,
    so3_algebra,
    so3_bivector,
    solvable2_algebra,
)
from oracles import brute_killing


def test_structure_constant_validation():
    with pytest.raises(ValueError, match="antisym"):
        LieAlgebra([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    # [e0,e1]=e0, [e0,e2]=e1 fails Jacobi on (0,1,2)
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra.from_sparse(3, [(0, 1, 0, 1), (0, 2, 1, 1)])


@pytest.mark.parametrize("constants", [
    [[[0, 0]]],
    [[[0], [0]], [[0], [0]]],
    [[[0, 0], [0]], [[0, 0], [0, 0]]],
])
def test_structure_constants_must_form_a_cube(constants):
    with pytest.raises(ValueError, match=re.escape("structure constants must form an n*n*n array")):
        LieAlgebra(constants)


def _first_failing_ordered_triple(c):
    """The Jacobi check over every ordered triple, as constructors once ran it."""
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                                + c[k][i][m] * c[m][j][l] for m in range(n))
                    if total:
                        return i, j, k
    return None


def test_jacobi_failure_names_the_first_ordered_triple():
    rng = random.Random(41)
    failures = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        entries = [(i, j, k, rng.choice((0, 0, 0, 1, -1, 2)))
                   for i in range(n) for j in range(i + 1, n) for k in range(n)]
        table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, v in entries:
            table[i][j][k] = Fraction(v)
            table[j][i][k] = -Fraction(v)
        triple = _first_failing_ordered_triple(table)
        if triple is None:
            LieAlgebra(table)
            continue
        failures += 1
        assert list(triple) == sorted(triple)
        with pytest.raises(ValueError) as info:
            LieAlgebra(table)
        assert str(info.value) == "Jacobi identity fails on basis triple ({},{},{})".format(*triple)
    assert failures > 40


def test_exact_table_keeps_the_fractions_it_is_given():
    q = Fraction(2, 3)
    table = ExactTable([[[q, 1], [0, "-1/2"]]])
    assert table[0][0][0] is q
    assert all(type(x) is Fraction for row in table[0] for x in row)
    assert table == ExactTable([[[Fraction(4, 6), Fraction(1)], [0, Fraction(-1, 2)]]])


def test_from_sparse_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        LieAlgebra.from_sparse(3, [(0, 1, 2, 1), (1, 0, 2, -1)])


def test_bracket_and_ad():
    L = so3_algebra()
    assert L.bracket(L.basis_vector(0), L.basis_vector(1)) == L.basis_vector(2)
    ad0 = L.ad(L.basis_vector(0))
    # [e0, e1] = e2 and [e0, e2] = -e1
    assert [row[1] for row in ad0] == L.basis_vector(2)
    assert [row[2] for row in ad0] == [Fraction(0), Fraction(-1), Fraction(0)]


def test_killing_form_frozen_values():
    """so(3) gives -2*identity, the sl(2) basis here gives diag(2,2,-2)."""
    k_so3 = killing_form(so3_algebra())
    assert k_so3 == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    k_sl2 = killing_form(sl2_algebra())
    assert k_sl2 == [[2, 0, 0], [0, 2, 0], [0, 0, -2]]


def test_killing_form_against_brute_oracle():
    rng = random.Random(51)
    for L in (so3_algebra(), sl2_algebra(), gl2_algebra(), sl2_nonabelian_radical_algebra()):
        assert killing_form(L) == brute_killing(L.constants)
        twisted = LieAlgebra(change_basis_constants(L, random_invertible_matrix(rng, L.dim)))
        assert killing_form(twisted) == brute_killing(twisted.constants)


def test_killing_form_equals_the_trace_of_the_ad_product():
    """Each entry is tr(ad_a ad_b) as the dense matrix product gives it, on
    so(3), sl(2), gl(2) and gl(2) in a seeded rational basis."""
    gl2 = gl2_algebra()
    rebased = rebased_algebra(gl2, random_rational_basis(random.Random(5), gl2.dim))
    for L in (so3_algebra(), sl2_algebra(), gl2, rebased):
        ads = [L.ad(L.basis_vector(i)) for i in range(L.dim)]
        reference = [[sum((row[i] for i, row in enumerate(mat_mul(a, b))), Fraction(0))
                      for b in ads] for a in ads]
        assert killing_form(L) == reference
    assert any(x.denominator > 1 for row in killing_form(rebased) for x in row)


def test_killing_form_ad_invariance():
    """K([X,Y],Z) + K(Y,[X,Z]) = 0 on all basis triples."""
    for L in (so3_algebra(), sl2_algebra(), gl2_algebra(), sl2_nonabelian_radical_algebra()):
        k = killing_form(L)
        n = L.dim
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    lhs = sum(
                        L.constants[i][j][m] * k[m][l] + k[j][m] * L.constants[i][l][m]
                        for m in range(n)
                    )
                    assert lhs == 0


def test_semisimple_and_compact_flags():
    assert is_semisimple(so3_algebra()) and is_compact_type(so3_algebra())
    assert is_semisimple(sl2_algebra()) and not is_compact_type(sl2_algebra())
    ab = LieAlgebra.abelian(2)
    assert not is_semisimple(ab) and not is_compact_type(ab)
    assert not is_semisimple(gl2_algebra())


def test_radical_cases():
    assert radical(so3_algebra()) == []
    ab = LieAlgebra.abelian(2)
    assert radical(ab) == [[1, 0], [0, 1]]
    assert radical(gl2_algebra()) == [[0, 0, 0, 1]]
    assert radical(solvable2_algebra()) == [[1, 0], [0, 1]]


def test_radical_is_an_ideal():
    rng = random.Random(52)
    for base in (gl2_algebra(), sl2_nonabelian_radical_algebra()):
        L = LieAlgebra(change_basis_constants(base, random_invertible_matrix(rng, base.dim)))
        rad = radical(L)
        if not rad:
            continue
        solver = row_space_solver(rad, L.dim)
        for i in range(L.dim):
            for v in rad:
                assert solver.solve(L.bracket(L.basis_vector(i), v)) is not None


def test_derived_subalgebra_of_gl2():
    d = derived_subalgebra(gl2_algebra())
    assert len(d) == 3
    solver = row_space_solver(d, 4)
    for i in range(3):
        assert solver.solve(gl2_algebra().basis_vector(i)) is not None
    assert solver.solve(gl2_algebra().basis_vector(3)) is None


def test_center_of_gl2():
    assert center(gl2_algebra()) == [[0, 0, 0, 1]]
    assert center(so3_algebra()) == []


def test_derived_series_of_solvable_radical():
    L = sl2_nonabelian_radical_algebra()
    rad = radical(L)
    series = derived_series(L, rad)
    assert len(series) == 2
    assert [len(term) for term in series] == [2, 1]


def test_isotropy_from_linear_part():
    pi = so3_bivector(4)
    L = isotropy_from_linear_part(pi)
    assert L == so3_algebra()


def test_isotropy_invariant_under_near_identity_pushforward():
    rng = random.Random(53)
    pi = so3_bivector(4)
    for _ in range(5):
        phi = random_near_identity_change(rng, 3, 4)
        moved = pushforward(pi, phi)
        assert isotropy_from_linear_part(moved) == so3_algebra()


def test_subalgebra_constants_requires_closure():
    L = gl2_algebra()
    with pytest.raises(ValueError, match="not closed"):
        subalgebra_constants(L, [L.basis_vector(0), L.basis_vector(1)])


# -- Levi pairs ---------------------------------------------------------------


def test_verify_levi_split_accepts_valid_pairs():
    so3 = so3_algebra()
    split = verify_levi_split(so3, so3.basis(), [])
    assert isinstance(split, LeviSplit)
    gl2 = gl2_algebra()
    split = verify_levi_split(
        gl2, [gl2.basis_vector(i) for i in range(3)], [gl2.basis_vector(3)]
    )
    assert len(split.s_basis) == 3 and len(split.r_basis) == 1


def test_verify_levi_split_violations():
    gl2 = gl2_algebra()
    sl2_part = [gl2.basis_vector(i) for i in range(3)]
    with pytest.raises(LeviSplitError) as err:
        verify_levi_split(gl2, sl2_part, [gl2.basis_vector(0)])
    assert err.value.violation == "NotDirectSum"
    with pytest.raises(LeviSplitError) as err:
        verify_levi_split(
            gl2,
            [gl2.basis_vector(0), gl2.basis_vector(1), gl2.basis_vector(3)],
            [gl2.basis_vector(2)],
        )
    assert err.value.violation == "SNotSubalgebra"
    with pytest.raises(LeviSplitError) as err:
        verify_levi_split(gl2, [gl2.basis_vector(3)], sl2_part)
    assert err.value.violation == "SNotSemisimple"
    mixed = [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]  # e0 + e3
    with pytest.raises(LeviSplitError) as err:
        verify_levi_split(gl2, sl2_part, [mixed])
    assert err.value.violation == "RNotInvariant"


def test_levi_lift_semisimple():
    for L in (so3_algebra(), sl2_algebra()):
        split = levi_lift(L)
        assert split.r_basis == ()
        assert rank(split.s_basis, L.dim) == L.dim


def test_levi_lift_solvable():
    split = levi_lift(solvable2_algebra())
    assert split.s_basis == ()
    assert len(split.r_basis) == 2


def test_levi_lift_gl2():
    split = levi_lift(gl2_algebra())
    assert split.r_basis == ((0, 0, 0, 1),)
    # s is conjugate to the standard sl(2): same Killing signature
    s_constants = subalgebra_constants(gl2_algebra(), split.s_basis)
    k = killing_form(LieAlgebra(s_constants))
    from poislin.linalg import symmetric_signature

    assert symmetric_signature(k) == (2, 1, 0)


def test_levi_lift_twisted_bases():
    """Levi lift after hiding the split with a random change of basis."""
    rng = random.Random(54)
    for base in (gl2_algebra(), sl2_nonabelian_radical_algebra()):
        for _ in range(6):
            L = LieAlgebra(change_basis_constants(base, random_invertible_matrix(rng, base.dim)))
            split = levi_lift(L)
            verify_levi_split(L, split.s_basis, split.r_basis)
            assert len(split.r_basis) == len(radical(L))


@pytest.mark.parametrize("build", [gl2_algebra, sl2_nonabelian_radical_algebra])
def test_levi_lift_validates_no_intermediate_algebra(monkeypatch, build):
    """The quotients and subalgebras of the lift are built unchecked, and
    the split it returns certifies itself once."""
    L = build()
    algebras = record_calls(monkeypatch, LieAlgebra, "__init__")
    certified = record_calls(monkeypatch, LeviSplit, "__post_init__")
    split = levi_lift(L)
    assert (len(algebras), len(certified)) == (0, 1)
    assert len(split.s_basis) == 3


def test_a_levi_split_holds_fraction_tuples_and_stays_certified():
    gl2 = gl2_algebra()
    split = LeviSplit(gl2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [["0", 0, 0, 1]])
    assert split == verify_levi_split(gl2, split.s_basis, split.r_basis)
    for basis in (split.s_basis, split.r_basis):
        assert type(basis) is tuple
        assert all(type(v) is tuple and all(type(x) is Fraction for x in v) for v in basis)
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.r_basis = split.s_basis


def test_levi_lift_nonabelian_radical_goes_through_series():
    """Radical of derived length two takes the recursive branch."""
    L = sl2_nonabelian_radical_algebra()
    split = levi_lift(L)
    assert len(split.s_basis) == 3
    assert len(split.r_basis) == 2
    # the lifted complement really is a subalgebra isomorphic to sl(2)
    k = killing_form(LieAlgebra(subalgebra_constants(L, split.s_basis)))
    from poislin.linalg import symmetric_signature

    assert symmetric_signature(k) == (2, 1, 0)
