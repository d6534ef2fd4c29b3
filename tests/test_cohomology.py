"""Cochain complex construction, the coboundary solver, and diagnostics."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poislin.cohomology import (
    Cochain,
    GModule,
    InputNotCocycle,
    ObstructionClass,
    ce_differential,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
    is_cocycle,
    solve_coboundary,
)
from poislin.liealg import ExactTable, LieAlgebra
from poislin.linalg import LinearSolver, rank
from poislin.normalform import linearize_poisson
from poislin.polyalg import PoissonJet, monomials

from helpers import (
    dense,
    gl2_algebra,
    random_rational_basis,
    rebased_algebra,
    sl2_algebra,
    so3_algebra,
    solvable2_algebra,
)
from oracles import ce_differential_dense, induced_module_matrices, representation_defect


def adjoint_module(L):
    return GModule(L, [L.ad(L.basis_vector(i)) for i in range(L.dim)])


def random_cochain(rng, module, degree, pool=(-2, -1, 0, 0, 1, 2)):
    return Cochain(module, degree, [
        Fraction(rng.choice(pool)) for _ in range(module.cochain_dim(degree))
    ])


def test_gmodule_validates_representation_property():
    L = so3_algebra()
    good = [L.ad(L.basis_vector(i)) for i in range(3)]
    GModule(L, good)
    bad = [good[0], good[1], [[0] * 3 for _ in range(3)]]
    with pytest.raises(ValueError, match="representation property"):
        GModule(L, bad)


@pytest.mark.parametrize("dim, matrices, labels, message", [
    (1, [], None, "need one matrix per algebra generator"),
    (1, [[[1], [0]]], None, "representation matrices must be square, equal size"),
    (2, [[[1]], [[1, 0], [0, 1]]], None, "representation matrices must be square, equal size"),
    (1, [[[1]]], ["a", "b"], "need one label per module basis vector"),
])
def test_gmodule_rejects_malformed_input(dim, matrices, labels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GModule(LieAlgebra.abelian(dim), matrices, labels)


def test_cochain_rejects_a_negative_degree_and_a_wrong_length():
    module = GModule(LieAlgebra.abelian(1), [[[1]]])
    with pytest.raises(ValueError, match="cochain degree must be non-negative"):
        Cochain(module, -1, [])
    with pytest.raises(ValueError, match=re.escape("flat vector length 2 does not match C^1")):
        Cochain(module, 1, [1, 2])


def test_differential_squares_to_zero():
    """d(d(w)) = 0 on random cochains across algebras and module degrees."""
    rng = random.Random(61)
    algebras = [so3_algebra(), sl2_algebra(), gl2_algebra(), LieAlgebra.abelian(2)]
    for L in algebras:
        rep = coadjoint_rep(L)
        for vdeg in range(1, 5):
            module = induced_polynomial_module(L, L.dim, rep, vdeg)
            for r in range(0, 3):
                omega = random_cochain(rng, module, r)
                assert ce_differential(ce_differential(omega)).is_zero()


def test_degree_zero_differential_is_the_action():
    """For v = e0 in the adjoint module of so(3), (dv)(e1) = [e1, e0] = -e2."""
    L = so3_algebra()
    module = adjoint_module(L)
    v = Cochain.from_components(module, 0, {(): [1, 0, 0]})
    dv = ce_differential(v)
    assert dv.component((1,)) == [0, 0, -1]
    assert dv.component((0,)) == [0, 0, 0]
    assert dv.component((2,)) == [0, 1, 0]  # [e2, e0] = e1


def test_zero_and_trivial_cases():
    L = so3_algebra()
    module = adjoint_module(L)
    assert ce_differential(Cochain.zero(module, 1)).is_zero()
    ab = LieAlgebra.abelian(2)
    trivial = GModule(ab, [[[0]], [[0]]])
    for r in (0, 1):
        omega = Cochain(trivial, r, [1] * trivial.cochain_dim(r))
        assert ce_differential(omega).is_zero()


def test_is_cocycle():
    rng = random.Random(62)
    L = so3_algebra()
    module = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    hits = 0
    for _ in range(10):
        omega = random_cochain(rng, module, 1)
        assert is_cocycle(ce_differential(omega))
        if not is_cocycle(omega):
            hits += 1
    assert hits > 5


def test_solve_coboundary_roundtrip():
    """Primitives found for constructed coboundaries; d sigma = R exactly."""
    rng = random.Random(63)
    L = so3_algebra()
    module = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    for _ in range(8):
        sigma0 = random_cochain(rng, module, 1)
        target = ce_differential(sigma0)
        sigma = solve_coboundary(target)
        assert isinstance(sigma, Cochain)
        assert ce_differential(sigma) == target


def test_solve_coboundary_zero():
    L = so3_algebra()
    module = adjoint_module(L)
    out = solve_coboundary(Cochain.zero(module, 2))
    assert isinstance(out, Cochain)
    assert out.is_zero()


def test_solve_coboundary_is_deterministic():
    rng = random.Random(64)
    L = sl2_algebra()
    module = induced_polynomial_module(L, 3, coadjoint_rep(L), 3)
    sigma0 = random_cochain(rng, module, 1)
    target = ce_differential(sigma0)
    a = solve_coboundary(target)
    b = solve_coboundary(target)
    assert a == b


def test_solve_coboundary_rejects_non_cocycle():
    L = so3_algebra()
    module = adjoint_module(L)
    omega = Cochain.from_components(module, 1, {(0,): [1, 0, 0]})
    assert not is_cocycle(omega)
    with pytest.raises(InputNotCocycle):
        solve_coboundary(omega)


def test_obstruction_certificate_for_trivial_action():
    """Abelian algebra, trivial 1-dim module: d vanishes, so a nonzero
    2-cocycle has no primitive and the certificate verifies."""
    ab = LieAlgebra.abelian(2)
    trivial = GModule(ab, [[[0]], [[0]]])
    target = Cochain.from_components(trivial, 2, {(0, 1): [1]})
    out = solve_coboundary(target)
    assert isinstance(out, ObstructionClass)
    assert out.verify()
    assert out.h_dim == 1
    lam = out.functional
    assert sum(a * b for a, b in zip(lam, target.vector)) != 0


def test_a_certificates_cochain_keeps_its_fraction_entries():
    """Rebuilding the cocycle of the {x, y} = x^2 certificate gives the
    cochain the Fraction(x) conversion gave, holding the same entry
    objects; int entries are still converted."""
    cert, _trace = linearize_poisson(PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]}))
    module, degree, vector = cert.cocycle.module, cert.cocycle.degree, cert.cocycle.vector
    rebuilt = Cochain(module, degree, vector)
    assert rebuilt.vector == [Fraction(x) for x in vector]
    assert all(a is b for a, b in zip(rebuilt.vector, vector))
    assert cert.verify()
    ints = Cochain(module, degree, [int(x) for x in vector]).vector
    assert {type(x) for x in ints} == {Fraction}


def test_cohomology_dimensions_spot_values():
    so3 = so3_algebra()
    m3 = induced_polynomial_module(so3, 3, coadjoint_rep(so3), 3)
    assert cohomology_dimension(m3, 1) == 0
    m2 = induced_polynomial_module(so3, 3, coadjoint_rep(so3), 2)
    assert cohomology_dimension(m2, 2) == 0
    ab = LieAlgebra.abelian(2)
    trivial = GModule(ab, [[[0]], [[0]]])
    assert cohomology_dimension(trivial, 1) == 2


def test_induced_module_degree_one_is_the_rep():
    L = sl2_algebra()
    rep = coadjoint_rep(L)
    module = induced_polynomial_module(L, 3, rep, 1)
    assert [list(map(list, m)) for m in module.matrices] == [
        [[Fraction(x) for x in row] for row in mat] for mat in rep
    ]


def test_so3_degree_two_invariant_is_the_quadratic_casimir():
    """The joint kernel of the degree-2 action matrices is x^2 + y^2 + z^2."""
    L = so3_algebra()
    module = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    assert module.dim == 6
    rows = []
    for mat in module.matrices:
        rows.extend(list(row) for row in mat)
    kernel = LinearSolver(rows, 6).kernel_basis()
    assert len(kernel) == 1
    labels = module.labels
    vec = kernel[0]
    expected = {m: Fraction(0) for m in labels}
    expected[(2, 0, 0)] = expected[(0, 2, 0)] = expected[(0, 0, 2)] = vec[labels.index((2, 0, 0))]
    assert dict(zip(labels, vec)) == expected
    assert vec[labels.index((2, 0, 0))] != 0


def test_induced_module_zero_action():
    ab = LieAlgebra.abelian(2)
    rep = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    module = induced_polynomial_module(ab, 2, rep, 3)
    assert all(all(x == 0 for row in mat for x in row) for mat in module.matrices)


def test_induced_module_rejects_bad_rep():
    L = so3_algebra()
    rep = coadjoint_rep(L)
    rep[2] = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="representation property"):
        induced_polynomial_module(L, 3, rep, 2)


def test_bad_rep_is_rejected_at_every_degree():
    L = so3_algebra()
    rep = coadjoint_rep(L)
    rep[1] = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for degree in (1, 3, 1, 4):
        with pytest.raises(ValueError, match="representation property"):
            induced_polynomial_module(L, 3, rep, degree)
    with pytest.raises(ValueError, match="representation property"):
        induced_polynomial_module(L, 3, rep, 2, fiber=(0, 2))


def test_representation_is_checked_once_for_all_degrees(monkeypatch):
    import poislin

    poislin.clear_caches()
    calls = []
    check = GModule._check_representation
    monkeypatch.setattr(GModule, "_check_representation",
                        lambda self: calls.append(self.dim) or check(self))
    L = gl2_algebra()
    rep = coadjoint_rep(L)
    for degree in (3, 1, 2, 4, 3):
        induced_polynomial_module(L, 4, rep, degree)
    assert calls == [4]


def test_monomial_filter_submodule():
    """A fiber cut selecting a non-invariant set of monomials is rejected;
    an invariant one restricts the module."""
    L = so3_algebra()
    rep = coadjoint_rep(L)
    with pytest.raises(ValueError, match="submodule"):
        induced_polynomial_module(L, 3, rep, 2, fiber=(1, 1))
    ab = LieAlgebra.abelian(1)
    zero_rep = [[[0]]]
    module = induced_polynomial_module(ab, 1, zero_rep, 4, fiber=(0, 4))
    assert module.dim == len(monomials(1, 4))


def test_induced_module_caching():
    L = so3_algebra()
    a = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    b = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    assert a is b


def test_module_cache_evicts_the_least_recently_used_entry():
    """The module cache holds at most 64 modules and evicts the least
    recently used: of two modules built before 62 others, the one looked
    up again outlives a further build and the other does not.  Every
    degree looks up the validated degree-1 module, so that one stays."""
    import poislin
    from poislin.cohomology import _induced_module

    poislin.clear_caches()
    L = LieAlgebra.abelian(1)
    rep = [[[0]]]
    capacity = _induced_module.cache_info().maxsize
    assert capacity == 64
    first, second = (induced_polynomial_module(L, 1, rep, d) for d in (2, 3))
    for d in range(4, capacity + 1):
        induced_polynomial_module(L, 1, rep, d)
    assert _induced_module.cache_info().currsize == capacity   # degrees 1 .. 64
    assert induced_polynomial_module(L, 1, rep, 2) is first     # now the most recent
    induced_polynomial_module(L, 1, rep, capacity + 1)
    assert _induced_module.cache_info().currsize == capacity
    assert induced_polynomial_module(L, 1, rep, 2) is first
    assert induced_polynomial_module(L, 1, rep, 3) is not second
    for d in range(capacity + 2, 3 * capacity):
        induced_polynomial_module(L, 1, rep, d)
    assert _induced_module.cache_info().currsize == capacity
    poislin.clear_caches()
    assert _induced_module.cache_info().currsize == 0


def test_exact_tables_compare_by_value_and_hash_once():
    table = ExactTable([[[1, Fraction(-2, 4)], [0, 3]]])
    same = ExactTable([[[Fraction(2, 2), Fraction(-1, 2)], [Fraction(0), 3]]])
    assert table == same and hash(table) == hash(same)
    assert table[0][0][1] == Fraction(-1, 2)
    assert table != ExactTable([[[1, Fraction(1, 2)], [0, 3]]])
    assert table != ExactTable([[[1, Fraction(-1, 2), 0, 3]]])
    plain = tuple(table)
    assert plain == tuple(same) and table != plain and plain != table
    assert len({table: 1, plain: 2}) == 2


def test_module_cache_shares_equal_algebras_without_hashing_fractions(monkeypatch):
    """An equal algebra built apart, with its representation given as a
    list or as an ExactTable, finds the cached module; repeated lookups
    hash no Fraction."""
    import poislin

    poislin.clear_caches()
    L = so3_algebra()
    module = induced_polynomial_module(L, 3, coadjoint_rep(L), 3)
    again = LieAlgebra._trusted([[list(row) for row in plane] for plane in L.constants])
    assert again is not L
    rep = ExactTable(coadjoint_rep(again))
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or fraction_hash(q))
    for _ in range(5):
        assert induced_polynomial_module(again, 3, rep, 3) is module
    assert hashed == []
    assert induced_polynomial_module(again, 3, coadjoint_rep(again), 3) is module


def test_clear_caches_empties_the_module_cache():
    import poislin

    L = so3_algebra()
    a = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    poislin.clear_caches()
    assert induced_polynomial_module(L, 3, coadjoint_rep(L), 2) is not a


# Whitehead: H^1 = H^2 = 0 for the semisimple so(3) and sl(2); Kuenneth with
# the central w of gl(2): H^1 = floor(d/2) + 1, H^2 = 0.
KNOWN_H1 = {"so3": lambda d: 0, "sl2": lambda d: 0, "gl2": lambda d: d // 2 + 1}


@pytest.mark.parametrize("name, degree, h1", [
    (name, degree, h1(degree)) for name, h1 in KNOWN_H1.items()
    for degree in (*range(2, 9), 10, 12)
])
def test_known_cohomology_at_high_module_degree(name, degree, h1):
    L = {"so3": so3_algebra, "sl2": sl2_algebra, "gl2": gl2_algebra}[name]()
    module = induced_polynomial_module(L, L.dim, coadjoint_rep(L), degree)
    assert cohomology_dimension(module, 1) == h1
    assert cohomology_dimension(module, 2) == 0


def test_known_cohomology_of_gl2_in_a_rational_basis_at_degree_4():
    """Cohomology does not depend on the basis: gl(2) in the rational basis
    of seed 5 has the standard basis's H^1 = floor(4/2) + 1 = 3 and H^2 = 0
    at module degree 4, with module denominator above 1."""
    L = rebased_algebra(gl2_algebra(), random_rational_basis(random.Random(5), 4))
    module = induced_polynomial_module(L, L.dim, coadjoint_rep(L), 4)
    assert module.differential_matrix(1).den > 1
    assert cohomology_dimension(module, 1) == 3
    assert cohomology_dimension(module, 2) == 0


def test_a_six_variable_coadjoint_module_holds_only_its_nonzero_rows():
    """The degree-6 coadjoint module of the so(3) action algebroid's dual
    isotropy (6 variables, 462 monomials) keeps no dense matrix: building
    it holds under 3 MB, where one dense 462 x 462 Fraction matrix per
    generator took about 10 MB."""
    import tracemalloc

    import poislin
    from helpers import so3_action_algebroid
    from poislin.algebroid import algebroid_to_poisson
    from poislin.liealg import isotropy_from_linear_part

    iso = isotropy_from_linear_part(algebroid_to_poisson(so3_action_algebroid(3)))
    rep = coadjoint_rep(iso)
    poislin.clear_caches()
    tracemalloc.start()
    try:
        module = induced_polynomial_module(iso, 6, rep, 6)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        poislin.clear_caches()
    assert module.dim == 462
    assert held < 3 * 2 ** 20


@pytest.mark.parametrize("name, rational, degree", [
    *((name, False, degree) for name in ("so3", "sl2", "gl2", "aff1") for degree in range(2, 7)),
    ("gl2", True, 2), ("gl2", True, 3),
])
def test_the_euler_characteristic_of_the_coadjoint_complex_is_zero(name, rational, degree):
    """sum_r (-1)^r dim H^r(g, S^d g) = sum_r (-1)^r C(n, r) dim S^d g = 0,
    in the standard basis and in the seed-5 rational basis.  Each H^r also
    comes from a complex of its own, where rank d_{r-1} is eliminated in
    full and rank d_r with clearing, so the sum checks cleared ranks
    against full ones; and no H^r is negative."""
    import poislin

    L = {"so3": so3_algebra, "sl2": sl2_algebra, "gl2": gl2_algebra,
         "aff1": solvable2_algebra}[name]()
    if rational:
        L = rebased_algebra(L, random_rational_basis(random.Random(5), L.dim))
    module = lambda: induced_polynomial_module(L, L.dim, coadjoint_rep(L), degree)
    shared = [cohomology_dimension(module(), r) for r in range(L.dim + 1)]
    alone = []
    for r in range(L.dim + 1):
        poislin.clear_caches()
        alone.append(cohomology_dimension(module(), r))
    poislin.clear_caches()
    assert shared == alone and min(shared) >= 0
    assert sum((-1) ** r * h for r, h in enumerate(shared)) == 0


# ---------------------------------------------------------------------------
# rational bases: numerators over a denominator from module to rank


ALGEBRAS = {"so3": so3_algebra, "sl2": sl2_algebra, "gl2": gl2_algebra,
            "aff1": solvable2_algebra}


def _rebased_modules(name, rng):
    """(standard algebra, rebased algebra, two reps of the rebased algebra):
    its coadjoint rep, whose numerators share the constants' denominator,
    and the standard coadjoint rep pulled back along the basis change,
    whose entries carry only the basis's denominators."""
    standard = ALGEBRAS[name]()
    basis = random_rational_basis(rng, standard.dim)
    L = rebased_algebra(standard, basis)
    n = L.dim
    plain = coadjoint_rep(standard)
    pulled = [[[sum((basis[a][i] * plain[i][l][u] for i in range(n)), Fraction(0))
                for u in range(n)] for l in range(n)] for a in range(n)]
    return standard, L, (coadjoint_rep(L), pulled)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), seed=st.integers(0, 10 ** 6),
       degree=st.integers(1, 3))
def test_rational_bases_match_the_standard_basis_and_the_ce_formula(name, seed, degree):
    """In a seeded rational basis the coadjoint modules of so(3), sl(2),
    gl(2) and aff(1) have the standard basis's H^1 and H^2; their operator
    matrices and differentials equal a Fraction reference built from the
    derivation rule and the Chevalley-Eilenberg formula; and a perturbed
    rational rep is rejected."""
    import poislin

    poislin.clear_caches()
    rng = random.Random(seed)
    standard, L, reps = _rebased_modules(name, rng)
    n = L.dim
    plain = induced_polynomial_module(standard, n, coadjoint_rep(standard), degree)
    for rep in reps:
        module = induced_polynomial_module(L, n, rep, degree)
        for r in (1, 2):
            assert cohomology_dimension(module, r) == cohomology_dimension(plain, r)
        matrices = induced_module_matrices(rep, module.labels)
        assert [[list(row) for row in mat] for mat in module.matrices] == matrices
        for r in range(3):
            assert (dense(module.differential_matrix(r), module.cochain_dim(r))
                    == ce_differential_dense(L.constants, matrices, r))
    bad = [[list(row) for row in mat] for mat in reps[rng.randrange(2)]]
    i, l, u = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    bad[i][l][u] += Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
    assume(representation_defect(L.constants, bad))
    with pytest.raises(ValueError, match="representation property"):
        induced_polynomial_module(L, n, bad, degree)


def test_a_rational_basis_gives_non_integral_modules_and_differentials():
    """The rebased algebras the test above draws carry denominators into
    the module and the differential (here for one fixed seed each), and
    pulled-back reps can have a smaller module denominator than their
    differential, which then scales the action numerators up."""
    wider = []
    for name in sorted(ALGEBRAS):
        _, L, (coadjoint, pulled) = _rebased_modules(name, random.Random(name))
        module = induced_polynomial_module(L, L.dim, coadjoint, 2)
        assert module.den > 1, name
        assert module.differential_matrix(1).den > 1, name
        module = induced_polynomial_module(L, L.dim, pulled, 2)
        if module.differential_matrix(1).den > module.den:
            wider.append(name)
    assert wider == ["gl2", "sl2", "so3"]


def test_cold_cohomology_builds_fewer_fractions_than_differential_nonzeros():
    """From module to rank the so(3) degree-6 coadjoint queries run on
    integers: counted with a profile hook on Fraction.__new__, cold H^1 and
    H^2 construct fewer Fractions than a tenth of the nonzeros of the
    differentials they build, so no per-entry round trip through Fraction
    is left (building the module and differentials from Fraction entries
    took 477 constructions for 588 nonzeros)."""
    import sys

    import poislin

    L = so3_algebra()
    rep = ExactTable(coadjoint_rep(L))
    poislin.clear_caches()
    code = Fraction.__new__.__code__
    built = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built[0] += 1

    sys.setprofile(count)
    try:
        module = induced_polynomial_module(L, 3, rep, 6)
        dims = cohomology_dimension(module, 1), cohomology_dimension(module, 2)
    finally:
        sys.setprofile(None)
    assert dims == (0, 0)
    nonzeros = sum(len(row) for r in range(3)
                   for row in module.differential_matrix(r))
    poislin.clear_caches()
    assert nonzeros == 588
    assert built[0] * 10 < nonzeros


# ---------------------------------------------------------------------------
# cleared ranks: rank d_r eliminates only the coordinates P_{r-1} leaves free


def _coadjoint_module(name, basis, degree):
    L = ALGEBRAS[name]()
    if basis == "rational":
        L = rebased_algebra(L, random_rational_basis(random.Random(5), L.dim))
    return induced_polynomial_module(L, L.dim, coadjoint_rep(L), degree)


@pytest.mark.parametrize("basis", ["standard", "rational"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_cleared_ranks_equal_the_full_ranks(name, basis):
    """Every differential's rank, eliminated with the coordinates P_{r-1}
    dropped, equals linalg.rank of the full matrix at module degrees 1-4,
    whether H^2 is asked before H^1, H^1 before H^2, or the solver of d_1
    is built first and hands over its pivot rows; so does every H^r."""
    import poislin

    for degree in range(1, 5):
        poislin.clear_caches()
        module = _coadjoint_module(name, basis, degree)
        top = module.algebra.dim
        full = [rank(module.differential_matrix(r), module.cochain_dim(r))
                for r in range(top + 1)]
        h = [module.cochain_dim(r) - full[r] - (full[r - 1] if r else 0)
             for r in range(top + 1)]
        for first in ("H2", "H1", "solver"):
            poislin.clear_caches()
            module = _coadjoint_module(name, basis, degree)
            if first == "solver":
                module.coboundary_solver(2)
            for r in ([2, 1] if first == "H2" else [1, 2]) + list(range(top + 1)):
                assert cohomology_dimension(module, r) == h[r], (degree, first, r)
            assert [module.differential_rank(r) for r in range(top + 1)] == full
    poislin.clear_caches()


def test_cleared_ranks_of_the_so3_algebroids_graded_complexes():
    """The fiber-degree graded pieces the algebroid engine solves in are
    subcomplexes, so clearing holds there too: on the so(3) action
    algebroid's dual isotropy, each rank equals linalg.rank of the full
    differential of the piece."""
    import poislin
    from helpers import so3_action_algebroid
    from poislin.algebroid import _DualGradedComplex, algebroid_to_poisson
    from poislin.liealg import isotropy_from_linear_part

    iso = isotropy_from_linear_part(algebroid_to_poisson(so3_action_algebroid(3)))
    for degree in range(1, 4):
        poislin.clear_caches()
        full_cx = _DualGradedComplex(iso, 3, degree)
        full = [rank(full_cx.differential_matrix(r), full_cx.cochain_dim(r))
                for r in range(iso.dim + 1)]
        cx = _DualGradedComplex(iso, 3, degree)
        dims = [cx.h_dim(r) for r in (2, 1, *range(iso.dim + 1))]
        assert [cx.differential_rank(r) for r in range(iso.dim + 1)] == full
        assert dims[2:] == [full_cx.cochain_dim(r) - full[r] - (full[r - 1] if r else 0)
                            for r in range(iso.dim + 1)]
        assert sum(full) > 0
    poislin.clear_caches()


def test_cleared_ranks_hand_fewer_nonzeros_to_the_elimination(monkeypatch):
    """H^1 then H^2 of gl(2) in the seed-5 rational basis at module degree 2
    hand at most 1,100 nonzeros to `linalg._eliminate` (a work count, not a
    timing): eliminating d_0, d_1 and d_2 in full hands it 1,500, and
    clearing d_1 by P_0 and d_2 by P_1 hands it 1,026."""
    import poislin
    from poislin import linalg

    poislin.clear_caches()
    L = rebased_algebra(gl2_algebra(), random_rational_basis(random.Random(5), 4))
    handed = []
    original = linalg._eliminate

    def counted(work, ncols, *args, **kwargs):
        handed.append(sum(len(row) for row in work))
        return original(work, ncols, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    module = induced_polynomial_module(L, L.dim, coadjoint_rep(L), 2)
    assert (cohomology_dimension(module, 1), cohomology_dimension(module, 2)) == (2, 0)
    poislin.clear_caches()
    assert len(handed) == 3
    assert sum(handed) <= 1100
