"""Cochain complex construction, the coboundary solver, and diagnostics."""

import random
from fractions import Fraction

import pytest

from poislin.cohomology import (
    Cochain,
    GModule,
    InputNotCocycle,
    LRUCache,
    ObstructionClass,
    ce_differential,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
    is_cocycle,
    solve_coboundary,
)
from poislin.liealg import LieAlgebra
from poislin.linalg import LinearSolver
from poislin.polyalg import monomials

from helpers import gl2_algebra, sl2_algebra, so3_algebra


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
        induced_polynomial_module(L, 3, rep, 2, monomial_filter=lambda m: True,
                                  filter_key="all")


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
    """A filter selecting a non-invariant set of monomials is rejected; an
    invariant one restricts the module."""
    L = so3_algebra()
    rep = coadjoint_rep(L)
    with pytest.raises(ValueError, match="submodule"):
        induced_polynomial_module(L, 3, rep, 2, monomial_filter=lambda m: m[0] >= 1)
    ab = LieAlgebra.abelian(1)
    zero_rep = [[[0]]]
    module = induced_polynomial_module(ab, 1, zero_rep, 4, monomial_filter=lambda m: True)
    assert module.dim == len(monomials(1, 4))


def test_induced_module_caching():
    L = so3_algebra()
    a = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    b = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    assert a is b


def test_module_cache_evicts_the_least_recently_used_entry():
    cache = LRUCache()
    for key in range(LRUCache.CAPACITY):
        cache[key] = str(key)
    assert cache.get(0) == "0"          # 0 is now the most recently used
    cache[LRUCache.CAPACITY] = "new"
    assert len(cache) == LRUCache.CAPACITY
    assert cache.get(1) is None         # the least recently used went
    assert cache.get(0) == "0"
    for key in range(3 * LRUCache.CAPACITY):
        cache[("more", key)] = key
    assert len(cache) == LRUCache.CAPACITY
    cache.clear()
    assert len(cache) == 0


def test_clear_caches_empties_the_module_cache():
    import poislin

    L = so3_algebra()
    a = induced_polynomial_module(L, 3, coadjoint_rep(L), 2)
    poislin.clear_caches()
    assert induced_polynomial_module(L, 3, coadjoint_rep(L), 2) is not a


@pytest.mark.parametrize("name, degree, h1", [
    ("so3", 10, 0),      # Whitehead: H^1 = H^2 = 0 for semisimple algebras
    ("sl2", 10, 0),
    ("gl2", 8, 5),       # Kuenneth with the central w: H^1 = floor(d/2) + 1
])
def test_known_cohomology_at_high_module_degree(name, degree, h1):
    L = {"so3": so3_algebra, "sl2": sl2_algebra, "gl2": gl2_algebra}[name]()
    module = induced_polynomial_module(L, L.dim, coadjoint_rep(L), degree)
    assert cohomology_dimension(module, 1) == h1
    assert cohomology_dimension(module, 2) == 0
