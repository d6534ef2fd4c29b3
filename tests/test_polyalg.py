"""Jet arithmetic, coordinate changes, bivectors, and the text form,
checked against sympy-based reference computations."""

import math
import random
import re
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from poislin.polyalg import (
    CoordChange,
    Jet,
    ParseError,
    PoissonJet,
    PolyOneForm,
    compose_change,
    compose_jets,
    derivative_along,
    differential,
    format_polynomial,
    grlex_key,
    invert_change,
    is_poisson_map,
    jacobiator,
    koszul_bracket,
    monomials,
    one_form_pairing,
    packed_basis,
    parse_polynomial,
    poisson_bracket,
    pushforward,
    sharp,
    solve_composed,
)
from poislin.algebroid import AlgebroidChange, apply_algebroid_change, linearize_algebroid
from poislin.liealg import isotropy_from_linear_part, verify_levi_split
from poislin.normalform import (
    conjugate_action,
    is_action_map,
    levi_decompose,
    linearize_action,
    linearize_poisson,
)
from poislin.polyalg import _Powers, _first_order_pushforward

from helpers import (
    coadjoint_action,
    gl2_algebra,
    linear_bivector,
    random_jet,
    random_linear_change,
    random_near_identity_change,
    random_rational_basis,
    record_calls,
    sl2_algebra,
    sl2_bivector,
    so3_algebra,
    so3_action_algebroid,
    so3_bivector,
    solvable2_algebra,
    unit,
)
from oracles import (
    bracket_expr,
    dict_add,
    dict_diff,
    dict_mul,
    dict_scale,
    dict_substitute,
    dict_truncate,
    jacobiator_expr,
    jet_dict,
    jet_to_expr,
    poly_dict,
    series_inverse,
    sym_vars,
)


def test_monomial_order_degree_two():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_monomial_order_is_graded():
    pool = monomials(3, 2) + monomials(3, 3)
    assert sorted(pool, key=grlex_key) == pool


def test_monomial_counts():
    # C(d + n - 1, n - 1) monomials of degree d in n variables
    assert len(monomials(3, 4)) == 15
    assert len(monomials(4, 3)) == 20
    assert monomials(2, 0) == [(0, 0)]


def test_jet_constructor_drops_high_degree_and_zeros():
    jet = Jet(2, 2, {(1, 0): 1, (0, 3): 5, (2, 0): 0})
    assert jet_dict(jet) == {(1, 0): Fraction(1)}


def test_jet_rejects_floats():
    with pytest.raises(TypeError):
        Jet(1, 2, {(1,): 0.5})


def test_jet_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Jet(2, 2, {(1,): 1})
    with pytest.raises(ValueError):
        Jet(2, 2, {(-1, 0): 1})


def test_product_matches_sympy():
    rng = random.Random(11)
    for _ in range(30):
        nvars = rng.randint(1, 4)
        order = rng.randint(2, 6)
        a = random_jet(rng, nvars, order)
        b = random_jet(rng, nvars, order)
        v = sym_vars(nvars)
        expected = poly_dict(jet_to_expr(a, v) * jet_to_expr(b, v), v, order)
        assert jet_dict(a * b) == expected


def test_sum_and_scalar_ops():
    rng = random.Random(12)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        order = rng.randint(1, 5)
        a = random_jet(rng, nvars, order)
        b = random_jet(rng, nvars, order)
        v = sym_vars(nvars)
        assert jet_dict(a + b) == poly_dict(jet_to_expr(a, v) + jet_to_expr(b, v), v, order)
        assert jet_dict(a - b) == poly_dict(jet_to_expr(a, v) - jet_to_expr(b, v), v, order)
        assert jet_dict(a * Fraction(3, 2)) == poly_dict(jet_to_expr(a, v) * sympy.Rational(3, 2), v, order)
    assert (a / Fraction(1, 2)) == a * 2


def test_power():
    x = Jet.variable(0, 2, 6)
    y = Jet.variable(1, 2, 6)
    f = x + y
    v = sym_vars(2)
    assert jet_dict(f**4) == poly_dict((v[0] + v[1]) ** 4, v, 6)
    assert f**0 == Jet.one(2, 6)


def test_truncation_is_enforced_by_products():
    x = Jet.variable(0, 1, 3)
    p = (x + x * x) * (x + x * x) * (x + x * x)
    # (x + x^2)^3 = x^3 + 3x^4 + ...; everything above the order is gone
    assert p == Jet(1, 3, {(3,): 1})


def test_diff_matches_sympy():
    rng = random.Random(13)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        f = random_jet(rng, nvars, 5)
        v = sym_vars(nvars)
        i = rng.randrange(nvars)
        assert jet_dict(f.diff(i)) == poly_dict(sympy.diff(jet_to_expr(f, v), v[i]), v, 5)


def test_substitute_matches_sympy():
    rng = random.Random(14)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        inner_vars = rng.randint(1, 3)
        order = rng.randint(2, 5)
        f = random_jet(rng, nvars, order)
        args = [random_jet(rng, inner_vars, order, lowest=1) for _ in range(nvars)]
        v = sym_vars(nvars)
        w = sym_vars(inner_vars)
        expr = jet_to_expr(f, v).subs(
            [(v[i], jet_to_expr(args[i], w)) for i in range(nvars)], simultaneous=True
        )
        assert jet_dict(f.substitute(args)) == poly_dict(expr, w, order)


def test_substitute_requires_origin_fixed():
    f = Jet.variable(0, 1, 3)
    g = Jet.one(1, 3)
    with pytest.raises(ValueError):
        f.substitute([g])


def test_linear_forms_build_and_read_back_the_degree_one_coefficients():
    rng = random.Random(29)
    for nvars, order in [(1, 0), (2, 1), (3, 4), (4, 3)]:
        units = [tuple(int(t == k) for t in range(nvars)) for k in range(nvars)]
        for _ in range(10):
            jet = random_jet(rng, nvars, order, coeff_pool=(-3, Fraction(1, 2), 2))
            coeffs = jet.linear_coefficients()
            assert coeffs == [jet.coefficient(u) for u in units]
            assert Jet.linear(coeffs, order) == jet.homogeneous_part(1)


def test_homogeneous_part_and_degrees():
    jet = Jet(2, 4, {(1, 0): 2, (1, 1): 3, (0, 4): -1})
    assert jet.lowest_degree() == 1
    assert jet.highest_degree() == 4
    assert jet_dict(jet.homogeneous_part(2)) == {(1, 1): Fraction(3)}
    assert Jet.zero(2, 4).lowest_degree() is None
    # (1, -4, 3) packs in base 3 like the constant monomial
    assert Jet.one(3, 2).coefficient((1, -4, 3)) == 0


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _jets(draw, nvars, lowest=0):
    """(jet, its terms as a Fraction dict): up to six terms of degree
    `lowest` through an order of 0 to 5, small rational coefficients."""
    order = draw(st.integers(0, 5))
    pool = [m for m in product(range(order + 1), repeat=nvars) if lowest <= sum(m) <= order]
    terms = draw(st.dictionaries(st.sampled_from(pool), COEFFS, max_size=6)) if pool else {}
    return Jet(nvars, order, terms), {m: c for m, c in terms.items() if c}


def _same(jet, ref, order):
    """jet is the jet of the Fraction dict `ref` at `order`: its terms in
    graded-lex order, equal to and hashing like the jet built from `ref`,
    and its state canonical (den the lcm of the term denominators)."""
    n = jet.nvars
    assert jet.order == order
    assert list(jet.terms()) == sorted(ref.items(), key=lambda t: grlex_key(t[0]))
    direct = Jet(n, order, ref)
    assert jet == direct and hash(jet) == hash(direct)
    assert jet.den == lcm(*(c.denominator for c in ref.values()))
    assert gcd(jet.den, *(v for _, v in jet.numerators())) == 1


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integer_views_match_a_fraction_dict_reference(data):
    n = data.draw(st.integers(1, 3))
    (a, ra), (b, rb) = data.draw(_jets(n)), data.draw(_jets(n))
    for d in range(a.order + 2):
        keys = dict(zip(packed_basis(monomials(n, d), a.order)[0], monomials(n, d)))
        assert {keys[k]: Fraction(v, a.den) for k, v in a.packed_numerators(d).items()} == {
            m: c for m, c in ra.items() if sum(m) == d}
    assert Jet.from_numerators(n, a.order, a.den, a.numerators()) == a
    assert a.lowest_degree(2) == min((sum(m) for m in ra if sum(m) >= 2), default=None)
    for other, ref in ((a, ra), (b, rb)):
        for start in (0, 2):
            sums = {}
            for m, c in ra.items():
                if m in ref and sum(m) >= start:
                    weight = math.prod(math.factorial(e) for e in m)
                    sums[sum(m)] = sums.get(sum(m), 0) + c * a.den * ref[m] * other.den * weight
            assert a.weighted_sums(other, start) == {d: v for d, v in sums.items() if v}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_jet_state_matches_a_fraction_dict_reference(data):
    n = data.draw(st.integers(1, 3))
    (a, ra), (b, rb) = data.draw(_jets(n)), data.draw(_jets(n))
    c = data.draw(COEFFS.filter(bool))
    low = min(a.order, b.order)
    _same(a + b, dict_add(ra, rb, low), low)
    _same(a - b, dict_add(ra, dict_scale(rb, -1), low), low)
    _same(-a, dict_scale(ra, -1), a.order)
    _same(a * c, dict_scale(ra, c), a.order)
    _same(a / c, dict_scale(ra, 1 / c), a.order)
    _same(a * b, dict_mul(ra, rb, low), low)
    for order in range(a.order + 3):
        _same(a.truncate(order), dict_truncate(ra, order), order)
    for i in range(n):
        _same(a.diff(i), dict_diff(ra, i), a.order)
    for d in range(a.order + 2):
        _same(a.homogeneous_part(d), {m: v for m, v in ra.items() if sum(m) == d}, a.order)
    args = [data.draw(_jets(n, lowest=1)) for _ in range(n)]
    order = min(a.order, *(arg.order for arg, _ in args))
    _same(a.substitute([arg for arg, _ in args]),
          dict_substitute(ra, [r for _, r in args], order), order)
    for m in product(range(a.order + 2), repeat=n):
        assert a.coefficient(m) == ra.get(m, 0)
    # equal jets built along different paths
    for x, y in (((a + b) - b, a.truncate(low)), (a * c / c, a), (-(-a), a),
                 (a * b, b * a), (a.truncate(a.order + 2).truncate(a.order), a)):
        assert x == y and hash(x) == hash(y)


# -- coordinate changes -----------------------------------------------------


def test_invert_one_variable_frozen_series():
    """Inverse of x + x^2 through degree 5 has signed Catalan coefficients."""
    x = Jet.variable(0, 1, 5)
    phi = CoordChange([x + x * x])
    psi = invert_change(phi)
    assert jet_dict(psi.components[0]) == {
        (1,): Fraction(1),
        (2,): Fraction(-1),
        (3,): Fraction(2),
        (4,): Fraction(-5),
        (5,): Fraction(14),
    }
    t = sympy.symbols("t")
    oracle = series_inverse(t + t**2, t, 5)
    assert poly_dict(oracle, (t,), 5) == jet_dict(psi.components[0])


def test_invert_round_trip():
    rng = random.Random(15)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        order = rng.randint(2, 6)
        phi = random_near_identity_change(rng, nvars, order)
        if rng.random() < 0.5:
            phi = compose_change(random_linear_change(rng, nvars, order), phi)
        psi = invert_change(phi)
        assert compose_change(phi, psi).is_identity()
        assert compose_change(psi, phi).is_identity()


def _tail_change(rng, nvars, order, degrees, linear=False):
    """x + a tail with terms in exactly the given degrees, optionally after
    a random linear change."""
    comps = []
    for i in range(nvars):
        comp = Jet.variable(i, nvars, order)
        for d in degrees:
            mono = monomials(nvars, d)[rng.randrange(len(monomials(nvars, d)))]
            comp = comp + Jet(nvars, order, {mono: Fraction(rng.choice((-3, -1, 1, 2)),
                                                             rng.choice((1, 2, 3)))})
        comps.append(comp)
    phi = CoordChange(comps)
    return compose_change(phi, random_linear_change(rng, nvars, order)) if linear else phi


def test_transport_builds_one_power_table_for_an_identity_linear_part(monkeypatch):
    """pushforward, conjugate_action and invert_change solve F o phi = B on
    phi's own power table, and a change whose linear part is the identity
    keeps that table: the three transports and compositions by phi build
    it once between them.  Where every transport by phi = x + t, t of lowest
    degree l, is first order they build none: at order 6 the linear so(3)
    pi has L = N + 1, B = D(phi) X has L = l and B = x none, so l = 4 and
    6 give min(2l - 1, L + l - 1) = 7 and 11, above the order, and l = 2
    and 3 give 3 and 5.  A linear part A other than the identity keeps no
    table: each transport builds that of A^-1, plus that of phi~ = phi o A^-1
    only when its transport is not first order (l = 2 and 3, not l = 6),
    and a composition by phi builds phi's."""
    rng = random.Random(156)
    order = 6
    pi, action = so3_bivector(order), coadjoint_action(so3_algebra(), order)
    built = record_calls(monkeypatch, _Powers, "__init__")
    for lowest, tables, composed in ((2, 1, 1), (3, 1, 1), (4, 0, 1), (order, 0, 0)):
        phi = _tail_change(rng, 3, order, [lowest])
        built.clear()
        pushforward(pi, phi)
        conjugate_action(action, phi)
        invert_change(phi)
        assert len(built) == tables
        # chi starts at degree L = 2, so chi o phi is first order for l = 6 alone
        compose_change(phi, _tail_change(rng, 3, order, [2], linear=True))
        invert_change(phi)
        assert len(built) == composed
    for lowest, tables in ((2, 2), (3, 2), (order, 1)):
        phi = _tail_change(rng, 3, order, [lowest], linear=True)
        for transport, count in ((lambda: pushforward(pi, phi), tables),
                                 (lambda: conjugate_action(action, phi), tables),
                                 (lambda: invert_change(phi), tables),
                                 (lambda: compose_change(phi, phi), 1)):
            built.clear()
            transport()
            assert len(built) == count


def _cyclic_change(rng, nvars, order):
    """x_i -> x_i + a x_{i+1}^2 + b x_i x_{i+1} x_{i+2}, indices mod n."""
    comps = []
    for i in range(nvars):
        j, k = (i + 1) % nvars, (i + 2) % nvars
        comps.append(Jet(nvars, order, {
            unit(i, nvars): 1,
            tuple(2 * (t == j) for t in range(nvars)): Fraction(rng.choice((-3, -1, 2)), 2),
            tuple((t == i) + (t == j) + (t == k) for t in range(nvars)): rng.choice((-2, 1, 3)),
        }))
    return CoordChange(comps)


def test_engine_runs_build_a_power_table_only_for_corrections_not_first_order(monkeypatch):
    """A correction whose transport is first order composes first order with
    every later one, so `change()` builds no table, and one that is not
    builds its table once, for its transport and its compositions.  Counted
    on moved so(3) and sl(2) duals at order 6 under both schedulers, a moved
    so(3) coadjoint action at order 4, a moved gl(2) dual split at order 4
    and a moved so(3) action algebroid at order 3 (each built 6, 5, 8 and 3
    tables when compositions and solves all went through a table)."""
    rng = random.Random(157)
    runs = []
    for algebra in (so3_algebra(), sl2_algebra()):
        moved = pushforward(linear_bivector(algebra, 6), _cyclic_change(rng, 3, 6))
        runs += [(lambda m=moved, s=scheduler: linearize_poisson(m, s), 2)
                 for scheduler in ("doubling", "degree")]
    moved = conjugate_action(coadjoint_action(so3_algebra(), 4), _cyclic_change(rng, 3, 4))
    runs.append((lambda: linearize_action(moved), 1))
    gl2 = pushforward(linear_bivector(gl2_algebra(), 4), _cyclic_change(rng, 4, 4))
    eye = [[Fraction(int(t == s)) for s in range(4)] for t in range(4)]
    split = verify_levi_split(isotropy_from_linear_part(gl2), eye[:3], eye[3:])
    runs.append((lambda: levi_decompose(gl2, split), 2))
    base = _cyclic_change(rng, 3, 4)
    frame = [[Jet.one(3, 4) if i == j else Jet.zero(3, 4) for j in range(3)] for i in range(3)]
    for i in range(3):
        frame[i][(i + 2) % 3] = Jet(3, 4, {unit((i + 1) % 3, 3): Fraction(rng.choice((-1, 2)))})
    algebroid = apply_algebroid_change(so3_action_algebroid(3), AlgebroidChange(base, frame))
    runs.append((lambda: linearize_algebroid(algebroid), 1))
    built = record_calls(monkeypatch, _Powers, "__init__")
    for run, tables in runs:
        built.clear()
        assert len(run()) == 3
        assert len(built) == tables


def test_invert_round_trip_for_every_lowest_tail_degree():
    rng = random.Random(151)
    for order in (2, 4, 6):
        for lowest in range(2, order + 1):
            for nvars in (1, 3):
                phi = _tail_change(rng, nvars, order, [lowest], linear=lowest % 2 == 0)
                psi = invert_change(phi)
                assert compose_change(phi, psi).is_identity()
                assert compose_change(psi, phi).is_identity()


def test_invert_round_trip_for_mixed_degree_tails():
    rng = random.Random(152)
    for degrees in ([2, 5], [3, 4], [3, 6], [4, 5, 6], [2, 3, 4, 5, 6]):
        phi = _tail_change(rng, 3, 6, degrees, linear=True)
        psi = invert_change(phi)
        assert compose_change(phi, psi).is_identity()
        assert compose_change(psi, phi).is_identity()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_transport_solves_the_morphism_equation(data):
    """pushforward, conjugate_action and invert_change each return the F
    with F o phi = B; is_poisson_map, is_action_map and the composition law
    check that with no inverse taken, for tails from degree 2 to N alone,
    after a rational linear change, and for a purely linear change."""
    nvars = data.draw(st.integers(2, 4), label="nvars")
    order = data.draw(st.integers(3, 6), label="order")
    lowest = data.draw(st.integers(2, order), label="lowest")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    algebra = {2: solvable2_algebra, 3: rng.choice((so3_algebra, sl2_algebra)),
               4: gl2_algebra}[nvars]()
    pi, action = linear_bivector(algebra, order), coadjoint_action(algebra, order)
    tail = random_near_identity_change(rng, nvars, order, lowest=lowest)
    linear = CoordChange.linear(random_rational_basis(rng, nvars), order)
    for phi in (tail, compose_change(linear, tail), linear):
        assert is_poisson_map(pi, phi, pushforward(pi, phi))
        assert is_action_map(action, phi, conjugate_action(action, phi))
        assert compose_change(phi, invert_change(phi)).is_identity()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_first_order_pushforward_on_both_sides_of_its_boundary(data):
    """A pushforward by phi = x + t, t of lowest degree l, of a pi whose
    nonlinear part starts at degree L is the first-order image pi - L_t pi_1
    exactly when M = min(2l - 1, L + l - 1) > N, and is solved otherwise.
    (l, L) are drawn with M - N in {-1, 0, 1}, L < l included, for a linear
    pi or one with no linear part, moved by a tail from degree L; each image
    satisfies the morphism equation, and the composition law holds across
    the step by phi and a generic step."""
    nvars = data.draw(st.integers(2, 4), label="nvars")
    order = data.draw(st.integers(3, 7), label="order")
    linear = data.draw(st.booleans(), label="linear")
    l, L = data.draw(st.sampled_from([
        (l, L) for l in range(2, order + 1) for L in range(2, order + 1 + linear)
        if min(2 * l - 1, L + l - 1) - order in (-1, 0, 1)]), label="l, L")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if linear:
        algebra = {2: solvable2_algebra, 3: rng.choice((so3_algebra, sl2_algebra)),
                   4: gl2_algebra}[nvars]()
        pi = linear_bivector(algebra, order)
    else:
        mono = rng.choice(monomials(nvars, L))
        f = Jet(nvars, order, {mono: rng.choice((3, 5))}) + random_jet(rng, nvars, order,
                                                                      lowest=L)
        pi = PoissonJet.from_brackets(nvars, order, {(0, 1): f})
    if L <= order:
        pi = pushforward(pi, _tail_change(rng, nvars, order, range(L, order + 1)))
    phi = _tail_change(rng, nvars, order, range(l, order + 1))
    L = min((jet.lowest_degree(2) or order + 1 for row in pi.entries for jet in row),
            default=order + 1)
    first_order = min(2 * l - 1, L + l - 1) > order
    assert (_first_order_pushforward(pi, phi, order) is not None) == first_order
    assert is_poisson_map(pi, phi, pushforward(pi, phi))
    generic = compose_change(random_near_identity_change(rng, nvars, order),
                             CoordChange.linear(random_rational_basis(rng, nvars), order))
    assert (pushforward(pushforward(pi, phi), generic)
            == pushforward(pi, compose_change(phi, generic)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_first_order_composition_and_solve_on_both_sides_of_their_boundaries(data):
    """For phi = x + t, t of lowest degree l, and a jet J whose nonlinear
    part starts at degree L, compose_jets reads J o phi = J + J_1(t) off
    J and t exactly when L + l - 1 > N, and solve_composed the F with
    F o phi = J as J - J_1(t) exactly when min(2l - 1, L + l - 1) > N,
    building no power table; otherwise each fills phi's table.  (l, L) are
    drawn with that bound less N in {-1, 0, 1}, for jets with a constant
    term and a linear part, one order below phi's or at it; each result
    equals the one a power table of phi gives."""
    nvars = data.draw(st.integers(2, 4), label="nvars")
    order = data.draw(st.integers(3, 7), label="order")
    solve = data.draw(st.booleans(), label="solve")
    top = data.draw(st.sampled_from([order - 1, order]), label="jet order")

    def bound(l, L):
        return min(2 * l - 1, L + l - 1) if solve else L + l - 1

    l, L = data.draw(st.sampled_from([
        (l, L) for l in range(2, order + 1) for L in range(2, top + 2)
        if bound(l, L) - top in (-1, 0, 1)]), label="l, L")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    phi = _tail_change(rng, nvars, order, range(l, order + 1))
    jet = Jet(nvars, top, {(0,) * nvars: rng.choice((0, 1, Fraction(-2, 3)))})
    jet = jet + Jet.linear([rng.choice((0, 0, 1, -2, Fraction(1, 2))) for _ in range(nvars)], top)
    if L <= top:
        jet = jet + Jet(nvars, top, {rng.choice(monomials(nvars, L)): rng.choice((3, 5))})
        jet = jet + random_jet(rng, nvars, top, lowest=L)
    powers = _Powers(phi.components)
    fresh = CoordChange._trusted(phi.components)
    if solve:
        (out,) = solve_composed([jet], fresh)
        assert out == powers.solve((jet.den, jet.truncate(order)._num), top)
        assert powers.substitute(out) == jet
    else:
        (out,) = compose_jets([jet], fresh)
        assert out == powers.substitute(jet)
    assert (fresh._powers is None) == (bound(l, L) > top)


def test_invert_linear_only_and_tail_above_the_order():
    rng = random.Random(153)
    lin = random_linear_change(rng, 3, 5)
    psi = invert_change(lin)
    assert all(c.highest_degree() in (None, 1) for c in psi.components)
    assert compose_change(lin, psi).is_identity()
    # a degree-6 tail is cut at order 5, so no round runs and psi is the
    # inverse of the linear part alone
    x, y = Jet.variable(0, 2, 6), Jet.variable(1, 2, 6)
    shear = CoordChange.linear([[1, 2], [0, 3]], 6)
    high = compose_change(CoordChange([x + y ** 6, y - x ** 3 * y ** 3]), shear).truncate(5)
    assert invert_change(high) == invert_change(shear.truncate(5))
    assert invert_change(high).components[0] == Jet(2, 5, {(1, 0): 1, (0, 1): Fraction(-2, 3)})


def test_invert_matches_sympy_series_inverse():
    t = sympy.symbols("t")
    order = 7
    for expr in (t + t**3, 2 * t - t**2 / 3 + t**4, t - t**5 / 2,
                 t / 2 + t**2 + t**3, t - t**7):
        phi = CoordChange([Jet(1, order, poly_dict(expr, (t,), order))])
        oracle = series_inverse(expr, t, order)
        assert jet_dict(invert_change(phi).components[0]) == poly_dict(oracle, (t,), order)


def test_jets_substituted_into_one_argument_tuple_match_sympy():
    rng = random.Random(154)
    for _ in range(8):
        nvars = rng.randint(1, 3)
        inner_vars = rng.randint(1, 3)
        # arguments of differing orders: the substitution truncates at the lowest
        orders = [rng.randint(2, 6) for _ in range(nvars)]
        args = [random_jet(rng, inner_vars, o, lowest=1, coeff_pool=(-1, Fraction(1, 2), 3))
                for o in orders]
        w = sym_vars(inner_vars)
        v = sym_vars(nvars)
        arg_exprs = [(v[i], jet_to_expr(args[i], w)) for i in range(nvars)]
        jets = [random_jet(rng, nvars, rng.randint(2, 6), max_terms=8) for _ in range(4)]
        # one power table serves every jet; later jets reuse earlier powers
        powers = _Powers(args)
        for f in jets:
            expr = jet_to_expr(f, v).subs(arg_exprs, simultaneous=True)
            order = min([f.order] + orders)
            out = powers.substitute(f)
            assert out.order == order
            assert jet_dict(out) == poly_dict(expr, w, order)
            assert out == f.substitute(args)


def test_power_tables_pass_high_degrees_through_for_identity_linear_parts():
    """x + a tail of lowest degree l leaves every term of degree above
    N - l + 1 unchanged, and only such a table says so; every transport
    through either kind of table stays a Poisson map and composes."""
    rng = random.Random(155)
    for order in range(3, 8):
        assert _Powers(CoordChange.identity(3, order).components).keep == 0
        pi = pushforward(so3_bivector(order), random_near_identity_change(rng, 3, order))
        for lowest in range(2, order + 1):
            for linear in (False, True):
                phi = _tail_change(rng, 3, order, [lowest], linear=linear)
                keep = order if linear else order - lowest + 1
                assert _Powers(phi.components).keep == keep
                moved = pushforward(pi, phi)
                assert is_poisson_map(pi, phi, moved)
                chi = _tail_change(rng, 3, order, [rng.randint(2, order)],
                                   linear=rng.random() < 0.5)
                assert pushforward(moved, chi) == pushforward(pi, phi.then(chi))


def test_transports_build_no_fractions():
    """Transports read and write the jets' integer states: counted with a
    profile hook on Fraction.__new__, moving an so(3) dual at order 6 by
    near-identity changes, composing, inverting and checking the map build
    no Fraction at all (converting every result to Fraction coefficients
    took 249 constructions here)."""
    rng = random.Random(13)
    order = 6
    pi = so3_bivector(order)
    phi = random_near_identity_change(rng, 3, order)
    psi = random_near_identity_change(rng, 3, order)
    moved = pushforward(pi, phi)
    code = Fraction.__new__.__code__
    built = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built[0] += 1

    sys.setprofile(count)
    try:
        again = pushforward(moved, psi)
        both = compose_change(phi, psi)
        inverse = invert_change(phi)
        maps = is_poisson_map(pi, phi, moved), is_poisson_map(pi, both, again)
    finally:
        sys.setprofile(None)
    assert maps == (True, True)
    assert compose_change(phi, inverse).is_identity()
    assert built[0] == 0


def test_compose_applies_left_argument_first():
    # phi doubles x, psi shifts by x^2; doubling then shifting gives 2x + 4x^2
    phi = CoordChange.linear([[2]], 4)
    x = Jet.variable(0, 1, 4)
    psi = CoordChange([x + x * x])
    both = compose_change(phi, psi)
    assert jet_dict(both.components[0]) == {(1,): Fraction(2), (2,): Fraction(4)}


def test_coord_change_requires_invertible_linear_part():
    x = Jet.variable(0, 2, 3)
    with pytest.raises(ValueError):
        CoordChange([x, x])


def test_coord_change_requires_fixed_origin():
    x = Jet.variable(0, 1, 3)
    with pytest.raises(ValueError):
        CoordChange([x + 1])


def test_derivative_along_needs_one_component_per_variable_of_f():
    """X(f) reads X's components against f's packed keys, so X must have one
    component per variable of f, each on f's variables: X = (x, x) in 3
    variables on f = xy in 2 once returned x + y."""
    f = Jet(2, 3, {(1, 1): 1})
    x, y, x3 = Jet.variable(0, 2, 3), Jet.variable(1, 2, 3), Jet.variable(0, 3, 3)
    assert derivative_along([x, y], f) == 2 * f
    for field in ([x3, x3], [x, y, x], [x]):
        with pytest.raises(ValueError, match="different variable sets"):
            derivative_along(field, f)


# -- bivectors ---------------------------------------------------------------


def test_is_poisson_map_needs_one_variable_count():
    """pi, phi and the target must share one variable count, as in
    pushforward: a plane target against so(3) once raised a bare
    IndexError."""
    pi, phi = so3_bivector(4), CoordChange.identity(3, 4)
    plane = PoissonJet.from_brackets(2, 4, {(0, 1): Jet.variable(0, 2, 4)})
    for args in ((pi, phi, plane), (plane, phi, pi), (pi, CoordChange.identity(2, 4), pi)):
        with pytest.raises(ValueError, match="different variable counts"):
            is_poisson_map(*args)
    assert is_poisson_map(pi, phi, pi)


def test_so3_bracket_spot_value():
    pi = so3_bivector(4)
    x = Jet.variable(0, 3, 4)
    y = Jet.variable(1, 3, 4)
    assert jet_dict(poisson_bracket(x * x, y, pi)) == {(1, 0, 1): Fraction(2)}


def test_bracket_antisymmetry_and_leibniz():
    rng = random.Random(16)
    pi = so3_bivector(6)
    for _ in range(10):
        f = random_jet(rng, 3, 6)
        g = random_jet(rng, 3, 6)
        h = random_jet(rng, 3, 6)
        assert poisson_bracket(f, g, pi) == -poisson_bracket(g, f, pi)
        lhs = poisson_bracket(f, g * h, pi)
        rhs = g * poisson_bracket(f, h, pi) + poisson_bracket(f, g, pi) * h
        assert lhs == rhs


def test_poisson_validation_accepts_so3_and_sl2():
    so3_bivector(5)
    sl2_bivector(5)


def test_poisson_validation_rejects_antisymmetry_failure():
    z = Jet.variable(2, 3, 3)
    rows = [[Jet.zero(3, 3)] * 3 for _ in range(3)]
    rows[0][1] = z
    rows[1][0] = z
    with pytest.raises(ValueError, match="antisym"):
        PoissonJet(rows)


def test_poisson_validation_rejects_jacobi_failure():
    with pytest.raises(ValueError, match="Jacobi"):
        PoissonJet.from_brackets(3, 4, {
            (0, 1): [((0, 1, 0), 1)],
            (1, 2): [((1, 0, 0), 1)],
            (0, 2): [((0, 1, 0), -1)],
        })


_Z = Jet.zero(2, 3)


@pytest.mark.parametrize("entries, message", [
    ([[_Z, _Z], [_Z]], "bivector matrix must be square"),
    ([], "cannot infer the order of an empty bivector"),
    ([[_Z, _Z], [_Z, Jet.zero(2, 4)]], "entries must be jets in the same variables and order"),
    ([[_Z, 0], [0, _Z]], "entries must be jets in the same variables and order"),
    ([[_Z, Jet.one(2, 3)], [-Jet.one(2, 3), _Z]], "bivector must vanish at the origin"),
])
def test_poisson_jet_rejects_malformed_grids(entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PoissonJet(entries)


@pytest.mark.parametrize("components, message", [
    ([], "empty coordinate change"),
    ([Jet.variable(0, 2, 3), Jet.variable(1, 2, 4)],
     "components must be jets in the same variables and order"),
    ([Jet.variable(0, 1, 3)] * 2, "components must be jets in the same variables and order"),
])
def test_coord_change_rejects_malformed_components(components, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CoordChange(components)


@pytest.mark.parametrize("key", [(1, 0), (0, 0), (0, 2), (-1, 1)])
def test_trusted_brackets_need_increasing_keys_in_range(key):
    with pytest.raises(ValueError, match=re.escape("bracket keys must satisfy 0 <= i < j < nvars")):
        PoissonJet._trusted_brackets(2, 3, {key: _Z})


def test_jacobiator_nonzero_case_frozen():
    """{x,y} = y, {y,z} = x, {z,x} = y has jacobiator -x on (0,1,2)."""
    grid = [[Jet.zero(3, 4) for _ in range(3)] for _ in range(3)]
    y = Jet.variable(1, 3, 4)
    x = Jet.variable(0, 3, 4)
    grid[0][1], grid[1][0] = y, -y
    grid[1][2], grid[2][1] = x, -x
    grid[2][0], grid[0][2] = y, -y
    pi = PoissonJet._trusted(grid, 3, 4)
    jac = jacobiator(pi)
    assert jet_dict(jac[(0, 1, 2)]) == {(1, 0, 0): Fraction(-1)}

    v = sym_vars(3)
    entries = [[sympy.Integer(0)] * 3 for _ in range(3)]
    entries[0][1], entries[1][0] = v[1], -v[1]
    entries[1][2], entries[2][1] = v[0], -v[0]
    entries[2][0], entries[0][2] = v[1], -v[1]
    assert poly_dict(jacobiator_expr(entries, v, 0, 1, 2), v, 4) == {(1, 0, 0): Fraction(-1)}


def test_jacobiator_matches_cyclic_bracket_oracle():
    rng = random.Random(17)
    for _ in range(6):
        # random antisymmetric bivector, no Jacobi requirement
        n, order = 3, 4
        grid = [[Jet.zero(n, order) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                f = random_jet(rng, n, order, max_terms=2, lowest=1)
                grid[i][j], grid[j][i] = f, -f
        pi = PoissonJet._trusted(grid, n, order)
        v = sym_vars(n)
        entries = [[jet_to_expr(grid[i][j], v) for j in range(n)] for i in range(n)]
        jac = jacobiator(pi)
        for (i, j, k), jet in jac.items():
            # derivatives consume one degree, so trust through order - 1
            expected = poly_dict(jacobiator_expr(entries, v, i, j, k), v, order - 1)
            got = {m: c for m, c in jet.terms() if sum(m) <= order - 1}
            assert got == expected


def test_linear_constants_so3():
    c = so3_bivector(3).linear_constants()
    assert c[0][1] == [0, 0, 1]
    assert c[1][2] == [1, 0, 0]
    assert c[2][0] == [0, 1, 0]
    assert c[1][0] == [0, 0, -1]
    # rational linear parts: equal to the per-monomial coefficients
    pi = pushforward(sl2_bivector(3), CoordChange.linear([[2, 1, 0], [0, 1, 0], [1, 0, 3]], 3))
    assert any(jet.den > 1 for row in pi.entries for jet in row)
    units = [tuple(int(t == k) for t in range(3)) for k in range(3)]
    assert pi.linear_constants() == [[[jet.coefficient(u) for u in units] for jet in row]
                                     for row in pi.entries]


def test_pushforward_matches_sympy():
    rng = random.Random(18)
    for _ in range(6):
        order = rng.randint(3, 5)
        pi = so3_bivector(order) if rng.random() < 0.5 else sl2_bivector(order)
        phi = random_near_identity_change(rng, 3, order)
        out = pushforward(pi, phi)
        # oracle: {phi^i, phi^j} evaluated symbolically, then composed with
        # the series inverse computed by our (tested) invert_change
        psi = invert_change(phi)
        v = sym_vars(3)
        entries = [[jet_to_expr(pi.entry(i, j), v) for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(3):
                t = bracket_expr(
                    jet_to_expr(phi.components[i], v), jet_to_expr(phi.components[j], v),
                    entries, v,
                )
                composed = t.subs(
                    [(v[k], jet_to_expr(psi.components[k], v)) for k in range(3)],
                    simultaneous=True,
                )
                assert jet_dict(out.entry(i, j)) == poly_dict(composed, v, order)


def test_pushforward_functor_law():
    rng = random.Random(19)
    for _ in range(4):
        order = 4
        pi = sl2_bivector(order)
        phi = random_near_identity_change(rng, 3, order)
        psi = random_near_identity_change(rng, 3, order)
        a = pushforward(pi, compose_change(phi, psi))
        b = pushforward(pushforward(pi, phi), psi)
        assert a == b


def test_pushforward_identity_fixes_bivector():
    pi = so3_bivector(5)
    assert pushforward(pi, CoordChange.identity(3, 5)) == pi


def test_pushforward_result_passes_validation():
    rng = random.Random(20)
    phi = random_near_identity_change(rng, 3, 5)
    out = pushforward(so3_bivector(5), phi)
    PoissonJet(out.entries)  # full antisymmetry and Jacobi re-check


# -- one-forms ----------------------------------------------------------------


def test_sharp_of_differential_is_hamiltonian_field():
    rng = random.Random(21)
    pi = so3_bivector(5)
    f = random_jet(rng, 3, 5)
    g = random_jet(rng, 3, 5)
    field = sharp(differential(f), pi)
    applied = Jet.zero(3, 5)
    for j in range(3):
        applied = applied + field[j] * g.diff(j)
    assert applied == poisson_bracket(f, g, pi)


def test_koszul_bracket_of_differentials():
    """[df, dg] = d{f,g} for the bracket induced on one-forms."""
    rng = random.Random(22)
    for _ in range(8):
        pi = so3_bivector(5) if rng.random() < 0.5 else sl2_bivector(5)
        if rng.random() < 0.4:
            pi = pushforward(pi, random_near_identity_change(rng, 3, 5))
        f = random_jet(rng, 3, 5)
        g = random_jet(rng, 3, 5)
        lhs = koszul_bracket(differential(f), differential(g), pi)
        rhs = differential(poisson_bracket(f, g, pi))
        # both sides are exact through order - 1 only: d consumes a degree
        for a, b in zip(lhs.components, rhs.components):
            assert {m: c for m, c in (a - b).terms() if sum(m) <= 4} == {}


def test_koszul_bracket_leibniz_rule():
    """[alpha, f beta] = f [alpha, beta] + (sharp(alpha) f) beta."""
    rng = random.Random(23)
    for _ in range(8):
        pi = sl2_bivector(6)
        alpha = PolyOneForm([random_jet(rng, 3, 6, max_terms=3) for _ in range(3)])
        beta = PolyOneForm([random_jet(rng, 3, 6, max_terms=3) for _ in range(3)])
        f = random_jet(rng, 3, 6, max_terms=3)
        lhs = koszul_bracket(alpha, PolyOneForm([f * b for b in beta.components]), pi)
        va = sharp(alpha, pi)
        va_f = Jet.zero(3, 6)
        for j in range(3):
            va_f = va_f + va[j] * f.diff(j)
        rhs_parts = koszul_bracket(alpha, beta, pi)
        rhs = PolyOneForm([
            f * rhs_parts.components[k] + va_f * beta.components[k] for k in range(3)
        ])
        for a, b in zip(lhs.components, rhs.components):
            assert {m: c for m, c in (a - b).terms() if sum(m) <= 5} == {}


def test_one_form_pairing_antisymmetry():
    rng = random.Random(24)
    pi = so3_bivector(4)
    alpha = PolyOneForm([random_jet(rng, 3, 4) for _ in range(3)])
    beta = PolyOneForm([random_jet(rng, 3, 4) for _ in range(3)])
    assert one_form_pairing(alpha, beta, pi) == -one_form_pairing(beta, alpha, pi)


# -- text form ----------------------------------------------------------------


def test_format_examples():
    names = ["x", "y"]
    jet = Jet(2, 3, {(1, 0): 1, (0, 2): Fraction(-1, 2)})
    assert format_polynomial(jet, names) == "x - 1/2*y^2"
    assert format_polynomial(Jet.zero(2, 3), names) == "0"
    assert format_polynomial(Jet(2, 3, {(0, 1): -1}), names) == "-y"
    assert format_polynomial(Jet(2, 3, {(2, 1): 7}), names) == "7*x^2*y"


def test_parse_examples():
    names = ["x", "y", "z"]
    jet = parse_polynomial("-z", names, 4)
    assert jet_dict(jet) == {(0, 0, 1): Fraction(-1)}
    jet = parse_polynomial("x - 1/2*y^2 + 3*z", names, 4)
    assert jet_dict(jet) == {
        (1, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(-1, 2),
        (0, 0, 1): Fraction(3),
    }
    # repeated variables multiply out
    assert parse_polynomial("x*x*y", names, 4) == parse_polynomial("x^2*y", names, 4)
    # leading plus and whitespace are fine
    assert parse_polynomial("  + 2*x ", names, 4) == parse_polynomial("2*x", names, 4)


def test_parse_print_round_trip():
    rng = random.Random(25)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        order = rng.randint(1, 5)
        jet = random_jet(rng, nvars, order, coeff_pool=(-3, -1, 1, Fraction(5, 2), Fraction(-2, 7)))
        names = [f"v{i}" for i in range(nvars)]
        assert parse_polynomial(format_polynomial(jet, names), names, order) == jet


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ", ["x"], 3)
    assert err.value.column == 5
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x + w", ["x", "y"], 3)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0", ["x"], 3)
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", ["x", "y"], 3)
    with pytest.raises(ParseError):
        parse_polynomial("2 ** x", ["x"], 3)
    with pytest.raises(ParseError):
        parse_polynomial("", ["x"], 3)


# The reader's contract, pinned: for each rejected text the message, line and
# column of its ParseError.  The whole text is scanned before it is parsed, so
# a stray character wins over an earlier grammar error.
_LIMIT = sys.get_int_max_str_digits()
_LONG = "1" * (_LIMIT + 1)
REJECTED = [
    pytest.param("x +", "expected a number or a variable", 1, 4, id="trailing-plus"),
    pytest.param("x\n  * ", "expected a number or a variable", 2, 5, id="trailing-times"),
    pytest.param("1/2/3*x", "expected '+', '-', or end of input", 1, 4, id="two-slashes"),
    pytest.param("x/2", "expected '+', '-', or end of input", 1, 2, id="slash-after-name"),
    pytest.param("x y", "expected '+', '-', or end of input", 1, 3, id="juxtaposed"),
    pytest.param("2x y", "expected '+', '-', or end of input", 1, 2, id="number-then-name"),
    pytest.param("x^-1", "expected an integer exponent", 1, 3, id="negative-exponent"),
    pytest.param("x^", "expected an integer exponent", 1, 3, id="missing-exponent"),
    pytest.param("x^y", "expected an integer exponent", 1, 3, id="name-exponent"),
    pytest.param("2 ** x", "expected a number or a variable", 1, 4, id="double-star"),
    pytest.param("--x", "expected a number or a variable", 1, 2, id="two-signs"),
    pytest.param("1/x", "expected a denominator", 1, 3, id="name-denominator"),
    pytest.param("²", "unexpected character '²'", 1, 1, id="superscript-digit"),
    pytest.param("٣*x", "unexpected character '٣'", 1, 1, id="non-ascii-decimal"),
    pytest.param("3.5*x", "unexpected character '.'", 1, 2, id="decimal-point"),
    pytest.param("x y $", "unexpected character '$'", 1, 5, id="stray-character-first"),
    pytest.param("x + été", "unknown variable 'été'", 1, 5, id="non-ascii-name"),
    pytest.param("x²", "unknown variable 'x²'", 1, 1, id="superscript-in-name"),
    pytest.param("x +\n\n 1/0", "zero denominator", 3, 4, id="zero-denominator"),
    pytest.param(_LONG + "*x", f"{_LIMIT + 1}-digit number is too long", 1, 1,
                 id="long-numerator"),
    pytest.param("x^" + _LONG, f"{_LIMIT + 1}-digit number is too long", 1, 3,
                 id="long-exponent"),
    pytest.param("", "expected a number or a variable", 1, 1, id="empty"),
    pytest.param(" \n  ", "expected a number or a variable", 2, 3, id="whitespace"),
]


@pytest.mark.parametrize("text, message, line, column", REJECTED)
def test_rejected_text_names_its_error_and_position(text, message, line, column):
    if "digit" in message and not _LIMIT:
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ["x", "y", "z"], 3)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_names_are_letters_digits_and_underscores_of_any_script():
    x, y = (Jet.variable(i, 2, 3) for i in range(2))
    assert parse_polynomial("été^2*_1 - 1/2", ["été", "_1"], 3) == x * x * y - Fraction(1, 2)


def test_duplicate_names_are_refused():
    with pytest.raises(ValueError, match="duplicate"):
        parse_polynomial("x", ["x", "x"], 2)
    with pytest.raises(ValueError, match="duplicate"):
        format_polynomial(Jet.variable(1, 2, 2), ["x", "x"])


def test_a_term_above_the_order_is_dropped_before_it_is_packed(monkeypatch):
    packed = record_calls(monkeypatch, sys.modules[Jet.__module__], "_pack")
    jet = parse_polynomial("x^100000000000000000000*y + 2*y^2 - x", ["x", "y"], 3)
    assert jet == parse_polynomial("2*y^2 - x", ["x", "y"], 3)
    assert packed and all(sum(mono) <= 3 for mono, _radix in packed)


def _reference_text(jet, names) -> str:
    """The text form built term by term from Fractions."""
    out = ""
    for mono, c in jet.terms():
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
        mag = str(abs(c))
        body = "*".join(factors if mag == "1" and factors else [mag] + factors)
        out += ("-" if c < 0 else "") + body if not out else f" {'-+'[c > 0]} {body}"
    return out or "0"


_BIG = st.integers(-2 ** 400, 2 ** 400)


@st.composite
def _named_jets(draw):
    """(jet, distinct names): n = 1-6, order 0-8, up to eight terms with
    numerators and denominators of several hundred bits."""
    n, order = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                          min_size=n, max_size=n, unique=True))
    pool = [m for d in range(order + 1) for m in monomials(n, d)]
    coeffs = st.builds(Fraction, _BIG, st.integers(1, 2 ** 300))
    return Jet(n, order, draw(st.dictionaries(st.sampled_from(pool), coeffs, max_size=8))), names


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_named_jets())
def test_text_form_round_trips_with_long_coefficients(case):
    jet, names = case
    text = format_polynomial(jet, names)
    assert text == _reference_text(jet, names)
    assert parse_polynomial(text, names, jet.order) == jet
