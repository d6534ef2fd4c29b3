"""Jet arithmetic, coordinate changes, bivectors, and the text form,
checked against sympy-based reference computations."""

import random
from fractions import Fraction

import pytest
import sympy

from poislin.polyalg import (
    CoordChange,
    Jet,
    ParseError,
    PoissonJet,
    PolyOneForm,
    compose_change,
    differential,
    format_polynomial,
    grlex_key,
    invert_change,
    jacobiator,
    koszul_bracket,
    monomials,
    one_form_pairing,
    parse_polynomial,
    poisson_bracket,
    pushforward,
    sharp,
)
from poislin.polyalg import _Powers, _inversion_rounds

from helpers import (
    random_jet,
    random_linear_change,
    random_near_identity_change,
    sl2_bivector,
    so3_bivector,
)
from oracles import bracket_expr, jacobiator_expr, jet_dict, jet_to_expr, poly_dict, series_inverse, sym_vars


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


def test_homogeneous_part_and_degrees():
    jet = Jet(2, 4, {(1, 0): 2, (1, 1): 3, (0, 4): -1})
    assert jet.lowest_degree() == 1
    assert jet.highest_degree() == 4
    assert jet_dict(jet.homogeneous_part(2)) == {(1, 1): Fraction(3)}
    assert Jet.zero(2, 4).lowest_degree() is None


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


def test_inversion_rounds_are_bounded_by_the_tail_degree():
    assert _inversion_rounds(6, 2) == 5
    assert [_inversion_rounds(6, d) for d in (3, 4, 5, 6)] == [2, 1, 1, 1]
    # the linear start is exact through lowest - 1, each round adds lowest - 1
    for order in range(2, 12):
        for lowest in range(2, order + 1):
            rounds = _inversion_rounds(order, lowest)
            assert (rounds + 1) * (lowest - 1) >= order > rounds * (lowest - 1)
    assert _inversion_rounds(6, None) == 0
    assert _inversion_rounds(4, 5) == 0


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
        powers = _Powers.of(args)
        for f in jets:
            expr = jet_to_expr(f, v).subs(arg_exprs, simultaneous=True)
            order = min([f.order] + orders)
            out = powers.substitute(f)
            assert out.order == order
            assert jet_dict(out) == poly_dict(expr, w, order)
            assert out == f.substitute(args)


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


# -- bivectors ---------------------------------------------------------------


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
