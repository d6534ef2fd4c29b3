import dataclasses
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    coadjoint_action,
    dense,
    gl2_algebra,
    linear_bivector,
    random_jet,
    random_near_identity_change,
    random_linear_change,
    sl2_algebra,
    sl2_bivector,
    so3_algebra,
    so3_bivector,
    unit,
)
from poislin import CoordChange, Jet, PoissonJet, compose_change, normalform, pushforward
from poislin.cohomology import ObstructionClass, is_cocycle, solve_coboundary
from poislin.liealg import (
    LeviSplit,
    LeviSplitError,
    LieAlgebra,
    SolverFailure,
    isotropy_from_linear_part,
    levi_lift,
)
from poislin.normalform import (
    ActionJet,
    IterationStep,
    IterationTrace,
    LeviNormalForm,
    PreconditionNotNormalized,
    SplitNotCertified,
    _LeviProblem,
    _PoissonProblem,
    _clear_degree,
    _correction,
    _field_commutator,
    _jacobian_fields,
    _remainder_vector,
    _scheduler_blocks,
    _tail_stats,
    action_remainder,
    conjugate_action,
    convergence_report,
    hermitian_inner,
    hermitian_norm,
    hermitian_weights,
    levi_decompose,
    linearize_action,
    linearize_poisson,
    poisson_remainder,
)
from poislin.polyalg import monomials, packed_basis
from oracles import (
    field_commutator_expr,
    field_derivative_expr,
    jet_dict,
    jet_to_expr,
    poly_dict,
    sym_vars,
)

F = Fraction


def sl2_semidirect_algebra():
    """sl(2) acting on an abelian plane through its 2-dimensional rep."""
    half = F(1, 2)
    reps = [
        [[0, half], [half, 0]],
        [[half, 0], [0, -half]],
        [[0, half], [-half, 0]],
    ]
    entries = [(0, 1, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1)]
    for i in range(3):
        for beta in range(2):
            for gamma in range(2):
                c = F(reps[i][gamma][beta])
                if c:
                    entries.append((i, 3 + beta, 3 + gamma, c))
    return LieAlgebra.from_sparse(5, entries)


# ---------------------------------------------------------------------------
# Hermitian metric


def test_hermitian_coordinate_norm_matches_closed_form():
    for n in (1, 2, 3, 5):
        for r in (F(1), F(2), F(1, 3)):
            f = Jet(n, 3, {unit(0, n): F(1)})
            assert hermitian_inner(f, f, r) == r**2 / (n + 1)
            expected = math.sqrt(float(r**2 / (n + 1)))
            assert math.isclose(hermitian_norm(f, r), expected, rel_tol=1e-12)


@st.composite
def _wide_jets(draw, n, order):
    """Jets with up to 8 terms whose coefficients are ratios of integers of
    300 to 400 bits, so the numerators over the common denominator run to
    several hundred bits."""
    monos = [m for d in range(order + 1) for m in monomials(n, d)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    top = st.integers(-2**400, 2**400)
    bottom = st.integers(2**300, 2**400)
    return Jet(n, order, {m: F(draw(top), draw(bottom)) for m in chosen})


def _digit_sums(f, g, start):
    """weighted_sums by its definition: alpha! off each monomial's exponents
    over the terms the jets share, with the degrees above g's order absent."""
    theirs = dict(g.numerators())
    sums = {}
    for mono, a in f.numerators():
        if sum(mono) >= start and mono in theirs:
            weight = math.prod(math.factorial(e) for e in mono)
            sums[sum(mono)] = sums.get(sum(mono), 0) + a * theirs[mono] * weight
    return {d: v for d, v in sums.items() if v}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hermitian_norm_is_the_float_of_the_exact_inner_product(data):
    """hermitian_norm, an int / int quotient, is the float of the exact
    Fraction hermitian_inner returns, by repr, for radii other than 1,
    min_degree above 0, numerators of hundreds of bits and n = 2..6; and
    weighted_sums, read off the alpha! table, matches the digit reading with
    the other jet at a lower and at a higher order."""
    n = data.draw(st.integers(2, 6))
    order = data.draw(st.integers(2, 5 if n < 5 else 4))
    f = data.draw(_wide_jets(n, order))
    radius = F(data.draw(st.integers(1, 2**32)), data.draw(st.integers(1, 2**32)))
    for m in range(order + 2):
        assert repr(hermitian_norm(f, radius, m)) == repr(
            math.sqrt(float(hermitian_inner(f, f, radius, m))))
    for other_order in (order - 1, order + 1):
        # g shares f's monomials through its order, so the sums have terms
        g = f.truncate(other_order) + data.draw(_wide_jets(n, other_order))
        for start in (0, 2):
            assert f.weighted_sums(g, start) == _digit_sums(f, g, start)
            assert f.weighted_sums(f, start) == _digit_sums(f, f, start)


def test_hermitian_distinct_monomials_are_orthogonal():
    x1 = Jet(3, 3, {unit(0, 3): F(1)})
    x2 = Jet(3, 3, {unit(1, 3): F(1)})
    assert hermitian_inner(x1, x2) == 0
    assert hermitian_inner(x1 * x1, x1 * x2) == 0


def test_hermitian_weights_match_inner_product():
    from poislin import monomials

    for n, d in ((2, 2), (3, 3), (1, 4)):
        weights = hermitian_weights(n, d, F(3, 2))
        for mono, w in zip(monomials(n, d), weights):
            f = Jet(n, d, {mono: F(1)})
            assert hermitian_inner(f, f, F(3, 2)) == w


def test_hermitian_inner_is_bilinear_and_positive():
    rng = random.Random(3)
    from helpers import random_jet

    for _ in range(20):
        f = random_jet(rng, 2, 4)
        g = random_jet(rng, 2, 4)
        h = random_jet(rng, 2, 4)
        assert hermitian_inner(f + g, h) == hermitian_inner(f, h) + hermitian_inner(g, h)
        assert hermitian_inner(f, g) == hermitian_inner(g, f)
        if not f.is_zero():
            assert hermitian_inner(f, f) > 0


def _reference_inner(f, g, radius):
    """Per-term Fraction sum of a*b*alpha! n!/(|alpha|+n)! r^(2|alpha|)."""
    n = f.nvars
    total = F(0)
    for mono, a in f.terms():
        b = g.coefficient(mono)
        d = sum(mono)
        weight = F(math.prod(math.factorial(e) for e in mono) * math.factorial(n),
                   math.factorial(d + n))
        total += a * b * weight * F(radius) ** (2 * d)
    return total


def test_hermitian_inner_matches_per_term_fraction_reference():
    from helpers import random_jet

    rng = random.Random(33)
    pool = (-3, -1, F(1, 2), F(2, 3), F(-5, 7), 4)
    for _ in range(40):
        n = rng.randint(1, 4)
        order = rng.randint(0, 6)
        f = random_jet(rng, n, order, max_terms=10, coeff_pool=pool)
        g = random_jet(rng, n, order, max_terms=10, coeff_pool=pool) + f
        for r in (F(1), F(3, 2), F(2, 7)):
            expected = _reference_inner(f, g, r)
            assert hermitian_inner(f, g, r) == expected
            assert hermitian_inner(g, f, r) == expected
            ff = _reference_inner(f, f, r)
            assert hermitian_inner(f, f, r) == ff
            # float() of an exact rational is correctly rounded
            assert repr(hermitian_norm(f, r)) == repr(math.sqrt(float(ff)))
    assert hermitian_inner(Jet.zero(3, 4), Jet.zero(3, 4)) == 0


def test_hermitian_rejects_bad_radius():
    f = Jet(2, 2, {unit(0, 2): F(1)})
    with pytest.raises(ValueError):
        hermitian_norm(f, 0)
    with pytest.raises(ValueError):
        hermitian_inner(f, f, F(-1))
    with pytest.raises(ValueError):
        hermitian_weights(2, 2, 0)


# ---------------------------------------------------------------------------
# Poisson remainders


def test_poisson_remainder_extracts_homogeneous_parts():
    pi = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
    R = poisson_remainder(pi, 2)
    # V_2 basis in graded-lex order: x^2, xy, y^2
    assert R.component((0, 1)) == [F(1), F(0), F(0)]


def test_poisson_remainder_is_a_cocycle():
    rng = random.Random(21)
    for base in (so3_bivector(6), sl2_bivector(6)):
        for _ in range(6):
            psi = random_near_identity_change(rng, 3, 6)
            pert = pushforward(base, psi)
            low = min(
                (pert.entries[i][j] - pert.entries[i][j].homogeneous_part(1)).lowest_degree() or 99
                for i in range(3) for j in range(i + 1, 3)
            )
            if low > 6:
                continue
            assert is_cocycle(poisson_remainder(pert, low))


def test_poisson_remainder_requires_normalized_lower_degrees():
    pi = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
    with pytest.raises(PreconditionNotNormalized):
        poisson_remainder(pi, 3)
    with pytest.raises(ValueError):
        poisson_remainder(pi, 1)


def _reference_remainder(blocks, degree):
    """The remainder read term by term through terms(), one Fraction each,
    on (jet, {monomial: position}) blocks."""
    vec = []
    for jet, index in blocks:
        block = [F(0)] * len(index)
        for mono, c in jet.terms():
            deg = sum(mono)
            if deg == degree:
                pos = index.get(mono)
                if pos is None:
                    raise SolverFailure("remainder leaves the module's monomial span")
                block[pos] = c
            elif 1 < deg < degree:
                raise PreconditionNotNormalized(
                    f"degree-{deg} term {mono} left below degree {degree}")
        vec.extend(block)
    return vec


def test_remainder_vector_matches_the_per_term_fraction_reading():
    rng = random.Random(1401)
    pool = (F(1, 2), F(-2, 3), F(5, 6), -1, 3)
    outcomes, dens = [], []
    for _ in range(300):
        n, order = rng.randint(1, 3), rng.randint(2, 5)
        degree = rng.randint(2, order)
        # a subset of the degree-d monomials, so some remainders leave the span
        basis = monomials(n, degree)
        kept = rng.sample(basis, rng.randint(1, len(basis)))
        index = {mono: i for i, mono in enumerate(kept)}
        jets = [random_jet(rng, n, order, max_terms=8, coeff_pool=pool,
                           lowest=rng.choice([0, degree, degree, degree]))
                for _ in range(rng.randint(1, 3))]
        # the engine reads each block by packed key at the jets' order
        packed = [(jet, packed_basis(kept, order)[1]) for jet in jets]
        dens.extend(jet.den for jet in jets)
        try:
            expected = _reference_remainder([(jet, index) for jet in jets], degree)
        except (PreconditionNotNormalized, SolverFailure) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as raised:
                _remainder_vector(packed, degree)
            assert type(raised.value) is type(exc)
            outcomes.append(type(exc))
        else:
            nums, den = _remainder_vector(packed, degree)
            assert all(type(x) is int for x in nums)
            assert den == math.lcm(*(jet.den for jet in jets))
            assert [F(x, den) for x in nums] == expected
            outcomes.append(None if any(expected) else "zero")
    assert set(outcomes) == {None, "zero", PreconditionNotNormalized, SolverFailure}
    assert max(dens) > 1


def test_correction_matches_the_fraction_construction():
    """_correction on the solution as integer numerators, over the lcm of
    its denominators or a multiple of it, and on the basis's packed keys,
    against Jet.variable(t) - Jet(sigma) built from the Fractions on the
    monomials."""
    rng = random.Random(1402)
    pool = (0, 0, 0, 2, -1, F(1, 2), F(-3, 4), F(5, 3), F(7, 6))
    for _ in range(150):
        n, order = rng.randint(1, 4), rng.randint(2, 6)
        degree = rng.randint(2, order)
        basis = monomials(n, degree)
        targets = [(t, basis) for t in rng.sample(range(n), rng.randint(1, n))]
        solution = [F(rng.choice(pool)) for _ in range(len(targets) * len(basis))]
        expected = [Jet.variable(t, n, order) for t in range(n)]
        pos = 0
        for t, mons in targets:
            sigma = {mono: c for mono, c in zip(mons, solution[pos:pos + len(mons)]) if c}
            expected[t] = Jet.variable(t, n, order) - Jet(n, order, sigma)
            pos += len(mons)
        den = math.lcm(*(c.denominator for c in solution)) * rng.choice((1, 1, 2, 3))
        nums = [int(c * den) for c in solution]
        keys = packed_basis(basis, order)[0]
        change = _correction(nums, den, [(t, keys) for t, _ in targets], degree, n, order)
        assert change.components == tuple(expected)


def _fractions_built(run):
    """(run's result, the names of the functions on the stack at each
    Fraction.__new__ call run makes), counted with a profile hook."""
    code = Fraction.__new__.__code__
    stacks = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            names = set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(names)

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, stacks


def test_a_warm_normalization_step_builds_no_fraction():
    """Each degree's step reads its remainder as integer numerators by packed
    key, solves on integers and builds its correction from them, and the
    trace norms are int / int quotients: on warm caches, so(3) and sl(2)
    runs at order 6 build Fractions only for the isotropy's structure
    constants, read off the input before the run, and an obstructed run
    builds them inside the step only for its certificate."""
    rng = random.Random(1604)
    resonant = PoissonJet.from_brackets(3, 4, {    # obstructed at degree 3
        (0, 1): [((0, 1, 0), 1)],
        (0, 2): [((0, 0, 1), 3), ((0, 3, 0), 1)],
    })
    cases = [pushforward(base, random_near_identity_change(rng, 3, 6))
             for base in (so3_bivector(6), sl2_bivector(6)) for _ in range(2)]
    for pi in cases + [resonant]:
        for scheduler in ("degree", "doubling"):
            linearize_poisson(pi, scheduler)    # fills the module and solver caches
            outcome, stacks = _fractions_built(lambda: linearize_poisson(pi, scheduler))
            step = [names for names in stacks if "_clear_degree" in names]
            assert stacks and all("isotropy_from_linear_part" in names
                                  for names in stacks if names not in step)
            assert all("obstruction" in names for names in step)
            assert bool(step) == isinstance(outcome[0], ObstructionClass) == (pi is resonant)


def _per_block_trace(problem, scheduler, order, radius):
    """The driver's loop with the stats recomputed before every block."""
    trace = IterationTrace(scheduler, F(radius), order)
    for block_index, degrees in _scheduler_blocks(scheduler, order):
        lowest_before, norm_before = _tail_stats(problem.state_jets(), radius)
        if lowest_before is None or lowest_before > degrees[-1]:
            continue
        treated = tuple(d for d in degrees if _clear_degree(problem, d)[0])
        if treated:
            lowest_after, norm_after = _tail_stats(problem.state_jets(), radius)
            trace.steps.append(IterationStep(block_index, treated, lowest_before,
                                             lowest_after, norm_before, norm_after))
    return trace


@pytest.mark.parametrize("scheduler", ["degree", "doubling"])
def test_trace_stats_run_once_per_state(scheduler, monkeypatch):
    rng = random.Random(1403)
    radius = F(3, 2)
    for base in (so3_bivector(6), sl2_bivector(6)):
        for _ in range(3):
            pert = pushforward(base, random_near_identity_change(rng, 3, 6))
            reference = _per_block_trace(_PoissonProblem(pert), scheduler, 6, radius)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(normalform, "hermitian_norm",
                              lambda *args: calls.append(args) or hermitian_norm(*args))
                _, _, trace = linearize_poisson(pert, scheduler, radius=radius)
            assert trace.steps
            assert len(calls) == (1 + len(trace.steps)) * 3     # three state jets
            assert trace == reference


# ---------------------------------------------------------------------------
# linearize_poisson


def test_linear_input_gives_identity_and_empty_trace():
    for base in (so3_bivector(6), sl2_bivector(5)):
        phi, lin, trace = linearize_poisson(base)
        assert phi.is_identity()
        assert lin == base
        assert trace.steps == []


def test_zero_bivector_is_accepted():
    zero = PoissonJet.from_brackets(3, 4, {})
    phi, lin, trace = linearize_poisson(zero)
    assert phi.is_identity()
    assert lin == zero
    assert trace.steps == []
    assert isotropy_from_linear_part(zero).abelian


@pytest.mark.parametrize("scheduler", ["degree", "doubling"])
def test_poisson_round_trips(scheduler):
    rng = random.Random(5)
    for base in (so3_bivector(8), sl2_bivector(8)):
        for _ in range(5):
            psi = random_near_identity_change(rng, 3, 8)
            pert = pushforward(base, psi)
            phi, lin, trace = linearize_poisson(pert, scheduler=scheduler)
            assert lin == base
            assert pushforward(pert, phi) == lin
            degrees = [d for step in trace.steps for d in step.degrees]
            assert degrees == sorted(degrees)


def test_schedulers_agree_on_the_final_structure():
    rng = random.Random(17)
    base = so3_bivector(7)
    for _ in range(4):
        psi = random_near_identity_change(rng, 3, 7)
        pert = pushforward(base, psi)
        _, lin_a, _ = linearize_poisson(pert, scheduler="degree")
        _, lin_b, _ = linearize_poisson(pert, scheduler="doubling")
        assert lin_a == lin_b == base


def test_linear_change_only_shifts_the_constants():
    rng = random.Random(9)
    base = sl2_bivector(5)
    psi = random_linear_change(rng, 3, 5)
    pert = pushforward(base, psi)
    phi, lin, trace = linearize_poisson(pert)
    assert trace.steps == []
    assert phi.is_identity()
    assert lin == pert


def test_trace_step_fields_are_consistent():
    rng = random.Random(31)
    psi = random_near_identity_change(rng, 3, 8)
    pert = pushforward(so3_bivector(8), psi)
    phi, lin, trace = linearize_poisson(pert, scheduler="doubling")
    assert trace.scheduler == "doubling"
    assert trace.target_order == 8
    blocks = [s.block_index for s in trace.steps]
    assert blocks == sorted(blocks)
    for step in trace.steps:
        assert step.lowest_before is not None
        assert step.lowest_before >= 2**step.block_index
        assert not step.obstructed
        if step.lowest_after is not None:
            assert step.lowest_after > max(step.degrees)
        assert step.norm_before > 0.0


def test_order_argument_truncates_or_rejects():
    rng = random.Random(13)
    psi = random_near_identity_change(rng, 3, 8)
    pert = pushforward(so3_bivector(8), psi)
    phi, lin, trace = linearize_poisson(pert, order=5)
    assert lin == so3_bivector(5)
    assert pushforward(pert.truncate(5), phi) == lin
    with pytest.raises(ValueError):
        linearize_poisson(pert, order=9)
    with pytest.raises(ValueError):
        linearize_poisson(pert, scheduler="fastest")


def test_quadratic_obstruction_on_an_abelian_structure():
    flat = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
    obs, trace = linearize_poisson(flat)
    assert isinstance(obs, ObstructionClass)
    assert obs.verify()
    # the abelian coadjoint action is zero, so every 2-cochain is its own
    # cohomology class: dim C^2 = dim V_2 = 3
    assert obs.h_dim == 3
    assert trace.steps[-1].obstructed
    assert trace.steps[-1].degrees == (2,)
    # re-solving the stored cocycle reproduces an obstruction, not a primitive
    again = solve_coboundary(obs.cocycle)
    assert isinstance(again, ObstructionClass)
    assert again.verify()


def test_obstructed_run_still_removes_the_removable_part():
    # {x0,x1} = x1 + 5*x0^2 is removable (solvable pair), {x2,x3} = x2^2 is
    # not (abelian pair with zero action); the removable term dominates the
    # max-norm so its removal must show up as a strict decrease
    pi = PoissonJet.from_brackets(4, 4, {
        (0, 1): [((0, 1, 0, 0), 1), ((2, 0, 0, 0), 5)],
        (2, 3): [((0, 0, 2, 0), 1)],
    })
    obs, trace = linearize_poisson(pi)
    assert isinstance(obs, ObstructionClass)
    assert obs.verify()
    step = trace.steps[-1]
    assert step.obstructed
    assert step.norm_after < step.norm_before
    assert step.lowest_after == 2


def test_obstruction_functional_annihilates_coboundaries():
    flat = PoissonJet.from_brackets(2, 3, {(0, 1): [((2, 0), 1)]})
    obs, _ = linearize_poisson(flat)
    module = obs.cocycle.module
    mat = dense(module.differential_matrix(1), module.cochain_dim(1))
    lam = obs.functional
    for col in range(module.cochain_dim(1)):
        assert sum(lam[row] * mat[row][col] for row in range(len(mat))) == 0


def test_a_broken_certificate_does_not_verify():
    """verify() rejects a functional that misses a coboundary, one that
    pairs to zero with the cocycle, and one of the wrong length."""
    resonant = PoissonJet.from_brackets(3, 4, {    # obstructed at degree 3
        (0, 1): [((0, 1, 0), 1)],
        (0, 2): [((0, 0, 1), 3), ((0, 3, 0), 1)],
    })
    obs, _ = linearize_poisson(resonant)
    assert obs.verify()
    rows = obs.cocycle.module.differential_matrix(1)
    hit = next(k for k, row in enumerate(rows) if row)
    missed = list(obs.functional)
    missed[hit] += 1
    for lam in (missed, [F(0)] * len(rows), obs.functional[:-1]):
        assert not ObstructionClass(obs.cocycle, lam, obs.h_dim).verify()


# ---------------------------------------------------------------------------
# actions


def test_action_jet_validates_the_morphism_property():
    L = so3_algebra()
    act = coadjoint_action(L, 5)  # validating constructor passed
    broken = [list(fld) for fld in act.fields]
    broken[0][0] = broken[0][0] + Jet(3, 5, {(0, 2, 0): F(1)})
    with pytest.raises(ValueError, match="morphism"):
        ActionJet(L, broken, 5)


def test_field_commutator_and_jacobian_fields_match_sympy():
    # fields vanish at the origin, so every product is exact through the
    # truncation order despite the derivative
    rng = random.Random(41)
    n, order = 3, 4
    x = sym_vars(n)
    for _ in range(6):
        v, w = ([random_jet(rng, n, order, max_terms=3, lowest=1) for _ in range(n)]
                for _ in range(2))
        v_expr, w_expr = ([jet_to_expr(c, x) for c in fld] for fld in (v, w))
        got = _field_commutator(v, w)
        assert [c.order for c in got] == [order] * n
        assert [jet_dict(c) for c in got] == [
            poly_dict(e, x, order) for e in field_commutator_expr(v_expr, w_expr, x)]
        change = random_near_identity_change(rng, n, order)
        abelian = LieAlgebra([[[F(0)] * 2 for _ in range(2)] for _ in range(2)])
        action = ActionJet._trusted(abelian, [v, w], n, order)
        for fld, fld_expr, image in zip((v, w), (v_expr, w_expr),
                                        _jacobian_fields(action, change)):
            assert [jet_dict(c) for c in image] == [
                poly_dict(field_derivative_expr(fld_expr, jet_to_expr(comp, x), x), x, order)
                for comp in change.components]


def test_action_jet_rejects_origin_moving_fields():
    L = LieAlgebra([[[F(0)]]])
    with pytest.raises(ValueError, match="origin"):
        ActionJet(L, [[Jet(1, 3, {(0,): F(1)})]], 3)


@pytest.mark.parametrize("dim, fields, message", [
    (1, [], "need one vector field per generator"),
    (0, [], "empty action"),
    (1, [[]], "empty action"),
    (2, [[Jet.variable(0, 1, 3)], [Jet.variable(0, 2, 3)] * 2],
     "vector fields must share the variable count"),
    (1, [[Jet.variable(0, 1, 4)]], "components must be jets in the same variables and order"),
    (1, [[1]], "components must be jets in the same variables and order"),
])
def test_action_jet_rejects_malformed_fields(dim, fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ActionJet(LieAlgebra.abelian(dim), fields, 3)


def test_action_linear_matrices_round_trip():
    L = sl2_algebra()
    act = coadjoint_action(L, 4)
    mats = act.linear_matrices()
    rebuilt = ActionJet.linear(L, mats, 4)
    assert rebuilt == act
    assert act.is_linear()


def test_action_remainder_is_a_cocycle():
    rng = random.Random(41)
    act = coadjoint_action(so3_algebra(), 6)
    for _ in range(5):
        psi = random_near_identity_change(rng, 3, 6)
        moved = conjugate_action(act, psi)
        low = min(
            (c - c.homogeneous_part(1)).lowest_degree() or 99
            for fld in moved.fields for c in fld
        )
        if low > 6:
            continue
        assert is_cocycle(action_remainder(moved, low))


def test_action_remainder_requires_normalized_lower_degrees():
    L = LieAlgebra([[[F(0)]]])
    act = ActionJet(L, [[Jet(1, 4, {(2,): F(1)})]], 4)
    with pytest.raises(PreconditionNotNormalized):
        action_remainder(act, 3)


@pytest.mark.parametrize("scheduler", ["degree", "doubling"])
def test_action_round_trips(scheduler):
    rng = random.Random(23)
    for L in (so3_algebra(), sl2_algebra()):
        act = coadjoint_action(L, 7)
        for _ in range(3):
            psi = random_near_identity_change(rng, 3, 7)
            moved = conjugate_action(act, psi)
            # conjugation preserves the morphism property; re-validate
            moved = ActionJet(moved.algebra, moved.fields, moved.order)
            phi, lin, trace = linearize_action(moved, scheduler=scheduler)
            assert lin.is_linear()
            assert conjugate_action(moved, phi) == lin
            assert lin.linear_matrices() == act.linear_matrices()


def test_linear_action_is_left_alone():
    act = coadjoint_action(so3_algebra(), 5)
    phi, lin, trace = linearize_action(act)
    assert phi.is_identity()
    assert lin == act
    assert trace.steps == []


def test_action_obstruction_for_a_quadratic_flow():
    L = LieAlgebra([[[F(0)]]])
    act = ActionJet(L, [[Jet(1, 3, {(2,): F(1)})]], 3)
    obs, trace = linearize_action(act)
    assert isinstance(obs, ObstructionClass)
    assert obs.verify()
    # one generator acting by zero on the single quadratic field: H^1 is all
    # of C^1, which is one copy of the one-dimensional field space
    assert obs.h_dim == 1
    assert trace.steps[-1].obstructed
    again = solve_coboundary(obs.cocycle)
    assert isinstance(again, ObstructionClass)


def test_conjugate_action_composes_functorially():
    rng = random.Random(53)
    act = coadjoint_action(so3_algebra(), 6)
    a = random_near_identity_change(rng, 3, 6)
    b = random_near_identity_change(rng, 3, 6)
    via_composite = conjugate_action(act, compose_change(a, b))
    stepwise = conjugate_action(conjugate_action(act, a), b)
    assert via_composite == stepwise


# ---------------------------------------------------------------------------
# Levi decomposition


def perturbed_linear(L, order, rng, max_extra=2):
    base = linear_bivector(L, order)
    psi = random_near_identity_change(rng, L.dim, order, max_extra=max_extra)
    return base, pushforward(base, psi)


def test_the_twisted_field_modules_are_complexes(monkeypatch):
    """`twisted_field_module` builds its modules through GModule._trusted,
    with no representation check, and cleared ranks hold only on a
    complex: the differentials of every module that linearize_action
    builds for a moved so(3) coadjoint action, and levi_decompose for a
    perturbed gl(2) and sl(2) semidirect R^2, square to zero at r = 1, 2."""
    from poislin import clear_caches
    from poislin.cohomology import squares_to_zero

    built = {}
    original = normalform.twisted_field_module

    def recorded(*args):
        module = original(*args)
        built[id(module)] = module
        return module

    monkeypatch.setattr(normalform, "twisted_field_module", recorded)
    clear_caches()
    rng = random.Random(23)
    moved = conjugate_action(coadjoint_action(so3_algebra(), 6),
                             random_near_identity_change(rng, 3, 6))
    linearize_action(ActionJet(moved.algebra, moved.fields, moved.order))
    counts = [len(built)]
    for L in (gl2_algebra(), sl2_semidirect_algebra()):
        _, pert = perturbed_linear(L, 5, rng, max_extra=1)
        levi_decompose(pert, levi_lift(isotropy_from_linear_part(pert)))
        counts.append(len(built))
    clear_caches()
    assert 0 < counts[0] < counts[1] < counts[2]
    for module in built.values():
        assert module.dim and squares_to_zero(module, 1) and squares_to_zero(module, 2)


def test_levi_decompose_on_a_central_extension():
    rng = random.Random(61)
    gl2 = gl2_algebra()
    base, pert = perturbed_linear(gl2, 6, rng)
    split = levi_lift(isotropy_from_linear_part(pert))
    phi, form, trace = levi_decompose(pert, split)
    assert pushforward(pert, phi) == form.to_bivector()
    assert len(form.s_constants) == 3
    # s carries sl(2) constants: its Killing form has signature (2,1)
    from poislin.liealg import killing_form
    from poislin.linalg import symmetric_signature
    s_alg = LieAlgebra(form.s_constants)
    assert symmetric_signature(killing_form(s_alg)) == (2, 1, 0)
    # the radical direction is central here, so the mixed block is zero
    assert all(c == 0 for block in form.r_constants for row in block for c in row)
    degrees = [s.block_index for s in trace.steps]
    assert degrees == sorted(degrees)


def test_levi_decompose_with_a_nontrivial_radical_action():
    rng = random.Random(67)
    L = sl2_semidirect_algebra()
    base, pert = perturbed_linear(L, 5, rng, max_extra=1)
    split = levi_lift(isotropy_from_linear_part(pert))
    phi, form, trace = levi_decompose(pert, split)
    recon = form.to_bivector()
    assert pushforward(pert, phi) == recon
    assert len(form.s_constants) == 3
    assert len(form.r_constants[0]) == 2
    # mixed constants must represent the radical action nontrivially
    assert any(c != 0 for block in form.r_constants for row in block for c in row)
    # the s-s and s-r entries of the reconstruction are exactly linear
    for a in range(3):
        for b in range(a + 1, 5):
            entry = recon.entries[a][b]
            assert (entry - entry.homogeneous_part(1)).is_zero()


def test_levi_residual_block_is_carried_not_normalized():
    # perturb only inside the radical plane: y1 -> y1 - y2^2 leaves the
    # semisimple block alone but plants quadratic terms in the r-r entry
    L = sl2_semidirect_algebra()
    base = linear_bivector(L, 4)
    comps = [Jet.variable(i, 5, 4) for i in range(5)]
    comps[3] = comps[3] - Jet(5, 4, {(0, 0, 0, 0, 2): F(1)})
    pert = pushforward(base, CoordChange(comps))
    split = levi_lift(isotropy_from_linear_part(pert))
    phi, form, trace = levi_decompose(pert, split)
    assert pushforward(pert, phi) == form.to_bivector()


def test_levi_with_empty_semisimple_factor():
    flat = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
    L = isotropy_from_linear_part(flat)
    split = levi_lift(L)
    assert split.s_basis == ()
    phi, form, trace = levi_decompose(flat, split)
    assert trace.steps == []
    assert form.s_constants == []
    assert pushforward(flat, phi) == form.to_bivector()
    assert form.residual[(0, 1)] == flat.entries[0][1]


def test_levi_finish_rejects_a_nonlinear_normalized_block():
    linear = sl2_bivector(2)
    bent = pushforward(linear, CoordChange([
        Jet.variable(0, 3, 2), Jet(3, 2, {(0, 1, 0): 1, (2, 0, 0): 1}), Jet.variable(2, 3, 2)]))
    identity = CoordChange.identity(3, 2)
    _LeviProblem(linear, identity, range(3), []).finish()
    with pytest.raises(SolverFailure, match="not exactly linear"):
        _LeviProblem(bent, identity, range(3), []).finish()


def test_levi_rejects_uncertified_splits():
    rng = random.Random(71)
    gl2 = gl2_algebra()
    base, pert = perturbed_linear(gl2, 4, rng)
    iso = isotropy_from_linear_part(pert)
    good = levi_lift(iso)
    # swapped factors: the split refuses itself when it is made, as the
    # radical is not semisimple
    with pytest.raises(LeviSplitError) as err:
        LeviSplit(iso, good.r_basis, good.s_basis)
    assert err.value.violation == "SNotSemisimple"
    # split taken from a different algebra
    other = levi_lift(so3_algebra())
    with pytest.raises(SplitNotCertified):
        levi_decompose(pert, other)


@pytest.mark.parametrize("bivector", [so3_bivector, sl2_bivector])
def test_levi_with_s_equal_to_g_is_the_degree_scheduler_poisson_engine(bivector):
    """A Levi decomposition with r = 0 is a linearization (Wade 1997; Zung
    2003).  That both engines return the same change, normal form and trace
    is a design identity, not a theorem: both run the one bracket adapter
    with s every coordinate, under the degree scheduler."""
    base = bivector(5)
    split = LeviSplit(isotropy_from_linear_part(base), [unit(k, 3) for k in range(3)], [])
    for seed in range(6):
        pi = pushforward(base, random_near_identity_change(random.Random(seed), 3, 5))
        phi, state, trace = linearize_poisson(pi, "degree")
        levi_phi, form, levi_trace = levi_decompose(pi, split)
        assert trace.steps
        assert levi_phi == phi
        assert form.to_bivector() == state
        assert levi_trace.scheduler == "levi"
        assert dataclasses.replace(levi_trace, scheduler="degree") == trace


def test_levi_on_a_pure_semisimple_structure_linearizes():
    rng = random.Random(73)
    base, pert = perturbed_linear(so3_algebra(), 5, rng)
    split = levi_lift(isotropy_from_linear_part(pert))
    assert split.r_basis == ()
    phi, form, trace = levi_decompose(pert, split)
    recon = form.to_bivector()
    assert recon.is_linear()
    assert pushforward(pert, phi) == recon
    assert form.residual == {}


# ---------------------------------------------------------------------------
# convergence reports


def test_convergence_report_shape_and_ratios():
    rng = random.Random(83)
    psi = random_near_identity_change(rng, 3, 8)
    pert = pushforward(so3_bivector(8), psi)
    _, _, trace = linearize_poisson(pert, scheduler="doubling", radius=F(1, 2))
    report = convergence_report(trace)
    assert report["scheduler"] == "doubling"
    assert report["radius"] == 0.5
    assert len(report["steps"]) == len(trace.steps)
    for row, step in zip(report["steps"], trace.steps):
        assert row["degrees"] == list(step.degrees)
        assert row["norm_before"] == step.norm_before
    for prev, row in zip(trace.steps, report["steps"][1:]):
        assert row["quadratic_ratio"] == row["norm_before"] / prev.norm_before**2


def test_convergence_report_flags_doubling_violations():
    trace = IterationTrace("doubling", F(1), 8, [
        IterationStep(2, (3,), 3, 5, 1.0, 0.5),
    ])
    with pytest.raises(RuntimeError, match="doubling law"):
        convergence_report(trace)
    ok = IterationTrace("degree", F(1), 8, [
        IterationStep(3, (3,), 3, 5, 1.0, 0.5),
    ])
    assert convergence_report(ok)["steps"][0]["lowest_before"] == 3


def test_convergence_report_empty_trace():
    report = convergence_report(IterationTrace("degree", F(1), 4))
    assert report["steps"] == []


def test_warm_obstructed_run_reuses_the_eliminated_d1_solver(monkeypatch):
    """dim H^2 for an obstruction reads its ranks off the module: d^1 from
    the solver the run has just used, d^2 from the rank the cold run
    cached, so a warm run eliminates nothing."""
    from poislin import cohomology

    k = 3   # {x,y} = y, {x,z} = k z + y^k: resonant at degree k
    pi = PoissonJet.from_brackets(3, 4, {
        (0, 1): [((0, 1, 0), 1)],
        (0, 2): [((0, 0, 1), k), ((0, k, 0), 1)],
    })
    cold, _ = linearize_poisson(pi)
    assert isinstance(cold, ObstructionClass)
    eliminated = []

    class RecordingSolver(cohomology.LinearSolver):
        def __init__(self, rows, ncols=None):
            eliminated.append(rows)
            super().__init__(rows, ncols)

    monkeypatch.setattr(cohomology, "LinearSolver", RecordingSolver)
    monkeypatch.setattr(cohomology, "_pivot_columns", lambda rows, ncols: eliminated.append(rows))
    warm, _ = linearize_poisson(pi)
    assert warm == cold
    assert eliminated == []


@pytest.mark.parametrize("kind, positional", [("so3", 0), ("resonant", 1)])
def test_a_cold_run_builds_the_positional_elimination_only_for_its_obstruction(
        monkeypatch, kind, positional):
    """Every solver is eliminated under the least-fill rule; a run that
    clears every degree builds no positional elimination, and an obstructed
    run builds one, for the solve that is inconsistent."""
    import poislin
    from helpers import record_row_rules

    if kind == "so3":
        pi = pushforward(so3_bivector(6), random_near_identity_change(random.Random(4), 3, 6))
    else:
        pi = PoissonJet.from_brackets(3, 4, {
            (0, 1): [((0, 1, 0), 1)],
            (0, 2): [((0, 0, 1), 3), ((0, 3, 0), 1)],
        })
    poislin.clear_caches()
    rules = record_row_rules(monkeypatch)
    outcome = linearize_poisson(pi)[0]
    poislin.clear_caches()
    assert isinstance(outcome, ObstructionClass) == bool(positional)
    assert rules.count(False) == positional and rules.count(True) > 0


def test_tail_stats_read_the_nonlinear_parts_off_integer_forms():
    """The lowest degree and norm of each jet's part of degree >= 2, with
    linear coefficients whose denominators the tail does not share, agree
    with the Fraction computation on jet - jet.homogeneous_part(1)."""
    from helpers import random_jet

    rng = random.Random(61)
    for _ in range(20):
        jets = []
        for _ in range(3):
            linear = Jet(3, 5, {(1, 0, 0): F(rng.choice((1, 5)), rng.choice((3, 7, 9)))})
            jets.append(linear + random_jet(rng, 3, 5, max_terms=4, lowest=rng.choice((1, 2, 3)),
                                            coeff_pool=(-1, F(1, 2), F(2, 3), 3)))
        radius = F(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        tails = [jet - jet.homogeneous_part(1) for jet in jets]
        lowest = min((t.lowest_degree() for t in tails if not t.is_zero()), default=None)
        norm = max(hermitian_norm(t, radius) for t in tails)
        assert _tail_stats(jets, radius) == (lowest, norm)
    assert _tail_stats([Jet.variable(0, 2, 4)], 1) == (None, 0.0)


def test_twisted_field_module_numerators_share_the_base_and_twist_denominators():
    """(X . u)^a = base action on u^a - sum_b T[a][b] u^b, read off the
    module's integer numerators over the lcm of the base's denominator (1
    here) and the twists' (6), against the dense Fraction formula."""
    from poislin.cohomology import induced_polynomial_module, twisted_field_module
    from poislin.liealg import ExactTable

    L = LieAlgebra.abelian(1)
    base = induced_polynomial_module(L, 2, [[[1, 0], [0, 2]]], 2)
    twist = [[F(1, 2), F(1, 3)], [F(0), F(-1, 2)]]
    module = twisted_field_module(base, ExactTable([twist]))
    assert module.algebra is base.algebra
    assert twisted_field_module(base, ExactTable([twist])) is module
    (plain,) = base.matrices
    d = base.dim
    expected = [[(plain[l][u] if a == b else F(0)) - (twist[a][b] if l == u else F(0))
                 for b in range(2) for u in range(d)] for a in range(2) for l in range(d)]
    assert (base.den, module.den) == (1, 6)
    assert [list(row) for row in module.matrices[0]] == expected
