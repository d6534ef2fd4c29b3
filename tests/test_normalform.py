import math
import random
from fractions import Fraction

import pytest

from helpers import (
    gl2_algebra,
    random_near_identity_change,
    random_linear_change,
    sl2_algebra,
    sl2_bivector,
    so3_algebra,
    so3_bivector,
)
from poislin import CoordChange, Jet, PoissonJet, compose_change, pushforward
from poislin.cohomology import ObstructionClass, is_cocycle, solve_coboundary
from poislin.liealg import LeviSplit, LieAlgebra, isotropy_from_linear_part, levi_lift
from poislin.normalform import (
    ActionJet,
    IterationStep,
    IterationTrace,
    LeviNormalForm,
    PreconditionNotNormalized,
    SplitNotCertified,
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

F = Fraction


def unit(k, n):
    return tuple(1 if t == k else 0 for t in range(n))


def linear_bivector(L, order):
    n = L.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {unit(k, n): L.constants[i][j][k]
                     for k in range(n) if L.constants[i][j][k]}
            if terms:
                brackets[(i, j)] = Jet(n, order, terms)
    return PoissonJet.from_brackets(n, order, brackets)


def coadjoint_action(L, order):
    """Fields with components {x^i, x^a} of the linear bivector."""
    n = L.dim
    fields = []
    for i in range(n):
        comps = []
        for a in range(n):
            terms = {unit(k, n): L.constants[i][a][k]
                     for k in range(n) if L.constants[i][a][k]}
            comps.append(Jet(n, order, terms))
        fields.append(comps)
    return ActionJet(L, fields, order)


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
    mat = obs.cocycle.module.differential_matrix(1)
    lam = obs.functional
    for col in range(obs.cocycle.module.cochain_dim(1)):
        assert sum(lam[row] * mat[row][col] for row in range(len(mat))) == 0


# ---------------------------------------------------------------------------
# actions


def test_action_jet_validates_the_morphism_property():
    L = so3_algebra()
    act = coadjoint_action(L, 5)  # validating constructor passed
    broken = [list(fld) for fld in act.fields]
    broken[0][0] = broken[0][0] + Jet(3, 5, {(0, 2, 0): F(1)})
    with pytest.raises(ValueError, match="morphism"):
        ActionJet(L, broken, 5)


def test_action_jet_rejects_origin_moving_fields():
    L = LieAlgebra([[[F(0)]]])
    with pytest.raises(ValueError, match="origin"):
        ActionJet(L, [[Jet(1, 3, {(0,): F(1)})]], 3)


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


def test_levi_rejects_uncertified_splits():
    rng = random.Random(71)
    gl2 = gl2_algebra()
    base, pert = perturbed_linear(gl2, 4, rng)
    iso = isotropy_from_linear_part(pert)
    good = levi_lift(iso)
    # swapped factors: the radical is not a complement of itself
    bad = LeviSplit(iso, good.r_basis, good.s_basis)
    with pytest.raises(SplitNotCertified):
        levi_decompose(pert, bad)
    # split taken from a different algebra
    other = levi_lift(so3_algebra())
    with pytest.raises(SplitNotCertified):
        levi_decompose(pert, other)


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
    """dim H^2 for an obstruction reads its ranks off the module's cached
    coboundary solvers: d^1 from the solver the run has just used, d^2 from
    the one the cold run cached, so a warm run eliminates nothing."""
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
    warm, _ = linearize_poisson(pi)
    assert warm == cold
    assert eliminated == []
