import hashlib
import random
from fractions import Fraction

import pytest

from helpers import (
    gl2_matrix_algebroid,
    random_graded_change,
    so3_action_algebroid,
    so3_algebra,
    so3_bivector,
    solvable2_algebra,
)
from poislin.algebroid import (
    AlgebroidChange,
    AlgebroidJet,
    LinearAlgebroid,
    action_algebroid,
    algebroid_to_poisson,
    apply_algebroid_change,
    fiberwise_linearity_check,
    is_graded_change,
    levi_algebroid,
    linearize_algebroid,
    poisson_to_algebroid,
)
from poislin.cohomology import ObstructionClass, coadjoint_rep, induced_polynomial_module
from poislin.liealg import LieAlgebra, isotropy_from_linear_part, levi_lift
from poislin.normalform import SplitNotCertified
from poislin.polyalg import CoordChange, Jet, PoissonJet, compose_change, jacobiator

F = Fraction


def abelian_quadratic_algebroid(order=4):
    """Rank 2 over R^1, abelian at the origin, bracket of sections x e_1."""
    x = Jet.variable(0, 1, order)
    structure = [[[Jet.zero(1, order) for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
    structure[0][1][0] = x
    structure[1][0][0] = -x
    anchor = [[Jet.zero(1, order + 1)], [Jet.zero(1, order + 1)]]
    return AlgebroidJet(1, 2, structure, anchor, order)


# ---------------------------------------------------------------------------
# duality


def test_action_algebroid_dual_has_the_three_bracket_families():
    A = so3_action_algebroid(4)
    pi = algebroid_to_poisson(A)
    L = so3_algebra()
    n = 3
    assert pi.nvars == 6 and pi.order == 5
    e = lambda k: tuple(1 if t == n + k else 0 for t in range(6))
    x = lambda k: tuple(1 if t == k else 0 for t in range(6))
    for i in range(3):
        for j in range(3):
            if i < j:
                expected = Jet(6, 5, {e(k): L.constants[i][j][k] for k in range(3)})
                assert pi.entry(n + i, n + j) == expected
            expected = Jet(6, 5, {x(k): L.constants[i][j][k] for k in range(3)})
            assert pi.entry(n + i, j) == expected
    for i in range(3):
        for j in range(3):
            assert pi.entry(i, j).is_zero()


def test_zero_anchor_abelian_fiber_gives_zero_bivector():
    zero3 = [[[Jet.zero(2, 3)] * 3 for _ in range(3)] for _ in range(3)]
    anchor = [[Jet.zero(2, 4)] * 2 for _ in range(3)]
    A = AlgebroidJet(2, 3, zero3, anchor, 3)
    pi = algebroid_to_poisson(A)
    assert all(jet.is_zero() for row in pi.entries for jet in row)


def test_duality_round_trip_on_random_graded_transports():
    rng = random.Random(20)
    A = so3_action_algebroid(4)
    for _ in range(8):
        moved = apply_algebroid_change(A, random_graded_change(rng, 3, 3, 5))
        pi = algebroid_to_poisson(moved)
        assert fiberwise_linearity_check(pi, 3)
        assert poisson_to_algebroid(pi, 3) == moved


def test_transport_keeps_anchor_terms_one_degree_deeper():
    # a frame change mixing sections feeds the top anchor degree; the jet
    # carries it, so the round trip stays exact
    L = LieAlgebra([[[F(0)] * 2] * 2] * 2)
    structure = [[[Jet.zero(1, 1)] * 2 for _ in range(2)] for _ in range(2)]
    x = Jet.variable(0, 1, 2)
    anchor = [[x], [Jet.zero(1, 2)]]
    A = AlgebroidJet(1, 2, structure, anchor, 1)
    frame = [
        [Jet.one(1, 2), Jet.zero(1, 2)],
        [-Jet.variable(0, 1, 2), Jet.one(1, 2)],
    ]
    moved = apply_algebroid_change(A, AlgebroidChange(CoordChange.identity(1, 2), frame))
    assert moved.anchor[1][0] == Jet(1, 2, {(2,): -1})
    assert moved.structure[1][0][0] == Jet(1, 1, {(1,): 1})
    assert poisson_to_algebroid(algebroid_to_poisson(moved), 1) == moved


def test_invalid_jacobi_is_rejected_and_visible_in_the_jacobiator():
    order = 3
    x = Jet.variable(0, 1, order)
    structure = [[[Jet.zero(1, order) for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
    structure[0][1][0] = x
    structure[1][0][0] = -x
    anchor = [[x.truncate(order + 1)], [Jet.zero(1, order + 1)]]
    with pytest.raises(ValueError, match="Jacobi"):
        AlgebroidJet(1, 2, structure, anchor, order)
    # same data assembled by hand: the jacobiator exhibits the violation
    total, do = 3, order + 1
    grid = [[Jet.zero(total, do) for _ in range(total)] for _ in range(total)]
    grid[1][2] = Jet(total, do, {(1, 1, 0): 1})
    grid[2][1] = -grid[1][2]
    grid[1][0] = Jet(total, do, {(1, 0, 0): 1})
    grid[0][1] = -grid[1][0]
    bad = PoissonJet._trusted(grid, total, do)
    assert any(not jet.is_zero() for jet in jacobiator(bad).values())


def test_constructor_validation_errors():
    ok = so3_action_algebroid(3)
    with pytest.raises(ValueError, match="antisymmetric"):
        AlgebroidJet(3, 3,
                     [[[Jet.one(3, 3)] * 3 for _ in range(3)] for _ in range(3)],
                     [[Jet.zero(3, 4)] * 3 for _ in range(3)], 3)
    with pytest.raises(ValueError, match="origin"):
        AlgebroidJet(3, 3,
                     [[[Jet.zero(3, 3)] * 3 for _ in range(3)] for _ in range(3)],
                     [[Jet.one(3, 4)] * 3 for _ in range(3)], 3)
    with pytest.raises(ValueError, match="one order deeper"):
        AlgebroidJet(3, 3, ok.structure,
                     [[Jet.zero(3, 3)] * 3 for _ in range(3)], 3)
    with pytest.raises(ValueError, match="rank"):
        AlgebroidJet(3, 2, ok.structure, ok.anchor, 3)


def test_fiberwise_linearity_check_cases():
    A = so3_action_algebroid(3)
    pi = algebroid_to_poisson(A)
    assert fiberwise_linearity_check(pi, 3)
    # the linear so(3)* bracket is fiberwise linear over an empty base
    assert fiberwise_linearity_check(so3_bivector(4), 0)
    quad = PoissonJet.from_brackets(2, 3, {(0, 1): [((2, 0), 1)]})
    assert not fiberwise_linearity_check(quad, 0)   # fiber-degree 2 term
    assert not fiberwise_linearity_check(quad, 2)   # base-base entry nonzero
    assert fiberwise_linearity_check(quad, 1)       # a quadratic anchor is fine
    mixed = PoissonJet.from_brackets(2, 3, {(0, 1): [((0, 1), 1)]})
    assert not fiberwise_linearity_check(mixed, 1)  # mixed entry uses the fiber
    with pytest.raises(ValueError):
        fiberwise_linearity_check(quad, 5)


def test_extractor_rejects_non_graded_bivectors():
    mixed = PoissonJet.from_brackets(2, 3, {(0, 1): [((0, 1), 1)]})
    with pytest.raises(ValueError, match="fiberwise"):
        poisson_to_algebroid(mixed, 1)


# ---------------------------------------------------------------------------
# changes


def test_change_round_trip_and_grading_check():
    rng = random.Random(4)
    for _ in range(6):
        ch = random_graded_change(rng, 2, 3, 4)
        dual = ch.to_dual()
        assert is_graded_change(dual, 2)
        assert AlgebroidChange.from_dual(dual, 2) == ch
    bad = CoordChange([
        Jet.variable(0, 2, 3) + Jet(2, 3, {(0, 2): 1}),
        Jet.variable(1, 2, 3),
    ])
    assert not is_graded_change(bad, 1)
    with pytest.raises(ValueError, match="grading"):
        AlgebroidChange.from_dual(bad, 1)


def test_applying_composed_changes_matches_sequential_transport():
    rng = random.Random(11)
    A = so3_action_algebroid(3)
    c1 = random_graded_change(rng, 3, 3, 4)
    c2 = random_graded_change(rng, 3, 3, 4)
    step = apply_algebroid_change(apply_algebroid_change(A, c1), c2)
    merged = AlgebroidChange.from_dual(
        compose_change(c1.to_dual(), c2.to_dual()), 3
    )
    assert apply_algebroid_change(A, merged) == step


# ---------------------------------------------------------------------------
# graded complex against the full one


def test_graded_differential_agrees_with_the_full_complex():
    from poislin.algebroid import _graded_complex

    A = so3_action_algebroid(3)
    pi = algebroid_to_poisson(A)
    iso = isotropy_from_linear_part(pi)
    degree = 3
    cx = _graded_complex(iso, 3, degree)
    module = induced_polynomial_module(iso, 6, coadjoint_rep(iso), degree)
    mono_index = {m: i for i, m in enumerate(module.labels)}
    rng = random.Random(9)
    vec = [F(rng.randint(-3, 3)) for _ in range(cx.cochain_dim(1))]
    full_vec = [F(0)] * module.cochain_dim(1)
    for a in range(6):
        basis, _ = cx.slot_basis((a,))
        offset = cx.layout(1)[1][(a,)]
        for pos, mono in enumerate(basis):
            full_vec[a * module.dim + mono_index[mono]] = vec[offset + pos]
    graded = cx.differential_matrix(1)
    image = [sum((row[c] * vec[c] for c in range(len(vec))), F(0)) for row in graded]
    full_mat = module.differential_matrix(1)
    full_image = [
        sum((row[c] * full_vec[c] for c in range(len(full_vec))), F(0))
        for row in full_mat
    ]
    seen = [F(0)] * module.cochain_dim(2)
    for s_pos, pair in enumerate(cx.layout(2)[0]):
        basis, _ = cx.slot_basis(pair)
        offset = cx.layout(2)[1][pair]
        for pos, mono in enumerate(basis):
            seen[s_pos * module.dim + mono_index[mono]] = image[offset + pos]
    # the full differential of an embedded graded cochain stays in the grading
    assert full_image == seen


def test_graded_differential_squares_to_zero():
    from poislin.algebroid import _graded_complex

    A = so3_action_algebroid(3)
    iso = isotropy_from_linear_part(algebroid_to_poisson(A))
    cx = _graded_complex(iso, 3, 2)
    rng = random.Random(3)
    vec = [F(rng.randint(-2, 2)) for _ in range(cx.cochain_dim(1))]
    d1 = cx.differential_matrix(1)
    d2 = cx.differential_matrix(2)
    mid = [sum((row[c] * vec[c] for c in range(len(vec))), F(0)) for row in d1]
    top = [sum((row[c] * mid[c] for c in range(len(mid))), F(0)) for row in d2]
    assert all(x == 0 for x in top)


# Reference values of the so(3) action algebroid's graded complex (base 3):
# degree -> (sha256 of d^1, sha256 of d^2, H^1, H^2), the matrices hashed as
# one line of space-separated entries per row.  They pin the graded complex
# entry for entry.
GRADED_GOLDEN = {
    2: ("626b0c8123496bc6e3009ecbb5f325e20d8264dad951563bfa0e3f21ebab7305",
        "bf5e4680ca164fab8db36e33e0fabe72c8ccfeba2c8113a57aaf40579ae877d2", 0, 0),
    3: ("c9c10c9c42b591ad3e877346f891c5b906e236c4e409482c1a6c2e1eda459eb9",
        "83ff2d81dccdfe2acd06e6641a462227f273fb32c90a633d385c349f8457ec82", 1, 0),
    4: ("b3f8b1d80fc26ba4ae96f7b1dae8e6678cccd4072aea162b24df3a7daa9e1777",
        "9167fe66944902ed9cb47c013b55d4bc28d7426793a592842825d336b4b879c5", 0, 0),
}


def _matrix_sha256(mat):
    text = "\n".join(" ".join(str(x) for x in row) for row in mat)
    return hashlib.sha256(text.encode()).hexdigest()


def test_graded_complex_matches_reference_hashes():
    from poislin.algebroid import _graded_complex

    iso = isotropy_from_linear_part(algebroid_to_poisson(so3_action_algebroid(3)))
    for degree, (d1, d2, h1, h2) in GRADED_GOLDEN.items():
        cx = _graded_complex(iso, 3, degree)
        assert _matrix_sha256(cx.differential_matrix(1)) == d1
        assert _matrix_sha256(cx.differential_matrix(2)) == d2
        assert (cx.h_dim(1), cx.h_dim(2)) == (h1, h2)


def test_abelian_quadratic_certificate_reference_values():
    obstruction, _ = linearize_algebroid(abelian_quadratic_algebroid())
    # C^2 of the 3-variable coadjoint module at degree 2: 3 pairs x 6
    # monomials; entry 13 is x e_1 on the pair (e_1, e_2)
    unit = [F(1) if i == 13 else F(0) for i in range(18)]
    assert obstruction.cocycle.vector == unit
    assert obstruction.functional == unit
    assert obstruction.h_dim == 4
    assert obstruction.verify()


# ---------------------------------------------------------------------------
# linearization


def test_linear_input_returns_identity_change():
    A = so3_action_algebroid(4)
    change, lin, trace = linearize_algebroid(A)
    assert change.to_dual().is_identity()
    assert trace.steps == []
    assert lin.algebra == so3_algebra()


def test_linearize_recovers_action_algebroid():
    rng = random.Random(42)
    A = so3_action_algebroid(5)
    model = A.linear_part()
    for scheduler in ("doubling", "degree"):
        for _ in range(3):
            moved = apply_algebroid_change(A, random_graded_change(rng, 3, 3, 6))
            change, lin, trace = linearize_algebroid(moved, scheduler=scheduler)
            assert lin == model
            assert is_graded_change(change.to_dual(), 3)
            assert apply_algebroid_change(moved, change) == A
            if trace.steps:
                assert trace.scheduler == scheduler


def test_linearize_doubling_trace_structure():
    rng = random.Random(17)
    A = so3_action_algebroid(5)
    moved = apply_algebroid_change(A, random_graded_change(rng, 3, 3, 6, max_tweaks=3))
    _, _, trace = linearize_algebroid(moved)
    assert trace.target_order == 6
    for step in trace.steps:
        assert step.lowest_before >= 2 ** step.block_index
        assert not step.obstructed


def test_obstruction_certificate_for_quadratic_abelian_structure():
    A = abelian_quadratic_algebroid()
    out = linearize_algebroid(A)
    assert len(out) == 2
    obstruction, trace = out
    assert isinstance(obstruction, ObstructionClass)
    assert obstruction.verify()
    # the isotropy acts trivially, so every graded 2-cochain is a class:
    # pairs (x,e1),(x,e2) hold x^2 and (e1,e2) holds x e1, x e2
    assert obstruction.h_dim == 4
    assert trace.steps[-1].obstructed
    assert trace.steps[-1].degrees == (2,)


def test_linearize_order_and_scheduler_arguments():
    A = so3_action_algebroid(4)
    with pytest.raises(ValueError, match="truncation"):
        linearize_algebroid(A, order=5)
    with pytest.raises(ValueError, match="scheduler"):
        linearize_algebroid(A, scheduler="bogus")
    change, lin, trace = linearize_algebroid(A, order=2)
    assert trace.target_order == 3
    assert lin.algebra == so3_algebra()


def test_linear_algebroid_validates_its_action():
    L = so3_algebra()
    good = [
        [[L.constants[i][l][k] for k in range(3)] for l in range(3)]
        for i in range(3)
    ]
    LinearAlgebroid(L, good)
    eye = [[F(t == s) for s in range(3)] for t in range(3)]
    with pytest.raises(ValueError):
        LinearAlgebroid(L, [eye, eye, eye])


def test_linear_algebroid_to_algebroid_round_trip():
    A = so3_action_algebroid(3)
    assert A.linear_part().to_algebroid(3) == A
    assert A.truncate(2) == so3_action_algebroid(2)


# ---------------------------------------------------------------------------
# Levi normalization


def test_levi_algebroid_gl2_pattern():
    rng = random.Random(5)
    A, gl2 = gl2_matrix_algebroid(4)
    split = levi_lift(gl2)
    ns = len(split.s_basis)
    assert ns == 3
    for _ in range(3):
        moved = apply_algebroid_change(A, random_graded_change(rng, 2, 4, 5))
        change, nf, trace = levi_algebroid(moved, split)
        assert is_graded_change(change.to_dual(), 2)
        zero = (0, 0)
        for i in range(ns):
            for j in range(4):
                for k in range(4):
                    jet = nf.structure[i][j][k]
                    assert jet == Jet(2, nf.order, {zero: jet.coefficient(zero)})
            for l in range(2):
                assert nf.anchor[i][l].highest_degree() in (None, 1)
        assert apply_algebroid_change(moved, change) == nf


def test_levi_algebroid_sr_block_carries_the_radical_action():
    A, gl2 = gl2_matrix_algebroid(3)
    split = levi_lift(gl2)
    change, nf, trace = levi_algebroid(A, split)
    ns = len(split.s_basis)
    # adapted frame still acts on the radical direction: some s-r structure
    # constant survives
    mixed = [
        nf.structure[i][ns + beta][k].coefficient((0, 0))
        for i in range(ns) for beta in range(4 - ns) for k in range(4)
    ]
    assert nf.fiber_algebra().constants != so3_algebra().constants
    assert any(x == 0 for x in mixed)  # s-r brackets stay inside the radical


def test_levi_algebroid_full_semisimple_split_linearizes():
    rng = random.Random(23)
    A = so3_action_algebroid(4)
    split = levi_lift(so3_algebra())
    assert split.r_basis == ()
    moved = apply_algebroid_change(A, random_graded_change(rng, 3, 3, 5))
    change, nf, trace = levi_algebroid(moved, split)
    assert nf.is_linear()
    assert nf.linear_part().algebra == so3_algebra()


def test_levi_algebroid_empty_split_returns_input():
    A = abelian_quadratic_algebroid(3)
    fiber = A.fiber_algebra()
    split = levi_lift(fiber)
    assert split.s_basis == ()
    change, nf, trace = levi_algebroid(A, split)
    assert trace.steps == []
    assert nf == A
    assert change.to_dual().is_identity()


def test_levi_algebroid_rejects_uncertified_splits():
    A, gl2 = gl2_matrix_algebroid(3)
    split = levi_lift(gl2)
    wrong = levi_lift(so3_algebra())
    with pytest.raises(SplitNotCertified, match="different algebra"):
        levi_algebroid(A, wrong)
    from poislin.liealg import LeviSplit

    swapped = LeviSplit(gl2, split.r_basis, split.s_basis)
    with pytest.raises(SplitNotCertified):
        levi_algebroid(A, swapped)


def test_levi_algebroid_solvable_residual_rides_along():
    # solvable 2-dim fiber with trivial Levi factor: everything is residual
    L = solvable2_algebra()
    mats = [
        [[F(0)]],
        [[F(0)]],
    ]
    A = action_algebroid(L, mats, 1, 3)
    x = Jet.variable(0, 1, 4)
    frame = [
        [Jet.one(1, 4), Jet.zero(1, 4)],
        [x * x, Jet.one(1, 4)],
    ]
    moved = apply_algebroid_change(A, AlgebroidChange(CoordChange.identity(1, 4), frame))
    split = levi_lift(L)
    assert split.s_basis == ()
    change, nf, trace = levi_algebroid(moved, split)
    assert nf == moved
    assert trace.steps == []
