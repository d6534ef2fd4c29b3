import hashlib
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
    gl2_matrix_algebroid,
    random_graded_change,
    random_near_identity_change,
    record_calls,
    sl2_algebra,
    so3_action_algebroid,
    so3_algebra,
    so3_bivector,
    solvable2_algebra,
)
from poislin import polyalg
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
from poislin.normalform import SplitNotCertified, conjugate_action, linearize_action
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


def _truncated_entries(grid, order):
    return tuple(tuple(jet.truncate(order) for jet in row) for row in grid)


@pytest.mark.parametrize("seed", ["so3", "gl2", "quadratic"])
def test_views_rebuild_the_jet_and_truncate_entrywise(seed):
    """The structure and anchor views of a transported jet, read off its
    dual, rebuild the same jet through the checked constructor; the views
    of a constructed jet are its inputs, also when read back off its dual;
    and truncation cuts structure functions at k and anchors at k+1."""
    A, base_dim, rank = {
        "so3": (so3_action_algebroid(4), 3, 3),
        "gl2": (gl2_matrix_algebroid(4)[0], 2, 4),
        "quadratic": (abelian_quadratic_algebroid(4), 1, 2),
    }[seed]
    rng = random.Random(707)
    for _ in range(3):
        moved = apply_algebroid_change(A, random_graded_change(rng, base_dim, rank, 5))
        structure, anchor = moved.structure, moved.anchor
        rebuilt = AlgebroidJet(base_dim, rank, [list(block) for block in structure],
                               [list(row) for row in anchor], moved.order)
        assert rebuilt == moved
        assert (rebuilt.structure, rebuilt.anchor) == (structure, anchor)
        read = poisson_to_algebroid(algebroid_to_poisson(rebuilt), base_dim)
        assert (read.structure, read.anchor) == (structure, anchor)
        for k in range(1, moved.order):
            cut_structure = tuple(_truncated_entries(block, k) for block in structure)
            cut_anchor = _truncated_entries(anchor, k + 1)
            cut = moved.truncate(k)
            assert (cut.structure, cut.anchor) == (cut_structure, cut_anchor)
            assert cut == AlgebroidJet(base_dim, rank, cut_structure, cut_anchor, k)


def test_dual_conversions_and_truncation_run_no_second_jacobi_check(monkeypatch):
    """poisson_to_algebroid and truncate wrap a dual already checked, so they
    call no jacobiator; the views of the wrapped jet are read off the dual's
    integer numerators, counted with a profile hook on Fraction.__new__."""
    rng = random.Random(13)
    A, _ = gl2_matrix_algebroid(3)
    pi = algebroid_to_poisson(apply_algebroid_change(A, random_graded_change(rng, 2, 4, 4)))
    calls = record_calls(monkeypatch, polyalg, "jacobiator")
    moved = poisson_to_algebroid(pi, 2)
    assert moved.truncate(2).order == 2 and moved.truncate(1).order == 1
    assert calls == []
    code = Fraction.__new__.__code__
    built = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built[0] += 1

    sys.setprofile(count)
    try:
        views = poisson_to_algebroid(pi, 2)
        views.structure, views.anchor
    finally:
        sys.setprofile(None)
    assert built[0] == 0
    assert algebroid_to_poisson(AlgebroidJet(2, 4, views.structure, views.anchor, 3)) == pi


def test_raising_the_order_checks_the_jacobi_identity_again():
    # {e1,e2} = x e1 and {e1,x} = x^2 fail Jacobi only in degree 3, past the
    # order-2 dual of an order-1 jet
    structure = [[[Jet.zero(1, 1)] * 2 for _ in range(2)] for _ in range(2)]
    structure[0][1][0] = Jet.variable(0, 1, 1)
    structure[1][0][0] = -structure[0][1][0]
    A = AlgebroidJet(1, 2, structure, [[Jet(1, 2, {(2,): 1})], [Jet.zero(1, 2)]], 1)
    with pytest.raises(ValueError, match="Jacobi"):
        A.truncate(2)
    with pytest.raises(ValueError, match="order >= 1"):
        A.truncate(0)
    assert so3_action_algebroid(3).truncate(4) == so3_action_algebroid(4)


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


_C, _B = Jet.zero(1, 3), Jet.zero(1, 4)
_SHAPE = "need base_dim, rank >= 0 and order >= 1"
_ANCHOR = "anchor must give base_dim components per section"
_ENTRY = "structure entries must be base-variable jets at the stated order"


@pytest.mark.parametrize("args, message", [
    ((-1, 0, [], [], 1), _SHAPE),
    ((0, -1, [], [], 1), _SHAPE),
    ((1, 1, [[[_C]]], [[_B]], 0), _SHAPE),
    ((1, 1, [[[_C, _C]]], [[_B]], 3), "structure functions must form a rank^3 grid"),
    ((1, 1, [[[_C]]], [[]], 3), _ANCHOR),
    ((1, 1, [[[_C]]], [[_B], [_B]], 3), _ANCHOR),
    ((1, 1, [[[Jet.zero(1, 4)]]], [[_B]], 3), _ENTRY),
    ((1, 1, [[[Jet.zero(2, 3)]]], [[_B]], 3), _ENTRY),
    ((1, 1, [[[0]]], [[_B]], 3), _ENTRY),
])
def test_algebroid_jet_rejects_malformed_data(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AlgebroidJet(*args)


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


def _promoted(jet: Jet, rank: int) -> Jet:
    """A base-variable jet in the dual variables, term by term."""
    return Jet.from_terms(jet.nvars + rank, jet.order,
                          [(mono + (0,) * rank, c) for mono, c in jet.terms()])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(base_dim=st.integers(1, 3), rank=st.integers(0, 3), order=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6))
def test_a_change_survives_the_dual_round_trip_less_its_top_frame_degree(
        base_dim, rank, order, seed):
    """to_dual writes each frame entry c as the product c e_k, which drops
    c's degree-N terms, and from_dual reads the rest of the change back.  A
    change needs a base coordinate, so base_dim starts at 1."""
    rng = random.Random(seed)
    change = random_graded_change(rng, base_dim, rank, order)
    frame = [list(row) for row in change.frame]
    if rank:
        top = Jet(base_dim, order, {(order,) + (0,) * (base_dim - 1): 3})
        frame[rng.randrange(rank)][rng.randrange(rank)] += top
    change = AlgebroidChange(change.base, frame)
    total = base_dim + rank
    e = [Jet.variable(base_dim + k, total, order) for k in range(rank)]
    dual = change.to_dual()
    assert dual.components == tuple(
        [_promoted(c, rank) for c in change.base.components]
        + [sum((_promoted(c, rank) * e[k] for k, c in enumerate(row)), Jet.zero(total, order))
           for row in frame])
    assert is_graded_change(dual, base_dim)
    kept = [[c - c.homogeneous_part(order) for c in row] for row in frame]
    assert AlgebroidChange.from_dual(dual, base_dim) == AlgebroidChange(change.base, kept)


ALGEBRA_OF_RANK = {0: LieAlgebra.from_sparse(0, []), 1: LieAlgebra.from_sparse(1, []),
                   2: solvable2_algebra(), 3: so3_algebra()}


def _random_algebroid(rng, base_dim, rank, order):
    """An action algebroid moved by a random graded change where there is a
    base: so(3) acts coadjointly over R^3, section e0 of the line and of
    [e0, e1] = e1 by a random diagonal matrix, and every other section by 0."""
    L = ALGEBRA_OF_RANK[rank]
    mats = [[[0] * base_dim for _ in range(base_dim)] for _ in range(rank)]
    if (base_dim, rank) == (3, 3):
        mats = [[[L.constants[i][l][k] for k in range(3)] for l in range(3)] for i in range(3)]
    elif rank in (1, 2):
        for l in range(base_dim):
            mats[0][l][l] = rng.choice((-1, 1, 2))
    A = action_algebroid(L, mats, base_dim, order)
    if base_dim:
        A = apply_algebroid_change(A, random_graded_change(rng, base_dim, rank, order + 1))
    return A


def _views_by_terms(pi: PoissonJet, base_dim: int, order: int) -> tuple:
    """(structure, anchor) of a fiberwise linear dual, read term by term."""
    n, rank = base_dim, pi.nvars - base_dim
    structure = [[[{} for _ in range(rank)] for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            for mono, c in pi.entries[n + i][n + j].terms():
                structure[i][j][mono[n:].index(1)][mono[:n]] = c
    anchor = [[Jet(n, order + 1, {mono[:n]: c for mono, c in pi.entries[n + i][l].terms()})
               for l in range(n)] for i in range(rank)]
    return ([[[Jet(n, order, terms) for terms in row] for row in block] for block in structure],
            anchor)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(base_dim=st.integers(0, 3), rank=st.integers(0, 3), order=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6))
def test_the_views_survive_the_dual_round_trip(base_dim, rank, order, seed):
    """A jet built from the structure and anchor read term by term off a
    dual has that dual, and poisson_to_algebroid(algebroid_to_poisson(A))
    reads A's views back."""
    pi = algebroid_to_poisson(_random_algebroid(random.Random(seed), base_dim, rank, order))
    A = AlgebroidJet(base_dim, rank, *_views_by_terms(pi, base_dim, order), order)
    assert algebroid_to_poisson(A) == pi
    read = poisson_to_algebroid(algebroid_to_poisson(A), base_dim)
    assert (read.structure, read.anchor) == (A.structure, A.anchor)


@pytest.mark.parametrize("defect", ["constant", "fiber-quadratic", "fiber-in-base"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(base_dim=st.integers(1, 3), rank=st.integers(1, 3), order=st.integers(2, 5),
       seed=st.integers(0, 10 ** 6))
def test_a_term_of_the_wrong_fiber_degree_is_refused(defect, base_dim, rank, order, seed):
    """A term of fiber degree 0 (a constant) or 2 (e_i e_j) in a fiber image
    or fiber-fiber entry, or of degree 1 (e_k) in a base image or base-fiber
    entry, fails the grading checks, and the readers refuse it."""
    rng = random.Random(seed)
    n, total = base_dim, base_dim + rank
    i, j, k, l = rng.randrange(rank), rng.randrange(rank), rng.randrange(rank), rng.randrange(n)
    e = [Jet.variable(n + s, total, order) for s in range(rank)]
    term = {"constant": Jet.one(total, order), "fiber-quadratic": e[i] * e[j],
            "fiber-in-base": e[k]}[defect]
    row = l if defect == "fiber-in-base" else n + i
    comps = list(random_graded_change(rng, n, rank, order).to_dual().components)
    comps[row] += term
    bad = CoordChange._trusted(comps)   # a constant term does not fix the origin
    assert not is_graded_change(bad, n)
    with pytest.raises(ValueError, match="change does not preserve the base/fiber grading"):
        AlgebroidChange.from_dual(bad, n)
    if rank == 1 and defect != "fiber-in-base":
        return   # no fiber-fiber entry off the diagonal
    grid = [list(entries) for entries in
            algebroid_to_poisson(_random_algebroid(rng, n, rank, order - 1)).entries]
    col = n + (i + 1) % rank if row >= n else n + k
    grid[row][col] += term
    grid[col][row] -= term
    bad_pi = PoissonJet._trusted(grid, total, order)
    assert not fiberwise_linearity_check(bad_pi, n)
    with pytest.raises(ValueError, match="bivector is not fiberwise linear for this splitting"):
        poisson_to_algebroid(bad_pi, n)


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
    graded = dense(cx.differential_matrix(1), cx.cochain_dim(1))
    image = [sum((row[c] * vec[c] for c in range(len(vec))), F(0)) for row in graded]
    full_mat = dense(module.differential_matrix(1), module.cochain_dim(1))
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
    d1 = dense(cx.differential_matrix(1), cx.cochain_dim(1))
    d2 = dense(cx.differential_matrix(2), cx.cochain_dim(2))
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
        assert _matrix_sha256(dense(cx.differential_matrix(1), cx.cochain_dim(1))) == d1
        assert _matrix_sha256(dense(cx.differential_matrix(2), cx.cochain_dim(2))) == d2
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


def _action_algebroid_of(action, order: int) -> AlgebroidJet:
    """The algebroid at `order` of an action: constant structure functions
    and the action's fields as anchors."""
    L, n = action.algebra, action.nvars
    structure = [[[Jet(n, order, {(0,) * n: c}) for c in row] for row in block]
                 for block in L.constants]
    anchor = [[comp.truncate(order + 1) for comp in field] for field in action.fields]
    return AlgebroidJet(n, L.dim, structure, anchor, order)


@pytest.mark.parametrize("algebra", [so3_algebra, sl2_algebra], ids=["so3", "sl2"])
def test_an_action_linearized_by_phi_makes_its_action_algebroid_linear(algebra):
    """Known answer from the source paper: when phi linearizes an action,
    the base change phi with the identity frame carries the action's
    algebroid to the algebroid of its normal form, with no algebroid engine
    involved; and the algebroid engine linearizes that algebroid too."""
    L = algebra()
    model = coadjoint_action(L, 5)
    for seed in range(15):
        moved = conjugate_action(model, random_near_identity_change(random.Random(seed), 3, 5))
        A = _action_algebroid_of(moved, 4)
        phi, normal_form, _ = linearize_action(moved)
        lift = AlgebroidChange(phi, AlgebroidChange.identity(3, 3, 5).frame)
        assert apply_algebroid_change(A, lift) == _action_algebroid_of(normal_form, 4)
        change, linear, _ = linearize_algebroid(A)
        assert apply_algebroid_change(A, change) == linear.to_algebroid(4)


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
    from poislin.liealg import LeviSplit, LeviSplitError

    with pytest.raises(LeviSplitError) as err:
        LeviSplit(gl2, split.r_basis, split.s_basis)
    assert err.value.violation == "SNotSemisimple"


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


def test_clear_caches_empties_every_cached_builder():
    """Every cached builder in the package, filled by an action
    linearization, levi_algebroid and linearize_algebroid, is empty after
    poislin.clear_caches(): the modules, the graded complexes and the alpha!
    tables of the trace norms.  The builders key on algebras by value: equal
    algebras built apart hash alike, and so does a frozen LeviSplit."""
    import importlib
    import pkgutil

    import poislin
    from poislin.cli import problem_from_dict
    from poislin.corpus import get
    from poislin.liealg import LeviSplit
    from poislin.normalform import conjugate_action, linearize_action

    modules = [importlib.import_module(f"poislin.{info.name}")
               for info in pkgutil.iter_modules(poislin.__path__) if info.name != "__main__"]
    builders = list({id(value): value for module in modules for value in vars(module).values()
                     if hasattr(value, "cache_clear")}.values())
    assert sorted(b.__wrapped__.__name__ for b in builders) == [
        "_DualGradedComplex", "_factorials", "_induced_module", "twisted_field_module"]

    poislin.clear_caches()
    rng = random.Random(5)
    action = problem_from_dict(get("guillemin-sternberg-action").problem(4)).payload
    assert len(linearize_action(conjugate_action(
        action, random_near_identity_change(rng, 3, 4)))) == 3
    moved = apply_algebroid_change(so3_action_algebroid(4), random_graded_change(rng, 3, 3, 5))
    levi_algebroid(moved, levi_lift(so3_algebra()))
    linearize_algebroid(moved)
    assert all(b.cache_info().currsize for b in builders)
    poislin.clear_caches()
    assert [b.cache_info().currsize for b in builders] == [0, 0, 0, 0]

    L = so3_algebra()
    again = LieAlgebra([[list(row) for row in plane] for plane in L.constants])
    assert again is not L and again == L and hash(again) == hash(L)
    split = levi_lift(gl2_algebra())
    twin = LeviSplit(LieAlgebra(gl2_algebra().constants), split.s_basis, split.r_basis)
    assert twin == split and hash(twin) == hash(split)
