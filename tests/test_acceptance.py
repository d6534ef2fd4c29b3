"""Acceptance gate: one test per shipped guarantee, each printing its own
PASS line.  Expensive batches reuse seeded generators from helpers; every
expected value here is either pinned by an independent oracle computed in
place or asserted structurally (exact rational zero, exact equality)."""

import json
import random
import time
from fractions import Fraction

from helpers import (
    dense,
    gl2_algebra,
    gl2_matrix_algebroid,
    random_graded_change,
    random_jet,
    random_near_identity_change,
    sl2_algebra,
    sl2_bivector,
    so3_action_algebroid,
    so3_algebra,
    so3_bivector,
)
from poislin.algebroid import (
    AlgebroidJet,
    algebroid_to_poisson,
    apply_algebroid_change,
    linearize_algebroid,
    poisson_to_algebroid,
)
from poislin.cli import main, problem_from_dict
from poislin.cohomology import (
    ObstructionClass,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
)
from poislin.corpus import get as corpus_get
from poislin.liealg import (
    LieAlgebra,
    is_compact_type,
    is_semisimple,
    killing_form,
    verify_levi_split,
)
from poislin.normalform import (
    ActionJet,
    conjugate_action,
    hermitian_inner,
    levi_decompose,
    linearize_action,
    linearize_poisson,
)
from poislin.polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    PolyOneForm,
    differential,
    koszul_bracket,
    monomials,
    poisson_bracket,
    pushforward,
    sharp,
)

F = Fraction


def bounded_jet(rng, nvars, order, max_degree, max_terms=4, lowest=0):
    """Sparse random jet whose monomials stay at or below max_degree."""
    pool = []
    for d in range(lowest, max_degree + 1):
        pool.extend(monomials(nvars, d))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[pool[rng.randrange(len(pool))]] = F(rng.choice((-2, -1, 1, 2)))
    return Jet(nvars, order, terms)


def stated_pool_change(rng, nvars, order):
    """Near-identity change with tweak monomials of degree <= 4 and
    coefficients drawn from numerators -2..2 over denominators 1..3."""
    comps = []
    for i in range(nvars):
        comp = Jet.variable(i, nvars, order)
        for _ in range(rng.randint(1, 2)):
            degree = rng.randint(2, 4)
            mono = rng.choice(monomials(nvars, degree))
            coeff = F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
            comp = comp + Jet(nvars, order, {mono: coeff})
        comps.append(comp)
    return CoordChange(comps)


def mat_vec(mat, vec):
    return [sum((row[c] * vec[c] for c in range(len(vec)) if vec[c]), F(0))
            for row in mat]


_DOUBLING_TRACES = []


# ---------------------------------------------------------------------------


def test_acceptance_01_differential_squares_to_zero():
    algebras = {
        "so3": so3_algebra(),
        "sl2": sl2_algebra(),
        "gl2": gl2_algebra(),
        "abelian-2": LieAlgebra.abelian(2),
    }
    rng = random.Random(101)
    started = time.perf_counter()
    checked = 0
    for L in algebras.values():
        rep = coadjoint_rep(L)
        for module_degree in range(1, 5):
            module = induced_polynomial_module(L, L.dim, rep, module_degree)
            for degree in range(3):
                d_low = dense(module.differential_matrix(degree),
                              module.cochain_dim(degree))
                d_high = dense(module.differential_matrix(degree + 1),
                               module.cochain_dim(degree + 1))
                for _ in range(5):
                    vec = [F(rng.randint(-3, 3))
                           for _ in range(module.cochain_dim(degree))]
                    twice = mat_vec(d_high, mat_vec(d_low, vec))
                    assert all(value == 0 for value in twice)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS ({checked} cochains, {elapsed:.2f}s)")


def test_acceptance_02_whitehead_vanishing():
    started = time.perf_counter()
    for L in (so3_algebra(), sl2_algebra()):
        rep = coadjoint_rep(L)
        for module_degree in range(2, 6):
            module = induced_polynomial_module(L, 3, rep, module_degree)
            for degree in (1, 2):
                assert cohomology_dimension(module, degree) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2: PASS (H^1 = H^2 = 0 on 16 modules, {elapsed:.2f}s)")


def test_acceptance_03_poisson_linearization_round_trip():
    rng = random.Random(303)
    per_instance = []
    for base in (so3_bivector(8), sl2_bivector(8)):
        for _ in range(50):
            moved = pushforward(base, stated_pool_change(rng, 3, 8))
            started = time.perf_counter()
            change, normal_form, trace = linearize_poisson(moved)
            per_instance.append(time.perf_counter() - started)
            assert pushforward(moved, change) == base
            assert normal_form == base
            _DOUBLING_TRACES.append(trace)
    worst = max(per_instance)
    assert worst < 10.0
    print(f"ACCEPTANCE 3: PASS (100 round trips at order 8, "
          f"worst instance {worst:.2f}s)")


def test_acceptance_04_degree_doubling_law():
    assert len(_DOUBLING_TRACES) >= 100, "criterion 3 must populate the traces"
    steps_seen = 0
    for trace in _DOUBLING_TRACES:
        assert trace.scheduler == "doubling"
        for step in trace.steps:
            if step.lowest_before is not None:
                assert step.lowest_before >= 2 ** step.block_index
                steps_seen += 1
    assert steps_seen > 0
    print(f"ACCEPTANCE 4: PASS (doubling law on {steps_seen} steps "
          f"across {len(_DOUBLING_TRACES)} traces)")


def test_acceptance_05_obstruction_certificate(tmp_path, capsys):
    x2 = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
    out = linearize_poisson(x2)
    assert len(out) == 2
    cert, _trace = out
    assert isinstance(cert, ObstructionClass)
    module = cert.cocycle.module
    columns = module.cochain_dim(1)
    d1 = dense(module.differential_matrix(1), columns)
    lam = cert.functional
    # the columns of d^1 span the coboundaries; annihilate each exactly
    assert columns > 0
    for col in range(columns):
        assert sum((lam[row] * d1[row][col] for row in range(len(d1))), F(0)) == 0
    pairing = sum((lam[k] * cert.cocycle.vector[k]
                   for k in range(len(lam))), F(0))
    assert pairing != 0

    path = tmp_path / "x2.json"
    path.write_text(json.dumps({
        "kind": "poisson", "variables": ["x", "y"], "order": 4,
        "brackets": {"x,y": "x^2"},
    }))
    code = main(["linearize", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["result"]["obstruction"]["verified"] is True
    print(f"ACCEPTANCE 5: PASS (functional kills {columns} coboundary "
          f"generators, pairing {pairing}, exit code 2)")


def test_acceptance_06_action_linearization():
    L = so3_algebra()
    mats = [
        [[L.constants[i][l][k] for k in range(3)] for l in range(3)]
        for i in range(3)
    ]
    linear = ActionJet.linear(L, mats, 6)
    rng = random.Random(606)
    for _ in range(50):
        moved = conjugate_action(linear, random_near_identity_change(rng, 3, 6))
        change, normal_form, trace = linearize_action(moved)
        assert conjugate_action(moved, change) == linear
        assert normal_form == linear

    quadratic = ActionJet(LieAlgebra.abelian(1),
                          [[Jet(1, 4, {(2,): 1})]], 4)
    out = linearize_action(quadratic)
    assert len(out) == 2
    cert, trace = out
    assert isinstance(cert, ObstructionClass)
    assert cert.cocycle.degree == 1
    assert cert.verify()
    assert trace.steps[-1].obstructed
    print("ACCEPTANCE 6: PASS (50 conjugations recovered, "
          f"H^1 obstruction certified with h_dim {cert.h_dim})")


def test_acceptance_07_levi_decomposition_pattern():
    gl2 = gl2_algebra()
    unit = lambda k: tuple(1 if t == k else 0 for t in range(4))
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            terms = {unit(k): gl2.constants[i][j][k]
                     for k in range(4) if gl2.constants[i][j][k]}
            if terms:
                brackets[(i, j)] = Jet(4, 6, terms)
    base = PoissonJet.from_brackets(4, 6, brackets)
    eye = [[F(t == s) for s in range(4)] for t in range(4)]
    split = verify_levi_split(gl2, eye[:3], eye[3:])
    rng = random.Random(707)
    s_units = {unit(k) for k in range(3)}
    for _ in range(25):
        moved = pushforward(base, random_near_identity_change(rng, 4, 6))
        change, nf, trace = levi_decompose(moved, split)
        out = pushforward(moved, change)
        assert out == nf.to_bivector()
        for a in range(3):
            for b in range(a + 1, 3):
                assert {m for m, _ in out.entry(a, b).terms()} <= s_units
            assert {m for m, _ in out.entry(a, 3).terms()} <= {unit(3)}
    print("ACCEPTANCE 7: PASS (25 perturbations, s-s linear in x and "
          "s-r linear in y through degree 6)")


def test_acceptance_08_cotangent_bracket_properties():
    rng = random.Random(808)

    def quadratic_poisson(order):
        entry = bounded_jet(rng, 2, order, 2, max_terms=3, lowest=1)
        return PoissonJet.from_brackets(2, order, {(0, 1): entry})

    checked = 0
    for trial in range(60):
        pi = so3_bivector(10) if trial % 2 == 0 else quadratic_poisson(10)
        n = pi.nvars
        f = bounded_jet(rng, n, 10, 4)
        g = bounded_jet(rng, n, 10, 4)
        lhs = koszul_bracket(differential(f), differential(g), pi)
        rhs = differential(poisson_bracket(f, g, pi))
        assert lhs == rhs
        checked += 1

    for trial in range(60):
        pi = so3_bivector(14) if trial % 2 == 0 else quadratic_poisson(14)
        n = pi.nvars
        alpha = PolyOneForm([bounded_jet(rng, n, 14, 4, max_terms=2)
                             for _ in range(n)])
        beta = PolyOneForm([bounded_jet(rng, n, 14, 4, max_terms=2)
                            for _ in range(n)])
        f = bounded_jet(rng, n, 14, 4, max_terms=2)
        lhs = koszul_bracket(
            alpha, PolyOneForm([f * b for b in beta.components]), pi)
        field = sharp(alpha, pi)
        derived = Jet.zero(n, 14)
        for j in range(n):
            derived = derived + field[j] * f.diff(j)
        inner = koszul_bracket(alpha, beta, pi)
        rhs = PolyOneForm([
            f * inner.components[k] + derived * beta.components[k]
            for k in range(n)
        ])
        assert lhs == rhs
        checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 8: PASS (properties (i) and (ii) exact on "
          f"{checked} random inputs)")


def test_acceptance_09_algebroid_duality_and_recovery():
    rng = random.Random(909)
    seeds = []
    so3_A = so3_action_algebroid(4)
    gl2_A, _ = gl2_matrix_algebroid(4)
    x = Jet.variable(0, 1, 4)
    quad_structure = [[[Jet.zero(1, 4) for _ in range(2)] for _ in range(2)]
                      for _ in range(2)]
    quad_structure[0][1][0] = x
    quad_structure[1][0][0] = -x
    quad_A = AlgebroidJet(1, 2, quad_structure,
                          [[Jet.zero(1, 5)], [Jet.zero(1, 5)]], 4)
    seeds = [(so3_A, 3, 3, 20), (gl2_A, 2, 4, 15), (quad_A, 1, 2, 15)]
    round_trips = 0
    for seed, base_dim, rank, count in seeds:
        for _ in range(count):
            moved = apply_algebroid_change(
                seed, random_graded_change(rng, base_dim, rank, seed.order + 1))
            assert poisson_to_algebroid(algebroid_to_poisson(moved),
                                        base_dim) == moved
            round_trips += 1
    assert round_trips >= 50

    model = so3_action_algebroid(5)
    for _ in range(25):
        moved = apply_algebroid_change(model,
                                       random_graded_change(rng, 3, 3, 6))
        change, linear, trace = linearize_algebroid(moved)
        assert linear == model.linear_part()
        assert apply_algebroid_change(moved, change) == model
    print(f"ACCEPTANCE 9: PASS ({round_trips} duality round trips, "
          "25 exact recoveries at order 5)")


def test_acceptance_10_metric_spot_values():
    for n in (2, 3, 4):
        x1 = Jet.variable(0, n, 3)
        for r in (F(1), F(1, 2)):
            value = hermitian_inner(x1, x1, radius=r)
            target = float(r) ** 2 / (n + 1)
            assert abs(float(value) - target) <= 1e-12 * target
        degree_two = monomials(n, 2)
        for i, a in enumerate(degree_two):
            for b in degree_two[i + 1:]:
                inner = hermitian_inner(Jet(n, 3, {a: 1}), Jet(n, 3, {b: 1}))
                assert inner == 0
        assert hermitian_inner(x1, Jet.variable(1, n, 3)) == 0
    print("ACCEPTANCE 10: PASS (|x|^2 = r^2/(n+1) for n in 2..4, "
          "distinct monomials orthogonal)")


def test_acceptance_11_classification_values():
    def brute_killing(L):
        n = L.dim
        ad = [[[L.constants[i][j][k] for j in range(n)] for k in range(n)]
              for i in range(n)]
        return [
            [sum((ad[i][a][b] * ad[j][b][a]
                  for a in range(n) for b in range(n)), F(0))
             for j in range(n)]
            for i in range(n)
        ]

    so3, sl2 = so3_algebra(), sl2_algebra()
    assert killing_form(so3) == brute_killing(so3)
    assert killing_form(sl2) == brute_killing(sl2)
    assert killing_form(so3) == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    assert killing_form(sl2) == [[2, 0, 0], [0, 2, 0], [0, 0, -2]]
    assert is_semisimple(so3) and is_semisimple(sl2)
    assert is_compact_type(so3)
    assert not is_compact_type(sl2)
    assert not is_semisimple(LieAlgebra.abelian(2))
    print("ACCEPTANCE 11: PASS (Killing -2I and diag(2,2,-2) vs brute "
          "trace oracle, flags follow)")


def test_acceptance_12_flat_perturbation_blindness():
    entry = corpus_get("weinstein-sl2-flat")
    for order in range(1, 11):
        spec = problem_from_dict(entry.problem(order))
        assert spec.payload == sl2_bivector(order)
        change, normal_form, trace = linearize_poisson(spec.payload)
        assert change.is_identity()
        assert normal_form == spec.payload
        assert all(not step.obstructed for step in trace.steps)
    print("ACCEPTANCE 12: PASS (corpus truncations exactly linear for "
          "N = 1..10, identity change each time)")
