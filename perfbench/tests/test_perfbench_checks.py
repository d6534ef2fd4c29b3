"""The benchmark's own tests: every output check rejects a corrupted answer,
and the known-answer cohomology formulas hold where an independent
computation can confirm them.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import checks
import oracle
import problems as gen
import tracer as tracing
import workloads
from poislin import algebroid, normalform

BENCH = Path(__file__).resolve().parent.parent


def _flip_first_nonlinear(poly: dict) -> dict:
    """Negate the coefficient of the first monomial of degree >= 2."""
    out = dict(poly)
    mono = next(m for m in sorted(out) if sum(m) >= 2)
    out[mono] = -out[mono]
    return out


def _solve(problem):
    if problem.kind == "action":
        out = normalform.linearize_action(problem.payload, problem.scheduler)
    elif problem.kind == "levi":
        out = normalform.levi_decompose(problem.payload, problem.split)
    elif problem.kind == "algebroid":
        out = algebroid.linearize_algebroid(problem.payload, problem.scheduler)
    else:
        out = normalform.linearize_poisson(problem.payload, problem.scheduler)
    return checks.result_record(problem, out)


def _check(problem, record):
    ns = len(problem.split.s_basis) if problem.split is not None else None
    return checks.check(problem.kind, problem.nvars, problem.order, problem.scheduler,
                        problem.expect_obstruction, checks.input_record(problem),
                        record, ns=ns)


@pytest.fixture(scope="module")
def rng():
    return random.Random(7)


# ---------------------------------------------------------------------------
# each check rejects a corrupted answer


@pytest.mark.parametrize("algebra", ["so3", "sl2"])
def test_poisson_check_rejects_a_flipped_change_coefficient(rng, algebra):
    problem = gen.poisson_problem(rng, algebra, 4, "doubling")
    record = _solve(problem)
    assert _check(problem, record) == []
    bad = dict(record, change=[_flip_first_nonlinear(record["change"][0])]
               + record["change"][1:])
    assert any("bracket of new coordinates" in m for m in _check(problem, bad))


def test_poisson_check_rejects_a_normal_form_off_the_linear_part(rng):
    problem = gen.poisson_problem(rng, "so3", 4, "degree")
    record = _solve(problem)
    target = dict(record["target"])
    target[(0, 1)] = {**target[(0, 1)], (0, 0, 1): target[(0, 1)][(0, 0, 1)] + 1}
    found = _check(problem, dict(record, target=target))
    assert any("linear part" in m for m in found)
    assert any("bracket of new coordinates" in m for m in found)


def test_action_check_rejects_corrupted_change_and_fields(rng):
    problem = gen.action_problem(rng, 3)
    record = _solve(problem)
    assert _check(problem, record) == []
    bad = dict(record, change=record["change"][:2] + [_flip_first_nonlinear(record["change"][2])])
    assert any("J(psi) X != A psi" in m for m in _check(problem, bad))
    fields = [list(f) for f in record["fields"]]
    fields[1][0] = {**fields[1][0], (2, 0, 0): Fraction(1)}
    assert any("linear part" in m for m in _check(problem, dict(record, fields=fields)))


def test_algebroid_check_rejects_a_flipped_frame_coefficient(rng):
    problem = gen.algebroid_problem(rng, 2)
    record = _solve(problem)
    assert _check(problem, record) == []
    change = list(record["change"])
    fiber = dict(change[4])
    mono = next(m for m in sorted(fiber) if sum(m[:3]) >= 1)
    fiber[mono] = -fiber[mono]
    change[4] = fiber
    assert any("bracket of new coordinates" in m
               for m in _check(problem, dict(record, change=change)))


def test_levi_check_rejects_a_term_outside_the_pattern(rng):
    problem = gen.levi_problem(rng, 3)
    record = _solve(problem)
    assert _check(problem, record) == []
    target = dict(record["target"])
    target[(0, 3)] = {**target.get((0, 3), {}), (1, 0, 0, 0): Fraction(1)}
    found = _check(problem, dict(record, target=target))
    assert any("Levi pattern" in m for m in found)
    assert any("bracket of new coordinates" in m for m in found)


def test_doubling_law_rejects_an_early_block():
    assert oracle.doubling_defects([(1, 2), (2, 4), (3, 8)]) == []
    assert oracle.doubling_defects([(1, 2), (2, 3)]) == ["block 2 entered at degree 3"]


def test_resonant_check_rejects_wrong_degree_and_dead_functional(rng):
    problem = gen.resonant_problem(rng, 2, 3)
    record = _solve(problem)
    assert record["module_degree"] == 2
    assert _check(problem, record) == []
    moved = gen.Problem(**{**problem.__dict__, "expect_obstruction": 3})
    assert any("theory puts it at 3" in m for m in _check(moved, record))
    dead = dict(record, functional={k: Fraction(0) for k in record["functional"]})
    assert any("pairs to zero" in m for m in _check(problem, dead))


def test_linearizable_input_reported_obstructed_is_rejected(rng):
    problem = gen.poisson_problem(rng, "so3", 3, "degree")
    fake = {"status": "obstructed", "steps": [], "obstructed": True}
    assert _check(problem, fake) == ["linearizable input reported as obstructed"]


def test_cohomology_check_rejects_a_wrong_dimension():
    workload = workloads.Cohomology(seed=1)
    for _ in workload.setup():
        pass
    op = next(op for op in workload.round_ops() if op[0] == "gl2" and op[5] == 1)
    right = oracle.expected_cohomology("gl2", op[4], 1)
    assert workload.check(op, right) == []
    assert workload.check(op, right + 1)


def test_cli_checks_accept_reports_and_reject_corrupted_strings(tmp_path):
    workload = workloads.CliCold(seed=1, workdir=tmp_path)
    for _ in workload.setup():
        pass
    by_kind = {op[0].kind: op for op in workload.round_ops()}
    for kind in ("poisson", "levi", "algebroid", "zero-linear"):
        op = by_kind[kind]
        report = workload.record(op, workload.run_op(op, traced=False))
        assert workload.check(op, report) == [], kind
        bad = json.loads(json.dumps(report))
        result = bad["result"]
        if kind == "zero-linear":
            result["obstruction"]["h_dim"] += 1
        elif kind == "algebroid":
            result["change"]["frame"][0][0] += " + x"
        else:
            result["change"]["x"] += " + y^2"
        assert workload.check(op, bad), kind


# ---------------------------------------------------------------------------
# known answers


def _ce_cohomology(constants, degree: int, r: int) -> int:
    """dim H^r of the algebra on degree-d polynomials, X_i acting by the
    Hamiltonian derivation f -> {x_i, f} of the linear bracket, computed
    from the Chevalley-Eilenberg formula with sympy ranks."""
    n = len(constants)
    basis = [m for m in _monomials(n, degree)]
    index = {m: i for i, m in enumerate(basis)}
    dim = len(basis)

    def act(i, vec):
        out = [QQ(0)] * dim
        for pos, coeff in enumerate(vec):
            if not coeff:
                continue
            mono = basis[pos]
            for j in range(n):
                if not mono[j]:
                    continue
                for k in range(n):
                    c = constants[i][j][k]
                    if c:
                        target = list(mono)
                        target[j] -= 1
                        target[k] += 1
                        out[index[tuple(target)]] += coeff * mono[j] * QQ(c.numerator, c.denominator)
        return out

    def differential(q):
        """Matrix of d: C^q -> C^{q+1}, cochains flattened subset-major."""
        src = list(combinations(range(n), q))
        tgt = list(combinations(range(n), q + 1))
        src_pos = {s: p for p, s in enumerate(src)}
        rows = [[QQ(0)] * (len(src) * dim) for _ in range(len(tgt) * dim)]
        for col_subset in src:
            for u in range(dim):
                value = {col_subset: [QQ(int(v == u)) for v in range(dim)]}
                col = src_pos[col_subset] * dim + u
                for t_pos, t_set in enumerate(tgt):
                    total = [QQ(0)] * dim
                    for a in range(q + 1):
                        rest = t_set[:a] + t_set[a + 1:]
                        if rest in value:
                            moved = act(t_set[a], value[rest])
                            total = [x + (-1) ** a * y for x, y in zip(total, moved)]
                    for a in range(q + 1):
                        for b in range(a + 1, q + 1):
                            rest = [x for p, x in enumerate(t_set) if p not in (a, b)]
                            for k in range(n):
                                c = constants[t_set[a]][t_set[b]][k]
                                if not c or k in rest:
                                    continue
                                sign = (-1) ** sum(1 for x in rest if x < k)
                                subset = tuple(sorted(rest + [k]))
                                if subset in value:
                                    f = (-1) ** (a + b) * sign * QQ(c.numerator, c.denominator)
                                    total = [x + f * y for x, y in zip(total, value[subset])]
                    for l in range(dim):
                        rows[t_pos * dim + l][col] += total[l]
        return rows

    def rank(q):
        if q < 0 or q >= n:
            return 0
        rows = differential(q)
        if not rows or not rows[0]:
            return 0
        return DomainMatrix(rows, (len(rows), len(rows[0])), QQ).rank()

    cochains = len(list(combinations(range(n), r))) * dim
    return cochains - rank(r) - rank(r - 1)


def _monomials(n, degree):
    if n == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(n - 1, degree - e)]


@pytest.mark.parametrize("name,degree", [("so3", 1), ("so3", 2), ("so3", 3), ("sl2", 2),
                                         ("sl2", 3), ("gl2", 1), ("gl2", 2), ("gl2", 3)])
def test_known_answers_match_an_independent_computation(name, degree):
    constants = gen.algebra(name).constants
    for r in (1, 2):
        assert _ce_cohomology(constants, degree, r) == oracle.expected_cohomology(name, degree, r)


@pytest.mark.parametrize("name", ["so3", "gl2"])
def test_known_answers_do_not_depend_on_the_basis(name):
    L = gen.algebra(name)
    rebased = gen.rebased(L, gen.random_basis(random.Random(3), L.dim))
    for r in (1, 2):
        assert _ce_cohomology(rebased.constants, 2, r) == oracle.expected_cohomology(name, 2, r)


def test_zero_linear_h_dim_is_the_cochain_dimension():
    zero = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    assert _ce_cohomology(zero, 2, 2) == oracle.zero_linear_h_dim(2) == 3


# ---------------------------------------------------------------------------
# tracing and the command


def test_tracer_counts_spans_and_restores_the_entry_points(rng):
    problem = gen.poisson_problem(rng, "so3", 3, "degree")
    original = normalform.linearize_poisson
    tracer = tracing.Tracer()
    tracer.install()
    try:
        normalform.linearize_poisson(problem.payload, "degree")
    finally:
        tracer.uninstall()
    assert normalform.linearize_poisson is original
    assert tracer.missing == []
    assert tracer.calls["normalform.engine"] == 1
    assert tracer.calls["polyalg.pushforward"] >= 1
    assert tracer.self_time["normalform.engine"] <= tracer.time["normalform.engine"]


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cohomology",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
