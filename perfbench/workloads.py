"""The three workloads.  Each one builds its inputs from the seed in
`setup` (a generator that yields between steps, so the runner can time the
steps one by one), lists one round of operations in `round_ops`, runs one
operation in `run_op` (the only timed call), and checks an output in
`check`.

batch-warm  one process normalizing many perturbed jets of a few fixed
            linear structures, with every module and solver cache filled in
            set-up; time goes to transport and per-right-hand-side solves.
cli-cold    one `python -m poislin` process per problem, so every run pays
            interpreter start, import, parsing, cold elimination of every
            degree's differential, re-verification and report writing.
cohomology  distinct cohomology_dimension queries on coadjoint polynomial
            modules: module and differential build plus exact elimination on
            the largest matrices, no transport.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracle
import problems as gen
# Entry points are called through their modules so that the tracer's
# replacements are the ones called.
from poislin import algebroid, cohomology, normalform

HERE = Path(__file__).resolve().parent


def reset_caches() -> None:
    """Empty poislin's module-level caches so set-up and cold work repeat in
    full.  Every module dict or cache object named *_CACHE is cleared, and a
    `clear_caches()` function is called where a module has one."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("poislin"):
            continue
        for attr, value in list(vars(module).items()):
            if attr.endswith("_CACHE") and hasattr(value, "clear"):
                value.clear()
        clear = getattr(module, "clear_caches", None)
        if callable(clear):
            clear()


def _interleave(groups: list) -> list:
    """Round-robin over the groups so each kind is spread through a round."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


# ---------------------------------------------------------------------------


class BatchWarm:
    """Per round: 3 each of so(3) and sl(2) duals at order 6 under both
    schedulers, 3 so(3) coadjoint actions at order 4, 3 gl(2) Levi
    normalizations at order 4, 3 so(3) action algebroids at order 3, and 2
    each of the resonant family at k = 2, 3, 4 (order k + 1)."""

    name = "batch-warm"
    COPIES = 3

    def __init__(self, seed: int):
        self.seed = seed

    # (generator, arguments after the rng, instances per round)
    BATCH = [
        (gen.poisson_problem, ("so3", 6, "doubling"), COPIES),
        (gen.poisson_problem, ("so3", 6, "degree"), COPIES),
        (gen.poisson_problem, ("sl2", 6, "doubling"), COPIES),
        (gen.poisson_problem, ("sl2", 6, "degree"), COPIES),
        (gen.action_problem, (4,), COPIES),
        (gen.levi_problem, (4,), COPIES),
        (gen.algebroid_problem, (3,), COPIES),
        (gen.resonant_problem, (2, 3), 2),
        (gen.resonant_problem, (3, 4), 2),
        (gen.resonant_problem, (4, 5), 2),
    ]
    # one instance per linear part fills the module and solver caches every
    # timed instance of that part will hit; the schedulers share them
    WARM_UP = [(make, args) for make, args, _ in BATCH if args[-1] != "degree"]

    def setup(self):
        rng = _rng(self.seed, self.name)
        groups = []
        for make, args, count in self.BATCH:
            groups.append([make(rng, *args) for _ in range(count)])
            yield
        self.ops = _interleave(groups)
        warm = _rng(self.seed, "warm-up")
        for make, args in self.WARM_UP:
            self.run_op(make(warm, *args), False)
            yield

    def round_ops(self) -> list:
        return self.ops

    def before_round(self) -> None:
        pass

    def run_op(self, problem, traced: bool):
        if problem.kind == "action":
            return normalform.linearize_action(problem.payload, problem.scheduler)
        if problem.kind == "levi":
            return normalform.levi_decompose(problem.payload, problem.split)
        if problem.kind == "algebroid":
            return algebroid.linearize_algebroid(problem.payload, problem.scheduler)
        return normalform.linearize_poisson(problem.payload, problem.scheduler)

    def record(self, problem, out):
        return checks.result_record(problem, out)

    def check(self, problem, record) -> list:
        ns = len(problem.split.s_basis) if problem.split is not None else None
        return checks.check(problem.kind, problem.nvars, problem.order,
                            problem.scheduler, problem.expect_obstruction,
                            checks.input_record(problem), record, ns=ns)

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class CliCold:
    """Per round, one fresh process each for: two so(3) and two sl(2) duals
    at order 6 under each scheduler, the so(3) coadjoint action at order 4,
    the gl(2) Levi normalization at order 4, the so(3) action algebroid at
    order 3, the resonant family at k = 3 (order 4, exit 2) and a zero
    linear part at order 4 (exit 2)."""

    name = "cli-cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.child_traces = []

    def setup(self):
        rng = _rng(self.seed, self.name)
        # the duals are the largest group, so the round's median falls among
        # instances of one kind
        problems = [gen.poisson_problem(rng, name, 6, scheduler)
                    for name in ("so3", "sl2") for scheduler in ("doubling", "degree")
                    for _ in range(2)]
        problems += [
            gen.action_problem(rng, 4),
            gen.levi_problem(rng, 4),
            gen.algebroid_problem(rng, 3),
            gen.resonant_problem(rng, 3, 4),
            gen.zero_linear_problem(rng, 4),
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for index, problem in enumerate(problems):
            command, data = gen.problem_file(problem)
            path = self.workdir / f"{index:02d}-{problem.label}.json"
            path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
            self.ops.append((problem, command, path, data))
            yield

    def round_ops(self) -> list:
        return self.ops

    def before_round(self) -> None:
        pass

    def run_op(self, op, traced: bool):
        problem, command, path, _data = op
        if traced:
            trace_file = path.with_suffix(".trace.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file),
                    command, str(path)]
            env = {**self.env, "PERFBENCH_SPAWN_NS": str(time.time_ns())}
        else:
            argv = [sys.executable, "-m", "poislin", command, str(path)]
            env = self.env
        proc = subprocess.run(argv, env=env, cwd=HERE.parent, capture_output=True,
                              text=True, timeout=170)
        expected = 2 if problem.expect_obstruction else 0
        if proc.returncode != expected:
            raise RuntimeError(f"{problem.label}: exit {proc.returncode}: {proc.stderr.strip()}")
        if traced:
            self.child_traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        return proc.stdout

    def record(self, op, stdout):
        report = json.loads(stdout)
        report.pop("timing_seconds", None)
        return report

    def check(self, op, report) -> list:
        problem, _command, _path, data = op
        if report.get("verified") is not True:
            return ["report does not verify itself"]
        kind = problem.kind
        file_kind = kind if kind in ("action", "algebroid") else "poisson"
        ns = len(data["levi_factor"]["s"]) if "levi_factor" in data else None
        return checks.check(kind, len(data["variables"]), problem.order, problem.scheduler,
                            problem.expect_obstruction,
                            checks.file_input_record(file_kind, data),
                            checks.report_record(file_kind, data, report), ns=ns)

    @staticmethod
    def peak_rss_mb() -> float:
        # largest resident set of any child waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class Cohomology:
    """Per round, H^1 and H^2 of: so(3) and sl(2) at module degrees 4, 5, 6
    and gl(2) at degrees 3 and 4 in the standard basis; so(3) and sl(2) at
    degree 3 and gl(2) at degree 2 in a seeded random rational basis.  The
    random-basis queries cost more from seed to seed, so they sit at the
    cheap and the costly end of a round, away from its median.
    Caches are emptied before each round, so every round builds its modules
    and differentials afresh; the H^2 query on a module reuses what the H^1
    query on it built, as it would for any caller."""

    name = "cohomology"
    STANDARD = [("so3", d) for d in (4, 5, 6)] + [("sl2", d) for d in (4, 5, 6)] + \
        [("gl2", d) for d in (3, 4)]
    RANDOM = [("so3", 3), ("sl2", 3), ("gl2", 2)]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed, self.name)
        queries = []
        for name, degree in self.STANDARD:
            queries.append((name, "standard", gen.algebra(name), degree))
        yield
        for name, degree in self.RANDOM:
            L = gen.algebra(name)
            queries.append((name, "random", gen.rebased(L, gen.random_basis(rng, L.dim)),
                            degree))
            yield
        rng.shuffle(queries)
        self.ops = [(name, basis, L, cohomology.coadjoint_rep(L), degree, r)
                    for name, basis, L, degree in queries for r in (1, 2)]

    def round_ops(self) -> list:
        return self.ops

    def before_round(self) -> None:
        reset_caches()

    def run_op(self, op, traced: bool):
        _name, _basis, L, rep, degree, r = op
        module = cohomology.induced_polynomial_module(L, L.dim, rep, degree)
        return cohomology.cohomology_dimension(module, r)

    def record(self, op, h_dim):
        return h_dim

    def check(self, op, h_dim) -> list:
        name, basis, _L, _rep, degree, r = op
        want = oracle.expected_cohomology(name, degree, r)
        if h_dim != want:
            return [f"H^{r} of {name} ({basis} basis) at degree {degree} is {h_dim}, "
                    f"theory gives {want}"]
        return []

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
