"""Turn engine outputs, in-process objects or command-line reports, into
plain records and check them with `oracle`.

An input record is the problem as handed to the program: an upper-triangle
bivector {(i, j): poly} (Poisson kinds, and the dual bivector for
algebroids) or a list of vector fields (actions).  A result record holds the
emitted change, the normal form, the trace steps and any obstruction.  The
same `check` runs on both sources.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

OBSTRUCTED_KINDS = ("resonant", "zero-linear")


def _poly(jet) -> dict:
    return dict(jet.terms())


def _unit(n: int, k: int) -> tuple:
    return tuple(int(t == k) for t in range(n))


def _upper(entries, n: int) -> dict:
    return {(i, j): _poly(entries[i][j]) for i in range(n) for j in range(i + 1, n)
            if not entries[i][j].is_zero()}


# ---------------------------------------------------------------------------
# in-process objects


def input_record(problem) -> dict:
    p = problem.payload
    if problem.kind == "action":
        return {"fields": [[_poly(c) for c in fld] for fld in p.fields]}
    if problem.kind == "algebroid":
        structure = {(i, j, k): _poly(p.structure[i][j][k])
                     for i in range(p.rank) for j in range(i + 1, p.rank)
                     for k in range(p.rank) if not p.structure[i][j][k].is_zero()}
        anchor = [[_poly(c) for c in row] for row in p.anchor]
        return {"bivector": oracle.algebroid_dual(structure, anchor, p.base_dim, p.rank)}
    return {"bivector": _upper(p.entries, p.nvars)}


def result_record(problem, out) -> dict:
    """Plain data of an engine's return value; equal records mean equal
    outputs, which is how later rounds are compared with the first."""
    trace = out[-1]
    steps = [(s.block_index, s.lowest_before) for s in trace.steps]
    if len(out) == 2:
        cert = out[0]
        module = cert.cocycle.module
        return {
            "status": "obstructed",
            "steps": steps,
            "obstructed": bool(trace.steps and trace.steps[-1].obstructed),
            "module_degree": sum(module.labels[0]) if module.dim else None,
            "cocycle": {i: c for i, c in enumerate(cert.cocycle.vector) if c},
            "functional": {i: c for i, c in enumerate(cert.functional) if c},
            "h_dim": cert.h_dim,
        }
    change, form = out[0], out[1]
    if problem.kind == "algebroid":
        base_dim, rank = change.base.nvars, change.rank
        comps = oracle.algebroid_change(
            [_poly(c) for c in change.base.components],
            [[_poly(e) for e in row] for row in change.frame], base_dim, rank)
        anchor = [[{_unit(base_dim, k): Fraction(form.action[i][l][k])
                    for k in range(base_dim) if form.action[i][l][k]}
                   for l in range(base_dim)] for i in range(rank)]
        structure = {(i, j, k): {(0,) * base_dim: Fraction(form.algebra.constants[i][j][k])}
                     for i in range(rank) for j in range(i + 1, rank) for k in range(rank)
                     if form.algebra.constants[i][j][k]}
        return {"status": "linearized", "steps": steps, "change": comps,
                "target": oracle.algebroid_dual(structure, anchor, base_dim, rank)}
    comps = [_poly(c) for c in change.components]
    if problem.kind == "action":
        n = form.nvars
        fields = [[_poly(c) for c in fld] for fld in form.fields]
        return {"status": "linearized", "steps": steps, "change": comps,
                "fields": fields, "matrices": _field_matrices(fields, n)}
    if problem.kind == "levi":
        return {"status": "normal-form", "steps": steps, "change": comps,
                "target": _levi_target(form, problem.payload.nvars)}
    return {"status": "linearized", "steps": steps, "change": comps,
            "target": _upper(form.entries, form.nvars)}


def _field_matrices(fields, n: int) -> list:
    return [[[fld[a].get(_unit(n, c), Fraction(0)) for c in range(n)] for a in range(n)]
            for fld in fields]


def _levi_target(form, n: int) -> dict:
    ns = len(form.s_constants)
    target = {}
    for a in range(ns):
        for b in range(a + 1, ns):
            terms = {_unit(n, k): c for k, c in enumerate(form.s_constants[a][b]) if c}
            if terms:
                target[(a, b)] = terms
        for beta, row in enumerate(form.r_constants[a]):
            terms = {_unit(n, ns + g): c for g, c in enumerate(row) if c}
            if terms:
                target[(a, ns + beta)] = terms
    for (alpha, beta), jet in form.residual.items():
        target[(ns + alpha, ns + beta)] = _poly(jet)
    return target


# ---------------------------------------------------------------------------
# command-line files and reports


def file_input_record(kind: str, data: dict) -> dict:
    names = data["variables"]
    if kind == "action":
        return {"fields": [[oracle.parse_poly(t, names) for t in data["fields"][g]]
                           for g in data["generators"]]}
    if kind == "algebroid":
        frame = data["frame"]
        structure = {}
        for si, sj, sk, text in data["structure"]:
            i, j, k = frame.index(si), frame.index(sj), frame.index(sk)
            poly = oracle.parse_poly(text, names)
            if i > j:
                i, j, poly = j, i, {m: -c for m, c in poly.items()}
            structure[(i, j, k)] = poly
        anchor = [[oracle.parse_poly(t, names) for t in data["anchor"][sec]] for sec in frame]
        return {"bivector": oracle.algebroid_dual(structure, anchor, len(names), len(frame))}
    return {"bivector": oracle.parse_brackets(data["brackets"], names)}


def report_record(kind: str, data: dict, report: dict) -> dict:
    names = data["variables"]
    result = report["result"]
    steps = [(s["block"], s["lowest_before"]) for s in report.get("trace", {}).get("steps", [])]
    if result["status"] == "obstructed":
        obs = result["obstruction"]
        key = lambda e: (tuple(e["slot"]), tuple(e["label"]))
        cocycle = {key(e): Fraction(e["value"]) for e in obs["cocycle"]}
        functional = {key(e): Fraction(e["value"]) for e in obs["functional"]}
        degrees = {sum(label) for _, label in cocycle}
        return {
            "status": "obstructed",
            "steps": steps,
            "obstructed": bool(steps) and report["trace"]["steps"][-1]["obstructed"],
            "module_degree": degrees.pop() if len(degrees) == 1 else None,
            "cocycle": cocycle,
            "functional": functional,
            "h_dim": obs["h_dim"],
        }
    nf = result["normal_form"]
    if kind == "algebroid":
        frame = data["frame"]
        base_dim, rank = len(names), len(frame)
        change = result["change"]
        comps = oracle.algebroid_change(
            [oracle.parse_poly(change["base"][name], names) for name in names],
            [[oracle.parse_poly(t, names) for t in row] for row in change["frame"]],
            base_dim, rank)
        target = file_input_record("algebroid", nf)["bivector"]
        return {"status": result["status"], "steps": steps, "change": comps, "target": target}
    comps = [oracle.parse_poly(result["change"][name], names) for name in names]
    if kind == "action":
        fields = [[oracle.parse_poly(t, names) for t in nf["fields"][g]]
                  for g in data["generators"]]
        return {"status": result["status"], "steps": steps, "change": comps,
                "fields": fields, "matrices": _field_matrices(fields, len(names))}
    return {"status": result["status"], "steps": steps, "change": comps,
            "target": oracle.parse_brackets(nf["brackets"], names)}


# ---------------------------------------------------------------------------
# the checks


def check(kind: str, nvars: int, order: int, scheduler: str, expect_obstruction,
          inp: dict, res: dict, ns: int | None = None) -> list:
    """Every property the result must have; an empty list means correct.
    nvars counts the input's variables; ns is the Levi factor's dimension."""
    problems = []
    if scheduler == "doubling":
        problems += oracle.doubling_defects(res["steps"])
    if kind in OBSTRUCTED_KINDS:
        if res["status"] != "obstructed" or not res["obstructed"]:
            return problems + [f"expected an obstruction, got {res['status']}"]
        problems += oracle.obstruction_defects(res["module_degree"], expect_obstruction,
                                               res["functional"], res["cocycle"])
        if kind == "zero-linear":
            if res["h_dim"] != oracle.zero_linear_h_dim(nvars):
                problems.append(f"h_dim {res['h_dim']} is not the 2-cochain dimension "
                                f"{oracle.zero_linear_h_dim(nvars)}")
        return problems
    if res["status"] == "obstructed":
        return problems + ["linearizable input reported as obstructed"]
    if kind == "action":
        fields = inp["fields"]
        linear = [[oracle.linear_part(c) for c in fld] for fld in fields]
        if res["fields"] != linear:
            problems.append("normal form fields are not the input's linear part")
        problems += oracle.action_defects(fields, res["change"], res["matrices"], order)
        return problems
    # the algebroid dual truncates one degree above the algebroid order
    transport_order = order + 1 if kind == "algebroid" else order
    problems += oracle.transport_defects(inp["bivector"], res["change"], res["target"],
                                         transport_order)
    if kind == "levi":
        problems += oracle.levi_pattern_defects(res["target"], ns, nvars)
    else:
        problems += oracle.linear_normal_form_defects(inp["bivector"], res["target"])
    return problems
