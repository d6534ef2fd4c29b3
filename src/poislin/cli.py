"""Batch front end: parse problem files, dispatch to the engines, and emit
verified reports.

Problem files are JSON.  Common fields: "kind" (poisson | action | algebroid),
"variables" (coordinate names), "order" (truncation, default 6), optional
"scheduler" (degree | doubling) and "radius" ("p/q").  Kind-specific fields:

  poisson    "brackets": {"x,y": "z", ...} with polynomial text values
  action     "generators": names, "constants": [[i, j, k, "p/q"], ...] listing
             each bracket pair once with i < j, "fields": {"X": [comp, ...]}
  algebroid  "frame": section names, "structure": [[si, sj, sk, poly], ...]
             over the base variables, "anchor": {"e1": [comp, ...]} with
             components truncated one order deeper than the structure

A "levi_factor" block {"s": [[...], ...], "r": [[...], ...]} embeds a split
for the levi command.  Every rational in a report serializes as "p" or "p/q";
norms in traces are floats by design.  Exit codes: 0 success, 2 when the
result is an obstruction certificate, 1 on input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import corpus as corpus_module
from .algebroid import (
    AlgebroidChange,
    AlgebroidJet,
    algebroid_to_poisson,
    levi_algebroid,
    linearize_algebroid,
    trusted_dual,
)
from .cohomology import (
    ObstructionClass,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
    linear_field_rep,
    squares_to_zero,
)
from .liealg import (
    LeviSplit,
    LeviSplitError,
    LieAlgebra,
    SolverFailure,
    isotropy_from_linear_part,
    killing_form,
    radical,
)
from .linalg import symmetric_signature
from .normalform import (
    ActionJet,
    SplitNotCertified,
    convergence_report,
    is_action_map,
    levi_decompose,
    linearize_action,
    linearize_poisson,
)
from .polyalg import (
    CoordChange,
    JacobiError,
    Jet,
    ParseError,
    PoissonJet,
    format_polynomial,
    format_rational,
    is_poisson_map,
    parse_polynomial,
)

DEFAULT_ORDER = 6
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class InputError(ValueError):
    """Problem-file or flag error; surfaces as exit code 1."""


@dataclass
class ProblemSpec:
    """One parsed problem: engine payload plus the presentation metadata
    needed to echo and re-serialize it."""

    kind: str
    names: tuple
    order: int
    payload: object
    generators: tuple = ()
    scheduler: str = "doubling"
    radius: Fraction = Fraction(1)
    levi: tuple | None = None   # (s_rows, r_rows) of Fraction tuples


# ---------------------------------------------------------------------------
# parsing


def _fail(message: str) -> "InputError":
    return InputError(message)


def _rational(value, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise _fail(f"{what}: {value!r} is not a rational p or p/q")


def _names_list(data, key: str) -> tuple:
    names = data.get(key)
    if not isinstance(names, list) or not names:
        raise _fail(f"'{key}' must be a nonempty list of names")
    for name in names:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise _fail(f"invalid {key[:-1]} name {name!r}")
    if len(set(names)) != len(names):
        raise _fail(f"'{key}' contains duplicates")
    return tuple(names)


def _poly(text, names, order: int, what: str) -> Jet:
    if not isinstance(text, str):
        raise _fail(f"{what}: expected polynomial text, got {text!r}")
    try:
        return parse_polynomial(text, names, order)
    except ParseError as exc:
        raise _fail(f"{what}: {exc}")


def _pair_key(key: str, names, what: str) -> tuple[int, int, int]:
    """Resolve 'a,b' to an upper-triangle index pair; either orientation is
    accepted, the reversed one contributing with a sign flip."""
    parts = key.split(",")
    if len(parts) != 2:
        raise _fail(f"{what}: key {key!r} must be 'a,b'")
    try:
        i, j = names.index(parts[0].strip()), names.index(parts[1].strip())
    except ValueError:
        raise _fail(f"{what}: unknown name in key {key!r}")
    if i == j:
        raise _fail(f"{what}: key {key!r} pairs a name with itself")
    if i > j:
        return j, i, -1
    return i, j, 1


def _parse_levi(data, dim: int) -> tuple | None:
    block = data.get("levi_factor")
    if block is None:
        return None
    if not isinstance(block, dict) or set(block) != {"s", "r"}:
        raise _fail("'levi_factor' must be an object with keys 's' and 'r'")
    out = []
    for part in ("s", "r"):
        rows = block[part]
        if not isinstance(rows, list):
            raise _fail(f"levi_factor.{part} must be a list of vectors")
        vecs = []
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise _fail(f"levi_factor.{part}: vectors need {dim} entries")
            vecs.append(tuple(_rational(v, f"levi_factor.{part}") for v in row))
        out.append(tuple(vecs))
    return tuple(out)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_order(data) -> int:
    order = data.get("order", DEFAULT_ORDER)
    if not _is_int(order) or order < 1:
        raise _fail("'order' must be an integer >= 1")
    return order


def _spec_common(data) -> tuple[str, Fraction]:
    scheduler = data.get("scheduler", "doubling")
    if scheduler not in ("degree", "doubling"):
        raise _fail(f"unknown scheduler {scheduler!r}; use 'degree' or 'doubling'")
    radius = _rational(data.get("radius", "1"), "'radius'")
    if radius <= 0:
        raise _fail("'radius' must be positive")
    return scheduler, radius


def _sparse_constants(data, dim: int, build, what: str = "'constants'") -> LieAlgebra:
    entries = data.get("constants", [])
    if not isinstance(entries, list):
        raise _fail(f"{what} must be a list of [i, j, k, value] items")
    sparse = []
    for item in entries:
        if not (isinstance(item, list) and len(item) == 4):
            raise _fail(f"{what}: malformed item {item!r}")
        i, j, k, value = item
        if not all(_is_int(t) and 0 <= t < dim for t in (i, j, k)):
            raise _fail(f"{what}: indices must be integers below {dim} in {item!r}")
        c = _rational(value, what)
        if i > j:
            i, j, c = j, i, -c
        sparse.append((i, j, k, c))
    try:
        return build(dim, sparse)
    except ValueError as exc:
        raise _fail(f"{what}: {exc}")


# A problem file's structures are built by the checked constructors, the
# one check each gets; a report's read-back of its normal form by the
# trusted ones, as the morphism equation verifies it instead.
_CHECKED = {"poisson": PoissonJet.from_brackets, "constants": LieAlgebra.from_sparse,
            "action": ActionJet, "algebroid": AlgebroidJet}
_TRUSTED = {"poisson": PoissonJet._trusted_brackets, "constants": LieAlgebra._trusted_sparse,
            "action": lambda algebra, fields, order:
                ActionJet._trusted(algebra, fields, len(fields[0]), order),
            "algebroid": trusted_dual}


def _invalid(what: str, exc: ValueError, names) -> InputError:
    """A constructor's error as an input error, a Jacobi failure worded in
    the problem's names."""
    detail = exc.in_names(names) if isinstance(exc, JacobiError) else exc
    return _fail(f"invalid {what}: {detail}")


def _payload(data, kind: str, names, order: int, build) -> tuple:
    """(payload, generator or frame names) from the kind's fields, built by
    the constructors in `build`."""
    if kind == "poisson":
        brackets = data.get("brackets", {})
        if not isinstance(brackets, dict):
            raise _fail("'brackets' must be an object")
        table = {}
        for key, text in brackets.items():
            i, j, sign = _pair_key(key, names, "'brackets'")
            if (i, j) in table:
                raise _fail(f"'brackets': pair {key!r} appears twice")
            jet = _poly(text, names, order, f"brackets[{key!r}]")
            table[(i, j)] = jet if sign > 0 else -jet
        try:
            return build["poisson"](len(names), order, table), ()
        except ValueError as exc:
            raise _invalid("bivector", exc, names)

    if kind == "action":
        generators = _names_list(data, "generators")
        algebra = _sparse_constants(data, len(generators), build["constants"])
        fields_block = data.get("fields")
        if not isinstance(fields_block, dict) or set(fields_block) != set(generators):
            raise _fail("'fields' must map every generator to its components")
        fields = []
        for gen in generators:
            comps = fields_block[gen]
            if not isinstance(comps, list) or len(comps) != len(names):
                raise _fail(f"fields[{gen!r}] needs one component per variable")
            fields.append([
                _poly(text, names, order, f"fields[{gen!r}][{a}]")
                for a, text in enumerate(comps)
            ])
        try:
            return build["action"](algebra, fields, order), generators
        except ValueError as exc:
            raise _fail(f"invalid action: {exc}")

    frame = _names_list(data, "frame")
    rank, base_dim = len(frame), len(names)
    structure = [[[Jet.zero(base_dim, order) for _ in range(rank)]
                  for _ in range(rank)] for _ in range(rank)]
    items = data.get("structure", [])
    if not isinstance(items, list):
        raise _fail("'structure' must be a list of [si, sj, sk, polynomial] items")
    for item in items:
        if not (isinstance(item, list) and len(item) == 4):
            raise _fail(f"'structure': malformed item {item!r}")
        si, sj, sk, text = item
        try:
            i, j, k = frame.index(si), frame.index(sj), frame.index(sk)
        except ValueError:
            raise _fail(f"'structure': unknown section name in {item!r}")
        if i == j:
            raise _fail(f"'structure': {item!r} pairs a section with itself")
        jet = _poly(text, names, order, f"structure[{si},{sj}->{sk}]")
        if i > j:
            i, j, jet = j, i, -jet
        structure[i][j][k] = structure[i][j][k] + jet
        structure[j][i][k] = structure[j][i][k] - jet
    anchor_block = data.get("anchor", {})
    if not isinstance(anchor_block, dict):
        raise _fail("'anchor' must be an object")
    if set(anchor_block) - set(frame):
        raise _fail("'anchor' keys must be frame section names")
    anchor = []
    for i, sec in enumerate(frame):
        comps = anchor_block.get(sec, ["0"] * base_dim)
        if not isinstance(comps, list) or len(comps) != base_dim:
            raise _fail(f"anchor[{sec!r}] needs one component per base variable")
        anchor.append([
            _poly(text, names, order + 1, f"anchor[{sec!r}][{a}]")
            for a, text in enumerate(comps)
        ])
    try:
        return build["algebroid"](base_dim, rank, structure, anchor, order), frame
    except ValueError as exc:
        raise _invalid("algebroid", exc, names + frame)


def problem_from_dict(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise _fail("problem file must hold a JSON object")
    kind = data.get("kind")
    if kind not in ("poisson", "action", "algebroid"):
        raise _fail(f"'kind' must be poisson, action, or algebroid, got {kind!r}")
    names = _names_list(data, "variables")
    order = _parse_order(data)
    scheduler, radius = _spec_common(data)
    payload, generators = _payload(data, kind, names, order, _CHECKED)
    return ProblemSpec(kind, names, order, payload, generators=generators,
                       scheduler=scheduler, radius=radius,
                       levi=_parse_levi(data, len(generators or names)))


def parse_problem(text: str) -> ProblemSpec:
    """Parse a JSON problem file; errors carry line and column positions."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:   # an integer literal past the interpreter's digit limit
        raise _fail(f"problem file: {exc}")
    return problem_from_dict(data)


# ---------------------------------------------------------------------------
# serialization


def _poisson_dict(pi: PoissonJet, names) -> dict:
    brackets = {}
    for i in range(pi.nvars):
        for j in range(i + 1, pi.nvars):
            entry = pi.entry(i, j)
            if not entry.is_zero():
                brackets[f"{names[i]},{names[j]}"] = format_polynomial(entry, names)
    return {"variables": list(names), "brackets": brackets}


def _constants_sparse(algebra: LieAlgebra) -> list:
    out = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            for k in range(algebra.dim):
                c = algebra.constants[i][j][k]
                if c:
                    out.append([i, j, k, format_rational(c)])
    return out


def _action_dict(action: ActionJet, names, generators) -> dict:
    return {
        "variables": list(names),
        "generators": list(generators),
        "constants": _constants_sparse(action.algebra),
        "fields": {
            gen: [format_polynomial(comp, names) for comp in action.fields[i]]
            for i, gen in enumerate(generators)
        },
    }


def _algebroid_dict(A: AlgebroidJet, names, frame) -> dict:
    structure = []
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            for k in range(A.rank):
                jet = A.structure[i][j][k]
                if not jet.is_zero():
                    structure.append([frame[i], frame[j], frame[k],
                                      format_polynomial(jet, names)])
    return {
        "variables": list(names),
        "fiber_rank": A.rank,
        "frame": list(frame),
        "structure": structure,
        "anchor": {
            frame[i]: [format_polynomial(comp, names) for comp in A.anchor[i]]
            for i in range(A.rank)
        },
    }


def _payload_dict(spec: ProblemSpec) -> dict:
    if spec.kind == "poisson":
        return _poisson_dict(spec.payload, spec.names)
    if spec.kind == "action":
        return _action_dict(spec.payload, spec.names, spec.generators)
    return _algebroid_dict(spec.payload, spec.names, spec.generators)


def print_problem(spec: ProblemSpec) -> str:
    """Canonical text form; parse_problem inverts it exactly."""
    data = {"kind": spec.kind}
    data.update(_payload_dict(spec))
    data.pop("fiber_rank", None)
    data["order"] = spec.order
    data["scheduler"] = spec.scheduler
    data["radius"] = format_rational(spec.radius)
    if spec.levi is not None:
        s_rows, r_rows = spec.levi
        data["levi_factor"] = {
            "s": [[format_rational(v) for v in row] for row in s_rows],
            "r": [[format_rational(v) for v in row] for row in r_rows],
        }
    return json.dumps(data, indent=2) + "\n"


def _input_echo(spec: ProblemSpec) -> dict:
    echo = {"kind": spec.kind, "order": spec.order,
            "scheduler": spec.scheduler, "radius": format_rational(spec.radius)}
    echo.update(_payload_dict(spec))
    return echo


def _change_dict(change, names) -> dict:
    if isinstance(change, AlgebroidChange):
        return {
            "base": _change_dict(change.base, names),
            "frame": [[format_polynomial(entry, names) for entry in row]
                      for row in change.frame],
        }
    return {name: format_polynomial(change.components[a], names)
            for a, name in enumerate(names)}


def _trace_dict(trace) -> dict:
    report = convergence_report(trace)
    report["radius"] = format_rational(trace.radius)
    return report


def _label_json(label):
    return list(label) if isinstance(label, tuple) else label


def _cochain_entries(module, degree: int, vector) -> list:
    subsets = module.subsets(degree)
    out = []
    for pos, value in enumerate(vector):
        if value:
            s_pos, label_pos = divmod(pos, module.dim)
            out.append({
                "slot": list(subsets[s_pos]),
                "label": _label_json(module.labels[label_pos]),
                "value": format_rational(value),
            })
    return out


def _obstruction_dict(cert: ObstructionClass) -> dict:
    module = cert.cocycle.module
    degree = cert.cocycle.degree
    return {
        "degree": degree,
        "h_dim": cert.h_dim,
        "cocycle": _cochain_entries(module, degree, cert.cocycle.vector),
        "functional": _cochain_entries(module, degree, cert.functional),
        "verified": cert.verify(),
    }


# ---------------------------------------------------------------------------
# classification


def _isotropy_of(spec: ProblemSpec) -> LieAlgebra:
    if spec.kind == "poisson":
        return isotropy_from_linear_part(spec.payload)
    if spec.kind == "action":
        return spec.payload.algebra
    return spec.payload.fiber_algebra()


def _classification(algebra: LieAlgebra) -> dict:
    K = killing_form(algebra)
    p, n, z = symmetric_signature(K)
    return {
        "isotropy_dimension": algebra.dim,
        "isotropy_constants": _constants_sparse(algebra),
        "killing_form": [[format_rational(v) for v in row] for row in K],
        "killing_signature": {"positive": p, "negative": n, "zero": z},
        # Cartan's criterion, and a negative definite Killing form
        "semisimple": z == 0,
        "compact_type": n == algebra.dim,
        "radical_dimension": len(radical(algebra)),
    }


# ---------------------------------------------------------------------------
# commands


def _effective_order(spec: ProblemSpec, args) -> int:
    limit = getattr(args, "max_degree", None)
    if limit is None:
        return spec.order
    if limit < 1:
        raise _fail("--max-degree must be >= 1")
    if limit > spec.order:
        raise _fail(f"--max-degree {limit} exceeds the problem order {spec.order}")
    return limit


def _base_report(command: str, spec: ProblemSpec) -> dict:
    return {
        "command": command,
        "input": _input_echo(spec),
        "classification": _classification(_isotropy_of(spec)),
    }


def run_check(spec: ProblemSpec, args) -> tuple[dict, int]:
    # constructors enforce every structural invariant, so arriving here
    # means the problem is valid
    report = _base_report("check", spec)
    report["result"] = {"status": "valid"}
    return report, 0


def run_analyze(spec: ProblemSpec, args) -> tuple[dict, int]:
    report = _base_report("analyze", spec)
    report["result"] = {"status": "classified"}
    return report, 0


def _read_back(spec, order, change_text, nf_dict):
    """(change, normal form) parsed back from a report, the normal form the
    way a problem file is but with the trusted constructors, and for an
    algebroid both as duals; None when either does not parse or the normal
    form has another number of variables than the input."""
    names = spec.names
    try:
        nf_names = _names_list(nf_dict, "variables")
        if len(nf_names) != len(names):
            return None
        nf = _payload(nf_dict, spec.kind, nf_names, order, _TRUSTED)[0]
        if spec.kind != "algebroid":
            return CoordChange([parse_polynomial(change_text[name], names, order)
                                for name in names]), nf
        base = CoordChange([parse_polynomial(change_text["base"][name], names,
                                             order + 1) for name in names])
        frame = [[parse_polynomial(entry, names, order + 1) for entry in row]
                 for row in change_text["frame"]]
        return AlgebroidChange(base, frame).to_dual(), nf
    except ValueError:
        return None


def _verify_poisson(spec, order, change_text, nf_dict) -> bool:
    read = _read_back(spec, order, change_text, nf_dict)
    return read is not None and is_poisson_map(spec.payload.truncate(order), *read)


def _verify_action(spec, order, change_text, nf_dict) -> bool:
    read = _read_back(spec, order, change_text, nf_dict)
    return read is not None and is_action_map(spec.payload.truncate(order), *read)


def _verify_algebroid(spec, order, change_text, nf_dict) -> bool:
    read = _read_back(spec, order, change_text, nf_dict)
    return read is not None and is_poisson_map(
        algebroid_to_poisson(spec.payload.truncate(order)), *read)


def _engine_output(spec: ProblemSpec, order: int, split):
    """(change, normal form as a jet of the problem's kind, trace), or
    (certificate, trace); a Levi split selects the Levi engines."""
    # engines are looked up per call, so a replaced module attribute is the
    # one that runs
    payload, radius = spec.payload, spec.radius
    if split is not None:
        try:
            if spec.kind == "algebroid":
                return levi_algebroid(payload, split, order, radius)
            change, nf, trace = levi_decompose(payload, split, order, radius)
        except SplitNotCertified as exc:
            raise _fail(str(exc))
        return change, nf.to_bivector(), trace
    if spec.kind == "poisson":
        return linearize_poisson(payload, spec.scheduler, order, radius)
    if spec.kind == "action":
        return linearize_action(payload, spec.scheduler, order, radius)
    out = linearize_algebroid(payload, spec.scheduler, order, radius)
    if len(out) == 2:
        return out
    change, linear, trace = out
    return change, linear.to_algebroid(order), trace


def _normal_form_report(command: str, spec: ProblemSpec, order: int,
                        split=None) -> tuple[dict, int]:
    """Run the engine and report either its certificate (exit 2) or its
    change and normal form, serialized, read back and verified (exit 0);
    `timing_seconds` covers the engine and the verification."""
    report = _base_report(command, spec)
    started = time.perf_counter()
    out = _engine_output(spec, order, split)
    if len(out) == 2:
        cert, trace = out
        result = {"status": "obstructed", "obstruction": _obstruction_dict(cert)}
        verified, code = result["obstruction"]["verified"], 2
    else:
        change, normal_form, trace = out
        result = {"status": "linearized" if split is None else "normal-form",
                  "change": _change_dict(change, spec.names),
                  "normal_form": _payload_dict(replace(spec, payload=normal_form))}
        if split is not None:
            result["semisimple_block"] = len(split.s_basis)
            result["residual_block"] = len(split.r_basis)
        # built per call, like the engine lookup, so it sees module attributes
        verifier = {"poisson": _verify_poisson, "action": _verify_action,
                    "algebroid": _verify_algebroid}[spec.kind]
        verified = verifier(spec, order, result["change"], result["normal_form"])
        code = 0
    elapsed = time.perf_counter() - started
    report["result"] = result
    report["trace"] = _trace_dict(trace)
    report["timing_seconds"] = elapsed
    report["verified"] = verified
    return report, code


def run_linearize(spec: ProblemSpec, args) -> tuple[dict, int]:
    return _normal_form_report("linearize", spec, _effective_order(spec, args))


def run_algebroid(spec: ProblemSpec, args) -> tuple[dict, int]:
    if spec.kind != "algebroid":
        raise _fail("the algebroid command needs an algebroid problem")
    return _normal_form_report("algebroid", spec, _effective_order(spec, args))


def _load_levi(spec: ProblemSpec, args):
    rows = spec.levi
    algebra = _isotropy_of(spec)
    path = getattr(args, "levi_factor", None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                block = json.load(handle)
        except OSError as exc:
            raise _fail(f"cannot read levi factor file: {exc}")
        except json.JSONDecodeError as exc:
            raise _fail(f"levi factor file: line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}")
        except ValueError as exc:   # as in parse_problem
            raise _fail(f"levi factor file: {exc}")
        rows = _parse_levi({"levi_factor": block}, algebra.dim)
    if rows is None:
        raise _fail("the levi command needs a levi_factor block or "
                    "--levi-factor FILE")
    try:
        # the one certification of the split
        return LeviSplit(algebra, rows[0], rows[1])
    except LeviSplitError as exc:
        raise _fail(f"levi factor rejected ({exc.violation}): {exc}")


def run_levi(spec: ProblemSpec, args) -> tuple[dict, int]:
    if spec.kind == "action":
        raise _fail("the levi command handles poisson and algebroid problems")
    if getattr(args, "scheduler", None) == "doubling":
        raise _fail("levi runs the degree scheduler; --scheduler doubling does not apply")
    split = _load_levi(spec, args)
    return _normal_form_report("levi", spec, _effective_order(spec, args), split)


def _polynomial_rep(spec: ProblemSpec) -> tuple[LieAlgebra, int, list]:
    algebra = _isotropy_of(spec)
    if spec.kind == "poisson":
        return algebra, algebra.dim, coadjoint_rep(algebra)
    if spec.kind == "action":
        mats = spec.payload.linear_matrices()
    else:
        mats = spec.payload.linear_data()[1]
    return algebra, len(mats[0]) if mats else 0, linear_field_rep(mats)


def run_cohomology(spec: ProblemSpec, args) -> tuple[dict, int]:
    degree = args.degree
    module_degree = args.module_degree
    if degree is None or module_degree is None:
        raise _fail("cohomology needs --degree and --module-degree")
    if degree < 0 or module_degree < 1:
        raise _fail("--degree must be >= 0 and --module-degree >= 1")
    algebra, nvars, rep = _polynomial_rep(spec)
    started = time.perf_counter()
    module = induced_polynomial_module(algebra, nvars, rep, module_degree)
    h_dim = cohomology_dimension(module, degree)
    # h_dim = dim C^r - rank d_r - rank d_{r-1}, on a complex checked to be one
    ranks = {str(q): module.differential_rank(q) for q in (degree - 1, degree) if q >= 0}
    verified = squares_to_zero(module, degree)
    elapsed = time.perf_counter() - started
    report = _base_report("cohomology", spec)
    report["result"] = {
        "status": "dimensions",
        "degree": degree,
        "module_degree": module_degree,
        "h_dim": h_dim,
        "cochain_dimensions": {
            str(r): module.cochain_dim(r) for r in range(degree + 2)
        },
        "ranks": ranks,
    }
    report["timing_seconds"] = elapsed
    report["verified"] = verified
    return report, 0


_COMMANDS = {
    "check": run_check,
    "analyze": run_analyze,
    "linearize": run_linearize,
    "levi": run_levi,
    "algebroid": run_algebroid,
    "cohomology": run_cohomology,
}


def _run_corpus_entry(entry, args) -> tuple[dict, int]:
    order = getattr(args, "max_degree", None)
    spec = _apply_overrides(problem_from_dict(entry.problem(order)), args)
    runner = _COMMANDS[entry.command]
    # max_degree already chose the build order; the run uses it all
    sub_args = argparse.Namespace(**{**vars(args), "max_degree": None})
    report, code = runner(spec, sub_args)
    report["corpus_entry"] = {
        "name": entry.name,
        "expected": entry.expected,
        "notes": entry.summary,
    }
    return report, code


def run_corpus(args) -> tuple[dict, int]:
    if args.corpus_command == "list":
        entries = []
        for name in corpus_module.names():
            entry = corpus_module.get(name)
            entries.append({
                "name": entry.name,
                "kind": entry.problem()["kind"],
                "command": entry.command,
                "expected": entry.expected,
                "default_order": entry.default_order,
                "summary": entry.summary,
            })
        return {"command": "corpus-list", "entries": entries}, 0
    if args.all:
        reports = []
        ok = True
        for name in corpus_module.names():
            report, code = _run_corpus_entry(corpus_module.get(name), args)
            report["exit_code"] = code
            expected = corpus_module.get(name).expected
            matched = (code == 2) == (expected == "obstruction")
            # entries run linearize, levi or algebroid, whose reports verify
            # their result; check and analyze verify nothing and say nothing
            ok = ok and matched and report.get("verified", False)
            reports.append(report)
        return {"command": "corpus-run-all", "reports": reports}, 0 if ok else 1
    if not args.name:
        raise _fail("corpus run needs an entry name or --all")
    try:
        entry = corpus_module.get(args.name)
    except KeyError as exc:
        raise _fail(str(exc.args[0]))
    return _run_corpus_entry(entry, args)


# ---------------------------------------------------------------------------
# rendering


def _render_result_text(lines, result):
    status = result.get("status")
    lines.append(f"result: {status}")
    change = result.get("change")
    if isinstance(change, dict) and "base" in change:
        lines.append("  base change:")
        for name, text in change["base"].items():
            lines.append(f"    {name} -> {text}")
        lines.append("  frame change rows:")
        for row in change["frame"]:
            lines.append("    [" + ", ".join(row) + "]")
    elif isinstance(change, dict):
        lines.append("  change:")
        for name, text in change.items():
            lines.append(f"    {name} -> {text}")
    nf = result.get("normal_form")
    if nf and "brackets" in nf:
        lines.append("  normal form brackets:")
        for key, text in nf["brackets"].items():
            lines.append(f"    {{{key}}} = {text}")
    elif nf and "structure" in nf:
        lines.append("  normal form structure:")
        for si, sj, sk, text in nf["structure"]:
            lines.append(f"    [{si},{sj}] -> {sk}: {text}")
        lines.append("  normal form anchors:")
        for sec, comps in nf["anchor"].items():
            lines.append(f"    {sec}: [" + ", ".join(comps) + "]")
    elif nf and "fields" in nf:
        lines.append("  normal form fields:")
        for gen, comps in nf["fields"].items():
            lines.append(f"    {gen}: [" + ", ".join(comps) + "]")
    obstruction = result.get("obstruction")
    if obstruction:
        lines.append(f"  obstruction in degree {obstruction['degree']}, "
                     f"cohomology dimension {obstruction['h_dim']}, "
                     f"verified {obstruction['verified']}")
    if status == "dimensions":
        lines.append(f"  H^{result['degree']} dimension: {result['h_dim']} "
                     f"(module degree {result['module_degree']})")


def _render_text(report: dict) -> str:
    lines = [f"poislin {report['command']}"]
    inp = report.get("input")
    if inp:
        lines.append(f"input: {inp['kind']} in "
                     f"{', '.join(inp['variables'])} (order {inp['order']})")
    cls = report.get("classification")
    if cls:
        sig = cls["killing_signature"]
        lines.append(
            f"classification: dim {cls['isotropy_dimension']}, "
            f"semisimple {cls['semisimple']}, compact type {cls['compact_type']}, "
            f"radical dim {cls['radical_dimension']}, killing signature "
            f"(+{sig['positive']}, -{sig['negative']}, 0:{sig['zero']})"
        )
    if "result" in report:
        _render_result_text(lines, report["result"])
    trace = report.get("trace")
    if trace:
        lines.append(f"trace: scheduler {trace['scheduler']}, "
                     f"target order {trace['target_order']}")
        for step in trace["steps"]:
            degrees = ",".join(str(d) for d in step["degrees"])
            lines.append(
                f"  block {step['block']} degrees [{degrees}]: "
                f"norm {step['norm_before']:.6g} -> {step['norm_after']:.6g}, "
                f"lowest {step['lowest_before']} -> {step['lowest_after']}"
                + (" OBSTRUCTED" if step["obstructed"] else "")
            )
    if "entries" in report:
        for entry in report["entries"]:
            lines.append(f"{entry['name']} ({entry['kind']}, {entry['command']}, "
                         f"order {entry['default_order']}): {entry['summary']}")
    if "reports" in report:
        for sub in report["reports"]:
            name = sub.get("corpus_entry", {}).get("name", "?")
            status = sub.get("result", {}).get("status", "?")
            lines.append(f"{name}: {status} (exit {sub['exit_code']}, "
                         f"verified {sub.get('verified')})")
    if "corpus_entry" in report:
        lines.append(f"notes: {report['corpus_entry']['notes']}")
    if "verified" in report:
        lines.append(f"verified: {report['verified']}")
    if "timing_seconds" in report:
        lines.append(f"timing: {report['timing_seconds']:.3f}s")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point


def _add_common_flags(parser, run_flags: bool = True) -> None:
    if run_flags:
        parser.add_argument("--scheduler", choices=("degree", "doubling"),
                            default=None,
                            help="override the problem's scheduler")
        parser.add_argument("--max-degree", type=int, default=None,
                            help="run only up to this degree")
        parser.add_argument("--radius", default=None,
                            help="diagnostic radius, a rational p or p/q")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poislin",
        description="exact linearization of truncated Poisson structures, "
                    "Lie algebra actions, and Lie algebroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "validate a problem file"),
        ("analyze", "classify the isotropy algebra"),
        ("linearize", "linearize a poisson or action problem"),
        ("levi", "normalize the semisimple blocks against a Levi factor"),
        ("algebroid", "linearize an algebroid problem"),
        ("cohomology", "cohomology dimensions of the isotropy module"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file (JSON)")
        _add_common_flags(p)
        if name == "levi":
            p.add_argument("--levi-factor", default=None,
                           help="JSON file with s and r basis rows")
        if name == "cohomology":
            p.add_argument("--degree", type=int, default=None)
            p.add_argument("--module-degree", type=int, default=None)
    corpus_parser = sub.add_parser("corpus", help="bundled example problems")
    corpus_sub = corpus_parser.add_subparsers(dest="corpus_command",
                                              required=True)
    list_parser = corpus_sub.add_parser("list", help="list the entries")
    _add_common_flags(list_parser, run_flags=False)
    run_parser = corpus_sub.add_parser("run", help="run one entry or --all")
    run_parser.add_argument("name", nargs="?", default=None)
    run_parser.add_argument("--all", action="store_true")
    _add_common_flags(run_parser)
    return parser


def _apply_overrides(spec: ProblemSpec, args) -> ProblemSpec:
    if getattr(args, "scheduler", None):
        spec.scheduler = args.scheduler
    radius = getattr(args, "radius", None)
    if radius is not None:
        value = _rational(radius, "--radius")
        if value <= 0:
            raise _fail("--radius must be positive")
        spec.radius = value
    return spec


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            report, code = run_corpus(args)
        else:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise _fail(f"cannot read problem file: {exc}")
            spec = _apply_overrides(parse_problem(text), args)
            report, code = _COMMANDS[args.command](spec, args)
    except (InputError, SolverFailure) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
