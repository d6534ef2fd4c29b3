import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    random_graded_change,
    random_near_identity_change,
    record_calls,
    so3_action_algebroid,
    so3_bivector,
)
from poislin import clear_caches, cli, corpus, normalform, polyalg
from poislin.algebroid import apply_algebroid_change
from poislin.cli import (
    InputError,
    ProblemSpec,
    main,
    parse_problem,
    print_problem,
    problem_from_dict,
    symmetric_signature,
)
from poislin.cohomology import GModule
from poislin.liealg import LeviSplit, LieAlgebra
from poislin.polyalg import CoordChange, Jet, PoissonJet, format_polynomial, pushforward

F = Fraction


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, data, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SO3_PROBLEM = {
    "kind": "poisson",
    "variables": ["x", "y", "z"],
    "order": 6,
    "brackets": {"x,y": "z", "y,z": "x", "z,x": "y"},
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_problem_builds_the_bivector():
    spec = parse_problem(json.dumps(SO3_PROBLEM))
    assert spec.kind == "poisson"
    assert spec.names == ("x", "y", "z")
    assert spec.order == 6
    assert spec.scheduler == "doubling"
    assert spec.radius == 1
    z = Jet(3, 6, {(0, 0, 1): 1})
    assert spec.payload.entry(0, 1) == z
    # reversed key orientation carried the sign
    assert spec.payload.entry(2, 0) == Jet(3, 6, {(0, 1, 0): 1})


def test_parse_problem_polynomial_grammar():
    prob = {"kind": "poisson", "variables": ["x", "y"], "order": 3,
            "brackets": {"x,y": "x - 1/2*y^2"}}
    spec = parse_problem(json.dumps(prob))
    assert spec.payload.entry(0, 1) == Jet(2, 3, {(1, 0): 1,
                                                  (0, 2): F(-1, 2)})


def test_parse_problem_positions_polynomial_errors():
    prob = dict(SO3_PROBLEM, brackets={"x,y": "x + ", "y,z": "x", "z,x": "y"})
    with pytest.raises(InputError, match=r"line 1, column 5"):
        parse_problem(json.dumps(prob))


def test_parse_problem_positions_json_errors():
    with pytest.raises(InputError, match=r"line 2, column"):
        parse_problem('{\n "kind": poisson\n}')


def test_parse_problem_rejects_bad_schemas():
    with pytest.raises(InputError, match="kind"):
        parse_problem(json.dumps({"kind": "spin"}))
    with pytest.raises(InputError, match="duplicates"):
        parse_problem(json.dumps(dict(SO3_PROBLEM,
                                      variables=["x", "x", "z"])))
    with pytest.raises(InputError, match="unknown name"):
        parse_problem(json.dumps(dict(SO3_PROBLEM,
                                      brackets={"x,w": "z"})))
    with pytest.raises(InputError, match="appears twice"):
        parse_problem(json.dumps(dict(SO3_PROBLEM,
                                      brackets={"x,y": "z", "y,x": "-z"})))
    with pytest.raises(InputError, match="Jacobi"):
        parse_problem(json.dumps(dict(SO3_PROBLEM,
                                      brackets={"x,y": "z + x^2",
                                                "y,z": "x", "z,x": "y"})))
    # a linear part that is no Lie algebra: engines read the isotropy off a
    # parsed bivector without checking it again
    with pytest.raises(InputError, match="Jacobi"):
        parse_problem(json.dumps(dict(SO3_PROBLEM,
                                      brackets={"x,y": "y", "y,z": "x", "z,x": "y"})))


def test_print_then_parse_identity_for_each_kind():
    specs = [problem_from_dict(corpus.get(name).problem())
             for name in corpus.names()]
    assert {spec.kind for spec in specs} == {"poisson", "action", "algebroid"}
    for spec in specs:
        assert parse_problem(print_problem(spec)) == spec


def test_print_then_parse_keeps_scheduler_radius_and_levi():
    prob = dict(SO3_PROBLEM, scheduler="degree", radius="2/3")
    spec = parse_problem(json.dumps(prob))
    assert spec.scheduler == "degree"
    assert spec.radius == F(2, 3)
    again = parse_problem(print_problem(spec))
    assert again == spec


# ---------------------------------------------------------------------------
# killing signature


def test_killing_signature_exact_cases():
    # the signature routine the classification report uses
    assert symmetric_signature([[-2, 0, 0], [0, -2, 0], [0, 0, -2]]) == (0, 3, 0)
    assert symmetric_signature([[2, 0, 0], [0, 2, 0], [0, 0, -2]]) == (2, 1, 0)
    # hyperbolic plane needs the off-diagonal pivot path
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0, 2)


# ---------------------------------------------------------------------------
# commands in process


def test_analyze_so3(tmp_path, capsys):
    path = write_problem(tmp_path, SO3_PROBLEM)
    code, out, _ = run_cli(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    cls = report["classification"]
    assert cls["semisimple"] is True
    assert cls["compact_type"] is True
    assert cls["radical_dimension"] == 0
    assert cls["killing_signature"] == {"positive": 0, "negative": 3, "zero": 0}
    assert cls["killing_form"][0] == ["-2", "0", "0"]
    assert "verified" not in report


def test_check_and_analyze_reports_claim_no_verification(tmp_path, capsys):
    """check and analyze verify nothing, so their reports carry no
    `verified`; every corpus entry runs a command whose report does."""
    path = write_problem(tmp_path, SO3_PROBLEM)
    for command in ("check", "analyze"):
        code, out, _ = run_cli(capsys, [command, path])
        assert code == 0
        assert "verified" not in json.loads(out)
    assert {corpus.get(name).command for name in corpus.names()} <= {
        "linearize", "levi", "algebroid"}


def test_check_reports_input_errors_with_exit_1(tmp_path, capsys):
    path = write_problem(tmp_path, dict(SO3_PROBLEM,
                                        brackets={"x,y": "z + x^2",
                                                  "y,z": "x", "z,x": "y"}))
    code, out, err = run_cli(capsys, ["check", path])
    assert code == 1
    assert out == ""
    assert "Jacobi" in err


@pytest.mark.parametrize("data, message", [
    ({"kind": "poisson", "variables": ["a", "b", "c"],
      "brackets": {"a,b": "c + a^2", "b,c": "a", "c,a": "b"}},
     "invalid bivector: Jacobi identity fails through order 6 at (a, b, c): 2*a*b"),
    # [s, t] = u s with anchor u^2 on s: the anchor breaks the bracket
    ({"kind": "algebroid", "variables": ["u"], "frame": ["s", "t"], "order": 2,
      "structure": [["s", "t", "s", "u"]], "anchor": {"s": ["u^2"]}},
     "invalid algebroid: Jacobi identity fails through order 3 at (u, s, t): -u^3"),
], ids=["poisson", "algebroid"])
def test_a_jacobi_failure_is_named_in_the_files_names(tmp_path, capsys, data, message):
    code, out, err = run_cli(capsys, ["check", write_problem(tmp_path, data)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("bracket", [
    "y + x^\u00b2",                  # superscript two: int() refuses it
    "y + x^\u0663",                  # Arabic-Indic three: int() reads it as 3
    "y + " + "7" * 5000 + "*x^2",    # beyond int()'s 4300-digit limit
    "y + x^" + "7" * 5000,
], ids=["superscript", "arabic-indic", "long-coefficient", "long-exponent"])
def test_check_rejects_non_ascii_digits_and_overlong_numbers(tmp_path, capsys, bracket):
    path = write_problem(tmp_path, {"kind": "poisson", "variables": ["x", "y"],
                                    "order": 3, "brackets": {"x,y": bracket}})
    code, out, err = run_cli(capsys, ["check", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error: brackets['x,y']: ")
    assert "(line 1, column " in err


def test_check_rejects_a_boolean_order(tmp_path, capsys):
    path = write_problem(tmp_path, dict(SO3_PROBLEM, order=True))
    code, out, err = run_cli(capsys, ["check", path])
    assert code == 1
    assert out == ""
    assert "'order' must be an integer" in err


def test_check_rejects_boolean_constant_indices(tmp_path, capsys):
    # [false, true, 2, -1] would otherwise read as the triple (0, 1, 2)
    data = corpus.get("guillemin-sternberg-action").problem(3)
    data["constants"][0] = [False, True, 2, "-1"]
    path = write_problem(tmp_path, data)
    code, out, err = run_cli(capsys, ["check", path])
    assert code == 1
    assert out == ""
    assert "indices must be integers" in err


def perturbed_so3_problem(order=6):
    rng = random.Random(41)
    moved = pushforward(so3_bivector(order),
                        random_near_identity_change(rng, 3, order, max_extra=2))
    names = ["x", "y", "z"]
    brackets = {}
    for i in range(3):
        for j in range(i + 1, 3):
            entry = moved.entry(i, j)
            if not entry.is_zero():
                brackets[f"{names[i]},{names[j]}"] = format_polynomial(entry, names)
    return {"kind": "poisson", "variables": names, "order": order,
            "brackets": brackets}


def test_linearize_perturbed_so3(tmp_path, capsys):
    path = write_problem(tmp_path, perturbed_so3_problem())
    code, out, _ = run_cli(capsys, ["linearize", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "linearized"
    assert report["verified"] is True
    assert report["result"]["normal_form"]["brackets"] == {
        "x,y": "z", "x,z": "-y", "y,z": "x"}
    blocks = [step["block"] for step in report["trace"]["steps"]]
    assert blocks == sorted(blocks)
    assert report["trace"]["radius"] == "1"


def test_linearize_obstruction_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, corpus.get("abelian-x2").problem())
    code, out, _ = run_cli(capsys, ["linearize", path])
    assert code == 2
    report = json.loads(out)
    result = report["result"]
    assert result["status"] == "obstructed"
    assert result["obstruction"]["verified"] is True
    assert result["obstruction"]["degree"] == 2
    assert result["obstruction"]["cocycle"]
    for item in result["obstruction"]["functional"]:
        assert F(item["value"]) != 0
    assert report["trace"]["steps"][-1]["obstructed"]


# ---------------------------------------------------------------------------
# verification fails closed


# (command, problem, verifier name, path to one change component)
REPORTED = [
    ("linearize", perturbed_so3_problem(4), "_verify_poisson", ("x",)),
    ("linearize", corpus.get("guillemin-sternberg-action").problem(4),
     "_verify_action", ("y",)),
    ("levi", corpus.get("gl2-levi").problem(4), "_verify_poisson", ("z",)),
    ("algebroid", corpus.get("so3-coadjoint-algebroid").problem(3),
     "_verify_algebroid", ("base", "x")),
]


def engine_report(tmp_path, capsys, command, data):
    code, out, _ = run_cli(capsys, [command, write_problem(tmp_path, data)])
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    return parse_problem(json.dumps(data)), report["result"]


@pytest.mark.parametrize("command, data, verifier, where", REPORTED,
                         ids=[f"{c}-{v}" for c, _, v, _ in REPORTED])
def test_a_perturbed_change_does_not_verify(tmp_path, capsys, command, data,
                                            verifier, where):
    spec, result = engine_report(tmp_path, capsys, command, data)
    verify = getattr(cli, verifier)
    change = json.loads(json.dumps(result["change"]))
    holder = change
    for key in where[:-1]:
        holder = holder[key]
    # one coefficient moves: the x^2 term gains 1/7
    holder[where[-1]] += " + 1/7*x^2"
    assert verify(spec, spec.order, change, result["normal_form"]) is False
    assert verify(spec, spec.order, result["change"], result["normal_form"]) is True


@pytest.mark.parametrize("command, data, verifier, where", REPORTED,
                         ids=[f"{c}-{v}" for c, _, v, _ in REPORTED])
def test_verifiers_take_no_inverse(tmp_path, capsys, monkeypatch, command, data,
                                   verifier, where):
    spec, result = engine_report(tmp_path, capsys, command, data)

    def refuse(*args, **kwargs):
        raise AssertionError("verification inverted the change")

    monkeypatch.setattr(polyalg, "invert_change", refuse)
    monkeypatch.setattr(polyalg._Powers, "solve", refuse)
    verify = getattr(cli, verifier)
    assert verify(spec, spec.order, result["change"], result["normal_form"]) is True


@pytest.mark.parametrize("command, data, verifier, where", REPORTED,
                         ids=[f"{c}-{v}" for c, _, v, _ in REPORTED])
def test_verifiers_build_no_power_table_for_an_identity_linear_change(
        tmp_path, capsys, monkeypatch, command, data, verifier, where):
    """Each reported change has the identity linear part and a linear
    normal form, so is_poisson_map and is_action_map compose the normal
    form with the change first order, through compose_jets: no power table
    is built."""
    spec, result = engine_report(tmp_path, capsys, command, data)
    built = record_calls(monkeypatch, polyalg._Powers, "__init__")
    verify = getattr(cli, verifier)
    assert verify(spec, spec.order, result["change"], result["normal_form"]) is True
    assert built == []


@pytest.mark.parametrize("command, data, verifier, where", REPORTED,
                         ids=[f"{c}-{v}" for c, _, v, _ in REPORTED])
def test_timing_covers_verification(tmp_path, capsys, monkeypatch, command, data,
                                    verifier, where):
    """timing_seconds stops after the verifier: one that sleeps 50 ms shows
    in it."""
    import time

    check = getattr(cli, verifier)

    def slow(*args):
        time.sleep(0.05)
        return check(*args)

    monkeypatch.setattr(cli, verifier, slow)
    code, out, _ = run_cli(capsys, [command, write_problem(tmp_path, data)])
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    assert report["timing_seconds"] >= 0.05


def test_a_perturbed_lie_poisson_normal_form_does_not_verify(tmp_path, capsys):
    spec, result = engine_report(tmp_path, capsys, "linearize",
                                 perturbed_so3_problem(4))
    brackets = dict(result["normal_form"]["brackets"], **{"x,y": "2*z"})
    # still Lie-Poisson, so it parses; it is not the image of the input
    parse_problem(json.dumps(dict(SO3_PROBLEM, brackets=brackets)))
    normal_form = dict(result["normal_form"], brackets=brackets)
    assert cli._verify_poisson(spec, 4, result["change"], normal_form) is False


def test_a_normal_form_failing_jacobi_reports_unverified(tmp_path, capsys,
                                                         monkeypatch):
    spec, result = engine_report(tmp_path, capsys, "linearize",
                                 perturbed_so3_problem(4))
    brackets = dict(result["normal_form"]["brackets"], **{"x,y": "z + x^2"})
    normal_form = dict(result["normal_form"], brackets=brackets)
    assert cli._verify_poisson(spec, 4, result["change"], normal_form) is False

    # the same normal form coming out of an engine ends in verified: false
    x, y, z = (Jet.variable(i, 3, 4) for i in range(3))
    xy, zero = z + x * x, Jet.zero(3, 4)
    broken = PoissonJet._trusted([[zero, xy, -y], [-xy, zero, x], [y, -x, zero]], 3, 4)

    def engine(pi, scheduler, order, radius):
        out = normalform.linearize_poisson(pi, scheduler, order, radius)
        return out[0], broken, out[2]

    monkeypatch.setattr(cli, "linearize_poisson", engine)
    code, out, err = run_cli(capsys, ["linearize",
                                      write_problem(tmp_path, perturbed_so3_problem(4))])
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["result"]["normal_form"]["brackets"]["x,y"] == "z + x^2"
    assert report["verified"] is False


# (command, problem, verifier, path to one normal form text, broken text):
# the edit breaks the morphism property of the action and the Jacobi
# identity of the algebroid
BROKEN_NORMAL_FORMS = [
    ("linearize", corpus.get("guillemin-sternberg-action").problem(4),
     "_verify_action", ("fields", "X", 0), "x^2"),
    ("algebroid", corpus.get("so3-coadjoint-algebroid").problem(3),
     "_verify_algebroid", ("structure", 0, 3), "1 + x"),
]


@pytest.mark.parametrize("command, data, verifier, where, text", BROKEN_NORMAL_FORMS,
                         ids=["action", "algebroid"])
def test_a_normal_form_failing_its_structure_check_reports_unverified(
        tmp_path, capsys, command, data, verifier, where, text):
    """The read-back builds the normal form unchecked; one the checked
    constructor refuses still fails the morphism equation."""
    spec, result = engine_report(tmp_path, capsys, command, data)
    normal_form = copy.deepcopy(result["normal_form"])
    holder = normal_form
    for key in where[:-1]:
        holder = holder[key]
    holder[where[-1]] = text
    with pytest.raises(InputError, match="invalid"):
        problem_from_dict({**normal_form, "kind": spec.kind, "order": spec.order})
    verify = getattr(cli, verifier)
    assert verify(spec, spec.order, result["change"], normal_form) is False


# (command, problem, verifier, per-variable lists in the normal form)
RESIZED_NORMAL_FORMS = [
    ("linearize", SO3_PROBLEM, "_verify_poisson", ()),
    ("linearize", corpus.get("guillemin-sternberg-action").problem(4),
     "_verify_action", ("fields",)),
    ("algebroid", corpus.get("so3-coadjoint-algebroid").problem(3),
     "_verify_algebroid", ("anchor",)),
]


@pytest.mark.parametrize("grow", [False, True], ids=["fewer", "more"])
@pytest.mark.parametrize("command, data, verifier, per_variable", RESIZED_NORMAL_FORMS,
                         ids=["poisson", "action", "algebroid"])
def test_a_normal_form_in_another_number_of_variables_reports_unverified(
        tmp_path, capsys, command, data, verifier, per_variable, grow):
    """One variable name dropped, or one added with a zero component in
    every per-variable list, so the grown form still parses."""
    spec, result = engine_report(tmp_path, capsys, command, data)
    normal_form = copy.deepcopy(result["normal_form"])
    names = normal_form["variables"]
    normal_form["variables"] = names + ["w"] if grow else names[:-1]
    for key in per_variable:
        for comps in normal_form[key].values():
            comps[:] = comps + ["0"] if grow else comps[:-1]
    verify = getattr(cli, verifier)
    assert verify(spec, spec.order, result["change"], normal_form) is False


def test_levi_command_with_embedded_factor(tmp_path, capsys):
    path = write_problem(tmp_path, corpus.get("gl2-levi").problem(5))
    code, out, _ = run_cli(capsys, ["levi", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "normal-form"
    assert report["result"]["semisimple_block"] == 3
    assert report["result"]["residual_block"] == 1
    assert report["verified"] is True
    assert report["result"]["normal_form"]["brackets"] == {
        "x,y": "-z", "x,z": "-y", "y,z": "x"}


def test_levi_command_with_factor_file(tmp_path, capsys):
    prob = corpus.get("gl2-levi").problem(4)
    block = prob.pop("levi_factor")
    path = write_problem(tmp_path, prob)
    factor = tmp_path / "split.json"
    factor.write_text(json.dumps(block))
    code, out, _ = run_cli(capsys, ["levi", path, "--levi-factor", str(factor)])
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, _, err = run_cli(capsys, ["levi", path])
    assert code == 1
    assert "levi_factor" in err


def test_levi_command_on_a_moved_algebroid(tmp_path, capsys):
    """levi on an algebroid problem runs levi_algebroid, whose solves cut
    the polynomial modules to one fiber degree: the so(3) action algebroid
    moved by a near-identity base and frame change, with s all three
    sections and r empty, comes back verified as the unmoved algebroid."""
    rng = random.Random(7)
    moved = apply_algebroid_change(so3_action_algebroid(4), random_graded_change(rng, 3, 3, 5))
    sections = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    spec = ProblemSpec("algebroid", ("x", "y", "z"), 4, moved, ("e1", "e2", "e3"),
                       levi=(sections, ()))
    path = tmp_path / "moved.json"
    path.write_text(print_problem(spec))
    code, out, _ = run_cli(capsys, ["levi", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    result = report["result"]
    assert (result["status"], result["semisimple_block"], result["residual_block"]) == (
        "normal-form", 3, 0)
    assert result["change"]["frame"] != [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    linear = corpus.get("so3-coadjoint-algebroid").problem()
    assert sorted(result["normal_form"]["structure"]) == sorted(linear["structure"])
    assert result["normal_form"]["anchor"] == linear["anchor"]


def test_a_levi_factor_file_reads_the_isotropy_once(tmp_path, monkeypatch):
    spec = problem_from_dict(corpus.get("so3-coadjoint-algebroid").problem(3))
    factor = tmp_path / "split.json"
    factor.write_text(json.dumps({"s": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "r": []}))
    calls = record_calls(monkeypatch, cli, "_isotropy_of", lambda spec: spec.kind)
    split = cli._load_levi(spec, argparse.Namespace(levi_factor=str(factor)))
    assert len(split.s_basis) == 3 and not split.r_basis
    assert calls == ["algebroid"]


def test_levi_command_rejects_bad_factor(tmp_path, capsys):
    prob = corpus.get("gl2-levi").problem(4)
    prob["levi_factor"] = {
        "s": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "0", "1"]],
        "r": [["0", "0", "1", "0"]],
    }
    path = write_problem(tmp_path, prob)
    code, _, err = run_cli(capsys, ["levi", path])
    assert code == 1
    assert "levi factor rejected" in err


def test_levi_refuses_an_explicit_doubling_scheduler(tmp_path, capsys):
    """Both Levi engines run the degree scheduler, so an explicit
    --scheduler doubling ends in exit 1, run directly or through the
    corpus; --scheduler degree and no flag run as before and differ only in
    the scheduler the report echoes from its input."""
    path = write_problem(tmp_path, corpus.get("gl2-levi").problem(4))
    for argv in (["levi", path], ["corpus", "run", "gl2-levi", "--max-degree", "4"]):
        code, out, err = run_cli(capsys, [*argv, "--scheduler", "doubling"])
        assert (code, out) == (1, "")
        assert "levi runs the degree scheduler" in err and "Traceback" not in err
        reports = []
        for flag in ([], ["--scheduler", "degree"]):
            code, out, _ = run_cli(capsys, [*argv, *flag])
            assert code == 0
            report = json.loads(out)
            assert report["verified"] is True and report["trace"]["scheduler"] == "levi"
            del report["timing_seconds"], report["input"]["scheduler"]
            reports.append(report)
        assert reports[0] == reports[1]


LONG_INTEGER = "7" * 5000     # past the interpreter's 4300-digit conversion limit


def test_an_overlong_integer_in_the_problem_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(SO3_PROBLEM).replace('"order": 6', f'"order": {LONG_INTEGER}'))
    code, out, err = run_cli(capsys, ["check", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: problem file:") and "Traceback" not in err


def test_an_overlong_integer_in_the_levi_factor_file_is_an_input_error(tmp_path, capsys):
    prob = corpus.get("gl2-levi").problem(4)
    prob.pop("levi_factor")
    factor = tmp_path / "split.json"
    factor.write_text(f'{{"s": [[{LONG_INTEGER}]], "r": []}}')
    argv = ["levi", write_problem(tmp_path, prob), "--levi-factor", str(factor)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: levi factor file:") and "Traceback" not in err


def test_algebroid_command(tmp_path, capsys):
    path = write_problem(tmp_path, corpus.get("so3-coadjoint-algebroid").problem())
    code, out, _ = run_cli(capsys, ["algebroid", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "linearized"
    assert report["verified"] is True
    frame = report["result"]["change"]["frame"]
    assert [row[i] for i, row in enumerate(frame)] == ["1", "1", "1"]
    code, _, err = run_cli(capsys, ["algebroid",
                                    write_problem(tmp_path, SO3_PROBLEM,
                                                  "so3.json")])
    assert code == 1
    assert "algebroid" in err


def test_cohomology_command(tmp_path, capsys):
    path = write_problem(tmp_path, SO3_PROBLEM)
    for degree in (1, 2):
        code, out, _ = run_cli(capsys, ["cohomology", path,
                                        "--degree", str(degree),
                                        "--module-degree", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["h_dim"] == 0
    code, _, err = run_cli(capsys, ["cohomology", path, "--degree", "2"])
    assert code == 1
    assert "module-degree" in err


def test_cohomology_command_on_an_action(tmp_path, capsys):
    """The guillemin-sternberg action is the standard representation of
    sl(2) = so(2,1) on R^3: by Whitehead's lemma H^1 vanishes on every
    polynomial module, and H^0 counts the invariants, one power of the
    quadratic form in each even degree."""
    path = write_problem(tmp_path, corpus.get("guillemin-sternberg-action").problem())
    for module_degree in (1, 2, 3, 4):
        for degree, h_dim in ((0, int(module_degree % 2 == 0)), (1, 0)):
            code, out, _ = run_cli(capsys, ["cohomology", path, "--degree", str(degree),
                                            "--module-degree", str(module_degree)])
            assert code == 0
            report = json.loads(out)
            assert report["input"]["kind"] == "action"
            assert report["result"]["h_dim"] == h_dim
            assert report["verified"] is True


def test_cohomology_report_carries_the_ranks_it_verified(tmp_path, capsys):
    """h_dim = dim C^r - rank d_r - rank d_{r-1}, and `verified` is the
    check d_r . d_{r-1} = 0 on the rows those ranks came from."""
    path = write_problem(tmp_path, SO3_PROBLEM)
    for degree, ranks in ((0, {"0": 3}), (1, {"0": 3, "1": 6}), (2, {"1": 6, "2": 3})):
        code, out, _ = run_cli(capsys, ["cohomology", path, "--degree", str(degree),
                                        "--module-degree", "1"])
        assert code == 0
        report = json.loads(out)
        result = report["result"]
        assert result["ranks"] == ranks
        assert result["h_dim"] == (result["cochain_dimensions"][str(degree)]
                                   - sum(ranks.values()))
        assert report["verified"] is True


def test_a_corrupted_differential_reports_unverified(tmp_path, capsys, monkeypatch):
    """One wrong entry in d_2 breaks d_2 . d_1 = 0: the report says so,
    with no traceback."""
    import poislin
    from poislin.cohomology import GModule

    poislin.clear_caches()
    built = GModule.differential_matrix

    def corrupted(module, r):
        rows = built(module, r)
        if r != 2:
            return rows
        rows = [dict(row) for row in rows]
        col = next(iter(rows[0]))
        rows[0][col] += 1
        return rows

    monkeypatch.setattr(GModule, "differential_matrix", corrupted)
    path = write_problem(tmp_path, SO3_PROBLEM)
    code, out, err = run_cli(capsys, ["cohomology", path, "--degree", "2",
                                      "--module-degree", "2"])
    poislin.clear_caches()
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["verified"] is False


def test_scheduler_and_radius_overrides(tmp_path, capsys):
    path = write_problem(tmp_path, SO3_PROBLEM)
    code, out, _ = run_cli(capsys, ["linearize", path,
                                    "--scheduler", "degree",
                                    "--radius", "1/2"])
    assert code == 0
    report = json.loads(out)
    assert report["trace"]["scheduler"] == "degree"
    assert report["trace"]["radius"] == "1/2"
    code, _, err = run_cli(capsys, ["linearize", path, "--radius", "-1"])
    assert code == 1
    assert "positive" in err


def test_max_degree_validation(tmp_path, capsys):
    path = write_problem(tmp_path, SO3_PROBLEM)
    code, out, _ = run_cli(capsys, ["linearize", path, "--max-degree", "3"])
    assert code == 0
    assert json.loads(out)["trace"]["target_order"] == 3
    code, _, err = run_cli(capsys, ["linearize", path, "--max-degree", "9"])
    assert code == 1
    assert "exceeds" in err


def test_out_flag_and_text_format(tmp_path, capsys):
    path = write_problem(tmp_path, SO3_PROBLEM)
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, ["analyze", path, "--format", "text",
                                    "--out", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "poislin analyze" in text
    assert "semisimple True" in text


def text_and_json(capsys, argv):
    """Exit code, text report lines and JSON report of one command."""
    code, out, _ = run_cli(capsys, [*argv, "--format", "text"])
    json_code, json_out, _ = run_cli(capsys, argv)
    assert code == json_code
    return code, out.splitlines(), json.loads(json_out)


def assert_in_order(lines, expected):
    """Each expected line occurs in `lines`, in the given order."""
    rest = iter(lines)
    for line in expected:
        assert line in rest, line


IDENTITY_XYZ = ["  change:", "    x -> x", "    y -> y", "    z -> z"]
TEXT_REPORTS = {
    "poisson": ("linearize", perturbed_so3_problem(4), 0, [
        "poislin linearize", "input: poisson in x, y, z (order 4)", "result: linearized",
        "  change:", "  normal form brackets:", "    {x,y} = z", "    {x,z} = -y",
        "    {y,z} = x", "trace: scheduler doubling, target order 4", "verified: True"]),
    "action": ("linearize", corpus.get("guillemin-sternberg-action").problem(3), 0, [
        "poislin linearize", "input: action in x, y, z (order 3)", "result: linearized",
        *IDENTITY_XYZ, "  normal form fields:", "    X: [0, z, y]", "    Y: [z, 0, x]",
        "    Z: [-y, x, 0]", "trace: scheduler doubling, target order 3", "verified: True"]),
    "algebroid": ("algebroid", corpus.get("so3-coadjoint-algebroid").problem(3), 0, [
        "poislin algebroid", "input: algebroid in x, y, z (order 3)", "result: linearized",
        "  base change:", *IDENTITY_XYZ[1:], "  frame change rows:", "    [1, 0, 0]",
        "    [0, 1, 0]", "    [0, 0, 1]", "  normal form structure:", "    [e1,e2] -> e3: 1",
        "    [e1,e3] -> e2: -1", "    [e2,e3] -> e1: 1", "  normal form anchors:",
        "    e1: [0, z, -y]", "    e2: [-z, 0, x]", "    e3: [y, -x, 0]",
        "trace: scheduler doubling, target order 4", "verified: True"]),
    "obstructed": ("linearize", corpus.get("abelian-x2").problem(3), 2, [
        "poislin linearize", "input: poisson in x, y (order 3)", "result: obstructed",
        "trace: scheduler doubling, target order 3", "verified: True"]),
    "cohomology": ("cohomology", corpus.get("guillemin-sternberg-action").problem(3), 0, [
        "poislin cohomology", "input: action in x, y, z (order 3)", "result: dimensions",
        "  H^1 dimension: 0 (module degree 2)", "verified: True"]),
}


@pytest.mark.parametrize("case", TEXT_REPORTS)
def test_text_reports_render_every_section(tmp_path, capsys, case):
    """--format text writes the lines of the JSON report it renders: the
    change and normal form, the obstruction, the cohomology dimension, one
    line per trace step, the verification and the timing last."""
    command, data, exit_code, expected = TEXT_REPORTS[case]
    argv = [command, write_problem(tmp_path, data)]
    if command == "cohomology":
        argv += ["--degree", "1", "--module-degree", "2"]
    code, lines, report = text_and_json(capsys, argv)
    assert code == exit_code
    result = report["result"]
    assert_in_order(lines, expected)
    change = result.get("change", {})
    assert all(f"    {name} -> {text}" in lines for name, text in change.get("base", change).items())
    obstruction = result.get("obstruction")
    if obstruction:
        assert (f"  obstruction in degree 2, cohomology dimension {obstruction['h_dim']}, "
                "verified True") in lines
    steps = report.get("trace", {}).get("steps", [])
    blocks = [line for line in lines if line.startswith("  block ")]
    assert len(blocks) == len(steps)
    assert [line.endswith(" OBSTRUCTED") for line in blocks] == [s["obstructed"] for s in steps]
    assert lines[-1].startswith("timing: ") and lines[-1].endswith("s")


def test_corpus_run_all_renders_one_line_per_entry(capsys):
    code, lines, report = text_and_json(capsys, ["corpus", "run", "--all", "--max-degree", "3"])
    assert code == 0
    assert lines[0] == "poislin corpus-run-all"
    assert lines[1:] == [
        f"{sub['corpus_entry']['name']}: {sub['result']['status']} "
        f"(exit {sub['exit_code']}, verified True)" for sub in report["reports"]]
    assert [line.split(":")[0] for line in lines[1:]] == corpus.names()


# ---------------------------------------------------------------------------
# corpus


def test_corpus_list_names(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "list"])
    assert code == 0
    report = json.loads(out)
    assert [e["name"] for e in report["entries"]] == [
        "abelian-x2", "gl2-levi", "guillemin-sternberg-action",
        "sl2-linear", "so3-coadjoint-algebroid", "so3-linear",
        "weinstein-sl2-flat",
    ]


def test_corpus_run_unknown_entry(capsys):
    code, _, err = run_cli(capsys, ["corpus", "run", "nope"])
    assert code == 1
    assert "unknown corpus entry" in err


def test_corpus_run_single_entry(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "run", "abelian-x2"])
    assert code == 2
    report = json.loads(out)
    assert report["corpus_entry"]["name"] == "abelian-x2"
    assert report["result"]["status"] == "obstructed"


def test_corpus_run_all(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "run", "--all"])
    assert code == 0
    report = json.loads(out)
    assert len(report["reports"]) == 7
    for sub in report["reports"]:
        assert sub["verified"] is True


def test_corpus_run_applies_the_scheduler_and_radius_flags(capsys):
    for argv in (["so3-linear"], ["--all"]):
        code, out, _ = run_cli(capsys, ["corpus", "run", *argv,
                                        "--scheduler", "degree", "--radius", "1/2"])
        assert code == 0
        report = json.loads(out)
        for sub in report.get("reports", [report]):
            assert sub["input"]["radius"] == "1/2"
            if sub["corpus_entry"]["name"] == "so3-linear":
                assert sub["input"]["scheduler"] == "degree"
                assert sub["trace"]["scheduler"] == "degree"
                assert sub["trace"]["radius"] == "1/2"


def test_corpus_list_takes_only_output_flags(capsys):
    for flag in (["--scheduler", "degree"], ["--max-degree", "3"], ["--radius", "1/2"]):
        with pytest.raises(SystemExit) as exit_:
            main(["corpus", "list", *flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["corpus", "list", "--format", "text"])
    assert code == 0 and "abelian-x2" in out


def test_corpus_flat_entry_is_linear_with_identity_change(capsys):
    for order in (3, 7):
        code, out, _ = run_cli(capsys, ["corpus", "run", "weinstein-sl2-flat",
                                        "--max-degree", str(order)])
        assert code == 0
        report = json.loads(out)
        assert report["input"]["order"] == order
        assert report["result"]["change"] == {"x": "x", "y": "y", "z": "z"}
        assert report["result"]["normal_form"]["brackets"] == {
            "x,y": "-z", "x,z": "-y", "y,z": "x"}
        assert report["trace"]["steps"] == []
        assert "blind to flat terms" in report["corpus_entry"]["notes"]


def test_the_gl2_levi_entry_writes_out_its_pushed_forward_bracket():
    """The entry's text is the sl(2) dual bracket plus a central w moved by
    z -> z + w^2, as pushforward and format_polynomial write it."""
    names = ["x", "y", "z", "w"]
    for order in range(1, 11):
        linear = PoissonJet.from_brackets(4, order, {
            (0, 1): [((0, 0, 1, 0), -1)], (1, 2): [((1, 0, 0, 0), 1)],
            (0, 2): [((0, 1, 0, 0), -1)]})
        comps = [Jet.variable(t, 4, order) for t in range(4)]
        comps[2] = comps[2] + Jet(4, order, {(0, 0, 0, 2): 1})
        moved = pushforward(linear, CoordChange(comps))
        brackets = {f"{names[i]},{names[j]}": format_polynomial(moved.entry(i, j), names)
                    for i in range(4) for j in range(i + 1, 4)
                    if not moved.entry(i, j).is_zero()}
        expected = {
            "kind": "poisson", "variables": names, "order": order, "brackets": brackets,
            "levi_factor": {
                "s": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
                "r": [["0", "0", "0", "1"]],
            },
        }
        assert json.dumps(corpus.get("gl2-levi").problem(order)) == json.dumps(expected)


# the structural checks counted per corpus entry; an entry pins only the
# counts it names
CHECKS = {
    "jacobiator": (polyalg, "jacobiator"),
    "LieAlgebra": (LieAlgebra, "__init__"),
    "ActionJet": (normalform.ActionJet, "__init__"),
    "representation": (GModule, "_check_representation"),
    "LeviSplit": (LeviSplit, "__post_init__"),
}
CHECK_COUNTS = {
    "so3-linear": {"jacobiator": 1},
    "sl2-linear": {"jacobiator": 1},
    "weinstein-sl2-flat": {"jacobiator": 1},
    "abelian-x2": {"jacobiator": 1, "representation": 1},
    "gl2-levi": {"jacobiator": 1, "LieAlgebra": 0, "representation": 1, "LeviSplit": 1},
    "guillemin-sternberg-action": {"LieAlgebra": 1, "ActionJet": 1},
    # the ActionJet check is LinearAlgebroid's, on the engine's linear model
    "so3-coadjoint-algebroid": {"jacobiator": 1, "ActionJet": 1},
}


@pytest.mark.parametrize("name", corpus.names())
def test_each_input_structure_is_checked_once(tmp_path, capsys, monkeypatch, name):
    """Counted from the parse of the problem file on, with the caches
    cleared: the input is checked where it is parsed, and the engine outputs
    and the report's read-back, certified by the checks already made and by
    the morphism equation, are built unchecked."""
    entry = corpus.get(name)
    path = write_problem(tmp_path, entry.problem())
    clear_caches()
    calls = {key: record_calls(monkeypatch, *CHECKS[key]) for key in CHECK_COUNTS[name]}
    code, out, _ = run_cli(capsys, [entry.command, path])
    assert code == (2 if entry.expected == "obstruction" else 0)
    assert json.loads(out)["verified"] is True
    assert {key: len(made) for key, made in calls.items()} == CHECK_COUNTS[name]


# ---------------------------------------------------------------------------
# module invocation


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    path = write_problem(tmp_path, SO3_PROBLEM)
    # the child imports poislin from where this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "poislin", "analyze", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["classification"]["semisimple"] is True

    bad = subprocess.run(
        [sys.executable, "-m", "poislin", "linearize", str(tmp_path / "no.json")],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 1
    assert "error" in bad.stderr


# ---------------------------------------------------------------------------
# fuzzed problem files


# Replacement values: wrong types, malformed text, and numbers below every
# corpus order, so no mutant outgrows its source.
GARBAGE = (None, True, False, 0, -1, 1.5, "", "?", "x^", "1/0", "x,x", "((",
           [], {}, [[]], [0, 0, 0], {"": ""})
NON_OBJECTS = ("[]", "1", "null", "\"poisson\"", "[1, 2]", "true")
FUZZ_COMMANDS = (["check"], ["analyze"], ["linearize"],
                 ["cohomology", "--degree", "2", "--module-degree", "2"])


def _corpus_problem(name):
    """A corpus problem at no less than the default order, so that a mutant
    dropping its order is not larger than it."""
    entry = corpus.get(name)
    return entry.problem(max(entry.default_order, cli.DEFAULT_ORDER))


def _mutant(rng, problem):
    """The text of one mutation of a problem: a dropped key or item, a
    garbage value at any depth, truncated text, or JSON that is no object."""
    how = rng.choice(("drop", "garbage", "truncate", "non-object"))
    if how == "non-object":
        return rng.choice(NON_OBJECTS)
    if how == "truncate":
        text = json.dumps(problem, indent=1)
        return text[:rng.randrange(len(text))]
    data = copy.deepcopy(problem)
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        if how == "drop":
            del node[key]
        else:
            node[key] = rng.choice(GARBAGE)
        return json.dumps(data)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(corpus.names()), rng=st.randoms(use_true_random=False))
def test_mutated_corpus_problems_end_in_a_clean_exit(name, rng):
    text = _mutant(rng, _corpus_problem(name))
    try:
        json.loads(text)
        malformed = False
    except json.JSONDecodeError:
        malformed = True
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "problem.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in FUZZ_COMMANDS:
            code, err = _run_main([command[0], path] + command[1:])
            assert code in (0, 1, 2), (command, text)
            if code == 1:
                assert err.startswith("error: ") and err[7:].strip(), (command, text)
            if malformed:
                assert code == 1 and "line" in err and "column" in err, (command, text)
