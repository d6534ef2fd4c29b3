"""Bit-identity lock on the engines' outputs.

Each case runs one engine on a fixed seeded input and hashes a canonical
dump of everything it returns: the change, the normal form or certificate,
and the trace.  Fractions are dumped as strings and trace norms by their
float repr, so any change of a coefficient, a pivot choice, a step or a
rounding shows.  The hashes were computed before the transport core moved
to integer arithmetic; inverses, compositions and pushforwards of
truncated jets are unique, so every hash must stay as it is.
"""

import hashlib
import json
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from helpers import (
    gl2_algebra,
    gl2_matrix_algebroid,
    random_graded_change,
    random_near_identity_change,
    sl2_bivector,
    so3_action_algebroid,
    so3_algebra,
    so3_bivector,
)
from poislin.algebroid import (
    AlgebroidJet,
    apply_algebroid_change,
    levi_algebroid,
    linearize_algebroid,
)
from poislin.cohomology import ObstructionClass
from poislin.liealg import LieAlgebra, isotropy_from_linear_part, levi_lift
from poislin.normalform import (
    ActionJet,
    IterationTrace,
    conjugate_action,
    levi_decompose,
    linearize_action,
    linearize_poisson,
)
from poislin.polyalg import CoordChange, Jet, PoissonJet, pushforward


def canon(obj):
    """JSON-ready dump of an engine output with exact, ordered content."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, Jet):
        return ["jet", obj.nvars, obj.order,
                [[list(m), str(c)] for m, c in obj.terms()]]
    if isinstance(obj, CoordChange):
        return ["change", canon(obj.components)]
    if isinstance(obj, PoissonJet):
        return ["bivector", obj.order, canon(obj.entries)]
    if isinstance(obj, LieAlgebra):
        return ["algebra", canon(obj.constants)]
    if isinstance(obj, ActionJet):
        return ["action", canon(obj.algebra), obj.order, canon(obj.fields)]
    if isinstance(obj, AlgebroidJet):
        return ["algebroid", obj.base_dim, obj.rank, obj.order,
                canon(obj.structure), canon(obj.anchor)]
    if isinstance(obj, ObstructionClass):
        return ["obstruction", obj.cocycle.degree, canon(obj.cocycle.vector),
                canon(obj.functional), obj.h_dim, obj.verify()]
    if isinstance(obj, IterationTrace):
        return ["trace", obj.scheduler, str(obj.radius), obj.target_order,
                [canon(vars(step)) for step in obj.steps]]
    if is_dataclass(obj):
        return [type(obj).__name__] + [canon(getattr(obj, f.name)) for f in fields(obj)]
    if isinstance(obj, dict):
        return sorted([canon(k), canon(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    raise TypeError(f"no canonical dump for {type(obj).__name__}")


def digest(outcome) -> str:
    text = json.dumps(canon(outcome), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def resonant_bivector(k, order):
    return PoissonJet.from_brackets(3, order, {
        (0, 1): Jet(3, order, {(0, 1, 0): 1}),
        (0, 2): Jet(3, order, {(0, 0, 1): k, (0, k, 0): 1}),
    })


def linear_bivector(L, order):
    n = L.dim
    unit = lambda k: tuple(1 if t == k else 0 for t in range(n))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {unit(k): L.constants[i][j][k]
                     for k in range(n) if L.constants[i][j][k]}
            if terms:
                brackets[(i, j)] = Jet(n, order, terms)
    return PoissonJet.from_brackets(n, order, brackets)


def so3_coadjoint_action(order):
    L = so3_algebra()
    mats = [[[L.constants[i][a][b] for b in range(3)] for a in range(3)]
            for i in range(3)]
    return ActionJet.linear(L, mats, order)


def run_case(name):
    kind, scheduler, seed = name.split("/")
    rng = random.Random(int(seed))
    if kind in ("so3", "sl2"):
        base = (so3_bivector if kind == "so3" else sl2_bivector)(6)
        moved = pushforward(base, random_near_identity_change(rng, 3, 6, max_extra=4))
        return linearize_poisson(moved, scheduler)
    if kind == "resonant":
        moved = pushforward(resonant_bivector(3, 5),
                            random_near_identity_change(rng, 3, 5, max_extra=4))
        return linearize_poisson(moved, scheduler)
    if kind == "action":
        moved = conjugate_action(so3_coadjoint_action(5),
                                 random_near_identity_change(rng, 3, 5, max_extra=4))
        return linearize_action(moved, scheduler)
    if kind == "levi":
        moved = pushforward(linear_bivector(gl2_algebra(), 5),
                            random_near_identity_change(rng, 4, 5, max_extra=4))
        return levi_decompose(moved, levi_lift(isotropy_from_linear_part(moved)))
    if kind == "algebroid":
        moved = apply_algebroid_change(so3_action_algebroid(3),
                                       random_graded_change(rng, 3, 3, 4))
        return linearize_algebroid(moved, scheduler)
    assert kind == "levi-algebroid"
    A, gl2 = gl2_matrix_algebroid(3)
    moved = apply_algebroid_change(A, random_graded_change(rng, 2, 4, 4))
    return levi_algebroid(moved, levi_lift(gl2))


GOLDEN = {
    "action/degree/5": "df157b3795759a5c9747db385408f58fbbe8cdcb8b2fc1dba5fc819a80a77492",
    "action/doubling/5": "38d5d0644e61358d792efb341c8f8e86fad3fb8061227436604ddff614cab142",
    "algebroid/degree/7": "6bc6530a6fde90c40b01422d5ce3c250f7107b74aeb2c4b4e2714596cd553f68",
    "algebroid/doubling/7": "a55a7ea6ab025a2c39e5f3cff758a843cd40b901cd1e94b57ffce37a422b9754",
    "levi-algebroid/degree/13": "e408d6e88629ded4872d45da89cdcb5454a4d63588697646612f52b2d046f98b",
    "levi-algebroid/degree/14": "71e84eef1c9466cc197e963358a7609eaa2ccaf370eec641313fd24fa0e438cb",
    "levi/degree/11": "a1dc33054c374c7fba667283ab026e112c29626eb8c4350fe3d5fc76291d609a",
    "levi/degree/12": "8291769ed10d08e13519679d8b188b91a7d7a5097516396be7e9d007893dc336",
    "resonant/degree/3": "619009abe0ed642288d6de687e7d41abedb225ad4510abb4b8c07d95d13761a3",
    "resonant/doubling/3": "b56959f1295d16e215f9f48c053bace5757179d3a64fcc2fccbfabb59442a2c8",
    "sl2/degree/1": "722da25a87bc6b7f358f6bf89699dcef424302d99ebc0e434c8cd28aae272acb",
    "sl2/degree/2": "413fb82b1e9f57d57ee816766f10dc32fb43817900998600faa02eda5b77384c",
    "sl2/doubling/1": "f8e345b7e505fe722ad993d4e130750adcc9eca0b8ad268db497f5da4212a44d",
    "sl2/doubling/2": "f5f54a417335d829e3343a97b04cba20be2d916397cf7c701d9af1dad08886d5",
    "so3/degree/1": "b23109ad3ed5c88e422d65e6e5d79747fe7e5d6862a931fecd95e47cacd469cb",
    "so3/degree/2": "ad4c67379eb6b33bc49d033cd843cf60b017eabd53902a564dee9663e5452ad2",
    "so3/doubling/1": "70f099ec2e95e0f8f9d4080c53e6148eefa2adafb5d9201691d68e396f1c0207",
    "so3/doubling/2": "c7c4da37fdb65c255fe0f7919fa0ea7f63abfba056eb1a6fc0a093daf3e119e0",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_outputs_match_reference_hashes(name):
    assert digest(run_case(name)) == GOLDEN[name]
