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
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from helpers import (
    gl2_algebra,
    gl2_matrix_algebroid,
    random_graded_change,
    random_invertible_matrix,
    random_jet,
    random_near_identity_change,
    random_rational_basis,
    rebased_algebra,
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
from poislin import polyalg
from poislin.cohomology import (
    Cochain,
    ObstructionClass,
    coadjoint_rep,
    induced_polynomial_module,
    solve_coboundary,
)
from poislin.liealg import LieAlgebra, isotropy_from_linear_part, levi_lift
from poislin.linalg import LinearSolver
from poislin.normalform import (
    ActionJet,
    IterationTrace,
    conjugate_action,
    levi_decompose,
    linearize_action,
    linearize_poisson,
)
from poislin.polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    invert_change,
    monomials,
    pushforward,
)


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


def test_engines_transport_without_invert_change(monkeypatch):
    """Transports build the inverse's power table from its packed form; no
    engine goes through the Fraction inverse."""
    def refuse(*args, **kwargs):
        raise AssertionError("an engine called invert_change")

    original = polyalg.invert_change
    for name, module in list(sys.modules.items()):
        if name.startswith("poislin") and getattr(module, "invert_change", None) is original:
            monkeypatch.setattr(module, "invert_change", refuse)
    for name in ("so3/doubling/1", "action/degree/5", "algebroid/doubling/7"):
        assert digest(run_case(name)) == GOLDEN[name]


def transport_change(rng, order, lowest, linear):
    """x plus a tail whose lowest degree is exactly `lowest`, in 3 variables,
    with rational coefficients; applied after a random linear change when
    `linear` is set."""
    comps = []
    for i in range(3):
        basis = monomials(3, lowest)
        lead = Jet(3, order, {basis[rng.randrange(len(basis))]:
                              Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))})
        comps.append(Jet.variable(i, 3, order) + lead
                     + random_jet(rng, 3, order, max_terms=3, lowest=lowest))
    change = CoordChange(comps)
    if linear:
        change = CoordChange.linear(random_invertible_matrix(rng, 3), order).then(change)
    return change


def run_transport_case(name):
    """One transport of a seeded input at order 6 by a change of the stated
    linear part ("identity" or "linear") and lowest tail degree."""
    kind, linear, lowest = name.split("/")
    order = 6
    rng = random.Random(100 * int(lowest) + (linear == "linear"))
    change = transport_change(rng, order, int(lowest), linear == "linear")
    if kind == "invert":
        return invert_change(change)
    start = random_near_identity_change(rng, 3, order, max_extra=3)
    if kind == "pushforward":
        return pushforward(pushforward(so3_bivector(order), start), change)
    assert kind == "conjugate"
    return conjugate_action(conjugate_action(so3_coadjoint_action(order), start), change)


TRANSPORT_GOLDEN = {
    "conjugate/identity/2": "da7efabf6a813fca4467ce6b4d43dc7eed5f43f822863ab877f40d4514c0e7d6",
    "conjugate/identity/3": "8f688ccdc1743d43993da228ef57571136b5ae371b1e57d17479a1a02ac07c25",
    "conjugate/identity/4": "705c22169da1e7f5ca00ece4eafa545470c33a59fe7f212cbab6a24f48074538",
    "conjugate/identity/6": "89719369d2ef56aea028e93e65d4f76e37a2ba94aa25b35b7142b5b334161e5f",
    "conjugate/linear/2": "8966eb645d4809e552c96d9e45954bdc42cc439655a5a4cf0188d28c3ceda78b",
    "conjugate/linear/3": "a901292c83e9d469866be2344a2b803646686445f82b59b11f9e388331ce8b3f",
    "conjugate/linear/4": "bba0a514a62c27c94599814986108ce4246463138e2119743f27e0294c01dee0",
    "conjugate/linear/6": "3919f4b1ad0837475c855e8a9fb53170dce7b3a8577ddb34d846d2521b9b9ef6",
    "invert/identity/2": "adbca26c11b7d37f11ad5385901b6917940bb7cdda916e838ae5bc4ff84bb860",
    "invert/identity/3": "06097706fb1c912571299a0048cbe973af9ff6cfcb16ae7479519027251d7c7a",
    "invert/identity/4": "5f5a35cf9c7acae3766ae4f936ba50ca04680146f7753e1acf312ae407ae637f",
    "invert/identity/6": "30d46366b8450344c7e31d1c98273e33b17a188e98ef83851b8d9410b1359126",
    "invert/linear/2": "43371858bd59c75310ced4fa2105639d44deb258edcf21d24feab0958ea8d8f2",
    "invert/linear/3": "b8070c076bc3b32ad05d782bf8d8fa44a2f81f582000fbcd045bf35bc154b1d3",
    "invert/linear/4": "969ea0add10dbf8a94bb5e205e31e5e1e034b4127bc7fdeda3ec1c99ff49164e",
    "invert/linear/6": "bcae15290c48dfc6d18a3386a8ce5bd0e805bb3073addff747ee01017ec105cb",
    "pushforward/identity/2": "cb25ee8191d09480f8f8124fa7566da8c7d1ebdeb3cf9c7400b2955dbf23add1",
    "pushforward/identity/3": "e87f8a9decd20db3aab6ca136c7ee73c14e053000c733c91f188ff13dbab98c3",
    "pushforward/identity/4": "e966222a39c03509e87a637983abfd4d2beb58f9fe2dad35c98a693df736c993",
    "pushforward/identity/6": "a77ecdb926820ce2d08b4e319711a29e589429257caaa3a9ec8eb56bc00a7524",
    "pushforward/linear/2": "6bce446a493e7119666ce9b5de980aa56364aa4b3d6390118367415a6cbf0aec",
    "pushforward/linear/3": "c60d7a2d9f59ae35978ec892448127e3fa79ce5f0303ebe9e499132a0cdb3999",
    "pushforward/linear/4": "b3109b5314e8ed69a757847fe3bc6a7c6a648756d5ce9b7f448d956a6885d789",
    "pushforward/linear/6": "2c0d1b2417111e06075e2bdf3936957aa96efba89202104536dd2a2503b6503c",
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_GOLDEN))
def test_transport_outputs_match_reference_hashes(name):
    assert digest(run_transport_case(name)) == TRANSPORT_GOLDEN[name]


def rational_move(rng, nvars, order):
    """A seeded rational linear change, then a near-identity change."""
    return CoordChange.linear(random_rational_basis(rng, nvars), order).then(
        random_near_identity_change(rng, nvars, order, max_extra=3))


def x2_action(order):
    """abelian(2) on R^2 by x^2 d/dx and y^2 d/dy: no linear part, so the
    quadratic fields are an obstruction."""
    zero = Jet.zero(2, order)
    return ActionJet(LieAlgebra.abelian(2), [[Jet(2, order, {(2, 0): 1}), zero],
                                             [zero, Jet(2, order, {(0, 2): 1})]], order)


def run_obstructed_case(name):
    """One obstructed run in a rational basis: the resonant family at k
    (order k + 1), {x, y} = x^2 or the x^2 action, moved by `rational_move`."""
    kind, scheduler, seed = name.split("/")
    rng = random.Random(int(seed))
    if kind.startswith("resonant"):
        k = int(kind[len("resonant"):])
        moved = pushforward(resonant_bivector(k, k + 1), rational_move(rng, 3, k + 1))
        return linearize_poisson(moved, scheduler)
    if kind == "x2-poisson":
        x2 = PoissonJet.from_brackets(2, 4, {(0, 1): [((2, 0), 1)]})
        return linearize_poisson(pushforward(x2, rational_move(rng, 2, 4)), scheduler)
    assert kind == "x2-action"
    return linearize_action(conjugate_action(x2_action(4), rational_move(rng, 2, 4)), scheduler)


# Certificates, partial removals and traces of obstructed runs depend on the
# solver's row order (its left-null rows), so these pin that order through
# the engines; hashed before the solver's row rule moved.
OBSTRUCTED_GOLDEN = {
    "resonant2/degree/0": "3ed7054e3f1ebfa50e1979d39e946c7cf7c11c95fc3517c80243699592138794",
    "resonant2/degree/1": "33f022db7375068f3af37d80d69bbfcc7ba2a2025a2c009a9342e63882704a42",
    "resonant2/degree/2": "02a89da0fd0fad7e71dab604ce365010b38cbe620ada93b2dfb028ca858a9cd7",
    "resonant2/doubling/0": "cc2cd4e331700a411125b3845f8254c6159bab483718d87a2fa232ee83903ca5",
    "resonant2/doubling/1": "f6f91cbf7d33bf4e711eb22544c67304e37b72c855ce34c3f4be25954e3d9ff3",
    "resonant2/doubling/2": "3e499e4cb19b078bfc8ed6e925d5f5a22f7f2c15b2f4e5e7f1cc678aaae3592a",
    "resonant3/degree/0": "92012534dcdb3f0d26d875afdfd0a1413a55633c2610b57dfca7d5e81bca7741",
    "resonant3/degree/1": "8c6bab339593d07d866f6b3fc1c8a767e3998701b2007d4e16e03e9d34a33b20",
    "resonant3/degree/2": "5e4a222dd58e39a6bbe3c90941e783a628ea996ecd0c8f8da410f22bde6feedd",
    "resonant3/doubling/0": "16778267a70890e28bf3d0b738b058b4101b4f23cde5d4a3bc0723014265aefb",
    "resonant3/doubling/1": "fef416dd0258095fb1a12c3b76d17faa858d5c1c29f2177176728427aeb7f820",
    "resonant3/doubling/2": "aed5bf26e84b956d4b837105b5234158ec49af621273523948e5a1959eb8865f",
    "resonant4/degree/0": "f40235da183caffa62f9080e90f3cb15e5a761124e1253e15ee433746473fabf",
    "resonant4/degree/1": "c0f01a197d41c338977b1399c6c0601648b33c929e32ce84d479333e83203f50",
    "resonant4/degree/2": "de6a7716d16de99196e52687ad2ace4a27680837228257e16f9b3b1a0f03b396",
    "resonant4/doubling/0": "9f2912d17332b2490452bcfae5e4139121e37d363e0244ff7abc73348530a84e",
    "resonant4/doubling/1": "20c8df0dc44b778f53b4e56ab23bb127e72826da566aee81010d5dddcad434cf",
    "resonant4/doubling/2": "c8e6099ae40713df4f244326e59855d273f8518b05e298133ffde95cf0202301",
    "x2-action/degree/0": "07aef98adb818163e6930c08a7f4f2869593da231633bb82926ca0abb6d4da18",
    "x2-action/degree/1": "42eddd07df7d4b62eed9551f0df46cc7c92403839a2932dec4a5231d270d5bb0",
    "x2-action/doubling/0": "ac99b58a9bd6c46e44e04d0d235095a9b3349f8342265a77e227e108bad2ffc9",
    "x2-action/doubling/1": "c9c5f5b9ea3f3218963e3c687cb616f52d71100581ade24bad238002bdad3b79",
    "x2-poisson/degree/0": "57ea26f49014a7c6430f1cd2c56c0d1c567dd431b35473f25aa9b15373c460af",
    "x2-poisson/degree/1": "04981c8ce6e596eb199a794ff3d15f3156146faf99feac883017353c8eec6d6a",
    "x2-poisson/doubling/0": "818e46208fcaced301302fe313b21cab4239914a7731a577edf31ae29eea1095",
    "x2-poisson/doubling/1": "9e7d68076e11cabf2ee08cf7712e4111a6d772eebd844f4d060c7925bfa79050",
}
SOLVE_COBOUNDARY_GOLDEN = "b93adfc1ca0e0e90128a67cf0cd434c54f60b5d519f05431e44e5cd0a4f61f4d"


@pytest.mark.parametrize("name", sorted(OBSTRUCTED_GOLDEN))
def test_obstructed_rational_basis_outputs_match_reference_hashes(name):
    outcome = run_obstructed_case(name)
    assert isinstance(outcome[0], ObstructionClass)
    assert digest(outcome) == OBSTRUCTED_GOLDEN[name]


def test_solve_coboundary_of_a_non_exact_cocycle_matches_reference_hash():
    """A seeded cocycle of C^1 on gl(2)'s degree-2 coadjoint module in the
    seed-5 rational basis, a sum of kernel vectors of d_1, is not exact: its
    certificate is the first left-null row of d_0 it violates."""
    rng = random.Random(5)
    L = rebased_algebra(gl2_algebra(), random_rational_basis(rng, 4))
    module = induced_polynomial_module(L, 4, coadjoint_rep(L), 2)
    kernel = LinearSolver(module.differential_matrix(1), module.cochain_dim(1)).kernel_basis()
    weights = [rng.choice((-2, -1, 1, 2)) for _ in kernel]
    cocycle = [sum(w * v[i] for w, v in zip(weights, kernel))
               for i in range(module.cochain_dim(1))]
    outcome = solve_coboundary(Cochain(module, 1, cocycle))
    assert isinstance(outcome, ObstructionClass) and outcome.h_dim == 2
    assert digest(outcome) == SOLVE_COBOUNDARY_GOLDEN
