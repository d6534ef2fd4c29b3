"""Seeded problem generators shared by the benchmark workloads.

Every problem is a fixed linear structure moved by a near-identity
coordinate change.  The change has one degree-2 and one degree-3 term per
component on a fixed cyclic monomial pattern; only the rational
coefficients come from the seed.  Keeping the pattern fixed keeps the cost
of one instance within a few percent of another, so a run's medians do not
depend on which monomials a seed happened to draw.

The problems are built with poislin itself (pushforward, conjugation), which
is part of the workloads' set-up.  The checks in `oracle` never rely on how
an input was built: they test the outputs against the input as handed to
the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from poislin.algebroid import AlgebroidChange, action_algebroid, apply_algebroid_change
from poislin.liealg import LieAlgebra, isotropy_from_linear_part, verify_levi_split
from poislin.normalform import ActionJet, conjugate_action
from poislin.polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    format_polynomial,
    format_rational,
    pushforward,
)

# Structure constants [e_i, e_j] = sum_k c e_k, one entry per pair i < j.
ALGEBRAS = {
    "so3": (3, [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)]),
    "sl2": (3, [(0, 1, 2, -1), (1, 2, 0, 1), (0, 2, 1, -1)]),
    "gl2": (4, [(0, 1, 2, -1), (1, 2, 0, 1), (0, 2, 1, -1)]),
}

VARIABLES = {2: ["x", "y"], 3: ["x", "y", "z"], 4: ["x", "y", "z", "w"]}


@dataclass
class Problem:
    """One benchmark input.  `payload` is the poislin object handed to the
    engine; `expect_obstruction` is the degree at which theory puts the
    obstruction, or None for a linearizable input."""

    kind: str            # poisson | action | levi | algebroid | resonant | zero-linear
    label: str
    order: int
    scheduler: str
    payload: object
    split: object = None
    expect_obstruction: int | None = None

    @property
    def nvars(self) -> int:
        p = self.payload
        return p.base_dim + p.rank if self.kind == "algebroid" else p.nvars


def algebra(name: str) -> LieAlgebra:
    dim, entries = ALGEBRAS[name]
    return LieAlgebra.from_sparse(dim, entries)


def coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _unit(n: int, *indices: int) -> tuple:
    mono = [0] * n
    for i in indices:
        mono[i] += 1
    return tuple(mono)


def near_identity(rng: random.Random, n: int, order: int) -> CoordChange:
    """x_i -> x_i + a x_{i+1}^2 + b x_i x_{i+1} x_{i+2}, indices mod n."""
    comps = []
    for i in range(n):
        terms = {_unit(n, i): Fraction(1)}
        if order >= 2:
            terms[_unit(n, (i + 1) % n, (i + 1) % n)] = coefficient(rng)
        if order >= 3:
            terms[_unit(n, i, (i + 1) % n, (i + 2) % n)] = coefficient(rng)
        comps.append(Jet(n, order, terms))
    return CoordChange(comps)


def linear_bivector(L: LieAlgebra, order: int) -> PoissonJet:
    n = L.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {_unit(n, k): L.constants[i][j][k]
                     for k in range(n) if L.constants[i][j][k]}
            if terms:
                brackets[(i, j)] = Jet(n, order, terms)
    return PoissonJet.from_brackets(n, order, brackets)


def coadjoint_action_matrices(L: LieAlgebra):
    """A_i[a][b] = c_{i a}^b: the linear action whose fields close under the
    commutator with the algebra's own constants."""
    n = L.dim
    return [[[L.constants[i][a][b] for b in range(n)] for a in range(n)]
            for i in range(n)]


def resonant_bivector(k: int, order: int) -> PoissonJet:
    """{x,y} = y, {x,z} = k z + y^k: a Poisson structure whose degree-k term
    is resonant with the linear part, so formal linearization stops at k."""
    return PoissonJet.from_brackets(3, order, {
        (0, 1): Jet(3, order, {(0, 1, 0): 1}),
        (0, 2): Jet(3, order, {(0, 0, 1): k, (0, k, 0): 1}),
    })


def poisson_problem(rng, name: str, order: int, scheduler: str) -> Problem:
    base = linear_bivector(algebra(name), order)
    moved = pushforward(base, near_identity(rng, base.nvars, order))
    return Problem("poisson", f"{name}-o{order}-{scheduler}", order, scheduler, moved)


def resonant_problem(rng, k: int, order: int, scheduler: str = "doubling") -> Problem:
    moved = pushforward(resonant_bivector(k, order), near_identity(rng, 3, order))
    return Problem("resonant", f"resonant-k{k}-o{order}", order, scheduler, moved,
                   expect_obstruction=k)


def zero_linear_problem(rng, order: int) -> Problem:
    """Two variables with {x,y} quadratic plus cubic: the isotropy algebra is
    abelian and acts trivially, so every degree-2 remainder is a class."""
    terms = {(2, 0): coefficient(rng), (1, 1): coefficient(rng),
             (0, 2): coefficient(rng)}
    if order >= 3:
        terms[(2, 1)] = coefficient(rng)
    pi = PoissonJet.from_brackets(2, order, {(0, 1): Jet(2, order, terms)})
    return Problem("zero-linear", f"zero-linear-o{order}", order, "doubling", pi,
                   expect_obstruction=2)


def action_problem(rng, order: int, scheduler: str = "doubling") -> Problem:
    L = algebra("so3")
    linear = ActionJet.linear(L, coadjoint_action_matrices(L), order)
    moved = conjugate_action(linear, near_identity(rng, 3, order))
    return Problem("action", f"so3-action-o{order}", order, scheduler, moved)


def levi_problem(rng, order: int) -> Problem:
    base = linear_bivector(algebra("gl2"), order)
    moved = pushforward(base, near_identity(rng, 4, order))
    eye = [[Fraction(int(t == s)) for s in range(4)] for t in range(4)]
    split = verify_levi_split(isotropy_from_linear_part(moved), eye[:3], eye[3:])
    return Problem("levi", f"gl2-levi-o{order}", order, "levi", moved, split=split)


def algebroid_problem(rng, order: int, scheduler: str = "doubling") -> Problem:
    """The so(3) action algebroid moved by a base change and an x-dependent
    frame change; anchors are carried one order deeper than the structure."""
    L = algebra("so3")
    model = action_algebroid(L, coadjoint_action_matrices(L), 3, order)
    base = near_identity(rng, 3, order + 1)
    frame = [[Jet(3, order + 1, {(0, 0, 0): 1}) if i == j else Jet.zero(3, order + 1)
              for j in range(3)] for i in range(3)]
    for i in range(3):
        j = (i + 2) % 3
        frame[i][j] = frame[i][j] + Jet(3, order + 1, {_unit(3, (i + 1) % 3): coefficient(rng)})
    moved = apply_algebroid_change(model, AlgebroidChange(base, frame))
    return Problem("algebroid", f"so3-algebroid-o{order}", order, scheduler, moved)


# ---------------------------------------------------------------------------
# problem files for the command line


def _constants_rows(L: LieAlgebra) -> list:
    return [[i, j, k, format_rational(L.constants[i][j][k])]
            for i in range(L.dim) for j in range(i + 1, L.dim) for k in range(L.dim)
            if L.constants[i][j][k]]


def problem_file(problem: Problem) -> tuple[str, dict]:
    """(command, JSON problem dict) running this problem through the CLI."""
    p = problem.payload
    if problem.kind in ("poisson", "levi", "resonant", "zero-linear"):
        names = VARIABLES[p.nvars]
        data = {
            "kind": "poisson",
            "variables": names,
            "order": problem.order,
            "brackets": {
                f"{names[i]},{names[j]}": format_polynomial(p.entries[i][j], names)
                for i in range(p.nvars) for j in range(i + 1, p.nvars)
                if not p.entries[i][j].is_zero()
            },
        }
        if problem.kind == "levi":
            data["levi_factor"] = {
                "s": [[format_rational(v) for v in row] for row in problem.split.s_basis],
                "r": [[format_rational(v) for v in row] for row in problem.split.r_basis],
            }
            return "levi", data
        data["scheduler"] = problem.scheduler
        return "linearize", data
    if problem.kind == "action":
        names = VARIABLES[p.nvars]
        gens = [name.upper() for name in names]
        return "linearize", {
            "kind": "action",
            "variables": names,
            "generators": gens,
            "order": problem.order,
            "scheduler": problem.scheduler,
            "constants": _constants_rows(p.algebra),
            "fields": {g: [format_polynomial(c, names) for c in p.fields[i]]
                       for i, g in enumerate(gens)},
        }
    if problem.kind == "algebroid":
        names = VARIABLES[p.base_dim]
        frame = [f"e{i + 1}" for i in range(p.rank)]
        return "algebroid", {
            "kind": "algebroid",
            "variables": names,
            "frame": frame,
            "order": problem.order,
            "scheduler": problem.scheduler,
            "structure": [
                [frame[i], frame[j], frame[k], format_polynomial(p.structure[i][j][k], names)]
                for i in range(p.rank) for j in range(i + 1, p.rank) for k in range(p.rank)
                if not p.structure[i][j][k].is_zero()
            ],
            "anchor": {frame[i]: [format_polynomial(c, names) for c in p.anchor[i]]
                       for i in range(p.rank)},
        }
    raise ValueError(f"no problem file for kind {problem.kind!r}")


# ---------------------------------------------------------------------------
# algebras in a random rational basis


def random_basis(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Seeded invertible rational matrix with small entries."""
    while True:
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)]
        if _inverse(rows) is not None:
            return rows


def rebased(L: LieAlgebra, basis) -> LieAlgebra:
    """Structure constants of L in the basis f_a = sum_i basis[a][i] e_i."""
    n = L.dim
    inv = _inverse(basis)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            bracket = L.bracket(list(basis[a]), list(basis[b]))
            coords = [sum((bracket[i] * inv[i][c] for i in range(n)), Fraction(0))
                      for c in range(n)]
            table[a][b] = coords
            table[b][a] = [-x for x in coords]
    return LieAlgebra(table)


def _inverse(rows):
    """Inverse by Gauss-Jordan over Fractions, or None if singular; row
    vector coordinates satisfy v = sum_c w_c rows[c] with w = v * inverse."""
    n = len(rows)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                q = work[r][col]
                work[r] = [x - q * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
