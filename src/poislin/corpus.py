"""Bundled example problems for the command line front end.

Each entry produces a ready-made problem dictionary in the documented input
schema, parameterized by truncation order, together with the command it is
meant to run through and the outcome that run should produce.  Entries are
deterministic: building one twice at the same order gives identical text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    command: str
    expected: str       # "linear", "obstruction", or "normal-form"
    default_order: int
    summary: str
    build: Callable[[int], dict]

    def problem(self, order: int | None = None) -> dict:
        return self.build(self.default_order if order is None else order)


def _so3_problem(order: int) -> dict:
    return {
        "kind": "poisson",
        "variables": ["x", "y", "z"],
        "order": order,
        "brackets": {"x,y": "z", "y,z": "x", "z,x": "y"},
    }


def _sl2_problem(order: int) -> dict:
    return {
        "kind": "poisson",
        "variables": ["x", "y", "z"],
        "order": order,
        "brackets": {"x,y": "-z", "y,z": "x", "z,x": "y"},
    }


def _abelian_x2_problem(order: int) -> dict:
    return {
        "kind": "poisson",
        "variables": ["x", "y"],
        "order": order,
        "brackets": {"x,y": "x^2"},
    }


def _gs_action_problem(order: int) -> dict:
    return {
        "kind": "action",
        "variables": ["x", "y", "z"],
        "generators": ["X", "Y", "Z"],
        "order": order,
        "constants": [[0, 1, 2, "-1"], [1, 2, 0, "1"], [2, 0, 1, "1"]],
        "fields": {
            "X": ["0", "z", "y"],
            "Y": ["z", "0", "x"],
            "Z": ["-y", "x", "0"],
        },
    }


def _gl2_levi_problem(order: int) -> dict:
    # sl(2) dual bracket plus a central w, pushed forward by z -> z + w^2,
    # which adds w^2 to {x, y} from order 2 on; the Levi run must restore the
    # constants on the simple rows while the center-center block rides along
    return {
        "kind": "poisson",
        "variables": ["x", "y", "z", "w"],
        "order": order,
        "brackets": {"x,y": "-z + w^2" if order >= 2 else "-z", "x,z": "-y", "y,z": "x"},
        "levi_factor": {
            "s": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
            "r": [["0", "0", "0", "1"]],
        },
    }


def _so3_algebroid_problem(order: int) -> dict:
    return {
        "kind": "algebroid",
        "variables": ["x", "y", "z"],
        "frame": ["e1", "e2", "e3"],
        "order": order,
        "structure": [
            ["e1", "e2", "e3", "1"],
            ["e2", "e3", "e1", "1"],
            ["e1", "e3", "e2", "-1"],
        ],
        "anchor": {
            "e1": ["0", "z", "-y"],
            "e2": ["-z", "0", "x"],
            "e3": ["y", "-x", "0"],
        },
    }


ENTRIES: dict[str, CorpusEntry] = {
    entry.name: entry
    for entry in [
        CorpusEntry(
            name="so3-linear",
            command="linearize",
            expected="linear",
            default_order=6,
            summary=(
                "Linear bracket of the rotation algebra on its dual; already "
                "in normal form, so the run returns the identity change."
            ),
            build=_so3_problem,
        ),
        CorpusEntry(
            name="sl2-linear",
            command="linearize",
            expected="linear",
            default_order=6,
            summary=(
                "Linear bracket of the split three dimensional simple algebra "
                "on its dual."
            ),
            build=_sl2_problem,
        ),
        CorpusEntry(
            name="weinstein-sl2-flat",
            command="linearize",
            expected="linear",
            default_order=10,
            summary=(
                "Truncation of the classical smooth counterexample: the "
                "linear sl(2) dual bracket plus a perturbation whose "
                "derivatives all vanish at the origin.  Every polynomial "
                "truncation is exactly the linear bracket, so the engine has "
                "nothing to remove and returns the identity change at every "
                "order.  Formal linearization is blind to flat terms."
            ),
            build=_sl2_problem,
        ),
        CorpusEntry(
            name="guillemin-sternberg-action",
            command="linearize",
            expected="linear",
            default_order=6,
            summary=(
                "Linear part of the classical smooth sl(2) action on 3-space "
                "whose flat perturbation is not linearizable; any truncation "
                "is the linear action itself, so the identity is returned."
            ),
            build=_gs_action_problem,
        ),
        CorpusEntry(
            name="abelian-x2",
            command="linearize",
            expected="obstruction",
            default_order=4,
            summary=(
                "Quadratic bracket {x,y} = x^2 with abelian linear part; the "
                "degree 2 remainder is a nonzero cohomology class, so the run "
                "exits with an obstruction certificate."
            ),
            build=_abelian_x2_problem,
        ),
        CorpusEntry(
            name="gl2-levi",
            command="levi",
            expected="normal-form",
            default_order=6,
            summary=(
                "Dual bracket of the four dimensional matrix algebra (simple "
                "part plus one dimensional center) with a quadratic "
                "perturbation; the Levi run restores exact structure "
                "constants on the simple-simple and simple-center blocks."
            ),
            build=_gl2_levi_problem,
        ),
        CorpusEntry(
            name="so3-coadjoint-algebroid",
            command="algebroid",
            expected="linear",
            default_order=5,
            summary=(
                "Action algebroid of the rotation algebra acting on the dual "
                "of its defining space; linear already, the run certifies it "
                "and returns the identity frame and base change."
            ),
            build=_so3_algebroid_problem,
        ),
    ]
}


def get(name: str) -> CorpusEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        known = ", ".join(sorted(ENTRIES))
        raise KeyError(f"unknown corpus entry {name!r}; known entries: {known}")


def names() -> list[str]:
    return sorted(ENTRIES)
