"""Truncated Lie algebroid structures through their fiberwise-linear duals.

A rank-r algebroid jet over a ball around the origin of R^n is held as one
state, the bivector it induces on the dual coordinates (x^1..x^n, e_1..e_r),

    {e_i, e_j} = sum_k c^k_ij(x) e_k,   {e_i, x^j} = B^j_i(x),   {x^i, x^j} = 0,

for structure-function jets c^k_ij(x) and anchor-component jets B^l_i(x),
which are read-only views of it.  One truncated Jacobi identity for that
bivector encodes the algebroid Jacobi identity and the bracket compatibility
of the anchor at once.  Every engine in this module therefore runs on the
dual bivector; what makes the runs algebroid-aware is the fiber-degree
grading.  Giving each e-variable weight one and each x-variable weight zero,
admissible coordinate changes keep base images free of e-variables and fiber
images of weight exactly one, and the Chevalley-Eilenberg complex of the dual
isotropy splits along the same weight.  Corrections are solved inside the
weight-zero graded piece, so emitted changes are always a base
diffeomorphism jet plus a frame change.  That piece is not a second complex
class: it is a `cohomology.CochainComplex` whose slot rule keeps the
monomials of one fiber degree on each subset of the coadjoint polynomial
module of the dual isotropy, so its layout, matrices, solvers and ranks come
from the same code as the full complex's.

The fiber exponents of a dual jet are the low `rank` digits of its packed
keys, and one pair reads and writes them: `_split` cuts a dual jet into its
base-variable coefficient jets, and `_join` writes them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cohomology import (
    Cochain,
    CochainComplex,
    ObstructionClass,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
)
from .liealg import LeviSplit, LieAlgebra
from .linalg import exact_scalar, rationals
from .normalform import (
    ActionJet,
    _LeviProblem,
    _PoissonProblem,
    _remainder_vector,
    _require_certified_split,
    _run_scheduler,
    _SubSolve,
    _target,
)
from .polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    packed_basis,
    pushforward,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _split(jet: Jet, base_dim: int, weight: int, order: int) -> list | None:
    """The base-variable jets at `order` of a dual-variable jet of fiber
    degree `weight`: [c] for c(x), or [c_1..c_r] for sum_k c_k(x) e_k; None
    when a term has another fiber degree."""
    rank, radix = jet.nvars - base_dim, jet.order + 1
    cut = radix ** rank
    slots = {radix ** (rank - 1 - k): k for k in range(rank)} if weight else {0: 0}
    parts = [{} for _ in slots]
    for deg in range(jet.order + 1):
        for key, v in jet.packed_numerators(deg).items():
            k = slots.get(key % cut)
            if k is None:
                return None
            parts[k].setdefault(deg - weight, {})[key // cut] = v
    return [Jet.from_packed(base_dim, jet.order, jet.den, part).truncate(order)
            for part in parts]


def _join(jets, base_dim: int, rank: int, weight: int, order: int) -> Jet:
    """The dual-variable jet at `order` of base-variable jets: c(x) for [c],
    or sum_k c_k(x) e_k for [c_1..c_r], dropping what falls above the order;
    the inverse of `_split`."""
    radix, den = order + 1, lcm(*(jet.den for jet in jets))
    cut = radix ** rank
    num: dict = {}
    for k, jet in enumerate(jets):
        low, scale = radix ** (rank - 1 - k) if weight else 0, den // jet.den
        # keys stay in base order+1: only the degrees shift by the weight
        jet = jet.truncate(order)
        for deg in range(order + 1 - weight):
            for key, v in jet.packed_numerators(deg).items():
                num.setdefault(deg + weight, {})[key * cut + low] = v * scale
    return Jet.from_packed(base_dim + rank, order, den, num)


def _read_views(dual: PoissonJet, base_dim: int) -> tuple:
    """(structure, anchor) read off a fiberwise linear dual."""
    n, order, rows = base_dim, dual.order - 1, dual.entries[base_dim:]
    structure = tuple(tuple(tuple(_split(jet, n, 1, order)) for jet in row[n:]) for row in rows)
    anchor = tuple(tuple(_split(jet, n, 0, order + 1)[0] for jet in row[:n]) for row in rows)
    return structure, anchor


def _linear_data(dual: PoissonJet, base_dim: int) -> tuple:
    """(fiber algebra, anchor matrices) of a fiberwise linear dual, read off
    its linear constants: the fiber algebra has the structure constants
    c^k_ij(0), and action[i][l][k] is the x^k coefficient of B^l_i."""
    n, sections = base_dim, dual.linear_constants()[base_dim:]
    # the fiber block of the validated dual's isotropy, a subalgebra
    fiber = LieAlgebra._trusted([[row[n:] for row in plane[n:]] for plane in sections])
    return fiber, [[row[:n] for row in plane[:n]] for plane in sections]


# ---------------------------------------------------------------------------
# algebroid jets and their duals


class AlgebroidJet:
    """Order-N jet of a Lie algebroid around a fixed point of the anchor.

    structure[i][j][k] is the base-variable jet multiplying e_k in the
    bracket of the frame sections e_i and e_j, truncated at N; anchor[i][l]
    is component l of the vector field the anchor assigns to e_i, truncated
    at N+1 and vanishing at the origin.  The dual bivector truncates at total
    degree N+1, and with fiber variables counting one degree the structure
    terms c(x)e fill it exactly while anchors reach one x-degree further;
    carrying that extra degree keeps the class closed under frame and base
    changes.  Construction certifies the data by validating the truncated
    Jacobi identity of the dual, and the dual is the jet's one state:
    structure and anchor are read-only views, the constructor's checked
    inputs or, for a jet wrapped around a dual, read off it on first use.
    """

    __slots__ = ("base_dim", "rank", "order", "_dual", "_views")

    def __init__(self, base_dim: int, rank: int, structure, anchor, order: int):
        if base_dim < 0 or rank < 0 or order < 1:
            raise ValueError("need base_dim, rank >= 0 and order >= 1")
        structure = tuple(
            tuple(tuple(row) for row in block) for block in structure
        )
        anchor = tuple(tuple(row) for row in anchor)
        if len(structure) != rank or any(
            len(block) != rank or any(len(row) != rank for row in block)
            for block in structure
        ):
            raise ValueError("structure functions must form a rank^3 grid")
        if len(anchor) != rank or any(len(row) != base_dim for row in anchor):
            raise ValueError("anchor must give base_dim components per section")
        for block in structure:
            for row in block:
                for jet in row:
                    if not isinstance(jet, Jet) or jet.nvars != base_dim \
                            or jet.order != order:
                        raise ValueError(
                            "structure entries must be base-variable jets at the stated order"
                        )
        for row in anchor:
            for jet in row:
                if not isinstance(jet, Jet) or jet.nvars != base_dim \
                        or jet.order != order + 1:
                    raise ValueError(
                        "anchor entries must be base-variable jets one order deeper"
                    )
        for i in range(rank):
            for j in range(i, rank):
                for k in range(rank):
                    if not (structure[i][j][k] + structure[j][i][k]).is_zero():
                        raise ValueError(
                            f"structure functions ({i},{j}) are not antisymmetric"
                        )
        for i in range(rank):
            for l in range(base_dim):
                if anchor[i][l].constant_term:
                    raise ValueError("anchor must vanish at the origin")
        self.base_dim, self.rank, self.order = base_dim, rank, order
        # the dual's constructor reruns antisymmetry and runs truncated Jacobi
        dual = trusted_dual(base_dim, rank, structure, anchor, order)
        self._dual, self._views = PoissonJet(dual.entries, order + 1), (structure, anchor)

    @classmethod
    def _from_dual(cls, dual: PoissonJet, base_dim: int) -> "AlgebroidJet":
        """The jet of a fiberwise linear dual of order >= 2, with no check."""
        jet = cls.__new__(cls)
        jet.base_dim, jet.rank, jet.order = base_dim, dual.nvars - base_dim, dual.order - 1
        jet._dual, jet._views = dual, None
        return jet

    def _view(self, index: int) -> tuple:
        if self._views is None:
            self._views = _read_views(self._dual, self.base_dim)
        return self._views[index]

    @property
    def structure(self) -> tuple:
        return self._view(0)

    @property
    def anchor(self) -> tuple:
        return self._view(1)

    def linear_data(self) -> tuple:
        """(fiber algebra, anchor matrices) at the origin: the Lie algebra of
        the structure constants c^k_ij(0), and action[i][l][k], the x^k
        coefficient of anchor[i][l]."""
        return _linear_data(self._dual, self.base_dim)

    def fiber_algebra(self) -> LieAlgebra:
        """Lie algebra of the structure constants at the origin."""
        return self.linear_data()[0]

    def is_linear(self) -> bool:
        """Constant structure functions and linear anchors."""
        return self._dual.is_linear()

    def linear_part(self) -> "LinearAlgebroid":
        if not self.is_linear():
            raise ValueError("jet carries nonlinear terms")
        return LinearAlgebroid(*self.linear_data())

    def truncate(self, order: int) -> "AlgebroidJet":
        """The jet at another order: lowering it keeps the Jacobi identity
        the dual was checked for, raising it checks the identity again."""
        if order == self.order:
            return self
        if order < 1:
            raise ValueError("need base_dim, rank >= 0 and order >= 1")
        dual = self._dual.truncate(order + 1)
        if order > self.order:
            dual = PoissonJet(dual.entries, order + 1)
        return AlgebroidJet._from_dual(dual, self.base_dim)

    def __eq__(self, other):
        if not isinstance(other, AlgebroidJet):
            return NotImplemented
        return ((self.base_dim, self.order) == (other.base_dim, other.order)
                and self._dual == other._dual)

    def __repr__(self):
        return (
            f"<AlgebroidJet rank {self.rank} over R^{self.base_dim} | "
            f"order {self.order}>"
        )


def trusted_dual(base_dim: int, rank: int, structure, anchor, order: int) -> PoissonJet:
    """The dual bivector AlgebroidJet builds from the same data, with no
    check: for data whose Jacobi identity is already certified, or is
    verified afterwards by a morphism equation."""
    n, total = base_dim, base_dim + rank
    grid = [[Jet.zero(total, order + 1)] * total for _ in range(total)]
    for i in range(rank):
        for j in range(i + 1, rank):
            jet = _join(structure[i][j], n, rank, 1, order + 1)
            grid[n + i][n + j] = jet
            grid[n + j][n + i] = -jet
        for l in range(n):
            jet = _join([anchor[i][l]], n, rank, 0, order + 1)
            grid[n + i][l] = jet
            grid[l][n + i] = -jet
    return PoissonJet._trusted(grid, total, order + 1)


def algebroid_to_poisson(A: AlgebroidJet) -> PoissonJet:
    """Dual bivector on (x, e) variables, base variables first, truncated one
    degree above the algebroid order so the structure terms fit exactly."""
    return A._dual


def fiberwise_linearity_check(pi: PoissonJet, base_dim: int) -> bool:
    """Whether the bivector respects the declared base/fiber splitting.

    With the first base_dim variables basic and the rest fiber coordinates:
    fiber-fiber entries carry fiber-degree exactly one, fiber-base entries
    are free of fiber variables, and base-base entries vanish.
    """
    if not 0 <= base_dim <= pi.nvars:
        raise ValueError("base dimension out of range")
    n, rows = pi.nvars, pi.entries
    return all(rows[a][b].is_zero() if b < base_dim
               else _split(rows[a][b], base_dim, a >= base_dim, pi.order) is not None
               for a in range(n) for b in range(a + 1, n))


def poisson_to_algebroid(pi: PoissonJet, base_dim: int) -> AlgebroidJet:
    """The algebroid jet of a fiberwise linear bivector, which becomes its
    state as it is; inverse of algebroid_to_poisson on its image."""
    if not fiberwise_linearity_check(pi, base_dim):
        raise ValueError("bivector is not fiberwise linear for this splitting")
    if pi.order < 2:
        raise ValueError("bivector order too small to carry an algebroid jet")
    return AlgebroidJet._from_dual(pi, base_dim)


# ---------------------------------------------------------------------------
# changes of frame and base coordinates


def is_graded_change(change: CoordChange, base_dim: int) -> bool:
    """Whether a dual-variable change is a base diffeomorphism jet plus a
    frame change: base images free of fiber variables, fiber images of
    fiber-degree exactly one."""
    return all(_split(comp, base_dim, a >= base_dim, change.order) is not None
               for a, comp in enumerate(change.components))


@dataclass
class AlgebroidChange:
    """Base coordinate change plus an x-dependent frame change.

    base acts on the x-variables alone; frame[i][j] multiplies e_j in the
    image of e_i.  The pair is the same data as a grading-preserving change
    on the dual variables, and to_dual/from_dual convert losslessly.
    """

    base: CoordChange
    frame: tuple

    def __post_init__(self):
        self.frame = tuple(tuple(row) for row in self.frame)
        n = self.base.nvars
        order = self.base.order
        for row in self.frame:
            if len(row) != len(self.frame):
                raise ValueError("frame matrix must be square")
            for jet in row:
                if not isinstance(jet, Jet) or jet.nvars != n or jet.order != order:
                    raise ValueError("frame entries must be base-variable jets")

    @property
    def rank(self) -> int:
        return len(self.frame)

    @classmethod
    def identity(cls, base_dim: int, rank: int, order: int) -> "AlgebroidChange":
        frame = [
            [Jet.one(base_dim, order) if i == j else Jet.zero(base_dim, order)
             for j in range(rank)]
            for i in range(rank)
        ]
        return cls(CoordChange.identity(base_dim, order), frame)

    def to_dual(self) -> CoordChange:
        n, r, order = self.base.nvars, self.rank, self.base.order
        # a frame entry c is written as c e_k, so its degree-N terms drop out
        return CoordChange([_join([c], n, r, 0, order) for c in self.base.components]
                           + [_join(row, n, r, 1, order) for row in self.frame])

    @classmethod
    def from_dual(cls, change: CoordChange, base_dim: int) -> "AlgebroidChange":
        parts = [_split(comp, base_dim, a >= base_dim, change.order)
                 for a, comp in enumerate(change.components)]
        if None in parts:
            raise ValueError("change does not preserve the base/fiber grading")
        return cls(CoordChange([part[0] for part in parts[:base_dim]]), parts[base_dim:])

    def __eq__(self, other):
        if not isinstance(other, AlgebroidChange):
            return NotImplemented
        return self.base == other.base and self.frame == other.frame


def apply_algebroid_change(A: AlgebroidJet, change: AlgebroidChange) -> AlgebroidJet:
    """Transport an algebroid jet along a base change and frame change."""
    dual = algebroid_to_poisson(A)
    moved = pushforward(dual, change.to_dual().truncate(dual.order))
    return poisson_to_algebroid(moved, A.base_dim)


# ---------------------------------------------------------------------------
# constant-coefficient models


@dataclass
class LinearAlgebroid:
    """Fiber Lie algebra acting linearly on the base: the normal form every
    linearization targets.  action[i] is the anchor matrix of section e_i;
    the matrices must close under the commutator the way the anchors of a
    bracket-compatible frame do, which is checked on construction."""

    algebra: LieAlgebra
    action: tuple

    def __post_init__(self):
        self.action = tuple(
            tuple(tuple(exact_scalar(x) for x in row) for row in mat)
            for mat in self.action
        )
        if len(self.action) != self.algebra.dim:
            raise ValueError("need one anchor matrix per section")
        base_dim = len(self.action[0]) if self.action else 0
        for mat in self.action:
            if len(mat) != base_dim or any(len(row) != base_dim for row in mat):
                raise ValueError("anchor matrices must be square and equal-sized")
        if base_dim:
            # anchor compatibility is exactly the field-morphism property
            ActionJet.linear(self.algebra, self.action, 2)

    @property
    def rank(self) -> int:
        return self.algebra.dim

    @property
    def base_dim(self) -> int:
        return len(self.action[0]) if self.action else 0

    def to_algebroid(self, order: int) -> AlgebroidJet:
        """The jet of the model, unchecked: over a Lie algebra, the anchor
        check made on construction is the jet's Jacobi identity."""
        data = _constant_data(self.algebra, self.action, self.base_dim, order)
        return AlgebroidJet._from_dual(trusted_dual(self.base_dim, self.rank, *data, order),
                                       self.base_dim)


def action_algebroid(algebra: LieAlgebra, matrices, base_dim: int,
                     order: int) -> AlgebroidJet:
    """Algebroid with constant structure functions and linear anchors."""
    return AlgebroidJet(base_dim, algebra.dim,
                        *_constant_data(algebra, matrices, base_dim, order), order)


def _constant_data(algebra: LieAlgebra, matrices, base_dim: int, order: int) -> tuple:
    """(structure, anchor) of constant structure functions and linear anchors."""
    rank = algebra.dim
    structure = [
        [[Jet(base_dim, order, {(0,) * base_dim: algebra.constants[i][j][k]})
          for k in range(rank)]
         for j in range(rank)]
        for i in range(rank)
    ]
    return structure, [[Jet.linear(row, order + 1) for row in mat] for mat in matrices]


# ---------------------------------------------------------------------------
# graded cochain complex of the dual isotropy

class _DualGradedComplex(CochainComplex):
    """Fiber-degree graded piece of the Chevalley-Eilenberg complex of the
    dual isotropy algebra with values in degree-d polynomials.

    The complex of the coadjoint module `module` under a slot rule: subset S
    of generators keeps the monomials of fiber-degree
    (#fiber generators in S) - (|S| - 1).  Base generators act with weight
    -1 and fiber generators with weight 0, so the differential maps kept
    slots to kept slots; the graded piece is a subcomplex.
    """

    def __init__(self, iso: LieAlgebra, base_dim: int, degree: int):
        super().__init__()
        self.module = induced_polynomial_module(iso, iso.dim, coadjoint_rep(iso), degree)
        self.base_dim = base_dim
        self._by_edeg: dict = {}

    def slot_basis(self, subset, order=None) -> tuple:
        """(kept monomials, their module indices) on a subset, in module
        order; with an `order`, those monomials' `polyalg.packed_basis` at
        it.  Built once per fiber degree and order."""
        edeg = sum(1 for a in subset if a >= self.base_dim) - (len(subset) - 1)
        cached = self._by_edeg.get((edeg, order))
        if cached is None:
            if order is not None:
                cached = packed_basis(self.slot_basis(subset)[0], order)
            else:
                labels = self.module.labels
                kept = [i for i, m in enumerate(labels) if sum(m[self.base_dim:]) == edeg]
                cached = ([labels[i] for i in kept], kept)
            self._by_edeg[edeg, order] = cached
        return cached

    def slots(self, subset) -> list:
        """Module indices kept on a subset, in module order."""
        return self.slot_basis(subset)[1]

    def h_dim(self, r: int) -> int:
        return cohomology_dimension(self, r)


# graded complexes, cached by (iso, base_dim, degree) like their modules
_graded_complex = lru_cache(maxsize=64)(_DualGradedComplex)


# ---------------------------------------------------------------------------
# linearization


def _embed_obstruction(cx: _DualGradedComplex, vec, lam) -> ObstructionClass:
    """Lift a graded certificate into the full cochain complex.

    The graded pieces of the full complex are preserved by the differential,
    so a functional supported on one graded piece that annihilates the graded
    coboundaries annihilates all full coboundaries as well.
    """
    module = cx.module
    full_vec = [ZERO] * module.cochain_dim(2)
    full_lam = [ZERO] * module.cochain_dim(2)
    pos = 0
    for s_pos, pair in enumerate(cx.layout(2)[0]):
        for i in cx.slots(pair):
            full_vec[s_pos * module.dim + i] = vec[pos]
            full_lam[s_pos * module.dim + i] = lam[pos]
            pos += 1
    return ObstructionClass(
        Cochain(module, 2, full_vec), full_lam, cx.h_dim(2)
    )


class _GradedProblem(_PoissonProblem):
    """The bracket adapter on an algebroid dual, made with `base_dim`: the
    2-cochain sub-solve runs in the fiber-degree graded complex, so every
    correction keeps the grading, and the run returns the algebroid change
    and linear model."""

    unfinished = "dual bivector not linear after all degrees were cleared"

    def solves(self, degree: int):
        cx, order = _graded_complex(self.algebra, self.base_dim, degree), self.state.order
        blocks = [(self.state.entries[a][b], cx.slot_basis((a, b), order)[1])
                  for a, b in cx.layout(2)[0]]
        targets = [(a, cx.slot_basis((a,), order)[0]) for a in range(self.state.nvars)]
        yield _SubSolve(cx, 2, *_remainder_vector(blocks, degree), targets)

    def obstruction(self, sub, functional) -> ObstructionClass:
        return _embed_obstruction(sub.complex, sub.vector, rationals(functional))

    def finish(self) -> tuple:
        change, dual = super().finish()
        # from_dual rejects any change that broke the grading
        return (AlgebroidChange.from_dual(change, self.base_dim),
                LinearAlgebroid(*_linear_data(dual, self.base_dim)))


def linearize_algebroid(A: AlgebroidJet, scheduler: str = "doubling",
                        order: int | None = None, radius=ONE):
    """Normalize an algebroid jet to constant structure functions and linear
    anchors.

    Runs on the dual bivector with corrections restricted to the fiber-degree
    grading, so every emitted change is a base change plus a frame change.
    Returns (AlgebroidChange, LinearAlgebroid, IterationTrace) on success, or
    (ObstructionClass, IterationTrace) when a graded degree-d class survives;
    the certificate is embedded in the full cochain complex of the dual
    isotropy and its h_dim counts the grading-compatible classes.
    """
    order, A = _target(A, order, "jet's")
    problem = _GradedProblem(algebroid_to_poisson(A), base_dim=A.base_dim)
    return _run_scheduler(problem, scheduler, order + 1, radius)


# ---------------------------------------------------------------------------
# Levi normalization of the fiber algebra


def levi_algebroid(A: AlgebroidJet, split: LeviSplit, order: int | None = None,
                   radius=ONE):
    """Normalize the semisimple part of an algebroid jet.

    split must be a LeviSplit of the fiber algebra at the origin, which it
    certified when it was made; another algebra's raises SplitNotCertified.
    In the adapted frame (s-sections first) the returned jet has
    constant s-s and s-r structure functions and exactly linear anchors on
    the s-sections through the truncation; the rest of the data rides along
    untouched.  Returns (AlgebroidChange, AlgebroidJet, IterationTrace).
    """
    _require_certified_split(A.fiber_algebra(), split, "the fiber isotropy")
    order, A = _target(A, order, "jet's")
    n = A.base_dim
    problem = _LeviProblem(algebroid_to_poisson(A), split, n)
    change, dual, trace = _run_scheduler(problem, "degree", order + 1, radius)
    return AlgebroidChange.from_dual(change, n), poisson_to_algebroid(dual, n), trace
