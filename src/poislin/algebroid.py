"""Truncated Lie algebroid structures through their fiberwise-linear duals.

A rank-r algebroid jet over a ball around the origin of R^n is stored as
structure-function jets c^k_ij(x) and anchor-component jets B^l_i(x).  On the
dual coordinates (x^1..x^n, e_1..e_r) it induces the bivector

    {e_i, e_j} = sum_k c^k_ij(x) e_k,   {e_i, x^j} = B^j_i(x),   {x^i, x^j} = 0,

and one truncated Jacobi identity for that bivector encodes the algebroid
Jacobi identity and the bracket compatibility of the anchor at once.  Every
engine in this module therefore runs on the dual bivector; what makes the
runs algebroid-aware is the fiber-degree grading.  Giving each e-variable
weight one and each x-variable weight zero, admissible coordinate changes
keep base images free of e-variables and fiber images of weight exactly one,
and the Chevalley-Eilenberg complex of the dual isotropy splits along the
same weight.  Corrections are solved inside the weight-zero graded piece, so
emitted changes are always a base diffeomorphism jet plus a frame change.
That piece is not a second complex: it is a slot rule on the coadjoint
polynomial module of the dual isotropy, and `cohomology._build_differential`
builds its matrices from the kept rows and columns of the full complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    Cochain,
    LRUCache,
    ObstructionClass,
    _build_differential,
    _cochain_layout,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
)
from .liealg import LeviSplit, LieAlgebra
from .linalg import LinearSolver
from .normalform import (
    ActionJet,
    _LeviProblem,
    _PoissonProblem,
    _remainder_vector,
    _require_certified_split,
    _run_scheduler,
    _SubSolve,
)
from .polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    pushforward,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _fiber_degree(mono, base_dim: int) -> int:
    return sum(mono[base_dim:])


def _promote(jet: Jet, base_dim: int, rank: int, order: int) -> Jet:
    """Reinterpret a base-variable jet in the dual variables."""
    pad = (0,) * rank
    return Jet._raw(
        base_dim + rank, order, {mono + pad: c for mono, c in jet._c.items()}
    )


def _base_part(jet: Jet, base_dim: int, order: int) -> Jet:
    """Drop the fiber variables from a jet that does not use them."""
    coeffs = {}
    for mono, c in jet._c.items():
        if any(mono[base_dim:]):
            raise ValueError("jet depends on fiber variables")
        coeffs[mono[:base_dim]] = c
    return Jet._raw(base_dim, order, coeffs)


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
    Jacobi identity of the dual.
    """

    __slots__ = ("base_dim", "rank", "structure", "anchor", "order", "_dual")

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
        self.base_dim = base_dim
        self.rank = rank
        self.structure = structure
        self.anchor = anchor
        self.order = order
        self._dual = self._build_dual()

    def _build_dual(self) -> PoissonJet:
        n, r, order = self.base_dim, self.rank, self.order
        total = n + r
        dual_order = order + 1
        grid = [[Jet.zero(total, dual_order) for _ in range(total)] for _ in range(total)]
        for i in range(r):
            for j in range(i + 1, r):
                coeffs = {}
                for k in range(r):
                    unit = tuple(1 if t == k else 0 for t in range(r))
                    for mono, c in self.structure[i][j][k]._c.items():
                        coeffs[mono + unit] = coeffs.get(mono + unit, ZERO) + c
                jet = Jet(total, dual_order, coeffs)
                grid[n + i][n + j] = jet
                grid[n + j][n + i] = -jet
            for l in range(n):
                jet = _promote(self.anchor[i][l], n, r, dual_order)
                grid[n + i][l] = jet
                grid[l][n + i] = -jet
        # the constructor reruns antisymmetry and runs truncated Jacobi
        return PoissonJet(grid, dual_order)

    def fiber_algebra(self) -> LieAlgebra:
        """Lie algebra of the structure constants at the origin."""
        zero = (0,) * self.base_dim
        c = [
            [[self.structure[i][j][k].coefficient(zero) for k in range(self.rank)]
             for j in range(self.rank)]
            for i in range(self.rank)
        ]
        return LieAlgebra(c)

    def is_linear(self) -> bool:
        """Constant structure functions and linear anchors."""
        return all(
            jet.highest_degree() in (None, 0)
            for block in self.structure for row in block for jet in row
        ) and all(
            jet.highest_degree() in (None, 1)
            for row in self.anchor for jet in row
        )

    def linear_part(self) -> "LinearAlgebroid":
        if not self.is_linear():
            raise ValueError("jet carries nonlinear terms")
        zero = (0,) * self.base_dim
        unit = lambda k: tuple(1 if t == k else 0 for t in range(self.base_dim))
        mats = [
            [[self.anchor[i][l].coefficient(unit(k)) for k in range(self.base_dim)]
             for l in range(self.base_dim)]
            for i in range(self.rank)
        ]
        return LinearAlgebroid(self.fiber_algebra(), mats)

    def truncate(self, order: int) -> "AlgebroidJet":
        return AlgebroidJet(
            self.base_dim,
            self.rank,
            [[[jet.truncate(order) for jet in row] for row in block]
             for block in self.structure],
            [[jet.truncate(order + 1) for jet in row] for row in self.anchor],
            order,
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebroidJet):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.rank == other.rank
            and self.order == other.order
            and self.structure == other.structure
            and self.anchor == other.anchor
        )

    def __repr__(self):
        return (
            f"<AlgebroidJet rank {self.rank} over R^{self.base_dim} | "
            f"order {self.order}>"
        )


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
    n = pi.nvars
    for a in range(n):
        for b in range(a + 1, n):
            entry = pi.entries[a][b]
            if b < base_dim:
                if not entry.is_zero():
                    return False
            elif a < base_dim:
                if any(_fiber_degree(m, base_dim) for m in entry._c):
                    return False
            else:
                if any(_fiber_degree(m, base_dim) != 1 for m in entry._c):
                    return False
    return True


def poisson_to_algebroid(pi: PoissonJet, base_dim: int) -> AlgebroidJet:
    """Read structure functions and anchor components back off a fiberwise
    linear bivector; inverse of algebroid_to_poisson on its image."""
    if not fiberwise_linearity_check(pi, base_dim):
        raise ValueError("bivector is not fiberwise linear for this splitting")
    if pi.order < 1:
        raise ValueError("bivector order too small to carry an algebroid jet")
    n = base_dim
    rank = pi.nvars - n
    order = pi.order - 1
    structure = [
        [[Jet.zero(n, order) for _ in range(rank)] for _ in range(rank)]
        for _ in range(rank)
    ]
    anchor = [[Jet.zero(n, order + 1) for _ in range(n)] for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            blocks = [{} for _ in range(rank)]
            for mono, c in pi.entries[n + i][n + j]._c.items():
                k = next(t for t in range(rank) if mono[n + t])
                blocks[k][mono[:n]] = c
            for k in range(rank):
                jet = Jet(n, order, blocks[k])
                structure[i][j][k] = jet
                structure[j][i][k] = -jet
        for l in range(n):
            anchor[i][l] = _base_part(pi.entries[n + i][l], n, order + 1)
    return AlgebroidJet(n, rank, structure, anchor, order)


# ---------------------------------------------------------------------------
# changes of frame and base coordinates


def is_graded_change(change: CoordChange, base_dim: int) -> bool:
    """Whether a dual-variable change is a base diffeomorphism jet plus a
    frame change: base images free of fiber variables, fiber images of
    fiber-degree exactly one."""
    for a, comp in enumerate(change.components):
        want = 0 if a < base_dim else 1
        if any(_fiber_degree(m, base_dim) != want for m in comp._c):
            return False
    return True


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
        n = self.base.nvars
        r = self.rank
        order = self.base.order
        comps = [_promote(c, n, r, order) for c in self.base.components]
        for i in range(r):
            coeffs = {}
            for j in range(r):
                unit = tuple(1 if t == j else 0 for t in range(r))
                for mono, c in self.frame[i][j]._c.items():
                    if sum(mono) + 1 <= order:
                        key = mono + unit
                        coeffs[key] = coeffs.get(key, ZERO) + c
            comps.append(Jet(n + r, order, coeffs))
        return CoordChange(comps)

    @classmethod
    def from_dual(cls, change: CoordChange, base_dim: int) -> "AlgebroidChange":
        if not is_graded_change(change, base_dim):
            raise ValueError("change does not preserve the base/fiber grading")
        n = base_dim
        r = change.nvars - n
        order = change.order
        base = CoordChange(
            [_base_part(c, n, order) for c in change.components[:n]]
        )
        frame = []
        for i in range(r):
            row = [{} for _ in range(r)]
            for mono, c in change.components[n + i]._c.items():
                j = next(t for t in range(r) if mono[n + t])
                row[j][mono[:n]] = c
            frame.append([Jet(n, order, blk) for blk in row])
        return cls(base, frame)

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
            tuple(tuple(Fraction(x) for x in row) for row in mat)
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
        return action_algebroid(self.algebra, self.action, self.base_dim, order)


def action_algebroid(algebra: LieAlgebra, matrices, base_dim: int,
                     order: int) -> AlgebroidJet:
    """Algebroid with constant structure functions and linear anchors."""
    rank = algebra.dim
    structure = [
        [[Jet(base_dim, order, {(0,) * base_dim: algebra.constants[i][j][k]})
          for k in range(rank)]
         for j in range(rank)]
        for i in range(rank)
    ]
    unit = lambda k: tuple(1 if t == k else 0 for t in range(base_dim))
    anchor = [
        [Jet(base_dim, order + 1,
             {unit(k): matrices[i][l][k] for k in range(base_dim)})
         for l in range(base_dim)]
        for i in range(rank)
    ]
    return AlgebroidJet(base_dim, rank, structure, anchor, order)


# ---------------------------------------------------------------------------
# graded cochain complex of the dual isotropy

_GRADED_CACHE = LRUCache()


class _DualGradedComplex:
    """Fiber-degree graded piece of the Chevalley-Eilenberg complex of the
    dual isotropy algebra with values in degree-d polynomials.

    A view over the coadjoint module `module`: subset S of generators keeps
    the monomials of fiber-degree (#fiber generators in S) - (|S| - 1).  Base
    generators act with weight -1 and fiber generators with weight 0, so the
    differential maps kept slots to kept slots; the graded piece is a
    subcomplex, and the module's own builder gives its matrices from the
    kept rows and columns alone.
    """

    def __init__(self, iso: LieAlgebra, base_dim: int, degree: int):
        self.module = induced_polynomial_module(iso, iso.dim, coadjoint_rep(iso), degree)
        self.base_dim = base_dim
        self._by_edeg: dict = {}
        self._layout: dict = {}
        self._mats: dict = {}
        self._solver_cache: dict = {}

    def _slot(self, subset) -> tuple:
        edeg = sum(1 for a in subset if a >= self.base_dim) - (len(subset) - 1)
        cached = self._by_edeg.get(edeg)
        if cached is None:
            labels = self.module.labels
            kept = [i for i, m in enumerate(labels)
                    if _fiber_degree(m, self.base_dim) == edeg]
            basis = [labels[i] for i in kept]
            cached = (kept, basis, {m: pos for pos, m in enumerate(basis)})
            self._by_edeg[edeg] = cached
        return cached

    def slots(self, subset) -> list:
        """Module indices kept on a subset, in module order."""
        return self._slot(subset)[0]

    def slot_basis(self, subset) -> tuple:
        """(kept monomials, monomial -> position) on a subset."""
        return self._slot(subset)[1:]

    def layout(self, r: int):
        """(subsets, offsets, total dimension) of graded C^r."""
        cached = self._layout.get(r)
        if cached is None:
            cached = _cochain_layout(self.module, r, self.slots)
            self._layout[r] = cached
        return cached

    def cochain_dim(self, r: int) -> int:
        return self.layout(r)[2]

    def differential_matrix(self, r: int):
        cached = self._mats.get(r)
        if cached is None:
            cached = _build_differential(self.module, r, self.slots)
            self._mats[r] = cached
        return cached

    def coboundary_solver(self, r: int) -> LinearSolver:
        cached = self._solver_cache.get(r)
        if cached is None:
            cached = LinearSolver(
                self.differential_matrix(r - 1), self.cochain_dim(r - 1)
            )
            self._solver_cache[r] = cached
        return cached

    def h_dim(self, r: int) -> int:
        return cohomology_dimension(self, r)


def _graded_complex(iso: LieAlgebra, base_dim: int, degree: int) -> _DualGradedComplex:
    key = (iso.constants, base_dim, degree)
    hit = _GRADED_CACHE.get(key)
    if hit is None:
        hit = _DualGradedComplex(iso, base_dim, degree)
        _GRADED_CACHE[key] = hit
    return hit


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
    """Adapter for an algebroid dual: the 2-cochain sub-solve runs in the
    fiber-degree graded complex, so every correction keeps the grading."""

    unfinished = "dual bivector not linear after all degrees were cleared"

    def __init__(self, dual: PoissonJet, base_dim: int):
        super().__init__(dual)
        self.base_dim = base_dim

    def solves(self, degree: int):
        cx = _graded_complex(self.algebra, self.base_dim, degree)
        blocks = [(self.state.entries[a][b], cx.slot_basis((a, b))[1])
                  for a, b in cx.layout(2)[0]]
        targets = [(a, cx.slot_basis((a,))[0]) for a in range(self.state.nvars)]
        yield _SubSolve(cx, 2, _remainder_vector(blocks, degree), targets)

    def obstruction(self, sub, functional) -> ObstructionClass:
        return _embed_obstruction(sub.complex, sub.vector, functional)


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
    if order is None:
        order = A.order
    if order > A.order:
        raise ValueError("target order exceeds the jet's truncation")
    if order < A.order:
        A = A.truncate(order)
    problem = _GradedProblem(algebroid_to_poisson(A), A.base_dim)
    obstruction, trace = _run_scheduler(problem, scheduler, order + 1, radius)
    if obstruction is not None:
        return obstruction, trace
    constants = problem.state.linear_constants()
    n, r = A.base_dim, A.rank
    # the fiber block of the validated dual's isotropy, a subalgebra
    fiber = LieAlgebra._trusted([
        [[constants[n + i][n + j][n + k] for k in range(r)] for j in range(r)]
        for i in range(r)
    ])
    mats = [
        [[constants[n + i][l][k] for k in range(n)] for l in range(n)]
        for i in range(r)
    ]
    # from_dual rejects any change that broke the grading
    return (
        AlgebroidChange.from_dual(problem.accumulated, n),
        LinearAlgebroid(fiber, mats),
        trace,
    )


# ---------------------------------------------------------------------------
# Levi normalization of the fiber algebra


def levi_algebroid(A: AlgebroidJet, split: LeviSplit, order: int | None = None,
                   radius=ONE):
    """Normalize the semisimple part of an algebroid jet.

    split must certify a Levi decomposition of the fiber algebra at the
    origin.  In the adapted frame (s-sections first) the returned jet has
    constant s-s and s-r structure functions and exactly linear anchors on
    the s-sections through the truncation; the rest of the data rides along
    untouched.  Returns (AlgebroidChange, AlgebroidJet, IterationTrace).
    """
    _require_certified_split(A.fiber_algebra(), split, "the fiber isotropy")
    if order is None:
        order = A.order
    if order > A.order:
        raise ValueError("target order exceeds the jet's truncation")
    if order < A.order:
        A = A.truncate(order)
    n = A.base_dim
    total = n + A.rank
    ns = len(split.s_basis)
    dual_order = order + 1
    rows = [[ONE if t == a else ZERO for t in range(total)] for a in range(n)]
    rows += [[ZERO] * n + list(v) for v in split.s_basis + split.r_basis]
    adapt = CoordChange.linear(rows, dual_order)
    # s-r brackets carry fiber degree one, anchors on s fiber degree zero
    problem = _LeviProblem(
        pushforward(algebroid_to_poisson(A), adapt), adapt, range(n, n + ns),
        [(range(n + ns, total), 1), (range(n), 0)], base_dim=n,
    )
    _, trace = _run_scheduler(problem, "degree", dual_order, radius)
    return (
        AlgebroidChange.from_dual(problem.accumulated, n),
        poisson_to_algebroid(problem.state, n),
        trace,
    )
