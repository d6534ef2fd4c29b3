"""Normalization engines.

One driver, `_run_scheduler`, runs every engine: Poisson brackets, actions,
algebroid duals and both Levi normal forms.  Each engine is a problem adapter
that lists, for a homogeneous degree d, its sub-solves in order: a cochain
complex and degree r, the degree-d remainder read off the current state as a
vector in C^r, and the coordinates a primitive corrects.  The driver solves
d(sigma) = R exactly and applies x -> x - sigma; the adapter decides whether
a failed solve yields an obstruction certificate or, on a semisimple factor,
a SolverFailure.  The two schedulers differ only in how degrees are grouped:
`degree` treats one homogeneous degree per step, `doubling` treats the block
[2^nu, 2^(nu+1)) per step, clearing its degrees lowest-first so the
quadratic interaction of corrections (which can reach degree 2^(nu+1)-1)
never re-enters a cleared block.  The adapter keeps the corrections in
order and composes them once, right to left, when the engine returns the
change; truncated composition is associative, so that change is exactly the
left-to-right product.  All decisions are exact; the Hermitian norms carried
on traces are binary64 diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cohomology import (
    Cochain,
    GModule,
    LRUCache,
    ObstructionClass,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
)
from .liealg import (
    LeviSplit,
    LeviSplitError,
    LieAlgebra,
    SolverFailure,
    isotropy_from_linear_part,
    verify_levi_split,
)
from .polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    _Powers,
    compose_change,
    invert_change,
    monomials,
    pushforward,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class PreconditionNotNormalized(ValueError):
    """A degree-d remainder was requested while lower degrees still carry
    nonlinear terms."""


class SplitNotCertified(ValueError):
    """The Levi split handed to levi_decompose does not certify against the
    bivector's isotropy algebra."""


# ---------------------------------------------------------------------------
# Hermitian metric diagnostics


def hermitian_weights(nvars: int, degree: int, radius=ONE) -> list[Fraction]:
    """Squared norm of each graded-lex monomial of the given degree:
    alpha! n! / (|alpha|+n)! * r^(2|alpha|)."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    scale = Fraction(math.factorial(nvars), math.factorial(degree + nvars))
    rpow = radius ** (2 * degree)
    out = []
    for mono in monomials(nvars, degree):
        fact = 1
        for e in mono:
            fact *= math.factorial(e)
        out.append(fact * scale * rpow)
    return out


def hermitian_inner(f: Jet, g: Jet, radius=ONE) -> Fraction:
    """Exact inner product in which distinct monomials are orthogonal and
    x^alpha has squared length alpha! n!/(|alpha|+n)! r^(2|alpha|)."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if f.nvars != g.nvars:
        raise ValueError("jets live on different variable sets")
    # per degree d, S_d = sum of a*b*alpha! over the integer numerators; the
    # inner product is sum_d S_d n! r^(2d) / (d+n)! over both denominators,
    # put over one common denominator and turned into a Fraction once
    fden, fbuckets = f._fast_form()
    gden, gbuckets = g._fast_form()
    fact = math.factorial
    sums = {}
    for d, items in fbuckets.items():
        other = dict(gbuckets.get(d, ()))
        acc = 0
        for mono, a in items:
            b = other.get(mono)
            if b:
                acc += a * b * math.prod(map(fact, mono))
        if acc:
            sums[d] = acc
    if not sums:
        return ZERO
    n = f.nvars
    p, q = radius.numerator, radius.denominator
    top = max(sums)
    num = sum(
        acc * p ** (2 * d) * q ** (2 * (top - d)) * (fact(top + n) // fact(d + n))
        for d, acc in sums.items()
    )
    return Fraction(num * fact(n), fact(top + n) * q ** (2 * top) * fden * gden)


def hermitian_norm(f: Jet, radius=ONE) -> float:
    return math.sqrt(float(hermitian_inner(f, f, radius)))


# ---------------------------------------------------------------------------
# iteration traces


@dataclass
class IterationStep:
    block_index: int
    degrees: tuple[int, ...]
    lowest_before: int | None
    lowest_after: int | None
    norm_before: float
    norm_after: float
    obstructed: bool = False


@dataclass
class IterationTrace:
    scheduler: str
    radius: Fraction
    target_order: int
    steps: list[IterationStep] = field(default_factory=list)


def _scheduler_blocks(scheduler: str, order: int) -> list[tuple[int, list[int]]]:
    if scheduler == "degree":
        return [(d, [d]) for d in range(2, order + 1)]
    if scheduler == "doubling":
        blocks = []
        nu = 1
        while 2**nu <= order:
            blocks.append((nu, list(range(2**nu, min(2 ** (nu + 1), order + 1)))))
            nu += 1
        return blocks
    raise ValueError(f"unknown scheduler {scheduler!r}; use 'degree' or 'doubling'")


def convergence_report(trace: IterationTrace) -> dict:
    """Per-step diagnostics: degrees treated, lowest remaining degree, norms,
    and the quadratic contraction ratio |R_next| / |R|^2.  On doubling traces
    the block law (lowest degree entering block nu is at least 2^nu) is
    enforced and its violation raises RuntimeError."""
    steps = []
    prev_norm = None
    for step in trace.steps:
        if trace.scheduler == "doubling" and step.lowest_before is not None:
            if step.lowest_before < 2**step.block_index:
                raise RuntimeError(
                    f"doubling law violated: block {step.block_index} saw lowest "
                    f"degree {step.lowest_before}"
                )
        ratio = None
        if prev_norm not in (None, 0.0):
            ratio = step.norm_before / prev_norm**2
        steps.append({
            "block": step.block_index,
            "degrees": list(step.degrees),
            "lowest_before": step.lowest_before,
            "lowest_after": step.lowest_after,
            "norm_before": step.norm_before,
            "norm_after": step.norm_after,
            "quadratic_ratio": ratio,
            "obstructed": step.obstructed,
        })
        prev_norm = step.norm_before
    return {
        "scheduler": trace.scheduler,
        "radius": float(trace.radius),
        "target_order": trace.target_order,
        "steps": steps,
    }


def _tail_stats(jets, radius) -> tuple[int | None, float]:
    lowest = None
    norm = 0.0
    for jet in jets:
        low = jet.lowest_degree()
        if low is not None and (lowest is None or low < lowest):
            lowest = low
        norm = max(norm, hermitian_norm(jet, radius))
    return lowest, norm


# ---------------------------------------------------------------------------
# the normalization driver


class _SubSolve(NamedTuple):
    """One cochain equation d(sigma) = R met while clearing a degree: R is
    `vector` in C^r of `complex`, and `targets` pairs each block of C^{r-1},
    in order, with the coordinate its solution block corrects and the
    monomials that block's entries multiply."""

    complex: object
    cochain_degree: int
    vector: list
    targets: list


def _remainder_vector(blocks, degree: int) -> list:
    """Degree-d coefficients of each (jet, monomial index) block, concatenated.
    Nonlinear terms below degree d must already be cleared."""
    vec = []
    for jet, index in blocks:
        block = [ZERO] * len(index)
        for mono, c in jet._c.items():
            deg = sum(mono)
            if deg == degree:
                pos = index.get(mono)
                if pos is None:
                    raise SolverFailure("remainder leaves the module's monomial span")
                block[pos] = c
            elif 1 < deg < degree:
                raise PreconditionNotNormalized(
                    f"degree-{deg} term {mono} left below degree {degree}"
                )
        vec.extend(block)
    return vec


def _entry_solve(pi: PoissonJet, module, r: int, entries, basis, targets,
                 degree: int) -> _SubSolve:
    """Sub-solve on bivector entries: the degree-d parts of `entries` fill
    C^r block by block on the monomial `basis`, and the solution's blocks
    correct the `targets` coordinates on the same basis."""
    index = {mono: i for i, mono in enumerate(basis)}
    blocks = [(pi.entries[p][q], index) for p, q in entries]
    return _SubSolve(module, r, _remainder_vector(blocks, degree),
                     [(t, basis) for t in targets])


def _correction(solution, targets, nvars: int, order: int) -> CoordChange:
    """x^t -> x^t - sigma^t, each sigma^t read off its block of the solution."""
    comps = [Jet.variable(t, nvars, order) for t in range(nvars)]
    pos = 0
    for t, basis in targets:
        block = solution[pos:pos + len(basis)]
        comps[t] = comps[t] - Jet._raw(
            nvars, order, {mono: c for mono, c in zip(basis, block) if c}
        )
        pos += len(basis)
    return CoordChange(comps)


def _clear_degree(problem, degree: int):
    """Run one degree's sub-solves in order, each on the state the previous
    one left; returns (whether any remainder was nonzero, obstruction)."""
    treated = False
    for sub in problem.solves(degree):
        if not any(sub.vector):
            continue
        treated = True
        solver = sub.complex.coboundary_solver(sub.cochain_degree)
        solution = solver.solve(sub.vector)
        obstruction = None
        if solution is None:
            # the adapter decides: a certificate, or SolverFailure
            obstruction = problem.obstruction(sub, solver.null_functional(sub.vector))
            solution, _residual = solver.solve_partial(sub.vector)
        if any(solution):
            nvars, order = problem.state.nvars, problem.state.order
            problem.apply(_correction(solution, sub.targets, nvars, order))
        if obstruction is not None:
            return True, obstruction
    return treated, None


def _run_scheduler(problem, scheduler: str, order: int, radius):
    """Clear degrees 2..order block by block; (obstruction or None, trace).

    Partial removal still happens at an obstructed degree before the run
    stops.  A run that clears every degree ends with the adapter's own
    linearity check."""
    trace = IterationTrace(problem.label or scheduler, Fraction(radius), order)
    for block_index, degrees in _scheduler_blocks(scheduler, order):
        lowest_before, norm_before = _tail_stats(problem.tail_jets(), radius)
        if lowest_before is None or lowest_before > degrees[-1]:
            continue
        treated = []
        obstruction = None
        for degree in degrees:
            did_work, obstruction = _clear_degree(problem, degree)
            if did_work:
                treated.append(degree)
            if obstruction is not None:
                break
        if treated:
            lowest_after, norm_after = _tail_stats(problem.tail_jets(), radius)
            trace.steps.append(IterationStep(
                block_index, tuple(treated), lowest_before, lowest_after,
                norm_before, norm_after, obstructed=obstruction is not None,
            ))
        if obstruction is not None:
            return obstruction, trace
    problem.finish()
    return None, trace


# ---------------------------------------------------------------------------
# Poisson linearization


def poisson_remainder(pi: PoissonJet, degree: int) -> Cochain:
    """Degree-d part of the bracket minus its linear part, as a 2-cochain on
    the isotropy algebra with degree-d polynomial coefficients."""
    if degree < 2:
        raise ValueError("remainders start at degree 2")
    sub = next(_PoissonProblem(pi).solves(degree))
    return Cochain(sub.complex, 2, sub.vector)


def _target(jet, order: int | None, owner: str):
    """(target order, jet truncated to it): the target defaults to the jet's
    own truncation and may not exceed it."""
    if order is None:
        order = jet.order
    if order > jet.order:
        raise ValueError(f"target order exceeds the {owner} truncation")
    return order, jet.truncate(order) if order != jet.order else jet


class _Problem:
    """What the driver asks of an adapter: `state` (with nvars and order),
    `solves(degree)`, `apply(change)` and `tail_jets()`.  `apply` appends each
    correction to `corrections` as it transports the state.  By default a
    failed solve yields a certificate, and a finished run that is not linear
    raises SolverFailure with the subclass's `unfinished` message."""

    label = None

    def change(self) -> CoordChange:
        """Every correction composed once, right to left:
        c1.then(c2.then(...)), the identity when there is none."""
        if not self.corrections:
            return CoordChange.identity(self.state.nvars, self.state.order)
        change = self.corrections[-1]
        for earlier in reversed(self.corrections[:-1]):
            change = compose_change(earlier, change)
        return change

    def obstruction(self, sub: _SubSolve, functional) -> ObstructionClass:
        module, r = sub.complex, sub.cochain_degree
        return ObstructionClass(
            Cochain(module, r, sub.vector), functional, cohomology_dimension(module, r)
        )

    def finish(self) -> None:
        if not self.state.is_linear():
            raise SolverFailure(self.unfinished)


class _PoissonProblem(_Problem):
    """Adapter for a bivector: one 2-cochain sub-solve per degree over the
    isotropy algebra."""

    unfinished = "bracket not linear after all degrees were cleared"

    def __init__(self, pi: PoissonJet, first: CoordChange | None = None):
        self.state = pi
        self.corrections = [] if first is None else [first]
        self.algebra = isotropy_from_linear_part(pi)
        self.rep = coadjoint_rep(self.algebra)
        self.entries = list(combinations(range(pi.nvars), 2))

    def solves(self, degree: int):
        n = self.state.nvars
        module = induced_polynomial_module(self.algebra, n, self.rep, degree)
        yield _entry_solve(self.state, module, 2, self.entries, module.labels,
                           range(n), degree)

    def apply(self, change: CoordChange) -> None:
        self.corrections.append(change)
        self.state = pushforward(self.state, change)

    def tail_jets(self):
        return [
            self.state.entries[p][q] - self.state.entries[p][q].homogeneous_part(1)
            for p, q in self.entries
        ]


def linearize_poisson(pi: PoissonJet, scheduler: str = "doubling",
                      order: int | None = None, radius=ONE):
    """Linearize a truncated bivector.

    Returns (CoordChange, PoissonJet, IterationTrace) on success, where the
    bivector is exactly the linear structure of the isotropy constants, or
    (ObstructionClass, IterationTrace) when some degree carries a cohomology
    class no coordinate change can remove.  Partial removal still happens at
    the obstructed degree before the engine stops.
    """
    order, pi = _target(pi, order, "bivector's")
    problem = _PoissonProblem(pi)
    obstruction, trace = _run_scheduler(problem, scheduler, order, radius)
    if obstruction is not None:
        return obstruction, trace
    return problem.change(), problem.state, trace


# ---------------------------------------------------------------------------
# Lie algebra actions


class ActionJet:
    """Polynomial action of a Lie algebra: one vector field per generator,
    vanishing at the origin, satisfying the morphism property
    fields([X,Y]) = [fields(X), fields(Y)] through the truncation order."""

    __slots__ = ("algebra", "fields", "nvars", "order")

    def __init__(self, algebra: LieAlgebra, fields, order: int | None = None):
        fields = tuple(tuple(comp for comp in fld) for fld in fields)
        if len(fields) != algebra.dim:
            raise ValueError("need one vector field per generator")
        if not fields or not fields[0]:
            raise ValueError("empty action")
        nvars = len(fields[0])
        if order is None:
            order = fields[0][0].order
        for fld in fields:
            if len(fld) != nvars:
                raise ValueError("vector fields must share the variable count")
            for comp in fld:
                if not isinstance(comp, Jet) or comp.nvars != nvars or comp.order != order:
                    raise ValueError("components must be jets in the same variables and order")
                if comp.constant_term:
                    raise ValueError("action fields must vanish at the origin")
        self.algebra = algebra
        self.fields = fields
        self.nvars = nvars
        self.order = order
        for i in range(algebra.dim):
            for j in range(i + 1, algebra.dim):
                commutator = _field_commutator(fields[i], fields[j], nvars, order)
                expected = [Jet.zero(nvars, order) for _ in range(nvars)]
                for k in range(algebra.dim):
                    c = algebra.constants[i][j][k]
                    if c:
                        for a in range(nvars):
                            expected[a] = expected[a] + fields[k][a] * c
                for a in range(nvars):
                    if commutator[a] != expected[a]:
                        raise ValueError(
                            f"fields {i} and {j} violate the morphism property"
                        )

    @classmethod
    def _trusted(cls, algebra, fields, nvars, order) -> "ActionJet":
        action = cls.__new__(cls)
        action.algebra = algebra
        action.fields = tuple(tuple(fld) for fld in fields)
        action.nvars = nvars
        action.order = order
        return action

    @classmethod
    def linear(cls, algebra: LieAlgebra, matrices, order: int) -> "ActionJet":
        """Action whose field for generator i has components (A_i x)^a."""
        nvars = len(matrices[0])
        fields = []
        for mat in matrices:
            comps = []
            for a in range(nvars):
                terms = {}
                for b in range(nvars):
                    c = Fraction(mat[a][b])
                    if c:
                        terms[tuple(1 if t == b else 0 for t in range(nvars))] = c
                comps.append(Jet(nvars, order, terms))
            fields.append(comps)
        return cls(algebra, fields, order)

    def linear_matrices(self):
        """A_i with field_i^a = (A_i x)^a + higher order."""
        n = self.nvars
        units = [tuple(1 if t == b else 0 for t in range(n)) for b in range(n)]
        return [
            [[fld[a].coefficient(units[b]) for b in range(n)] for a in range(n)]
            for fld in self.fields
        ]

    def is_linear(self) -> bool:
        return all(
            comp.highest_degree() in (None, 1) for fld in self.fields for comp in fld
        )

    def truncate(self, order: int) -> "ActionJet":
        fields = [[comp.truncate(order) for comp in fld] for fld in self.fields]
        return ActionJet._trusted(self.algebra, fields, self.nvars, order)

    def __eq__(self, other):
        if not isinstance(other, ActionJet):
            return NotImplemented
        return self.algebra == other.algebra and self.fields == other.fields

    def __repr__(self):
        return (f"<ActionJet {self.algebra.dim} generators on {self.nvars} "
                f"variables | order {self.order}>")


def _field_commutator(v, w, nvars: int, order: int):
    out = []
    for a in range(nvars):
        acc = Jet.zero(nvars, order)
        for b in range(nvars):
            if not v[b].is_zero():
                acc = acc + v[b] * w[a].diff(b)
            if not w[b].is_zero():
                acc = acc - w[b] * v[a].diff(b)
        out.append(acc)
    return out


def conjugate_action(action: ActionJet, change: CoordChange) -> ActionJet:
    """Transport every field through the coordinate change (Jacobian times
    field, composed with the inverse change)."""
    if change.nvars != action.nvars:
        raise ValueError("coordinate change has the wrong variable count")
    powers = _Powers.of(invert_change(change).components)
    new_fields = [[powers.substitute(comp) for comp in fld]
                  for fld in _jacobian_fields(action, change)]
    return ActionJet._trusted(action.algebra, new_fields, action.nvars, action.order)


def _jacobian_fields(action: ActionJet, change: CoordChange) -> list:
    """D(change) X_a for every field X_a, in the old coordinates."""
    nvars, order = action.nvars, action.order
    out = []
    for fld in action.fields:
        comps = []
        for a in range(nvars):
            acc = Jet.zero(nvars, order)
            for b in range(nvars):
                if not fld[b].is_zero():
                    acc = acc + change.components[a].diff(b) * fld[b]
            comps.append(acc)
        out.append(comps)
    return out


def is_action_map(action: ActionJet, phi: CoordChange, target: ActionJet) -> bool:
    """Whether phi carries `action` to `target`: D(phi) X_a = Y_a o phi for
    every generator, over the same algebra and at one truncation order.
    Equivalent to conjugate_action(action, phi) == target, with no inverse
    taken."""
    if target.algebra != action.algebra:
        return False
    powers = _Powers.of(phi.components)
    return all(
        comp == powers.substitute(image)
        for fld, images in zip(_jacobian_fields(action, phi), target.fields)
        for comp, image in zip(fld, images)
    )


_TWISTED_MODULE_CACHE = LRUCache()


def _twisted_field_module(algebra: LieAlgebra, base: GModule, twists, key) -> GModule:
    """Module of tuples over `base` twisted by matrices T_i:
    (X_i . u)^a = base action on u^a minus sum_b T_i[a][b] u^b.

    The rep property follows from T_j T_i - T_i T_j = sum_l c_ij^l T_l, which
    holds for linear parts of an action and for the r-block constants of a
    certified Levi split."""
    cached = _TWISTED_MODULE_CACHE.get(key)
    if cached is not None:
        return cached
    d = base.dim
    copies = len(twists[0]) if twists else 0
    mats = []
    for i in range(algebra.dim):
        size = copies * d
        mat = [[ZERO] * size for _ in range(size)]
        vmat = base.matrices[i]
        tw = twists[i]
        for a in range(copies):
            for l in range(d):
                row = mat[a * d + l]
                for u in range(d):
                    if vmat[l][u]:
                        row[a * d + u] += vmat[l][u]
            for b in range(copies):
                if tw[a][b]:
                    for l in range(d):
                        mat[a * d + l][b * d + l] -= tw[a][b]
        mats.append(mat)
    labels = [(a, mono) for a in range(copies) for mono in base.labels]
    module = GModule._trusted(algebra, mats, labels=labels)
    _TWISTED_MODULE_CACHE[key] = module
    return module


def _action_field_module(action: ActionJet, degree: int) -> GModule:
    mats = tuple(
        tuple(tuple(row) for row in m) for m in action.linear_matrices()
    )
    n = action.nvars
    operator = [
        [[mats[i][b][a] for b in range(n)] for a in range(n)]
        for i in range(len(mats))
    ]
    base = induced_polynomial_module(action.algebra, n, operator, degree)
    key = ("fields", action.algebra.constants, mats, n, degree)
    return _twisted_field_module(action.algebra, base, mats, key)


def action_remainder(action: ActionJet, degree: int) -> Cochain:
    """Degree-d part of the fields, as a 1-cochain valued in degree-d vector
    fields carrying the commutator-with-the-linear-part action."""
    if degree < 2:
        raise ValueError("remainders start at degree 2")
    sub = next(_ActionProblem(action).solves(degree))
    return Cochain(sub.complex, 1, sub.vector)


class _ActionProblem(_Problem):
    """Adapter for an action: one 1-cochain sub-solve per degree whose blocks
    are the field components, generator-major."""

    unfinished = "action not linear after all degrees were cleared"

    def __init__(self, action: ActionJet):
        self.state = action
        self.corrections = []

    def solves(self, degree: int):
        action = self.state
        basis = monomials(action.nvars, degree)
        index = {mono: i for i, mono in enumerate(basis)}
        blocks = [(comp, index) for fld in action.fields for comp in fld]
        yield _SubSolve(_action_field_module(action, degree), 1,
                        _remainder_vector(blocks, degree),
                        [(a, basis) for a in range(action.nvars)])

    def apply(self, change: CoordChange) -> None:
        self.corrections.append(change)
        self.state = conjugate_action(self.state, change)

    def tail_jets(self):
        return [
            comp - comp.homogeneous_part(1)
            for fld in self.state.fields for comp in fld
        ]


def linearize_action(action: ActionJet, scheduler: str = "doubling",
                     order: int | None = None, radius=ONE):
    """Linearize a polynomial action; same contract as linearize_poisson with
    1-cochains in place of 2-cochains."""
    order, action = _target(action, order, "action's")
    problem = _ActionProblem(action)
    obstruction, trace = _run_scheduler(problem, scheduler, order, radius)
    if obstruction is not None:
        return obstruction, trace
    return problem.change(), problem.state, trace


# ---------------------------------------------------------------------------
# Levi decomposition of a bivector


@dataclass
class LeviNormalForm:
    """Bracket data in adapted coordinates: exact structure constants on the
    s-s and s-r blocks, arbitrary residual jets on the r-r block."""

    s_constants: list   # c[a][b][k]: {x^a, x^b} = sum_k c[a][b][k] x^k
    r_constants: list   # a[i][beta][gamma]: {x^i, y^beta} = sum a[...] y^gamma
    residual: dict      # {(alpha, beta): Jet} on r-r pairs, alpha < beta
    split: LeviSplit
    order: int

    def to_bivector(self) -> PoissonJet:
        """Reassemble the normal form as a validated bivector in the adapted
        coordinates."""
        ns = len(self.s_constants)
        nr = len(self.split.r_basis)
        n = ns + nr
        unit = lambda k: tuple(1 if t == k else 0 for t in range(n))
        brackets = {}
        for a in range(ns):
            for b in range(a + 1, ns):
                terms = {unit(k): self.s_constants[a][b][k]
                         for k in range(ns) if self.s_constants[a][b][k]}
                if terms:
                    brackets[(a, b)] = Jet(n, self.order, terms)
        for a in range(ns):
            for beta in range(nr):
                terms = {unit(ns + gamma): self.r_constants[a][beta][gamma]
                         for gamma in range(nr) if self.r_constants[a][beta][gamma]}
                if terms:
                    brackets[(a, ns + beta)] = Jet(n, self.order, terms)
        for (alpha, beta), jet in self.residual.items():
            if not jet.is_zero():
                brackets[(ns + alpha, ns + beta)] = jet
        return PoissonJet.from_brackets(n, self.order, brackets)


def _require_certified_split(isotropy: LieAlgebra, split: LeviSplit,
                             owner: str = "the bivector's isotropy") -> None:
    if split.algebra != isotropy:
        raise SplitNotCertified(f"split belongs to a different algebra than {owner}")
    try:
        verify_levi_split(isotropy, split.s_basis, split.r_basis)
    except LeviSplitError as exc:
        raise SplitNotCertified(f"{exc.violation}: {exc}") from exc


class _LeviProblem(_PoissonProblem):
    """Adapter for a Levi normal form in adapted coordinates.

    `s` lists the coordinates of the semisimple factor.  Each degree runs a
    2-cochain sub-solve on the s-s entries, then, per (span, weight) in
    `spans`, a 1-cochain sub-solve on the entries pairing s with the span,
    valued in copies of the polynomials twisted by the action of s on the
    span.  With `base_dim` set, polynomial values are cut to the monomials
    of the stated fiber degree (variables from base_dim on; s-s values have
    fiber degree one).  Every solve succeeds on a semisimple factor, so a
    failed one raises SolverFailure.
    """

    label = "levi"

    def __init__(self, pi: PoissonJet, adapt: CoordChange, s, spans, base_dim=None):
        super().__init__(pi, adapt)
        n = pi.nvars
        c = self.algebra.constants
        self.s = list(s)
        self.base_dim = base_dim
        self.s_algebra = LieAlgebra([[[c[a][b][k] for k in s] for b in s] for a in s])
        self.s_rep = tuple(
            tuple(tuple(c[a][j][k] for j in range(n)) for k in range(n)) for a in s
        )
        self.spans = [
            (list(span), weight,
             tuple(tuple(tuple(c[a][j][k] for k in span) for j in span) for a in s))
            for span, weight in spans if len(span)
        ]
        self.entries = list(combinations(self.s, 2)) + [
            (a, j) for span, _, _ in self.spans for a in self.s for j in span
        ]

    def _values(self, degree: int, weight):
        if self.base_dim is None:
            return induced_polynomial_module(self.s_algebra, self.state.nvars,
                                             self.s_rep, degree)
        base = self.base_dim
        return induced_polynomial_module(
            self.s_algebra, self.state.nvars, self.s_rep, degree,
            monomial_filter=lambda m: sum(m[base:]) == weight,
            filter_key=("fiber-degree", weight, base),
        )

    def solves(self, degree: int):
        values = self._values(degree, 1)
        yield _entry_solve(self.state, values, 2, combinations(self.s, 2),
                           values.labels, self.s, degree)
        for span, weight, twists in self.spans:
            values = self._values(degree, weight)
            key = ("levi", self.s_algebra.constants, self.s_rep, self.state.nvars,
                   degree, twists, weight, self.base_dim)
            module = _twisted_field_module(self.s_algebra, values, twists, key)
            yield _entry_solve(self.state, module, 1,
                               [(a, j) for a in self.s for j in span],
                               values.labels, span, degree)

    def obstruction(self, sub: _SubSolve, functional):
        raise SolverFailure(
            f"{sub.cochain_degree}-cochain solve failed on a semisimple factor"
        )

    def finish(self) -> None:
        if any(not jet.is_zero() for jet in self.tail_jets()):
            raise SolverFailure("normalized blocks not exactly linear after the loop")


def levi_decompose(pi: PoissonJet, split: LeviSplit, order: int | None = None,
                   radius=ONE):
    """Normalize the s-s and s-r blocks of the bracket in coordinates adapted
    to a certified Levi split, carrying the r-r block along untouched.

    At each degree the 2-cochain solve on the s-s block runs first, then the
    1-cochain solve on the s-r columns; both succeed because s is semisimple.
    Returns (CoordChange, LeviNormalForm, IterationTrace).
    """
    _require_certified_split(isotropy_from_linear_part(pi), split)
    order, pi = _target(pi, order, "bivector's")
    n = pi.nvars
    ns = len(split.s_basis)
    nr = len(split.r_basis)
    adapt = CoordChange.linear(
        [list(v) for v in split.s_basis + split.r_basis], order
    )
    problem = _LeviProblem(pushforward(pi, adapt), adapt, range(ns),
                           [(range(ns, n), None)])
    _, trace = _run_scheduler(problem, "degree", order, radius)

    c = problem.algebra.constants
    s_constants = [[[c[a][b][k] for k in range(ns)] for b in range(ns)]
                   for a in range(ns)]
    r_constants = [[[c[a][ns + beta][ns + gamma] for gamma in range(nr)]
                    for beta in range(nr)] for a in range(ns)]
    residual = {
        (alpha, beta): problem.state.entries[ns + alpha][ns + beta]
        for alpha in range(nr) for beta in range(alpha + 1, nr)
        if not problem.state.entries[ns + alpha][ns + beta].is_zero()
    }
    form = LeviNormalForm(s_constants, r_constants, residual, split, order)
    return problem.change(), form, trace
