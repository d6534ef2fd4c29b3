"""Normalization engines.

One driver, `_run_scheduler`, runs every engine and returns its result.  Each
engine is a problem adapter that lists, for a homogeneous degree d, its
sub-solves in order: a cochain complex and degree r, the degree-d remainder
read off the current state as a vector in C^r, and the coordinates a
primitive corrects.  One bracket adapter, made from a Levi split, serves
Poisson brackets, algebroid duals and both Levi normal forms: Poisson
linearization is its run with s = g.  The driver solves d(sigma) = R exactly
and applies x -> x - sigma; the adapter decides whether a failed solve yields
an obstruction certificate or, on a semisimple factor, a SolverFailure.  The
two schedulers differ only in how degrees are grouped: `degree` treats one
homogeneous degree per step, `doubling` treats the block [2^nu, 2^(nu+1)) per
step, clearing its degrees lowest-first so the quadratic interaction of
corrections (which can reach degree 2^(nu+1)-1) never re-enters a cleared
block.  The adapter keeps the corrections in order and composes them once,
right to left, when the run ends; truncated composition is associative, so
that change is exactly the left-to-right product.  All decisions are exact;
the Hermitian norms carried on traces are binary64 diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cohomology import (
    Cochain,
    ObstructionClass,
    coadjoint_rep,
    cohomology_dimension,
    induced_polynomial_module,
    linear_field_rep,
    twisted_field_module,
)
from .liealg import (
    ExactTable,
    LeviSplit,
    LieAlgebra,
    SolverFailure,
    isotropy_from_linear_part,
)
from .linalg import exact_scalar, rationals
from .polyalg import (
    CoordChange,
    Jet,
    PoissonJet,
    compose_change,
    compose_jets,
    derivative_along,
    monomials,
    pushforward,
    solve_composed,
)

ONE = Fraction(1)


class PreconditionNotNormalized(ValueError):
    """A degree-d remainder was requested while lower degrees still carry
    nonlinear terms."""


class SplitNotCertified(ValueError):
    """The Levi split handed to an engine splits another algebra than the
    isotropy it normalizes."""


# ---------------------------------------------------------------------------
# Hermitian metric diagnostics


def hermitian_weights(nvars: int, degree: int, radius=ONE) -> list[Fraction]:
    """Squared norm of each graded-lex monomial of the given degree:
    alpha! n! / (|alpha|+n)! * r^(2|alpha|)."""
    radius = exact_scalar(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    scale = radius ** (2 * degree) * Fraction(math.factorial(nvars),
                                              math.factorial(degree + nvars))
    return [math.prod(map(math.factorial, mono)) * scale for mono in monomials(nvars, degree)]


def hermitian_inner(f: Jet, g: Jet, radius=ONE, min_degree: int = 0) -> Fraction:
    """Exact inner product in which distinct monomials are orthogonal and
    x^alpha has squared length alpha! n!/(|alpha|+n)! r^(2|alpha|), taken
    over the parts of degree >= min_degree."""
    return Fraction(*_inner_ratio(f, g, radius, min_degree))


def hermitian_norm(f: Jet, radius=ONE, min_degree: int = 0) -> float:
    """sqrt(hermitian_inner(f, f)), no Fraction built: int / int rounds
    correctly, so the quotient is float() of the exact product."""
    num, den = _inner_ratio(f, f, radius, min_degree)
    return math.sqrt(num / den)


def _inner_ratio(f: Jet, g: Jet, radius, min_degree: int) -> tuple[int, int]:
    """hermitian_inner as (numerator, positive denominator), unreduced."""
    radius = exact_scalar(radius)
    if radius.numerator <= 0:
        raise ValueError("radius must be positive")
    if f.nvars != g.nvars:
        raise ValueError("jets live on different variable sets")
    # per degree d, S_d = sum of a*b*alpha! over the integer numerators; the
    # inner product is sum_d S_d n! r^(2d) / (d+n)! over both denominators,
    # put over one common denominator
    fact = math.factorial
    sums = f.weighted_sums(g, min_degree)
    if not sums:
        return 0, 1
    n = f.nvars
    p, q = radius.numerator, radius.denominator
    top = max(sums)
    num = sum(
        acc * p ** (2 * d) * q ** (2 * (top - d)) * (fact(top + n) // fact(d + n))
        for d, acc in sums.items()
    )
    return num * fact(n), fact(top + n) * q ** (2 * top) * f.den * g.den


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
    """Lowest degree and largest Hermitian norm of the jets' parts of degree
    >= 2."""
    lowest = min((low for jet in jets if (low := jet.lowest_degree(2)) is not None),
                 default=None)
    return lowest, max((hermitian_norm(jet, radius, 2) for jet in jets), default=0.0)


# ---------------------------------------------------------------------------
# the normalization driver


class _SubSolve(NamedTuple):
    """One cochain equation d(sigma) = R met while clearing a degree: R is
    `numerators` over `den` in C^r of `complex`, and `targets` pairs each
    block of C^{r-1}, in order, with the coordinate its solution block
    corrects and the keys, packed in the state's base, of its monomials."""

    complex: object
    cochain_degree: int
    numerators: list
    den: int
    targets: list

    @property
    def vector(self) -> list:
        """R as rationals, for remainder cochains and certificates."""
        return rationals(self.numerators, self.den)


def _remainder_vector(blocks, degree: int) -> tuple[list[int], int]:
    """Degree-d coefficients of each (jet, {key in its base: position})
    block, concatenated, as integer numerators over the lcm of the jets'
    denominators.  Nonlinear terms below degree d must already be cleared."""
    den = math.lcm(*(jet.den for jet, _ in blocks))
    nums = []
    for jet, index in blocks:
        low = jet.lowest_degree(2)
        if low is not None and low < degree:
            mono = next(jet.homogeneous_part(low).numerators())[0]
            raise PreconditionNotNormalized(
                f"degree-{low} term {mono} left below degree {degree}"
            )
        block = [0] * len(index)
        up = den // jet.den
        for key, n in jet.packed_numerators(degree).items():
            pos = index.get(key)
            if pos is None:
                raise SolverFailure("remainder leaves the module's monomial span")
            block[pos] = n * up
        nums.extend(block)
    return nums, den


def _entry_solve(module, r: int, jets, basis, targets, degree: int) -> _SubSolve:
    """Sub-solve on whole state jets: their degree-d parts fill C^r block by
    block on the `basis` (keys, {key: position}) packed in their base, and
    the solution's blocks correct the `targets` coordinates on it."""
    keys, index = basis
    return _SubSolve(module, r, *_remainder_vector([(jet, index) for jet in jets], degree),
                     [(t, keys) for t in targets])


def _correction(nums, den: int, targets, degree: int, nvars: int, order: int) -> CoordChange:
    """x^t -> x^t - sigma^t, each sigma^t read off its block of the solution
    nums / den on the packed keys of degree-d monomials in base order+1;
    targets are distinct and d >= 2, so no check is needed."""
    comps, pos = {}, 0
    for t, keys in targets:
        sigma = {key: -n for key, n in zip(keys, nums[pos:pos + len(keys)]) if n}
        comps[t] = Jet.from_packed(nvars, order, den, {
            degree: sigma, 1: {(order + 1) ** (nvars - 1 - t): den}})
        pos += len(keys)
    return CoordChange._trusted([comps[t] if t in comps else Jet.variable(t, nvars, order)
                                 for t in range(nvars)])


def _clear_degree(problem, degree: int):
    """Run one degree's sub-solves in order, each on the state the previous
    one left; returns (whether any remainder was nonzero, obstruction)."""
    treated = False
    for sub in problem.solves(degree):
        if not any(sub.numerators):
            continue
        treated = True
        solver = sub.complex.coboundary_solver(sub.cochain_degree)
        # on an obstruction nums / den is the partial solution, still applied
        nums, den, violated = solver.solve_numerators(sub.numerators, sub.den)
        obstruction = None
        if violated is not None:
            # the adapter decides: a certificate, or SolverFailure
            obstruction = problem.obstruction(sub, violated)
        if any(nums):
            nvars, order = problem.state.nvars, problem.state.order
            problem.apply(_correction(nums, den, sub.targets, degree, nvars, order))
        if obstruction is not None:
            return True, obstruction
    return treated, None


def _run_scheduler(problem, scheduler: str, order: int, radius):
    """Clear degrees 2..order block by block; returns (obstruction, trace),
    or (change, normal form, trace) from the adapter's `finish`.

    Partial removal still happens at an obstructed degree before the run
    stops.  A run that clears every degree ends with the adapter's own
    linearity check."""
    radius = exact_scalar(radius)
    trace = IterationTrace(problem.label or scheduler, radius, order)
    # a block that treats no degree leaves the state as it was, so the stats
    # are computed once per state and carried forward
    stats = _tail_stats(problem.state_jets(), radius)
    for block_index, degrees in _scheduler_blocks(scheduler, order):
        lowest_before, norm_before = stats
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
            stats = lowest_after, norm_after = _tail_stats(problem.state_jets(), radius)
            trace.steps.append(IterationStep(
                block_index, tuple(treated), lowest_before, lowest_after,
                norm_before, norm_after, obstructed=obstruction is not None,
            ))
        if obstruction is not None:
            return obstruction, trace
    return (*problem.finish(), trace)


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
    `solves(degree)`, `apply(change)` and `state_jets()`, the jets whose
    parts of degree >= 2 the trace measures.  `apply` appends each
    correction to `corrections` as it transports the state.  By default a
    failed solve yields a certificate.  `finish` returns (change, state),
    or raises SolverFailure with the subclass's `unfinished` message when a
    state jet is not linear."""

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
        """The certificate of a failed sub-solve; `functional` is the
        violated left-null row, as integers."""
        module, r = sub.complex, sub.cochain_degree
        return ObstructionClass(Cochain(module, r, sub.vector), rationals(functional),
                                cohomology_dimension(module, r))

    def finish(self) -> tuple:
        if any(jet.highest_degree() not in (None, 1) for jet in self.state_jets()):
            raise SolverFailure(self.unfinished)
        return self.change(), self.state


class _PoissonProblem(_Problem):
    """The one bracket adapter.  A Levi split moves the bracket by the
    adapted change, its first correction: the identity on the first
    `base_dim` coordinates, then the split's s and r rows.  s is the next
    len(s_basis) coordinates (every one with no split) and meets the spans
    r, then the base.  Per degree, a 2-cochain sub-solve on the s-s entries,
    then per span a 1-cochain one on the entries pairing s with it, valued
    in polynomials twisted by s: with `base_dim` set, those of fiber degree
    (in the variables from base_dim on) one, or zero where s meets the base."""

    unfinished = "bracket not linear after all degrees were cleared"

    def __init__(self, pi: PoissonJet, split: LeviSplit | None = None, base_dim=None):
        n, b = pi.nvars, base_dim or 0
        self.corrections, self.s, spans = [], list(range(n)), []
        if split is not None:
            rows = [[int(t == a) for t in range(n)] for a in range(b)]
            rows += [[0] * b + list(v) for v in split.s_basis + split.r_basis]
            self.corrections.append(CoordChange.linear(rows, pi.order))
            pi = pushforward(pi, self.corrections[0])
            ns = len(split.s_basis)
            self.s, spans = list(range(b, b + ns)), [range(b + ns, n), range(b)]
        self.state = pi
        self.algebra = self.s_algebra = isotropy_from_linear_part(pi)
        self.base_dim = base_dim
        c = self.algebra.constants
        if self.s != list(range(n)):
            # s spans a subalgebra of the validated isotropy, certified by the split
            self.s_algebra = LieAlgebra._trusted(
                [[[c[a][b][k] for k in self.s] for b in self.s] for a in self.s])
        rep = coadjoint_rep(self.algebra)
        self.s_rep = ExactTable([rep[a] for a in self.s])
        self.spans = [
            (list(span), ExactTable([[[c[a][j][k] for k in span] for j in span] for a in self.s]))
            for span in spans if len(span)
        ]
        self.entries = list(combinations(self.s, 2)) + [
            (a, j) for span, _ in self.spans for a in self.s for j in span
        ]

    def _values(self, degree: int, meets: int | None = None):
        fiber = None if self.base_dim is None else (
            self.base_dim, int(meets is None or meets >= self.base_dim))
        return induced_polynomial_module(self.s_algebra, self.state.nvars,
                                         self.s_rep, degree, fiber)

    def _jets(self, pairs) -> list:
        """The current state's entries at `pairs`: read when a sub-solve is
        built, after the ones before it were applied."""
        return [self.state.entries[p][q] for p, q in pairs]

    def solves(self, degree: int):
        order = self.state.order
        values = self._values(degree)
        yield _entry_solve(values, 2, self._jets(combinations(self.s, 2)),
                           values.packed_labels(order), self.s, degree)
        for span, twists in self.spans:
            values = self._values(degree, span[0])
            yield _entry_solve(twisted_field_module(values, twists), 1,
                               self._jets((a, j) for a in self.s for j in span),
                               values.packed_labels(order), span, degree)

    def apply(self, change: CoordChange) -> None:
        self.corrections.append(change)
        self.state = pushforward(self.state, change)

    def state_jets(self):
        return self._jets(self.entries)


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
    return _run_scheduler(_PoissonProblem(pi), scheduler, order, radius)


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
                commutator = _field_commutator(fields[i], fields[j])
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
        return cls(algebra, [[Jet.linear(row, order) for row in mat] for mat in matrices],
                   order)

    def linear_matrices(self):
        """A_i with field_i^a = (A_i x)^a + higher order."""
        return [[comp.linear_coefficients() for comp in fld] for fld in self.fields]

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


def _field_commutator(v, w):
    """[v, w]^a = v(w^a) - w(v^a)."""
    return [derivative_along(v, wa) - derivative_along(w, va) for va, wa in zip(v, w)]


def conjugate_action(action: ActionJet, change: CoordChange) -> ActionJet:
    """Transport every field through the coordinate change: the unique Y_a
    with Y_a o change = D(change) X_a, no inverse taken."""
    if change.nvars != action.nvars:
        raise ValueError("coordinate change has the wrong variable count")
    fields = _jacobian_fields(action, change)
    solved = iter(solve_composed([comp for fld in fields for comp in fld], change))
    new_fields = [[next(solved) for _ in fld] for fld in fields]
    return ActionJet._trusted(action.algebra, new_fields, action.nvars, action.order)


def _jacobian_fields(action: ActionJet, change: CoordChange) -> list:
    """D(change) X for every field X, in the old coordinates: component c is
    X(change^c)."""
    return [[derivative_along(fld, comp) for comp in change.components]
            for fld in action.fields]


def is_action_map(action: ActionJet, phi: CoordChange, target: ActionJet) -> bool:
    """Whether phi carries `action` to `target`: D(phi) X_a = Y_a o phi for
    every generator, over the same algebra and at one truncation order.
    Equivalent to conjugate_action(action, phi) == target, with no inverse
    taken."""
    if target.algebra != action.algebra:
        return False
    images = compose_jets([image for fld in target.fields for image in fld], phi)
    return [comp for fld in _jacobian_fields(action, phi) for comp in fld] == images


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
        # corrections keep the linear part, so its modules are keyed once
        self.twists = ExactTable(action.linear_matrices())
        self.operator = ExactTable(linear_field_rep(self.twists))

    def solves(self, degree: int):
        n = self.state.nvars
        base = induced_polynomial_module(self.state.algebra, n, self.operator, degree)
        yield _entry_solve(twisted_field_module(base, self.twists), 1, self.state_jets(),
                           base.packed_labels(self.state.order), range(n), degree)

    def apply(self, change: CoordChange) -> None:
        self.corrections.append(change)
        self.state = conjugate_action(self.state, change)

    def state_jets(self):
        return [comp for fld in self.state.fields for comp in fld]


def linearize_action(action: ActionJet, scheduler: str = "doubling",
                     order: int | None = None, radius=ONE):
    """Linearize a polynomial action; same contract as linearize_poisson with
    1-cochains in place of 2-cochains."""
    order, action = _target(action, order, "action's")
    return _run_scheduler(_ActionProblem(action), scheduler, order, radius)


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
        """Reassemble the normal form as a bivector in the adapted
        coordinates, unchecked: it is the engine's transported state, whose
        Jacobi identity the input's carries, split into blocks."""
        ns, nr = len(self.s_constants), len(self.split.r_basis)
        brackets = {(a, b): Jet.linear(list(self.s_constants[a][b]) + [0] * nr, self.order)
                    for a in range(ns) for b in range(a + 1, ns)}
        brackets.update({(a, ns + beta): Jet.linear([0] * ns + list(row), self.order)
                         for a in range(ns) for beta, row in enumerate(self.r_constants[a])})
        brackets.update({(ns + alpha, ns + beta): jet
                         for (alpha, beta), jet in self.residual.items()})
        return PoissonJet._trusted_brackets(ns + nr, self.order, brackets)


def _require_certified_split(isotropy: LieAlgebra, split: LeviSplit,
                             owner: str = "the bivector's isotropy") -> None:
    """A LeviSplit certified itself when made; check only that it splits this."""
    if split.algebra != isotropy:
        raise SplitNotCertified(f"split belongs to a different algebra than {owner}")


class _LeviProblem(_PoissonProblem):
    """The bracket adapter made from a Levi split, `_LeviProblem(pi, split[,
    base_dim])`: s is the semisimple factor, where every solve succeeds, so
    a failed one raises SolverFailure."""

    label = "levi"
    unfinished = "normalized blocks not exactly linear after the loop"

    def obstruction(self, sub: _SubSolve, functional):
        raise SolverFailure(
            f"{sub.cochain_degree}-cochain solve failed on a semisimple factor"
        )


def levi_decompose(pi: PoissonJet, split: LeviSplit, order: int | None = None,
                   radius=ONE):
    """Normalize the s-s and s-r blocks of the bracket in coordinates adapted
    to a certified Levi split, carrying the r-r block along untouched.

    At each degree the 2-cochain solve on the s-s block runs first, then the
    1-cochain solve on the s-r columns; both succeed because s is semisimple.
    A split of another algebra than the isotropy raises SplitNotCertified.
    Returns (CoordChange, LeviNormalForm, IterationTrace).
    """
    _require_certified_split(isotropy_from_linear_part(pi), split)
    order, pi = _target(pi, order, "bivector's")
    ns, nr = len(split.s_basis), len(split.r_basis)
    problem = _LeviProblem(pi, split)
    change, state, trace = _run_scheduler(problem, "degree", order, radius)

    c = problem.algebra.constants
    s_constants = [[[c[a][b][k] for k in range(ns)] for b in range(ns)]
                   for a in range(ns)]
    r_constants = [[[c[a][ns + beta][ns + gamma] for gamma in range(nr)]
                    for beta in range(nr)] for a in range(ns)]
    residual = {
        (alpha, beta): state.entries[ns + alpha][ns + beta]
        for alpha in range(nr) for beta in range(alpha + 1, nr)
        if not state.entries[ns + alpha][ns + beta].is_zero()
    }
    return change, LeviNormalForm(s_constants, r_constants, residual, split, order), trace
