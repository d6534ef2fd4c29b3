"""Truncated multivariate polynomial algebra over exact rationals.

A jet of order N is a polynomial kept only through total degree N; products
drop higher monomials immediately, so every operation below is exact modulo
the degree-(N+1) ideal.  Coefficients are `fractions.Fraction` throughout
(`Scalar` below); floats are rejected.

Conventions fixed here and relied on everywhere downstream:

* Monomials are exponent tuples.  Iteration, serialization, and printing use
  graded lexicographic order: lower total degree first, and within a degree
  earlier variables dominate (x^2 before x*y before y^2).
* A coordinate change `phi` lists the new coordinates as functions of the old
  ones.  `compose_change(phi, psi)` applies `phi` first and `psi` second, so
  its components are psi_i composed with phi.
* The bracket attached to a bivector is {f,g} = sum_ij Pi^ij d_i f d_j g, so
  Pi^ij = {x^i, x^j}, and pushing a bivector through `phi` gives the bracket
  of the new coordinate functions expressed in the new coordinates:
  pushforward(Pi, phi)^ij = {phi^i, phi^j} composed with invert_change(phi).
  Under the composition convention above, pushforward(Pi, compose(phi, psi))
  equals pushforward(pushforward(Pi, phi), psi).
* The anchor of a one-form is sharp(alpha)^j = sum_i Pi^ij alpha_i, i.e.
  pairing beta with sharp(alpha) returns Pi(alpha, beta); sharp(df) is the
  derivation {f, -}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import LinearSolver, det

Scalar = Fraction
Monomial = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), tuple(-e for e in mono))


def monomials(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, in graded-lex order."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[Monomial] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    return out


def monomials_up_to(nvars: int, degree: int) -> list[Monomial]:
    out: list[Monomial] = []
    for d in range(degree + 1):
        out.extend(monomials(nvars, d))
    return out


def _as_scalar(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return Fraction(value)


class Jet:
    """Sparse polynomial truncated at a fixed total degree."""

    __slots__ = ("nvars", "order", "_c", "_fast")

    def __init__(self, nvars: int, order: int, coeffs=None):
        if nvars < 0 or order < 0:
            raise ValueError("nvars and order must be non-negative")
        self.nvars = nvars
        self.order = order
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for mono, value in dict(coeffs).items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 or not isinstance(e, int) for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
                c = _as_scalar(value)
                if c and sum(mono) <= order:
                    clean[mono] = c
        self._c = clean
        self._fast = None

    @classmethod
    def _raw(cls, nvars: int, order: int, coeffs: dict) -> "Jet":
        jet = cls.__new__(cls)
        jet.nvars = nvars
        jet.order = order
        jet._c = coeffs
        jet._fast = None
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, order: int) -> "Jet":
        return cls._raw(nvars, order, {})

    @classmethod
    def one(cls, nvars: int, order: int) -> "Jet":
        return cls._raw(nvars, order, {(0,) * nvars: _ONE})

    @classmethod
    def variable(cls, index: int, nvars: int, order: int) -> "Jet":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._raw(nvars, order, {mono: _ONE} if order >= 1 else {})

    @classmethod
    def from_terms(cls, nvars: int, order: int, terms) -> "Jet":
        acc: dict[Monomial, Fraction] = {}
        for mono, value in terms:
            mono = tuple(mono)
            acc[mono] = acc.get(mono, _ZERO) + _as_scalar(value)
        return cls(nvars, order, acc)

    # -- inspection --------------------------------------------------------

    def coefficient(self, mono) -> Fraction:
        return self._c.get(tuple(mono), _ZERO)

    def terms(self):
        """(monomial, coefficient) pairs in graded-lex order."""
        for mono in sorted(self._c, key=grlex_key):
            yield mono, self._c[mono]

    def is_zero(self) -> bool:
        return not self._c

    @property
    def constant_term(self) -> Fraction:
        return self._c.get((0,) * self.nvars, _ZERO)

    def lowest_degree(self) -> int | None:
        return min((sum(m) for m in self._c), default=None)

    def highest_degree(self) -> int | None:
        return max((sum(m) for m in self._c), default=None)

    def homogeneous_part(self, degree: int) -> "Jet":
        part = {m: c for m, c in self._c.items() if sum(m) == degree}
        return Jet._raw(self.nvars, self.order, part)

    def truncate(self, order: int) -> "Jet":
        """Change the truncation bound (raising it only relabels the container;
        dropped information is not recovered)."""
        if order >= self.order:
            return Jet._raw(self.nvars, order, dict(self._c))
        kept = {m: c for m, c in self._c.items() if sum(m) <= order}
        return Jet._raw(self.nvars, order, kept)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.nvars, self.order) == (other.nvars, other.order) and self._c == other._c

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self._c.items())))

    def __repr__(self) -> str:
        return f"<Jet {format_polynomial(self, default_names(self.nvars))} | order {self.order}>"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Jet") -> int:
        if self.nvars != other.nvars:
            raise ValueError("jets live on different variable sets")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, Jet):
            order = self._check_compatible(other)
            acc = {m: c for m, c in self._c.items() if sum(m) <= order}
            for m, c in other._c.items():
                if sum(m) > order:
                    continue
                s = acc.get(m, _ZERO) + c
                if s:
                    acc[m] = s
                elif m in acc:
                    del acc[m]
            return Jet._raw(self.nvars, order, acc)
        return self + Jet._raw(self.nvars, self.order, {(0,) * self.nvars: _as_scalar(other)})

    __radd__ = __add__

    def __neg__(self):
        return Jet._raw(self.nvars, self.order, {m: -c for m, c in self._c.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -_as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def _fast_form(self):
        """Denominator-cleared, degree-bucketed view used by multiplication."""
        if self._fast is None:
            denom = 1
            for c in self._c.values():
                denom = denom * c.denominator // gcd(denom, c.denominator)
            buckets: dict[int, list[tuple[Monomial, int]]] = {}
            for m, c in self._c.items():
                buckets.setdefault(sum(m), []).append((m, int(c * denom)))
            self._fast = (denom, buckets)
        return self._fast

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = _as_scalar(other)
            if not c:
                return Jet._raw(self.nvars, self.order, {})
            return Jet._raw(self.nvars, self.order, {m: v * c for m, v in self._c.items()})
        order = self._check_compatible(other)
        da, ba = self._fast_form()
        db, bb = other._fast_form()
        acc: dict[Monomial, int] = {}
        get = acc.get
        for dega, items_a in ba.items():
            limit = order - dega
            for degb, items_b in bb.items():
                if degb > limit:
                    continue
                for ma, ca in items_a:
                    for mb, cb in items_b:
                        key = tuple(x + y for x, y in zip(ma, mb))
                        acc[key] = get(key, 0) + ca * cb
        denom = da * db
        coeffs = {m: Fraction(n, denom) for m, n in acc.items() if n}
        return Jet._raw(self.nvars, order, coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_scalar(other)
        if not c:
            raise ZeroDivisionError("division of a jet by zero")
        return self * (1 / c)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("jet powers take non-negative integer exponents")
        result = Jet.one(self.nvars, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> "Jet":
        """Partial derivative; the container order is kept, so the result is
        exact through order-1 when self saturates its order."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index out of range")
        out: dict[Monomial, Fraction] = {}
        for m, c in self._c.items():
            e = m[index]
            if e:
                lower = m[:index] + (e - 1,) + m[index + 1:]
                out[lower] = c * e
        return Jet._raw(self.nvars, self.order, out)

    def substitute(self, args) -> "Jet":
        """Compose with origin-preserving jets: replace variable i by args[i]."""
        args = list(args)
        if len(args) != self.nvars:
            raise ValueError("substitute needs one jet per variable")
        if not args:
            return Jet._raw(0, self.order, dict(self._c))
        nv = args[0].nvars
        order = min([self.order] + [a.order for a in args])
        for a in args:
            if a.nvars != nv:
                raise ValueError("substitution jets live on different variable sets")
            if a.constant_term:
                raise ValueError("substitution jets must vanish at the origin")
        cache: dict[Monomial, Jet] = {(0,) * self.nvars: Jet.one(nv, order)}

        def mono_jet(m: Monomial) -> Jet:
            cached = cache.get(m)
            if cached is not None:
                return cached
            k = next(i for i, e in enumerate(m) if e)
            lower = m[:k] + (m[k] - 1,) + m[k + 1:]
            value = mono_jet(lower) * args[k]
            cache[m] = value
            return value

        acc: dict[Monomial, Fraction] = {}
        for m, c in sorted(self._c.items(), key=lambda item: grlex_key(item[0])):
            for mm, cc in mono_jet(m)._c.items():
                s = acc.get(mm, _ZERO) + c * cc
                if s:
                    acc[mm] = s
                elif mm in acc:
                    del acc[mm]
        return Jet._raw(nv, order, acc)


def homogeneous_to_vector(jet: Jet, degree: int) -> list[Fraction]:
    """Coefficient vector of the degree-d part in the graded-lex monomial basis."""
    basis = monomials(jet.nvars, degree)
    return [jet._c.get(m, _ZERO) for m in basis]


def vector_to_homogeneous(nvars: int, order: int, degree: int, vec) -> Jet:
    basis = monomials(nvars, degree)
    if len(vec) != len(basis):
        raise ValueError("coefficient vector has the wrong length")
    coeffs = {m: Fraction(v) for m, v in zip(basis, vec) if v}
    return Jet._raw(nvars, order, coeffs)


# ---------------------------------------------------------------------------
# coordinate changes


class CoordChange:
    """Origin-preserving polynomial coordinate change with invertible linear
    part; component i is the i-th new coordinate as a jet in the old ones."""

    __slots__ = ("nvars", "order", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty coordinate change")
        nvars = len(components)
        order = components[0].order
        for comp in components:
            if not isinstance(comp, Jet) or comp.nvars != nvars or comp.order != order:
                raise ValueError("components must be jets in the same variables and order")
            if comp.constant_term:
                raise ValueError("coordinate changes must fix the origin")
        self.nvars = nvars
        self.order = order
        self.components = components
        if det(self.linear_matrix()) == 0:
            raise ValueError("linear part is not invertible")

    @classmethod
    def identity(cls, nvars: int, order: int) -> "CoordChange":
        return cls([Jet.variable(i, nvars, order) for i in range(nvars)])

    @classmethod
    def linear(cls, matrix, order: int) -> "CoordChange":
        nvars = len(matrix)
        comps = []
        for row in matrix:
            terms = {}
            for j, value in enumerate(row):
                c = _as_scalar(value)
                if c:
                    mono = tuple(1 if k == j else 0 for k in range(nvars))
                    terms[mono] = c
            comps.append(Jet._raw(nvars, order, terms))
        return cls(comps)

    def linear_matrix(self):
        mat = []
        for comp in self.components:
            row = []
            for j in range(self.nvars):
                mono = tuple(1 if k == j else 0 for k in range(self.nvars))
                row.append(comp.coefficient(mono))
            mat.append(row)
        return mat

    def is_identity(self) -> bool:
        return all(
            comp == Jet.variable(i, self.nvars, self.order)
            for i, comp in enumerate(self.components)
        )

    def then(self, other: "CoordChange") -> "CoordChange":
        """This change first, `other` applied to its output."""
        if other.nvars != self.nvars:
            raise ValueError("coordinate changes act on different spaces")
        return CoordChange([comp.substitute(self.components) for comp in other.components])

    def truncate(self, order: int) -> "CoordChange":
        return CoordChange([c.truncate(order) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, CoordChange):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        names = default_names(self.nvars)
        body = ", ".join(
            f"{names[i]} -> {format_polynomial(c, names)}" for i, c in enumerate(self.components)
        )
        return f"<CoordChange {body}>"


def compose_change(first: CoordChange, second: CoordChange) -> CoordChange:
    """Apply `first`, then `second` (see the module docstring)."""
    return first.then(second)


def invert_change(phi: CoordChange) -> CoordChange:
    """Compositional inverse, exact degree by degree through the truncation."""
    n, order = phi.nvars, phi.order
    a = phi.linear_matrix()
    solver = LinearSolver(a)
    inv_rows = []
    for j in range(n):
        unit = [_ONE if i == j else _ZERO for i in range(n)]
        col = solver.solve(unit)
        if col is None:
            raise ValueError("linear part is not invertible")
        inv_rows.append(col)
    inv_a = [[inv_rows[j][i] for j in range(n)] for i in range(n)]

    tails = []
    for comp in phi.components:
        tails.append(Jet._raw(n, order, {m: c for m, c in comp._c.items() if sum(m) >= 2}))

    psi = [
        Jet._raw(n, 1, {
            tuple(1 if k == j else 0 for k in range(n)): inv_a[i][j]
            for j in range(n) if inv_a[i][j]
        })
        for i in range(n)
    ]
    for target in range(2, order + 1):
        working = [p.truncate(target) for p in psi]
        fed = [t.truncate(target).substitute(working) for t in tails]
        new_psi = []
        for i in range(n):
            comp = Jet.zero(n, target)
            for j in range(n):
                if inv_a[i][j]:
                    comp = comp + (Jet.variable(j, n, target) - fed[j]) * inv_a[i][j]
            new_psi.append(comp)
        psi = new_psi
    return CoordChange([p.truncate(order) for p in psi])


# ---------------------------------------------------------------------------
# bivectors


class PoissonJet:
    """Antisymmetric bivector matrix of jets, zero at the origin, satisfying
    the Jacobi identity through the truncation order."""

    __slots__ = ("nvars", "order", "entries")

    def __init__(self, entries, order: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        nvars = len(entries)
        if any(len(row) != nvars for row in entries):
            raise ValueError("bivector matrix must be square")
        if order is None:
            if nvars == 0:
                raise ValueError("cannot infer the order of an empty bivector")
            order = entries[0][0].order
        for row in entries:
            for jet in row:
                if not isinstance(jet, Jet) or jet.nvars != nvars or jet.order != order:
                    raise ValueError("entries must be jets in the same variables and order")
                if jet.constant_term:
                    raise ValueError("bivector must vanish at the origin")
        for i in range(nvars):
            for j in range(i, nvars):
                if not (entries[i][j] + entries[j][i]).is_zero():
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not antisymmetric")
        self.nvars = nvars
        self.order = order
        self.entries = entries
        bad = [(t, jet) for t, jet in jacobiator(self).items() if not jet.is_zero()]
        if bad:
            triple, jet = bad[0]
            raise ValueError(
                f"Jacobi identity fails through order {order} at {triple}: {jet!r}"
            )

    @classmethod
    def _trusted(cls, entries, nvars: int, order: int) -> "PoissonJet":
        pi = cls.__new__(cls)
        pi.nvars = nvars
        pi.order = order
        pi.entries = tuple(tuple(row) for row in entries)
        return pi

    @classmethod
    def from_brackets(cls, nvars: int, order: int, brackets: dict) -> "PoissonJet":
        """Build from upper-triangle data {(i, j): jet-or-terms} with i < j."""
        grid = [[Jet.zero(nvars, order) for _ in range(nvars)] for _ in range(nvars)]
        for (i, j), value in brackets.items():
            if not 0 <= i < j < nvars:
                raise ValueError("bracket keys must satisfy 0 <= i < j < nvars")
            jet = value if isinstance(value, Jet) else Jet.from_terms(nvars, order, value)
            grid[i][j] = jet.truncate(order)
            grid[j][i] = -grid[i][j]
        return cls(grid, order)

    def entry(self, i: int, j: int) -> Jet:
        return self.entries[i][j]

    def linear_constants(self):
        """c[i][j][k] with {x^i, x^j} = sum_k c[i][j][k] x^k + higher order."""
        n = self.nvars
        unit = lambda k: tuple(1 if t == k else 0 for t in range(n))
        return [
            [[self.entries[i][j].coefficient(unit(k)) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]

    def linear_part(self) -> "PoissonJet":
        grid = [[jet.homogeneous_part(1) for jet in row] for row in self.entries]
        return PoissonJet._trusted(grid, self.nvars, self.order)

    def is_linear(self) -> bool:
        return all(
            jet.highest_degree() in (None, 1) for row in self.entries for jet in row
        )

    def truncate(self, order: int) -> "PoissonJet":
        grid = [[jet.truncate(order) for jet in row] for row in self.entries]
        return PoissonJet._trusted(grid, self.nvars, order)

    def __eq__(self, other):
        if not isinstance(other, PoissonJet):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        names = default_names(self.nvars)
        parts = []
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                if not self.entries[i][j].is_zero():
                    parts.append(
                        f"{{{names[i]},{names[j]}}}={format_polynomial(self.entries[i][j], names)}"
                    )
        return f"<PoissonJet {'; '.join(parts) or '0'} | order {self.order}>"


def poisson_bracket(f: Jet, g: Jet, pi: PoissonJet) -> Jet:
    """{f, g} = sum_ij Pi^ij d_i f d_j g, truncated."""
    if f.nvars != pi.nvars or g.nvars != pi.nvars:
        raise ValueError("functions and bivector live on different variable sets")
    out = Jet.zero(pi.nvars, min(f.order, g.order, pi.order))
    df = [f.diff(i) for i in range(pi.nvars)]
    dg = [g.diff(j) for j in range(pi.nvars)]
    for i in range(pi.nvars):
        for j in range(i + 1, pi.nvars):
            entry = pi.entries[i][j]
            if entry.is_zero():
                continue
            out = out + entry * (df[i] * dg[j] - df[j] * dg[i])
    return out


def jacobiator(pi: PoissonJet) -> dict[tuple[int, int, int], Jet]:
    """J^{ijk} = sum_l (Pi^il d_l Pi^jk + Pi^jl d_l Pi^ki + Pi^kl d_l Pi^ij)
    for i < j < k; identically zero through the order iff Pi is Poisson."""
    n = pi.nvars
    derivs = [[[pi.entries[i][j].diff(l) for l in range(n)] for j in range(n)] for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = Jet.zero(n, pi.order)
                for l in range(n):
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        if not pi.entries[a][l].is_zero():
                            total = total + pi.entries[a][l] * derivs[b][c][l]
                out[(i, j, k)] = total
    return out


def pushforward(pi: PoissonJet, phi: CoordChange) -> PoissonJet:
    """The bivector in the coordinates cut out by phi; Jacobi is preserved."""
    if phi.nvars != pi.nvars:
        raise ValueError("coordinate change and bivector have different variable counts")
    order = min(pi.order, phi.order)
    pi = pi.truncate(order) if pi.order != order else pi
    phi = phi.truncate(order) if phi.order != order else phi
    psi = invert_change(phi)
    n = pi.nvars
    grid = [[Jet.zero(n, order) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = poisson_bracket(phi.components[i], phi.components[j], pi)
            new = t.substitute(psi.components)
            grid[i][j] = new
            grid[j][i] = -new
    return PoissonJet._trusted(grid, n, order)


def is_poisson_map(pi: PoissonJet, phi: CoordChange, target: PoissonJet) -> bool:
    """Whether phi carries pi to target: {phi^i, phi^j}_pi = target^ij o phi
    for every pair, all three at one truncation order.  Equivalent to
    pushforward(pi, phi) == target, with no inverse taken."""
    n = pi.nvars
    return all(
        poisson_bracket(phi.components[i], phi.components[j], pi)
        == target.entries[i][j].substitute(phi.components)
        for i in range(n) for j in range(i + 1, n)
    )


# ---------------------------------------------------------------------------
# one-forms and the bracket induced on them


class PolyOneForm:
    """One-form with jet coefficients: sum_i components[i] dx^i."""

    __slots__ = ("nvars", "order", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty one-form")
        nvars = len(components)
        order = components[0].order
        for comp in components:
            if not isinstance(comp, Jet) or comp.nvars != nvars or comp.order != order:
                raise ValueError("components must be jets in the same variables and order")
        self.nvars = nvars
        self.order = order
        self.components = components

    @classmethod
    def zero(cls, nvars: int, order: int) -> "PolyOneForm":
        return cls([Jet.zero(nvars, order) for _ in range(nvars)])

    def __add__(self, other):
        return PolyOneForm([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return PolyOneForm([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return PolyOneForm([-a for a in self.components])

    def __mul__(self, factor):
        return PolyOneForm([c * factor for c in self.components])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyOneForm):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        names = default_names(self.nvars)
        body = " + ".join(
            f"({format_polynomial(c, names)})d{names[i]}"
            for i, c in enumerate(self.components) if not c.is_zero()
        )
        return f"<PolyOneForm {body or '0'}>"


def differential(f: Jet) -> PolyOneForm:
    """Exterior derivative df as a one-form."""
    return PolyOneForm([f.diff(i) for i in range(f.nvars)])


def sharp(alpha: PolyOneForm, pi: PoissonJet) -> list[Jet]:
    """Vector field sharp(alpha)^j = sum_i Pi^ij alpha_i (so sharp(df) = {f,-})."""
    n = pi.nvars
    out = []
    for j in range(n):
        acc = Jet.zero(n, min(alpha.order, pi.order))
        for i in range(n):
            if not pi.entries[i][j].is_zero() and not alpha.components[i].is_zero():
                acc = acc + pi.entries[i][j] * alpha.components[i]
        out.append(acc)
    return out


def one_form_lie_derivative(field: list[Jet], beta: PolyOneForm) -> PolyOneForm:
    """Lie derivative of a one-form along a vector field (Cartan formula)."""
    n = beta.nvars
    comps = []
    for k in range(n):
        acc = Jet.zero(n, beta.order)
        for j in range(n):
            if not field[j].is_zero():
                acc = acc + field[j] * beta.components[k].diff(j)
            if not beta.components[j].is_zero():
                acc = acc + beta.components[j] * field[j].diff(k)
        comps.append(acc)
    return PolyOneForm(comps)


def one_form_pairing(alpha: PolyOneForm, beta: PolyOneForm, pi: PoissonJet) -> Jet:
    """Pi(alpha, beta) = sum_ij Pi^ij alpha_i beta_j."""
    n = pi.nvars
    acc = Jet.zero(n, min(alpha.order, beta.order, pi.order))
    for i in range(n):
        for j in range(n):
            if not pi.entries[i][j].is_zero():
                acc = acc + pi.entries[i][j] * (alpha.components[i] * beta.components[j])
    return acc


def koszul_bracket(alpha: PolyOneForm, beta: PolyOneForm, pi: PoissonJet) -> PolyOneForm:
    """[alpha, beta] = L_{sharp alpha} beta - L_{sharp beta} alpha - d Pi(alpha, beta).

    Satisfies [df, dg] = d{f,g} and [alpha, f beta] = f [alpha, beta]
    + (sharp(alpha) f) beta, modulo truncation.
    """
    va = sharp(alpha, pi)
    vb = sharp(beta, pi)
    return (
        one_form_lie_derivative(va, beta)
        - one_form_lie_derivative(vb, alpha)
        - differential(one_form_pairing(alpha, beta, pi))
    )


# ---------------------------------------------------------------------------
# canonical text form


def default_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_polynomial(jet: Jet, names) -> str:
    """Deterministic text form: graded-lex term order, `p` or `p/q` rationals."""
    names = list(names)
    if len(names) != jet.nvars:
        raise ValueError("need one name per variable")
    pieces = []
    for mono, coeff in jet.terms():
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


class ParseError(ValueError):
    """Polynomial grammar error carrying the 1-based line and column."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos
        self.line = line
        self.column = col


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(("end", "", n))
    return tokens


def parse_polynomial(text: str, names, order: int) -> Jet:
    """Parse the canonical grammar: signed sums of `coef*var^exp*...` terms,
    rationals written `p` or `p/q`.  Raises ParseError with position info."""
    names = list(names)
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number() -> Fraction:
        kind, value, at = advance()
        if kind != "num":
            raise ParseError("expected a number", text, at)
        result = Fraction(int(value))
        if peek()[0] == "/":
            advance()
            kind, value, at = advance()
            if kind != "num":
                raise ParseError("expected a denominator", text, at)
            if int(value) == 0:
                raise ParseError("zero denominator", text, at)
            result /= int(value)
        return result

    def parse_factor() -> tuple[Fraction, dict[int, int]]:
        kind, value, at = peek()
        if kind == "num":
            return parse_number(), {}
        if kind == "name":
            advance()
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", text, at)
            exp = 1
            if peek()[0] == "^":
                advance()
                kind2, value2, at2 = advance()
                if kind2 != "num":
                    raise ParseError("expected an integer exponent", text, at2)
                exp = int(value2)
            return _ONE, {index[value]: exp}
        raise ParseError("expected a number or a variable", text, at)

    def parse_term() -> tuple[Fraction, Monomial]:
        coeff = _ONE
        exps = [0] * nvars
        while True:
            c, powers = parse_factor()
            coeff *= c
            for var, e in powers.items():
                exps[var] += e
            if peek()[0] == "*":
                advance()
                continue
            return coeff, tuple(exps)

    terms: list[tuple[Monomial, Fraction]] = []
    sign = _ONE
    kind, _, _ = peek()
    if kind in ("+", "-"):
        sign = -_ONE if kind == "-" else _ONE
        advance()
    while True:
        coeff, mono = parse_term()
        terms.append((mono, sign * coeff))
        kind, _, at = peek()
        if kind == "end":
            break
        if kind in ("+", "-"):
            sign = -_ONE if kind == "-" else _ONE
            advance()
            continue
        raise ParseError("expected '+', '-', or end of input", text, at)
    return Jet.from_terms(nvars, order, terms)
