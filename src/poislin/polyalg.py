"""Truncated multivariate polynomial algebra over exact rationals.

A jet of order N is a polynomial kept only through total degree N; products
drop higher monomials immediately, so every operation below is exact modulo
the degree-(N+1) ideal.

A jet has one state: a positive denominator `den` and integer numerators
bucketed by degree, {degree: {key: numerator}}.  A key packs a monomial's
exponents as digits in base N+1, so multiplying two monomials is adding
their keys, and within a degree a larger key is an earlier monomial in
graded-lex order.  The state is canonical (no zero numerator, no empty
bucket, `den` coprime to the numerators), so equal jets have equal states.
Sums, products, brackets, field derivatives X(f), substitution and transport
read states as they are and hand theirs to the one normalizer,
`_canonical`.  A key depends on the order, so a change of order goes through
`_rebase`, the one place a key changes base.  `fractions.Fraction` appears
only at the edges: the constructors, which reject floats, `terms()`,
`coefficient()` and the text form.

Every jet substituted into the same argument tuple (the components of a
composition, the images a morphism check composes with phi) shares one power
table of those arguments.  For arguments x plus a tail of lowest degree l,
such as every correction, args^m of degree above N - l + 1 is x^m through
degree N; `_tail_degree` is the one reader of l, and of whether the linear
part is exactly the identity.  Transport takes no inverse: the pushforward,
the conjugated action and the inverse itself are each the unique F with
F o phi = B, and `_Powers.solve` finds F degree by degree on phi's own power
table, F_d = B_d minus the degree-d part of sum_{e<d} F_e o phi.  A linear
part A other than the identity is composed away first, as
F o phi~ = B o A^-1 for phi~ = phi o A^-1.  A change whose linear part is
the identity keeps its table: the first transport that needs it builds it.

A late correction needs no table at all.  Let phi = x + t with t of lowest
degree l, and let a jet G be G_0 + G_1 + terms of degree L and up.

* Composition: G o phi = G + G_1(t) through order N whenever L + l - 1 > N,
  since G o phi - G - G_1(t) is G_{>=L} o phi - G_{>=L}, which starts at
  degree L + l - 1.
* Solve: the unique F with F o phi = B is B - B_1(t) whenever
  min(2l - 1, L + l - 1) > N for B's L, since (B - B_1(t)) o phi - B is
  (B_{>=L} o phi - B_{>=L}) - (B_1(t) o phi - B_1(t)), which starts at that
  degree.  The conjugated action (B = D phi . X) and the inverse (B = x)
  take it through `solve_composed`.
* Pushforward: pi's image is the first-order pi - L_t pi_1 whenever
  M = min(2l - 1, L + l - 1) > N for pi's L.  B = {phi^i, phi^j} differs
  from pi plus its pi_1 d t terms only in degree M and above, and so does
  F o phi - F from t . grad pi_1, since F less pi_1 starts at degree
  min(L, l); so F below degree M is pi - L_t pi_1.

The engines meet these on every correction of degree at least (N + 2) / 2
once the degrees below it are cleared (then L = l and M = 2l - 1), and on
the identity change.  Such a correction also composes first order with
every later one, of tail degree l' >= l, as l + l' - 1 >= 2l - 1 > N.  So
an engine run whose corrections have the identity linear part builds one
table per correction whose transport is not first order, and composing the
corrections builds no other.

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
  pushforward(Pi, phi)^ij is the unique F with F o phi = {phi^i, phi^j}.
  Under the composition convention above, pushforward(Pi, compose(phi, psi))
  equals pushforward(pushforward(Pi, phi), psi).
* The anchor of a one-form is sharp(alpha)^j = sum_i Pi^ij alpha_i, i.e.
  pairing beta with sharp(alpha) returns Pi(alpha, beta); sharp(df) is the
  derivation {f, -}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod

from .linalg import LinearSolver, exact_scalar, rank

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


def _canonical(den: int, num: dict) -> tuple[int, dict]:
    """The canonical state of numerators `num` over a positive `den`: zero
    numerators and empty buckets dropped, the content shared by `den` and
    the numerators divided out."""
    kept = {}
    for deg, items in num.items():
        if not all(items.values()):
            items = {k: v for k, v in items.items() if v}
        if items:
            kept[deg] = items
    if den > 1:
        g = gcd(den, *[v for items in kept.values() for v in items.values()])
        if g > 1:
            den //= g
            kept = {deg: {k: v // g for k, v in items.items()} for deg, items in kept.items()}
    return den, kept


class Jet:
    """Sparse polynomial truncated at a fixed total degree: integer
    numerators over one positive denominator `den` (see the module
    docstring)."""

    __slots__ = ("nvars", "order", "den", "_num")

    def __init__(self, nvars: int, order: int, coeffs=None):
        if nvars < 0 or order < 0:
            raise ValueError("nvars and order must be non-negative")
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for mono, value in dict(coeffs).items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 or not isinstance(e, int) for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
                c = exact_scalar(value)
                if c and sum(mono) <= order:
                    clean[mono] = c
        den = lcm(*(c.denominator for c in clean.values()))
        num: dict[int, dict[int, int]] = {}
        for mono, c in clean.items():
            num.setdefault(sum(mono), {})[_pack(mono, order + 1)] = (
                c.numerator * (den // c.denominator))
        self.nvars = nvars
        self.order = order
        self.den, self._num = _canonical(den, num)

    @classmethod
    def _from_state(cls, nvars: int, order: int, den: int, num: dict) -> "Jet":
        """The jet of numerators `num` (keys in base order+1, degrees at most
        `order`) over `den`, brought to canonical form."""
        jet = cls.__new__(cls)
        jet.nvars = nvars
        jet.order = order
        jet.den, jet._num = _canonical(den, num)
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, order: int) -> "Jet":
        return cls._from_state(nvars, order, 1, {})

    @classmethod
    def one(cls, nvars: int, order: int) -> "Jet":
        return cls._from_state(nvars, order, 1, {0: {0: 1}})

    @classmethod
    def variable(cls, index: int, nvars: int, order: int) -> "Jet":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        key = (order + 1) ** (nvars - 1 - index)
        return cls._from_state(nvars, order, 1, {1: {key: 1}} if order >= 1 else {})

    @classmethod
    def linear(cls, coeffs, order: int) -> "Jet":
        """The linear form sum_k coeffs[k] x^k in len(coeffs) variables."""
        n = len(coeffs)
        return cls(n, order, {tuple(int(t == k) for t in range(n)): c
                              for k, c in enumerate(coeffs)})

    @classmethod
    def from_numerators(cls, nvars: int, order: int, den: int, numerators) -> "Jet":
        """The jet of (monomial, integer numerator) pairs, distinct monomials
        of `nvars` exponents, over a positive `den`, built with no check and
        no Fraction; terms above the order are dropped."""
        num: dict[int, dict[int, int]] = {}
        for mono, n in numerators:
            if sum(mono) <= order:
                num.setdefault(sum(mono), {})[_pack(mono, order + 1)] = n
        return cls._from_state(nvars, order, den, num)

    @classmethod
    def from_packed(cls, nvars: int, order: int, den: int, num: dict) -> "Jet":
        """The jet of fresh packed numerators {degree: {key: numerator}}, keys
        in base order+1 and degrees at most `order`, over a positive `den`,
        taken as its state with no check and no Fraction."""
        return cls._from_state(nvars, order, den, num)

    @classmethod
    def from_terms(cls, nvars: int, order: int, terms) -> "Jet":
        acc: dict[Monomial, Fraction] = {}
        for mono, value in terms:
            mono = tuple(mono)
            acc[mono] = acc.get(mono, _ZERO) + exact_scalar(value)
        return cls(nvars, order, acc)

    # -- inspection --------------------------------------------------------

    def numerators(self):
        """(monomial, integer numerator) pairs in graded-lex order; each
        coefficient is its numerator over `den`.  The integer view of
        `terms()`."""
        radix, n = self.order + 1, self.nvars
        for deg in sorted(self._num):
            items = self._num[deg]
            yield from [(_unpack(k, radix, n), items[k]) for k in sorted(items, reverse=True)]

    def packed_numerators(self, degree: int) -> dict[int, int]:
        """The jet's own {key in base order+1: numerator over `den`} bucket
        of the degree-d part, as `packed_basis` keys it; never write it."""
        return self._num.get(degree, {})

    def weighted_sums(self, other: "Jet", start: int = 0) -> dict[int, int]:
        """{d: sum of a*b*alpha!} per degree d >= start, over the monomials
        x^alpha on which self and other carry the numerators a and b; each
        alpha! is read off the table of `_factorials`."""
        fact = _factorials(self.nvars, self.order)
        theirs = _rebase(other._num, other.nvars, other.order + 1, self.order)
        sums = {}
        for deg, items in self._num.items():
            if deg >= start and (match := theirs.get(deg)):
                if acc := sum(a * match[k] * fact[k] for k, a in items.items() if k in match):
                    sums[deg] = acc
        return sums

    def terms(self):
        """(monomial, coefficient) pairs in graded-lex order."""
        for mono, n in self.numerators():
            yield mono, Fraction(n, self.den)

    def coefficient(self, mono) -> Fraction:
        mono = tuple(mono)
        if len(mono) != self.nvars or min(mono, default=0) < 0:
            return _ZERO    # a negative exponent can pack like a real monomial
        part = self._num.get(sum(mono), {})
        return Fraction(part.get(_pack(mono, self.order + 1), 0), self.den)

    def linear_coefficients(self) -> list:
        """c with degree-one part sum_k c[k] x^k, as Jet.linear takes it."""
        part, n = self._num.get(1), self.nvars
        if not part:
            return [_ZERO] * n
        return [Fraction(part[u], self.den) if u in part else _ZERO
                for u in [(self.order + 1) ** (n - 1 - k) for k in range(n)]]

    def is_zero(self) -> bool:
        return not self._num

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num[0][0], self.den) if 0 in self._num else _ZERO

    def lowest_degree(self, start: int = 0) -> int | None:
        """The lowest degree at least `start` with a nonzero part."""
        return min((d for d in self._num if d >= start), default=None)

    def highest_degree(self) -> int | None:
        return max(self._num, default=None)

    def homogeneous_part(self, degree: int) -> "Jet":
        part = {degree: self._num[degree]} if degree in self._num else {}
        return Jet._from_state(self.nvars, self.order, self.den, part)

    def truncate(self, order: int) -> "Jet":
        """Change the truncation bound (raising it only relabels the container;
        dropped information is not recovered)."""
        return Jet._from_state(self.nvars, order, self.den, _packed(self, order))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return ((self.nvars, self.order, self.den, self._num)
                == (other.nvars, other.order, other.den, other._num))

    def __hash__(self):
        return hash((self.nvars, self.order, self.den,
                     frozenset((k, v) for items in self._num.values() for k, v in items.items())))

    def __repr__(self) -> str:
        return f"<Jet {format_polynomial(self, default_names(self.nvars))} | order {self.order}>"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Jet") -> int:
        if self.nvars != other.nvars:
            raise ValueError("jets live on different variable sets")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.one(self.nvars, self.order) * other
        order = self._check_compatible(other)
        den, (a, b) = _common((self, other), order)
        out = {deg: dict(items) for deg, items in a.items()}
        for deg, items in b.items():
            acc = out.setdefault(deg, {})
            for k, v in items.items():
                acc[k] = acc.get(k, 0) + v
        return Jet._from_state(self.nvars, order, den, out)

    __radd__ = __add__

    def __neg__(self):
        # negating a canonical state leaves it canonical
        jet = Jet.__new__(Jet)
        jet.nvars, jet.order, jet.den = self.nvars, self.order, self.den
        jet._num = {deg: {k: -v for k, v in items.items()} for deg, items in self._num.items()}
        return jet

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -exact_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = exact_scalar(other)
            return Jet._from_state(self.nvars, self.order, self.den * c.denominator, {
                deg: {k: v * c.numerator for k, v in items.items()}
                for deg, items in self._num.items()})
        order = self._check_compatible(other)
        form = _product(_packed(self, order), _packed(other, order), order)
        return Jet._from_state(self.nvars, order, self.den * other.den, form)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = exact_scalar(other)
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
        return Jet._from_state(self.nvars, self.order, self.den, _partial(self, index))

    def substitute(self, args) -> "Jet":
        """Compose with origin-preserving jets: replace variable i by args[i]."""
        args = list(args)
        if len(args) != self.nvars:
            raise ValueError("substitute needs one jet per variable")
        if not args:
            return self
        return _Powers(args).substitute(self)


# ---------------------------------------------------------------------------
# integer transport core
#
# A packed form is {degree: {key: numerator}} over a denominator kept beside
# it, a jet's state without the normalization.  A key packs a monomial's
# exponents as digits in base `radix`, one more than the truncation order,
# so multiplying monomials is adding keys: no exponent of a truncated product
# can reach the base.


def _pack(mono: Monomial, radix: int) -> int:
    key = 0
    for e in mono:
        key = key * radix + e
    return key


def _unpack(key: int, radix: int, nvars: int) -> Monomial:
    exps = [0] * nvars
    i = nvars
    while i:
        i -= 1
        exps[i] = key % radix
        key //= radix
    return tuple(exps)


def packed_basis(basis, order: int) -> tuple[list[int], dict[int, int]]:
    """(each distinct monomial's key in base order+1, {key: position})."""
    keys = [_pack(mono, order + 1) for mono in basis]
    return keys, {key: i for i, key in enumerate(keys)}


@lru_cache(maxsize=64)
def _factorials(nvars: int, order: int) -> dict[int, int]:
    """{packed key in base order+1: alpha!} over the monomials x^alpha in
    `nvars` variables of degree at most `order`; shared, never written."""
    fact = [factorial(e) for e in range(order + 1)]
    return {_pack(mono, order + 1): prod(fact[e] for e in mono)
            for d in range(order + 1) for mono in monomials(nvars, d)}


def _rebase(num: dict, nvars: int, radix: int, order: int) -> dict:
    """Packed numerators keyed in base `radix`, through degree `order` and
    keyed in base order+1: the one place a key changes base.  Numerators
    already in that base come back as they are, or with the degrees above
    `order` left out."""
    if radix == order + 1:
        return num if max(num, default=0) <= order else {
            deg: items for deg, items in num.items() if deg <= order}
    return {deg: {_pack(_unpack(k, radix, nvars), order + 1): v for k, v in items.items()}
            for deg, items in num.items() if deg <= order}


def _packed(jet: Jet, order: int) -> dict:
    """The jet's numerators through degree `order`, keyed in base order+1."""
    return _rebase(jet._num, jet.nvars, jet.order + 1, order)


def _partial(jet: Jet, index: int) -> dict:
    """The numerators of d jet / dx_index over the jet's denominator, keyed
    in the jet's base: a key less the weight of x_index is the key of the
    lowered monomial."""
    radix = jet.order + 1
    weight = radix ** (jet.nvars - 1 - index)
    out = {}
    for deg, items in jet._num.items():
        part = {k - weight: v * e for k, v in items.items() if (e := k // weight % radix)}
        if part:
            out[deg - 1] = part
    return out


def _common(jets, order: int) -> tuple[int, list]:
    """(D, the jets' numerators through `order` over their common
    denominator D, keyed in base order+1)."""
    denom = lcm(*(jet.den for jet in jets))
    out = []
    for jet in jets:
        num, up = _packed(jet, order), denom // jet.den
        out.append(num if up == 1 else
                   {deg: {k: v * up for k, v in items.items()} for deg, items in num.items()})
    return denom, out


def _product(a: dict, b: dict, order: int, out: dict | None = None, sign: int = 1) -> dict:
    """Product of two packed forms truncated at `order`, added with `sign`
    into `out` when given."""
    if out is None:
        out = {}
    for dega, items_a in a.items():
        for degb, items_b in b.items():
            deg = dega + degb
            if deg > order:
                continue
            acc = out.get(deg)
            if acc is None:
                acc = out[deg] = {}
            get = acc.get
            for ka, ca in items_a.items():
                if sign < 0:
                    ca = -ca
                for kb, cb in items_b.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
    return out


def derivative_along(field, f: Jet) -> Jet:
    """X(f) = sum_b X^b d_b f for the vector field X with components
    `field`, truncated at the lowest order among f and the components; every
    product is summed into one packed form."""
    if len(field) != f.nvars or any(x.nvars != f.nvars for x in field):
        raise ValueError("vector field and function live on different variable sets")
    order = min(f.order, *(x.order for x in field))
    xden, packed = _common(field, order)
    acc: dict[int, dict[int, int]] = {}
    for b, x in enumerate(packed):
        if x:
            _product(x, _rebase(_partial(f, b), f.nvars, f.order + 1, order), order, acc)
    return Jet._from_state(f.nvars, order, xden * f.den, acc)


def _tail_degree(args, nvars: int, radix: int) -> int | None:
    """l for arguments x + t with t of lowest degree l (none: radix, one
    more than the order), each argument a (denominator, packed numerators
    keyed in base radix) pair in `nvars` variables; None unless there is
    one argument per variable and each one's linear part is exactly its x_i."""
    if len(args) != nvars or any(num.get(1) != {radix ** (nvars - 1 - i): den}
                                 for i, (den, num) in enumerate(args)):
        return None
    return min((deg for _, num in args for deg in num if deg > 1), default=radix)


def _tails(phi: CoordChange, order: int) -> tuple[int, dict]:
    """(D, {key of x_k: the parts of degree 2 and up of phi^k through
    `order`, as (degree, numerators) pairs over D keyed in base order+1})."""
    n, radix = phi.nvars, order + 1
    tden, packed = _common(phi.components, order)
    return tden, {radix ** (n - 1 - k): [(d, items) for d, items in t.items() if d > 1]
                  for k, t in enumerate(packed)}


def _add_linear_of_tail(acc: dict, linear: dict, tails: dict, sign: int) -> None:
    """Add sign * sum_k c_k t_k into the packed form `acc`, for a linear part
    {key of x_k: c_k} and the tails t_k of `_tails`."""
    for key, c in linear.items():
        c *= sign
        for d, items in tails[key]:
            bucket = acc.setdefault(d, {})
            for k, v in items.items():
                bucket[k] = bucket.get(k, 0) + c * v


class _Powers:
    """The powers args^m of one tuple of origin-preserving jets, shared by
    every jet substituted into that tuple.

    All arguments are packed over one denominator D, the lcm of theirs, at
    the lowest of their orders, so args^m is table[m] / D^|m|; a power is
    built once, from the power one degree lower, the first time a
    substituted jet needs it."""

    __slots__ = ("nvars", "order", "denom", "args", "table", "keep")

    def __init__(self, jets):
        jets = list(jets)
        self.nvars = jets[0].nvars
        for a in jets:
            if a.nvars != self.nvars:
                raise ValueError("substitution jets live on different variable sets")
            if 0 in a._num:
                raise ValueError("substitution jets must vanish at the origin")
        self.order = order = min(a.order for a in jets)
        self.denom, self.args = _common(jets, order)
        self.table = {0: {0: {0: 1}}}
        # args = x + a tail of lowest degree l: powers of degree above
        # keep = order - l + 1 are their leading monomial
        lowest = _tail_degree([(self.denom, arg) for arg in self.args], self.nvars, order + 1)
        self.keep = order if lowest is None else order - lowest + 1

    def power(self, key: int, degree: int) -> dict:
        """The packed numerators of args^m, m the monomial of the given
        degree packed as `key`: D^degree m itself above `keep`, else built
        from the power of m less its last nonzero exponent."""
        form = self.table.get(key)
        if form is None:
            if degree > self.keep:
                form = {degree: {key: self.denom ** degree}}
            else:
                radix, i, weight = self.order + 1, len(self.args) - 1, 1
                while key // weight % radix == 0:
                    weight *= radix
                    i -= 1
                form = _product(self.power(key - weight, degree - 1), self.args[i], self.order)
            self.table[key] = form
        return form

    def solve(self, form, order: int) -> Jet:
        """The unique F with F(args) = form, a packed form over its
        denominator, through degree `order` <= self.order, for arguments
        whose linear part is the identity: F_d = form_d less the degree-d
        part of sum_{e<d} F_e(args), degree by degree.  Each degree of F and
        of what remains is kept over its own denominator with its content
        divided out; a degree above `keep` reaches no higher degree, so its
        powers are never built."""
        denom, buckets = form
        base, table = self.denom, self.table
        rest = {deg: (denom, {deg: dict(items)}) for deg, items in buckets.items() if deg <= order}
        parts = []
        for d in range(order + 1):
            den, part = _canonical(*rest.pop(d, (1, {})))
            parts.append((den, part))
            if not part or d > self.keep:
                continue
            # bring every degree F_d(args) - F_d reaches, d + l - 1 and up
            # for a tail of lowest degree l, over a multiple of den * D^d,
            # the denominator of F_d(args), then subtract F_d(args) from it
            over, scales = den * base ** d, {}
            for e in range(d + self.order - self.keep, order + 1):
                had, acc = rest.get(e, (over, {e: {}}))
                common = lcm(had, over)
                rest[e] = (common, acc if common == had else {
                    e: {k: v * (common // had) for k, v in acc[e].items()}})
                scales[e] = common // over
            for key, c in part[d].items():
                for e, terms in (table.get(key) or self.power(key, d)).items():
                    if d < e <= order:
                        acc = rest[e][1][e]
                        get, s = acc.get, c * scales[e]
                        for k, v in terms.items():
                            acc[k] = get(k, 0) - s * v
        common = lcm(*(den for den, _ in parts))
        return Jet._from_state(self.nvars, order, common, _rebase(
            {d: {k: v * (common // den) for k, v in items.items()} for den, part in parts
             for d, items in part.items()}, self.nvars, self.order + 1, order))

    def substitute(self, jet: Jet) -> Jet:
        """jet(args), truncated at the lower of the two orders N: the sum of
        c_m D^(top-|m|) table[m] over the jet's integer numerators c_m
        through degree N, over the jet's denominator times D^top."""
        if jet.nvars != len(self.args):
            raise ValueError("substitute needs one jet per variable")
        order = min(jet.order, self.order)
        num = _rebase(jet._num, jet.nvars, jet.order + 1, self.order)
        degrees = [deg for deg in num if deg <= order]
        top = max(degrees, default=0)
        base, table = self.denom, self.table
        out: dict[int, dict[int, int]] = {}
        for deg in degrees:
            scale = base ** (top - deg)
            for key, c in num[deg].items():
                s = c * scale
                for d, items in (table.get(key) or self.power(key, deg)).items():
                    if d > order:
                        continue
                    acc = out.get(d)
                    if acc is None:
                        acc = out[d] = {}
                    get = acc.get
                    for k, v in items.items():
                        acc[k] = get(k, 0) + s * v
        return Jet._from_state(self.nvars, order, jet.den * base ** top,
                               _rebase(out, self.nvars, self.order + 1, order))


# ---------------------------------------------------------------------------
# coordinate changes


class CoordChange:
    """Origin-preserving polynomial coordinate change with invertible linear
    part; component i is the i-th new coordinate as a jet in the old ones.
    A change whose linear part is the identity keeps its power table once a
    transport has built it."""

    __slots__ = ("nvars", "order", "components", "_powers")

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
        self._powers = None
        if rank(self.linear_matrix(), nvars) != nvars:
            raise ValueError("linear part is not invertible")

    @classmethod
    def _trusted(cls, components) -> "CoordChange":
        """Skip the checks for components that a composition or an inverse
        of valid changes produced: same variables and order, the origin
        fixed, an invertible linear part."""
        change = cls.__new__(cls)
        change.components = tuple(components)
        change.nvars = len(change.components)
        change.order = change.components[0].order
        change._powers = None
        return change

    @classmethod
    def identity(cls, nvars: int, order: int) -> "CoordChange":
        return cls([Jet.variable(i, nvars, order) for i in range(nvars)])

    @classmethod
    def linear(cls, matrix, order: int) -> "CoordChange":
        return cls([Jet.linear(row, order) for row in matrix])

    def linear_matrix(self):
        return [comp.linear_coefficients() for comp in self.components]

    def is_identity(self) -> bool:
        return all(
            comp == Jet.variable(i, self.nvars, self.order)
            for i, comp in enumerate(self.components)
        )

    def then(self, other: "CoordChange") -> "CoordChange":
        """This change first, `other` applied to its output."""
        if other.nvars != self.nvars:
            raise ValueError("coordinate changes act on different spaces")
        return CoordChange._trusted(compose_jets(other.components, self))

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
    """Compositional inverse, exact through the truncation: the unique psi
    with psi o phi = x."""
    return CoordChange._trusted(solve_composed(
        [Jet.variable(i, phi.nvars, phi.order) for i in range(phi.nvars)], phi))


def _change_tail(jets, phi: CoordChange) -> int | None:
    """`_tail_degree` of phi's components, once the jets are checked to live
    on phi's variables."""
    if any(jet.nvars != phi.nvars for jet in jets):
        raise ValueError("jet and coordinate change have different variable counts")
    return _tail_degree([(c.den, c._num) for c in phi.components], phi.nvars, phi.order + 1)


def _near_identity(jets, phi: CoordChange, lowest: int, solve: bool) -> list[Jet]:
    """jet o phi for every jet, or with `solve` the F with F o phi = jet, at
    the lower of the two orders N, for phi = x + t with t of lowest degree
    `lowest`.  A jet J whose nonlinear part starts at degree L (none: N + 1)
    moves to J + J_1(t), or solves to J - J_1(t), read off packed forms when
    that is exact (see the module docstring): L + l - 1 > N, and for a solve
    2l - 1 > N as well.  Any other jet goes through phi's power table, built
    by the first transport that needs it and kept on phi."""
    out, tails = [], {}
    for jet in jets:
        order = min(jet.order, phi.order)
        reach = (jet.lowest_degree(2) or order + 1) + lowest - 1
        if (min(reach, 2 * lowest - 1) if solve else reach) > order:
            if order not in tails:
                tails[order] = _tails(phi, order)
            tden, tail = tails[order]
            num = _packed(jet, order)
            acc = {d: {k: v * tden for k, v in items.items()} for d, items in num.items()}
            _add_linear_of_tail(acc, num.get(1, {}), tail, -1 if solve else 1)
            out.append(Jet._from_state(jet.nvars, order, jet.den * tden, acc))
            continue
        if phi._powers is None:
            phi._powers = _Powers(phi.components)
        out.append(phi._powers.solve((jet.den, _packed(jet, phi.order)), order) if solve
                   else phi._powers.substitute(jet))
    return out


def compose_jets(jets, phi: CoordChange) -> list[Jet]:
    """jet o phi for every jet, at the lower of the two orders: first order
    where that is exact (`_near_identity`), else through one power table of
    phi."""
    jets = list(jets)
    lowest = _change_tail(jets, phi)
    if lowest is not None:
        return _near_identity(jets, phi, lowest, False)
    powers = _Powers(phi.components)
    return [powers.substitute(jet) for jet in jets]


def solve_composed(jets, phi: CoordChange) -> list[Jet]:
    """The unique F with F o phi = jet for every jet, through the lower of
    the two orders, with no inverse of phi taken: first order where that is
    exact, else on phi's power table (`_near_identity`).  A linear part A
    other than the identity is composed away first: F o phi = B exactly
    when F o phi~ = B o A^-1 for phi~ = phi o A^-1, whose linear part is the
    identity, and one `compose_jets` by A^-1 gives phi~ and every B o A^-1."""
    jets = list(jets)
    lowest = _change_tail(jets, phi)
    if lowest is None:
        n = phi.nvars
        solver = LinearSolver(phi.linear_matrix(), n)
        columns = [solver.solve([int(i == j) for i in range(n)]) for j in range(n)]
        undo = CoordChange._trusted([Jet.linear(row, phi.order) for row in zip(*columns)])
        moved = compose_jets(list(phi.components) + jets, undo)
        phi, jets = CoordChange._trusted(moved[:n]), moved[n:]
        lowest = _change_tail(jets, phi)
    return _near_identity(jets, phi, lowest, True)


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
            raise JacobiError(*bad[0])

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
        return cls(cls._trusted_brackets(nvars, order, brackets).entries, order)

    @classmethod
    def _trusted_brackets(cls, nvars: int, order: int, brackets: dict) -> "PoissonJet":
        """from_brackets with no check of the origin or the Jacobi identity,
        for brackets already certified or verified afterwards by a morphism
        equation; the grid is antisymmetric by construction."""
        zero = Jet.zero(nvars, order)
        grid = [[zero] * nvars for _ in range(nvars)]
        for (i, j), value in brackets.items():
            if not 0 <= i < j < nvars:
                raise ValueError("bracket keys must satisfy 0 <= i < j < nvars")
            jet = value if isinstance(value, Jet) else Jet.from_terms(nvars, order, value)
            grid[i][j] = jet = jet.truncate(order) if jet.order != order else jet
            grid[j][i] = -jet
        return cls._trusted(grid, nvars, order)

    def entry(self, i: int, j: int) -> Jet:
        return self.entries[i][j]

    def linear_constants(self):
        """c[i][j][k] with {x^i, x^j} = sum_k c[i][j][k] x^k + higher order."""
        return [[jet.linear_coefficients() for jet in row] for row in self.entries]

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


class JacobiError(ValueError):
    """A bivector fails the Jacobi identity through its order, first on the
    variables `triple`, whose jacobiator is `jet`."""

    def __init__(self, triple: tuple, jet: Jet):
        self.triple, self.jet = triple, jet
        super().__init__(self.in_names(default_names(jet.nvars)))

    def in_names(self, names) -> str:
        """The failure worded in the given variable names."""
        at = ", ".join(names[t] for t in self.triple)
        return (f"Jacobi identity fails through order {self.jet.order} at ({at}): "
                f"{format_polynomial(self.jet, names)}")


def poisson_bracket(f: Jet, g: Jet, pi: PoissonJet) -> Jet:
    """{f, g} = sum_ij Pi^ij d_i f d_j g, truncated."""
    if f.nvars != pi.nvars or g.nvars != pi.nvars:
        raise ValueError("functions and bivector live on different variable sets")
    order = min(f.order, g.order, pi.order)
    denom, form = _brackets(pi, [f, g], order)[0, 1]
    return Jet._from_state(pi.nvars, order, denom, form)


def _brackets(pi: PoissonJet, funcs, order: int) -> dict:
    """{funcs[i], funcs[j]} for i < j through degree `order`, each as
    (denominator, packed form in base order+1); the partials of every
    function and the packed entries of pi are built once for all pairs."""
    n = pi.nvars
    partials = [[_rebase(_partial(f, a), n, f.order + 1, order) for a in range(n)]
                for f in funcs]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if not pi.entries[a][b].is_zero()]
    pden, entries = _common([pi.entries[a][b] for a, b in pairs], order)
    out = {}
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            acc: dict[int, dict[int, int]] = {}
            fi, fj = partials[i], partials[j]
            for (a, b), entry in zip(pairs, entries):
                if entry:
                    limit = order - min(entry)
                    inner = _product(fi[a], fj[b], limit)
                    _product(fi[b], fj[a], limit, inner, -1)
                    _product(entry, inner, order, acc)
            out[i, j] = (pden * funcs[i].den * funcs[j].den, acc)
    return out


def _first_order_pushforward(pi: PoissonJet, phi: CoordChange, order: int) -> dict | None:
    """pushforward(pi, phi)^ij for i < j, pi and phi both at `order`, when
    it is the first-order image pi - L_t pi_1 (see the module docstring),
    else None.  That needs phi = x + t with t of lowest degree l, and
    M = min(2l - 1, L + l - 1) > order for pi's nonlinear part of lowest
    degree L (none: order + 1).  Then
    (pi - L_t pi_1)^ij = pi^ij + X_i(t_j) - X_j(t_i) - sum_k c^ij_k t_k, with
    X_i = (pi_1^ib)_b and pi_1^ij = sum_k c^ij_k x^k, all over one
    denominator."""
    n, radix = pi.nvars, order + 1
    tail = _tail_degree([(c.den, c._num) for c in phi.components], n, radix)
    if tail is None:
        return None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nonlinear = min((d for i, j in pairs for d in pi.entries[i][j]._num if d > 1), default=radix)
    if min(2 * tail - 1, nonlinear + tail - 1) <= order:
        return None
    units = [radix ** (n - 1 - k) for k in range(n)]
    pden, entries = _common([pi.entries[i][j] for i, j in pairs], order)
    tden, tails = _tails(phi, order)
    # X_i as (weight of x_b, key of x_k, c) for each term c x^k d_b
    fields = [[] for _ in range(n)]
    for (i, j), entry in zip(pairs, entries):
        for key, c in entry.get(1, {}).items():
            fields[i].append((units[j], key, c))
            fields[j].append((units[i], key, -c))
    out = {}
    for (i, j), entry in zip(pairs, entries):
        acc = {d: {k: v * tden for k, v in items.items()} for d, items in entry.items()}
        for field, t, sign in ((fields[i], tails[units[j]], 1), (fields[j], tails[units[i]], -1)):
            for d, items in t:
                bucket = acc.setdefault(d, {})
                for weight, key, c in field:
                    shift, c = key - weight, sign * c
                    for k, v in items.items():
                        if e := k // weight % radix:
                            bucket[k + shift] = bucket.get(k + shift, 0) + c * e * v
        _add_linear_of_tail(acc, entry.get(1, {}), tails, -1)
        out[i, j] = Jet._from_state(n, order, pden * tden, acc)
    return out


def jacobiator(pi: PoissonJet) -> dict[tuple[int, int, int], Jet]:
    """J^{ijk} = X_i(Pi^jk) + X_j(Pi^ki) + X_k(Pi^ij) for i < j < k, where
    X_i = (Pi^il)_l is the Hamiltonian field of x^i; identically zero through
    the order iff Pi is Poisson."""
    rows = pi.entries
    return {
        (i, j, k): derivative_along(rows[i], rows[j][k])
        + derivative_along(rows[j], rows[k][i])
        + derivative_along(rows[k], rows[i][j])
        for i, j, k in combinations(range(pi.nvars), 3)
    }


def pushforward(pi: PoissonJet, phi: CoordChange) -> PoissonJet:
    """The bivector in the coordinates cut out by phi; Jacobi is preserved.
    A first-order image (see the module docstring) is read off pi and the
    tail of phi; any other is solved on phi's power table."""
    if phi.nvars != pi.nvars:
        raise ValueError("coordinate change and bivector have different variable counts")
    order = min(pi.order, phi.order)
    pi = pi.truncate(order) if pi.order != order else pi
    phi = phi.truncate(order) if phi.order != order else phi
    n = pi.nvars
    upper = _first_order_pushforward(pi, phi, order)
    if upper is None:
        brackets = _brackets(pi, phi.components, order)
        upper = dict(zip(brackets, solve_composed(
            [Jet._from_state(n, order, *form) for form in brackets.values()], phi)))
    return PoissonJet._trusted_brackets(n, order, upper)


def is_poisson_map(pi: PoissonJet, phi: CoordChange, target: PoissonJet) -> bool:
    """Whether phi carries pi to target: {phi^i, phi^j}_pi = target^ij o phi
    for every pair, all three at one truncation order.  Equivalent to
    pushforward(pi, phi) == target, with no inverse taken."""
    n = pi.nvars
    if phi.nvars != n or target.nvars != n:
        raise ValueError("coordinate change and bivectors have different variable counts")
    order = min(pi.order, phi.order)
    brackets = _brackets(pi, phi.components, order)
    images = compose_jets([target.entries[i][j] for i, j in brackets], phi)
    return all(Jet._from_state(n, order, *form) == image
               for form, image in zip(brackets.values(), images))


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
    comps = []
    for k in range(beta.nvars):
        acc = derivative_along(field, beta.components[k])
        for b, v in zip(beta.components, field):
            if not b.is_zero():
                acc = acc + b * v.diff(k)
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
    q = exact_scalar(q)
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


_DIGITS = frozenset("0123456789")   # ASCII only: int() reads other digits, or fails


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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

    def integer(what: str) -> int:
        kind, value, at = advance()
        if kind != "num":
            raise ParseError(f"expected {what}", text, at)
        try:
            return int(value)
        except ValueError:      # beyond the interpreter's digit limit
            raise ParseError(f"{len(value)}-digit number is too long", text, at) from None

    def parse_number() -> Fraction:
        result = Fraction(integer("a number"))
        if peek()[0] == "/":
            advance()
            at = peek()[2]
            den = integer("a denominator")
            if den == 0:
                raise ParseError("zero denominator", text, at)
            result /= den
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
                exp = integer("an integer exponent")
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
