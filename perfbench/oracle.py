"""Checks of poislin's outputs that share no code with poislin.

Polynomials here are plain dicts {exponent tuple: Fraction}.  The identities
a result must satisfy hold modulo monomials above the truncation order, so a
polynomial identity G = 0 is tested by restricting every polynomial to lines
x = t p through the origin and comparing the truncated power series in t
exactly, in rational arithmetic.  A nonzero G of degree at most N vanishes on
a line with a random integer direction p only if p lies on a hypersurface; with
entries drawn from [-10^6, 10^6] that happens with probability below
N / 10^6 per line, and every identity is tested on two lines.

Polynomial text emitted by the command line is parsed with sympy, not with
poislin's parser.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

_LINE_SEED = 2004_0127
_LINES = 2
ZERO = Fraction(0)


@lru_cache(maxsize=None)
def line_points(nvars: int) -> tuple:
    rng = random.Random(_LINE_SEED + nvars)
    return tuple(tuple(rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(nvars))
                 for _ in range(_LINES))


def derivative(poly: dict, index: int) -> dict:
    out = {}
    for mono, c in poly.items():
        e = mono[index]
        if e:
            out[mono[:index] + (e - 1,) + mono[index + 1:]] = c * e
    return out


def series_mul(a: list, b: list) -> list:
    order = len(a) - 1
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def series_add(a: list, b: list, scale=1) -> list:
    return [x + scale * y for x, y in zip(a, b)]


class Line:
    """Restriction of polynomials to t -> t * point, truncated at t^order."""

    def __init__(self, point, order: int):
        self.point = point
        self.order = order
        self._powers = [[p**e for e in range(order + 1)] for p in point]

    def value(self, poly: dict) -> list:
        out = [ZERO] * (self.order + 1)
        for mono, c in poly.items():
            d = sum(mono)
            if d > self.order:
                continue
            weight = 1
            for table, e in zip(self._powers, mono):
                weight *= table[e]
            out[d] += c * weight
        return out

    def gradient(self, poly: dict) -> list:
        return [self.value(derivative(poly, i)) for i in range(len(self.point))]

    def compose(self, poly: dict, args: list) -> list:
        """poly evaluated at the series args (each without constant term)."""
        powers = [[None] * (self.order + 1) for _ in args]
        one = [Fraction(1)] + [ZERO] * self.order

        def power(k, e):
            if powers[k][e] is None:
                powers[k][e] = one if e == 0 else series_mul(power(k, e - 1), args[k])
            return powers[k][e]

        out = [ZERO] * (self.order + 1)
        for mono, c in poly.items():
            if sum(mono) > self.order:
                continue
            term = [c] + [ZERO] * self.order
            for k, e in enumerate(mono):
                if e:
                    term = series_mul(term, power(k, e))
            out = series_add(out, term)
        return out


def _lines(nvars: int, order: int):
    return [Line(p, order) for p in line_points(nvars)]


def _bracket(line: Line, bivector: dict, grad_f: list, grad_g: list) -> list:
    """{f, g} = sum_{a<b} P_ab (d_a f d_b g - d_b f d_a g) on one line."""
    out = [ZERO] * (line.order + 1)
    for (a, b), entry in bivector.items():
        cross = series_add(series_mul(grad_f[a], grad_g[b]),
                           series_mul(grad_f[b], grad_g[a]), -1)
        out = series_add(out, series_mul(line.value(entry), cross))
    return out


# ---------------------------------------------------------------------------
# identities


def transport_defects(bivector: dict, change: list, target: dict, order: int) -> list:
    """The new coordinates psi = change satisfy {psi_i, psi_j} = target_ij(psi)
    through `order`, the bracket taken in the input bivector (upper-triangle
    dict {(i, j): poly}).  This says target is the input moved by psi."""
    n = len(change)
    problems = []
    for line in _lines(n, order):
        values = [line.value(c) for c in change]
        grads = [line.gradient(c) for c in change]
        for i in range(n):
            for j in range(i + 1, n):
                lhs = _bracket(line, bivector, grads[i], grads[j])
                rhs = line.compose(target.get((i, j), {}), values)
                if lhs != rhs:
                    problems.append(f"bracket of new coordinates {i},{j} is not the "
                                    f"normal form through order {order}")
    return sorted(set(problems))


def action_defects(fields: list, change: list, matrices: list, order: int) -> list:
    """J(psi) X_i = A_i psi through `order` for every generator i."""
    n = len(change)
    problems = []
    for line in _lines(n, order):
        values = [line.value(c) for c in change]
        grads = [line.gradient(c) for c in change]
        for i, fld in enumerate(fields):
            field_values = [line.value(comp) for comp in fld]
            for a in range(n):
                lhs = [ZERO] * (order + 1)
                for b in range(n):
                    lhs = series_add(lhs, series_mul(grads[a][b], field_values[b]))
                rhs = [ZERO] * (order + 1)
                for c in range(n):
                    if matrices[i][a][c]:
                        rhs = series_add(rhs, values[c], matrices[i][a][c])
                if lhs != rhs:
                    problems.append(f"generator {i} component {a}: J(psi) X != A psi")
    return sorted(set(problems))


def algebroid_dual(structure: dict, anchor: list, base_dim: int, rank: int) -> dict:
    """Dual bivector on (x, e): {e_i, e_j} = sum_k c_ij^k(x) e_k and
    {e_i, x_l} = anchor_i^l(x).  structure maps (i, j, k), i < j, to the
    base polynomial c_ij^k; anchor[i][l] is a base polynomial."""
    pad = (0,) * rank
    out = {}
    for (i, j, k), poly in structure.items():
        unit = tuple(int(t == k) for t in range(rank))
        entry = out.setdefault((base_dim + i, base_dim + j), {})
        for mono, c in poly.items():
            key = mono + unit
            entry[key] = entry.get(key, ZERO) + c
    for i in range(rank):
        for l in range(base_dim):
            if anchor[i][l]:
                # stored upper-triangle: {x_l, e_i} = -anchor_i^l
                out[(l, base_dim + i)] = {m + pad: -c for m, c in anchor[i][l].items()}
    out = {key: {m: c for m, c in poly.items() if c} for key, poly in out.items()}
    return {key: poly for key, poly in out.items() if poly}


def algebroid_change(base: list, frame: list, base_dim: int, rank: int) -> list:
    """Dual-variable components of a base change plus frame change:
    x_a -> base_a(x), e_i -> sum_j frame[i][j](x) e_j."""
    pad = (0,) * rank
    comps = [{m + pad: c for m, c in b.items()} for b in base]
    for i in range(rank):
        comp = {}
        for j in range(rank):
            unit = tuple(int(t == j) for t in range(rank))
            for m, c in frame[i][j].items():
                comp[m + unit] = comp.get(m + unit, ZERO) + c
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# structural properties


def linear_part(poly: dict) -> dict:
    return {m: c for m, c in poly.items() if sum(m) == 1}


def linear_normal_form_defects(bivector: dict, target: dict) -> list:
    """The normal form is exactly the input's linear part."""
    keys = set(bivector) | set(target)
    bad = [key for key in keys
           if target.get(key, {}) != linear_part(bivector.get(key, {}))]
    return [f"normal form entry {key} is not the input's linear part" for key in sorted(bad)]


def levi_pattern_defects(target: dict, ns: int, nvars: int) -> list:
    """s-s brackets are linear in the s coordinates; s-r brackets are linear
    in the r coordinates."""
    problems = []
    for a in range(ns):
        for b in range(a + 1, nvars):
            allowed = range(ns) if b < ns else range(ns, nvars)
            units = {tuple(int(t == k) for t in range(nvars)) for k in allowed}
            if not set(target.get((a, b), {})) <= units:
                problems.append(f"normal form entry ({a},{b}) leaves the Levi pattern")
    return problems


def doubling_defects(steps) -> list:
    """Block law of the doubling scheduler: the lowest degree entering block
    nu is at least 2^nu.  steps: (block, lowest_before) pairs."""
    return [f"block {block} entered at degree {low}"
            for block, low in steps if low is not None and low < 2**block]


def pairing(functional: dict, cocycle: dict) -> Fraction:
    return sum((c * functional.get(key, ZERO) for key, c in cocycle.items()), ZERO)


def obstruction_defects(module_degree: int, expected_degree: int,
                        functional: dict, cocycle: dict) -> list:
    problems = []
    if module_degree != expected_degree:
        problems.append(f"obstruction at degree {module_degree}, "
                        f"theory puts it at {expected_degree}")
    if pairing(functional, cocycle) == 0:
        problems.append("certificate functional pairs to zero with the cocycle")
    return problems


def zero_linear_h_dim(nvars: int) -> int:
    """With a zero linear part the differential vanishes, so H^2 at degree 2
    is all of C^2: C(n,2) slots times the degree-2 monomials."""
    return comb(nvars, 2) * comb(nvars + 1, 2)


def expected_cohomology(algebra: str, module_degree: int, r: int) -> int:
    """dim H^r of an algebra on degree-d polynomials of its coadjoint module.

    Whitehead: H^1 = H^2 = 0 for the simple so(3) and sl(2).  gl(2) is
    sl(2) plus a centre acting trivially; Kunneth gives H^1 = invariants
    tensor H^1(centre), and the invariants of degree d are spanned by C^a w^b
    with C the Casimir and w the central coordinate, 2a + b = d.  H^2 = 0.
    Neither value depends on the basis the algebra is written in.
    """
    if r not in (1, 2):
        raise ValueError("known answers are tabulated for r = 1, 2")
    if algebra in ("so3", "sl2"):
        return 0
    if algebra == "gl2":
        return module_degree // 2 + 1 if r == 1 else 0
    raise ValueError(f"no known answer for {algebra!r}")


# ---------------------------------------------------------------------------
# text from the command line


@lru_cache(maxsize=4096)
def _parse(text: str, names: tuple) -> tuple:
    import sympy
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    symbols = sympy.symbols(names)
    expr = parse_expr(text, local_dict=dict(zip(names, symbols)),
                      transformations=standard_transformations + (convert_xor,))
    poly = sympy.Poly(expr, *symbols)
    return tuple((tuple(int(e) for e in mono), Fraction(int(c.p), int(c.q)))
                 for mono, c in poly.terms() if c)


def parse_poly(text: str, names) -> dict:
    return dict(_parse(text, tuple(names)))


def parse_brackets(block: dict, names) -> dict:
    """{"a,b": text} in either orientation -> upper-triangle dict."""
    out = {}
    for key, text in block.items():
        a, b = (names.index(part.strip()) for part in key.split(","))
        poly = parse_poly(text, names)
        if a > b:
            a, b, poly = b, a, {m: -c for m, c in poly.items()}
        out[(a, b)] = poly
    return out
