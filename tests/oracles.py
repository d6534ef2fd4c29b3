"""Independent reference computations used to freeze expected values.

Everything here goes through sympy so the package under test shares no code
with the oracle.  Results come back as {exponent tuple: Fraction} dicts
truncated at a total degree, comparable against Jet.terms().
"""

from fractions import Fraction

import sympy


def sym_vars(n):
    return sympy.symbols(f"v0:{n}")


def poly_dict(expr, variables, order):
    """Expand a sympy expression and truncate at total degree `order`."""
    poly = sympy.Poly(sympy.expand(expr), *variables)
    out = {}
    for mono, coeff in poly.terms():
        if sum(mono) <= order:
            c = Fraction(sympy.Rational(coeff))
            if c:
                out[tuple(int(e) for e in mono)] = c
    return out


def jet_to_expr(jet, variables):
    expr = sympy.Integer(0)
    for mono, coeff in jet.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in zip(variables, mono):
            term *= v**e
        expr += term
    return sympy.expand(expr)


def jet_dict(jet):
    return {m: c for m, c in jet.terms()}


def bracket_expr(f, g, entries, variables):
    """{f,g} with entries[i][j] the sympy expression for {v_i, v_j}."""
    n = len(variables)
    acc = sympy.Integer(0)
    for i in range(n):
        for j in range(n):
            acc += entries[i][j] * sympy.diff(f, variables[i]) * sympy.diff(g, variables[j])
    return sympy.expand(acc)


def jacobiator_expr(entries, variables, i, j, k):
    """Cyclic sum {v_i,{v_j,v_k}} + {v_j,{v_k,v_i}} + {v_k,{v_i,v_j}}."""
    acc = sympy.Integer(0)
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = entries[b][c]
        acc += bracket_expr(variables[a], inner, entries, variables)
    return sympy.expand(acc)


def field_derivative_expr(v, f, variables):
    """v(f) = sum_b v^b d_b f for a field given by sympy components."""
    return sympy.expand(sum((vb * sympy.diff(f, x) for vb, x in zip(v, variables)),
                            sympy.Integer(0)))


def field_commutator_expr(v, w, variables):
    """[v, w]^a = sum_b v^b d_b w^a - w^b d_b v^a, one expression per a."""
    return [sympy.expand(field_derivative_expr(v, wa, variables)
                         - field_derivative_expr(w, va, variables))
            for va, wa in zip(v, w)]


def series_inverse(expr, var, order):
    """Compositional inverse of a one-variable series with f(0)=0, f'(0)!=0."""
    g = sympy.Integer(0)
    lead = sympy.Rational(sympy.expand(expr).coeff(var, 1))
    g = var / lead
    for target in range(2, order + 1):
        composed = sympy.expand(expr.subs(var, g))
        poly = sympy.Poly(composed, var)
        err = sympy.Integer(0)
        for (e,), c in poly.terms():
            if 2 <= e <= target:
                err += c * var**e
        g = sympy.expand(g - err / lead)
        g = sympy.Poly(g, var).as_expr()
        # drop terms above the working degree
        kept = sympy.Integer(0)
        for (e,), c in sympy.Poly(g, var).terms():
            if e <= target:
                kept += c * var**e
        g = kept
    return sympy.expand(g)


def brute_killing(constants):
    """Killing form from structure constants c[i][j][k] via trace(ad_i ad_j)."""
    n = len(constants)
    ad = [[[constants[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    # ad[i][k][j] = c[i][j][k] as a matrix acting on index j -> k
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            tr = Fraction(0)
            for p in range(n):
                for q in range(n):
                    tr += Fraction(ad[a][p][q]) * Fraction(ad[b][q][p])
            out[a][b] = tr
    return out
