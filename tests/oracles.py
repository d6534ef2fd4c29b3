"""Independent reference computations used to freeze expected values.

Everything here goes through sympy or plain `Fraction` arithmetic, so the
package under test shares no code with the oracle.  Results come back as
{exponent tuple: Fraction} dicts truncated at a total degree, comparable
against Jet.terms().
"""

from fractions import Fraction
from itertools import combinations

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


def induced_module_matrices(rep, labels):
    """Operator matrices of the derivation extension of a linear action to
    the polynomials spanned by `labels` (exponent tuples of one degree):
    X_i sends x_u to sum_l rep[i][l][u] x_l and acts on products by the
    Leibniz rule.  Entry [row][col] is the coefficient of labels[row] in
    X_i applied to labels[col]."""
    n = len(labels[0])
    variables = sym_vars(n)
    index = {m: i for i, m in enumerate(labels)}
    degree = sum(labels[0])
    out = []
    for mat in rep:
        images = [sum((sympy.Rational(Fraction(mat[l][u]).numerator,
                                      Fraction(mat[l][u]).denominator) * variables[l]
                       for l in range(n)), sympy.Integer(0)) for u in range(n)]
        dense = [[Fraction(0)] * len(labels) for _ in labels]
        for col, mono in enumerate(labels):
            f = sympy.Mul(*(v ** e for v, e in zip(variables, mono)))
            image = sum((sympy.diff(f, v) * w for v, w in zip(variables, images)),
                        sympy.Integer(0))
            for m, c in poly_dict(image, variables, degree).items():
                dense[index[m]][col] = c
        out.append(dense)
    return out


def ce_differential_dense(constants, matrices, r):
    """Dense matrix of d: C^r -> C^{r+1} straight from the Chevalley-Eilenberg
    formula

        (dw)(X_t0..X_tr) = sum_a (-1)^a X_ta . w(.., X_ta omitted, ..)
                         + sum_{a<b} (-1)^(a+b) w([X_ta, X_tb], .., both omitted, ..)

    on cochains stored on increasing index tuples (subset-major, module index
    minor), with w(X_k, rest) = (-1)^#{x in rest: x < k} w(sorted(k, rest))
    and zero when k is in rest."""
    n = len(constants)
    d = len(matrices[0]) if matrices else 0
    targets = list(combinations(range(n), r + 1))
    sources = {s: i for i, s in enumerate(combinations(range(n), r))}
    out = [[Fraction(0)] * (len(sources) * d) for _ in range(len(targets) * d)]
    for t_pos, t in enumerate(targets):
        for a in range(r + 1):
            base = sources[t[:a] + t[a + 1:]] * d
            for l in range(d):
                for u in range(d):
                    out[t_pos * d + l][base + u] += (-1) ** a * Fraction(matrices[t[a]][l][u])
        for a, b in combinations(range(r + 1), 2):
            rest = tuple(x for p, x in enumerate(t) if p not in (a, b))
            for k in range(n):
                c = Fraction(constants[t[a]][t[b]][k])
                if not c or k in rest:
                    continue
                sign = (-1) ** (a + b + sum(1 for x in rest if x < k))
                base = sources[tuple(sorted(rest + (k,)))] * d
                for l in range(d):
                    out[t_pos * d + l][base + l] += sign * c
    return out


def representation_defect(constants, matrices) -> bool:
    """Whether some pair violates [X_i, X_j] = sum_k c_ij^k X_k, in dense
    Fraction arithmetic."""
    n = len(constants)
    d = len(matrices[0]) if matrices else 0
    mats = [[[Fraction(x) for x in row] for row in mat] for mat in matrices]

    def product(p, q):
        return [[sum((p[l][u] * q[u][w] for u in range(d)), Fraction(0)) for w in range(d)]
                for l in range(d)]

    for i, j in combinations(range(n), 2):
        ij, ji = product(mats[i], mats[j]), product(mats[j], mats[i])
        for l in range(d):
            for w in range(d):
                want = sum((Fraction(constants[i][j][k]) * mats[k][l][w] for k in range(n)),
                           Fraction(0))
                if ij[l][w] - ji[l][w] != want:
                    return True
    return False


# ---------------------------------------------------------------------------
# truncated polynomials as plain {exponent tuple: Fraction} dicts


def dict_truncate(a, order):
    return {m: c for m, c in a.items() if sum(m) <= order}


def dict_scale(a, c):
    return {m: v * c for m, v in a.items() if v * c}


def dict_add(a, b, order):
    out = dict_truncate(a, order)
    for m, c in dict_truncate(b, order).items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def dict_mul(a, b, order):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= order:
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def dict_diff(a, index):
    out = {}
    for m, c in a.items():
        if m[index]:
            out[m[:index] + (m[index] - 1,) + m[index + 1:]] = c * m[index]
    return out


def dict_substitute(a, args, order):
    """a with variable i replaced by args[i], through degree `order`."""
    out = {}
    for m, c in a.items():
        term = {tuple(0 for _ in m): c}
        for arg, e in zip(args, m):
            for _ in range(e):
                term = dict_mul(term, arg, order)
        out = dict_add(out, term, order)
    return out
