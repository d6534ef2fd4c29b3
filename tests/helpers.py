"""Shared generators for randomized tests.

All randomness is seeded per test so failures reproduce exactly.
"""

from fractions import Fraction

from poislin.liealg import LieAlgebra
from poislin.linalg import LinearSolver
from poislin.normalform import ActionJet
from poislin.polyalg import CoordChange, Jet, PoissonJet, monomials


def dense(rows, ncols):
    """A matrix given by {column: value} rows, as dense rows of Fractions."""
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def record_calls(monkeypatch, owner, name, record=lambda *args: args):
    """Wrap owner.name for the test: each call first appends record(*args)
    to the returned list, then runs the original."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def record_row_rules(monkeypatch):
    """Record the row rule of each `linalg._eliminate` call for the test:
    True for least fill, False for the positional rule."""
    from poislin import linalg

    rules = []
    original = linalg._eliminate

    def recorded(work, ncols, sparsest=False):
        rules.append(sparsest)
        return original(work, ncols, sparsest)

    monkeypatch.setattr(linalg, "_eliminate", recorded)
    return rules


def random_jet(rng, nvars, order, max_terms=6, lowest=0, coeff_pool=(-2, -1, 1, 2)):
    """Sparse random jet with small integer coefficients."""
    pool = []
    for d in range(lowest, order + 1):
        pool.extend(monomials(nvars, d))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = pool[rng.randrange(len(pool))]
        terms[mono] = Fraction(rng.choice(coeff_pool))
    return Jet(nvars, order, terms)


def random_near_identity_change(rng, nvars, order, max_extra=2, lowest=2):
    """Identity plus a few sparse terms of degree `lowest` or more; always
    invertible."""
    comps = []
    for i in range(nvars):
        comp = Jet.variable(i, nvars, order)
        extra = random_jet(rng, nvars, order, max_terms=max_extra, lowest=lowest)
        comps.append(comp + extra)
    return CoordChange(comps)


def unit(k, n):
    """The exponent tuple of x^k among n variables."""
    return tuple(1 if t == k else 0 for t in range(n))


def linear_bivector(L, order):
    n = L.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {unit(k, n): L.constants[i][j][k]
                     for k in range(n) if L.constants[i][j][k]}
            if terms:
                brackets[(i, j)] = Jet(n, order, terms)
    return PoissonJet.from_brackets(n, order, brackets)


def coadjoint_action(L, order):
    """Fields with components {x^i, x^a} of the linear bivector."""
    n = L.dim
    fields = []
    for i in range(n):
        comps = []
        for a in range(n):
            terms = {unit(k, n): L.constants[i][a][k]
                     for k in range(n) if L.constants[i][a][k]}
            comps.append(Jet(n, order, terms))
        fields.append(comps)
    return ActionJet(L, fields, order)


def random_linear_change(rng, nvars, order):
    """Random invertible integer matrix as a linear coordinate change."""
    while True:
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(nvars)] for _ in range(nvars)]
        try:
            return CoordChange.linear(mat, order)
        except ValueError:
            continue


def so3_bivector(order):
    """{x,y} = z, {y,z} = x, {z,x} = y."""
    return PoissonJet.from_brackets(3, order, {
        (0, 1): [((0, 0, 1), 1)],
        (1, 2): [((1, 0, 0), 1)],
        (0, 2): [((0, 1, 0), -1)],
    })


def sl2_bivector(order):
    """{x,y} = -z, {y,z} = x, {z,x} = y."""
    return PoissonJet.from_brackets(3, order, {
        (0, 1): [((0, 0, 1), -1)],
        (1, 2): [((1, 0, 0), 1)],
        (0, 2): [((0, 1, 0), -1)],
    })


def so3_algebra():
    """[e0,e1] = e2, [e1,e2] = e0, [e2,e0] = e1."""
    return LieAlgebra.from_sparse(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])


def sl2_algebra():
    """[e0,e1] = -e2, [e1,e2] = e0, [e2,e0] = e1."""
    return LieAlgebra.from_sparse(3, [(0, 1, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1)])


def gl2_algebra():
    """sl(2) plus a central direction e3."""
    return LieAlgebra.from_sparse(4, [(0, 1, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1)])


def solvable2_algebra():
    """The non-abelian 2-dimensional algebra [e0,e1] = e1."""
    return LieAlgebra.from_sparse(2, [(0, 1, 1, 1)])


def sl2_nonabelian_radical_algebra():
    """sl(2) times the solvable 2-dim algebra: radical span(e3,e4) with
    [e3,e4] = e4, so the radical has derived length two."""
    return LieAlgebra.from_sparse(5, [
        (0, 1, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1), (3, 4, 4, 1),
    ])


def change_basis_constants(L, basis):
    """Structure constants of L rewritten in the given (invertible) basis."""
    n = L.dim
    cols = [[basis[a][i] for a in range(n)] for i in range(n)]
    solver = LinearSolver(cols, n)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            coords = solver.solve(L.bracket(basis[a], basis[b]))
            assert coords is not None, "basis must be invertible"
            table[a][b] = coords
            table[b][a] = [-x for x in coords]
    return table


def random_rational_basis(rng, n, pool=(-2, -1, 0, 1, 2, 3), denominators=(1, 2, 3)):
    """Rows of a random invertible matrix with small rational entries."""
    from poislin.linalg import rank

    while True:
        mat = [[Fraction(rng.choice(pool), rng.choice(denominators)) for _ in range(n)]
               for _ in range(n)]
        if rank(mat, n) == n:
            return mat


def rebased_algebra(L, basis):
    """L in the basis f_a = sum_i basis[a][i] e_i."""
    return LieAlgebra(change_basis_constants(L, basis))


def random_invertible_matrix(rng, n, pool=(-2, -1, 0, 1, 2, 3)):
    from poislin.linalg import rank

    while True:
        mat = [[Fraction(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
        if rank(mat, n) == n:
            return mat


def so3_action_algebroid(order):
    """Rank-3 algebroid over R^3: so(3) fiber, anchors from its own bracket
    table (transposed linear action, so the fields close correctly)."""
    from poislin.algebroid import action_algebroid

    L = so3_algebra()
    mats = [
        [[L.constants[i][l][k] for k in range(3)] for l in range(3)]
        for i in range(3)
    ]
    return action_algebroid(L, mats, 3, order)


def random_graded_change(rng, base_dim, rank, order, max_tweaks=2,
                         coeff_pool=(-2, -1, 1, 2)):
    """Near-identity base change plus near-identity frame change with sparse
    polynomial entries; always invertible and grading-preserving."""
    from poislin.algebroid import AlgebroidChange

    comps = []
    for i in range(base_dim):
        comp = Jet.variable(i, base_dim, order)
        for _ in range(rng.randint(0, max_tweaks)):
            mono = [0] * base_dim
            for _ in range(rng.randint(2, min(3, order))):
                mono[rng.randrange(base_dim)] += 1
            comp = comp + Jet(base_dim, order,
                              {tuple(mono): Fraction(rng.choice(coeff_pool))})
        comps.append(comp)
    frame = [
        [Jet.one(base_dim, order) if i == j else Jet.zero(base_dim, order)
         for j in range(rank)]
        for i in range(rank)
    ]
    for _ in range(rng.randint(1, max_tweaks + 1)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        mono = [0] * base_dim
        for _ in range(rng.randint(1, 2)):
            mono[rng.randrange(base_dim)] += 1
        frame[i][j] = frame[i][j] + Jet(
            base_dim, order, {tuple(mono): Fraction(rng.choice(coeff_pool), 2)}
        )
    return AlgebroidChange(CoordChange(comps), frame)


def gl2_matrix_algebroid(order):
    """Rank-4 algebroid over R^2: the 2x2 matrix algebra in the elementary
    basis, anchored by the transposed matrices (transposing flips the
    commutator, which is the orientation the anchor fields need)."""
    from poislin.algebroid import action_algebroid

    gl2 = LieAlgebra.from_sparse(4, [
        (0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 0, 1), (1, 2, 3, -1),
        (1, 3, 1, 1), (2, 3, 2, -1),
    ])
    elementary = {
        0: [[1, 0], [0, 0]],
        1: [[0, 1], [0, 0]],
        2: [[0, 0], [1, 0]],
        3: [[0, 0], [0, 1]],
    }
    mats = [
        [[Fraction(elementary[i][k][l]) for k in range(2)] for l in range(2)]
        for i in range(4)
    ]
    return action_algebroid(gl2, mats, 2, order), gl2
