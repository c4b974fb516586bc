"""Reference routines the tests check the engine against.

No code of the package calls these; each is small, written straight from
its definition, and imported by the tests that use it.
"""

import itertools

from absplit.groups import (
    Morphism,
    ObjectMismatchError,
    _hom_table,
    hom_count,
    is_epi,
    iter_hom,
    section_witness,
)
from absplit.intmat import DimensionError, dims, freeze, identity, snf, solve_congruences
from absplit.preradicals import evaluate
from absplit.splitness import analysis_for
from absplit.subgroups import (
    all_subgroups,
    inclusion,
    intersect,
    is_fully_invariant,
    kernel_subgroup,
    map_subgroup,
    preimage_subgroup,
    quotient,
    subgroup_group,
    sum_sub,
)


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n, m = dims(a)
    if n != m:
        raise DimensionError("determinant of non-square matrix")
    if n == 0:
        return 1
    w = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def smith_system(a, moduli):
    """The Smith form of A with one slack column per positive modulus: the
    solutions of A·x ≡ 0 (mod moduli, row-wise) are the first n entries of
    the integer kernel of the augmented matrix."""
    extra = [i for i, md in enumerate(moduli) if md]
    aug = freeze(
        tuple(row) + tuple(moduli[i] if i == k else 0 for k in extra) for i, row in enumerate(a)
    )
    return snf(aug)


def smith_solution_lattice(a, moduli, n):
    """Columns generating the solutions of A·x ≡ 0 in n unknowns, read from
    the Smith form: the columns of V over the zero diagonal entries."""
    if not a:
        return identity(n)
    dec = smith_system(a, moduli)
    rows, cols = len(dec.s), len(dec.s[0])
    free = [j for j in range(cols) if j >= rows or dec.s[j][j] == 0]
    return freeze([[dec.v[i][j] for j in free] for i in range(n)])


def hom_rows_by_row_tables(m, n):
    """Every hom matrix M -> N (finite Hom), listed as the product of one
    table per row, each table the product of its entry values."""
    tables = [
        tuple(itertools.product(*([k * step for k in range(order)] for step, order in row)))
        for row in _hom_table(m, n)
    ]
    return list(itertools.product(*tables))


def enumerate_hom(m, n, budget=10**6):
    """Complete list of morphisms, or None (unknown) if infinite/over budget."""
    total = hom_count(m, n)
    if total is None or total > budget:
        return None
    return list(iter_hom(m, n))


def is_section(f):
    return section_witness(f) is not None


def sub_equal(s, t):
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    return s.canonical == t.canonical


def express_in_subgroup(s, vec):
    """Coordinates of vec in the abstract group of s, or None if not a member."""
    inc = inclusion(s)
    sol = solve_congruences(inc.rows, list(vec), s.ambient.factors, ncols=inc.dom.ngens)
    if sol is None:
        return None
    return inc.dom.reduce(sol)


def is_fully_coinvariant(d):
    """An epimorphism is fully coinvariant iff its kernel is fully invariant."""
    if not is_epi(d):
        raise ObjectMismatchError("fully coinvariant test requires an epimorphism")
    return is_fully_invariant(kernel_subgroup(d))


def naturality_check(r, f):
    """True iff f maps the generators of r(dom) into r(cod)."""
    src = evaluate(r, f.dom)
    dst = evaluate(r, f.cod)
    return all(dst.contains(f(row)) for row in src.canonical)


def noncentral_idempotent(view):
    """(e, h) with idempotent e and basis element h that do not commute."""
    if view.noncentral is None:
        return None
    m = view.object
    e, h = view.noncentral
    return Morphism(m, m, e), Morphism(m, m, h)


def _decompositions(m, caps):
    """Every unordered complementary summand pair (X, Y): X + Y = M and
    X ∩ Y = 0, the latter read off |X||Y| = |M|."""
    summands = analysis_for(m).summands(caps.subgroup_cap)
    return [
        (x, y)
        for i, x in enumerate(summands)
        for y in summands[i:]
        if x.order * y.order == m.order and sum_sub(x, y).is_full
    ]


def near_by_hermite(m, f_sub, cap, dual):
    """The subgroups of M containing F (contained in F, dually), in list
    order, by Hermite containment."""
    return [
        s for s in analysis_for(m).subgroups(cap)
        if (f_sub.contains_subgroup(s) if dual else s.contains_subgroup(f_sub))
    ]


def near_summands_fi_by_enumeration(m, f_sub, cap, dual):
    """Is every direct summand of M containing F (contained in F, dually)
    fully invariant, for an M that need not be listed?  The subgroups
    containing F are the preimages of the subgroups of M/F, and those inside
    F the images of the subgroups of F; None when that group is infinite or
    over the cap."""
    if dual:
        inc = inclusion(f_sub)
        grp, lift = inc.dom, lambda t: map_subgroup(inc, t)
    else:
        grp, q = quotient(m, f_sub)
        lift = lambda t: preimage_subgroup(q, t)
    if grp.order is None or grp.order > cap:
        return None
    analysis = analysis_for(m)
    return not any(
        analysis.subgroup_props(lift(t)).is_non_fi_summand for t in all_subgroups(grp, cap)
    )


def summands_closed_by_hermite(m, f_sub, cap, fully_invariant_only, dual):
    """SIP over F (SSP under F, dually) as splitness._summands_closed decided
    it before the element bitsets: the near-set by Hermite containment, the
    types by Smith forms, the nested pairs by order and containment, and
    each other pair joined by a Hermite pass."""
    analysis = analysis_for(m)
    join = sum_sub if dual else intersect

    def kept(s):
        props = analysis.subgroup_props(s)
        return props.is_summand and (not fully_invariant_only or props.is_fi)

    def closed(a, b):
        small, large = (a, b) if a.order <= b.order else (b, a)
        return large.contains_subgroup(small) or kept(join(a, b))

    cands = [s for s in near_by_hermite(m, f_sub, cap, dual) if kept(s)]
    if fully_invariant_only or not analysis.subgroup_props(f_sub).is_fi:
        pairs = itertools.combinations(cands, 2)
    else:
        firsts = {}
        for s in cands:
            firsts.setdefault(subgroup_group(s).factors, s)
        pairs = ((a, b) for a in firsts.values() for b in cands if b != a)
    return all(closed(a, b) for a, b in pairs)
