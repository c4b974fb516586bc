"""Category structure: objects, morphisms, limits, and split decisions."""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absplit.groups import (
    FgAbGroup,
    _pair_generator,
    GroupSpecError,
    Morphism,
    WellDefinednessError,
    add_hom,
    biproduct,
    canonical_group,
    cokernel,
    compose,
    format_group,
    group,
    hom_count,
    hom_group,
    identity_hom,
    is_epi,
    is_mono,
    iter_hom,
    iter_hom_rows,
    kernel,
    morphism,
    negate_hom,
    parse_group_spec,
    pullback,
    pushout,
    retraction_witness,
    section_witness,
    solve_compose_left,
    solve_compose_right,
    sub_hom,
    zero_hom,
)
from absplit.harness import enumerate_groups
from absplit.intmat import freeze
from oracles import enumerate_hom, hom_rows_by_row_tables, is_section

Z = group(0)
Z2 = group(2)
Z3 = group(3)
Z4 = group(4)
Z8 = group(8)


# --- canonicalization -------------------------------------------------------


def test_canonical_free():
    pres = canonical_group(freeze([[], []]), 2)
    assert pres.group.factors == (0, 0)


def test_canonical_diag():
    pres = canonical_group(freeze([[2, 0], [0, 4]]), 2)
    assert pres.group.factors == (2, 4)


def test_canonical_crt():
    # oracle: |Z/2 ⊕ Z/3| = 6 and it contains an element of order 6
    pres = canonical_group(freeze([[2, 0], [0, 3]]), 2)
    assert pres.group.factors == (6,)
    # certificate maps old coordinates onto canonical ones: (1,1) has order 6
    img = tuple(
        sum(pres.to_canonical[i][j] * x for j, x in enumerate((1, 1))) % 6
        for i in range(1)
    )
    orders = {k for k in range(1, 7) if (img[0] * k) % 6 == 0}
    assert min(orders) == 6


def test_group_validation():
    with pytest.raises(ValueError):
        FgAbGroup((1, 2))
    with pytest.raises(ValueError):
        FgAbGroup((0, 2))  # zeros must come last
    with pytest.raises(ValueError):
        FgAbGroup((4, 2))


def test_group_properties():
    m = group(2, 4, 0)
    assert m.factors == (2, 4, 0)
    assert m.rank == 1 and not m.is_finite and m.order is None
    assert group(2, 4).order == 8 and group(2, 4).exponent == 4
    assert group(6).is_semisimple and not group(4).is_semisimple
    assert group().is_trivial


def test_groups_and_morphisms_are_immutable_values():
    # equal fields give equal, hash-equal values, so both serve as cache keys
    a, b = FgAbGroup((2, 4, 0)), group(4, 2, 0)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != group(2, 4) and a != (2, 4, 0)
    f, g = morphism(Z4, Z2, [[3]]), Morphism(Z4, Z2, ((1,),))
    assert f is not g and f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != zero_hom(Z4, Z2) and f != Morphism(Z2, Z2, ((1,),))
    with pytest.raises(AttributeError):
        a.factors = (3,)
    with pytest.raises(AttributeError):
        f.rows = ((0,),)
    with pytest.raises(AttributeError):
        del f.dom
    assert a.factors == (2, 4, 0) and f.rows == ((1,),) and f.dom == Z4


# --- morphism arithmetic ----------------------------------------------------


def test_compose_with_identity():
    rng = random.Random(3)
    for _ in range(20):
        m, n = group(4, 2), group(8)
        f = random_hom(rng, m, n)
        assert compose(f, identity_hom(m)) == f
        assert compose(identity_hom(n), f) == f


def test_mult_two_squared_on_z8():
    f = morphism(Z8, Z8, [[2]])
    assert compose(f, f) == morphism(Z8, Z8, [[4]])


def test_addition_mod4():
    three = morphism(Z4, Z4, [[3]])
    one = identity_hom(Z4)
    # 3 + 1 = 4 ≡ 0 on Z/4
    assert add_hom(three, one) == zero_hom(Z4, Z4)


def test_well_definedness_rejected():
    with pytest.raises(WellDefinednessError):
        morphism(Z2, Z4, [[1]])  # 2·1 != 0 mod 4


def test_object_mismatch():
    from absplit.groups import ObjectMismatchError

    with pytest.raises(ObjectMismatchError):
        compose(identity_hom(Z2), identity_hom(Z4))


# --- hom groups -------------------------------------------------------------


def brute_hom_matrices(m, n):
    """Independent count: all entry matrices that satisfy the relations."""
    cells = []
    for b in n.factors:
        for a in m.factors:
            vals = []
            rng_b = range(b) if b else [0]
            for c in rng_b:
                v = a * c
                if (v % b if b else v) == 0:
                    vals.append(c)
            cells.append(vals)
    return list(product(*cells))


def test_hom_basis_examples():
    assert hom_group(Z2, Z3).basis == ()
    h = hom_group(Z2, Z4)
    assert len(h.basis) == 1 and h.basis[0].rows == ((2,),) and h.orders == (2,)
    # oracle: of the 4 maps Z/2 -> Z/4 only 2 are well-defined
    assert len(brute_hom_matrices(Z2, Z4)) == 2
    hz = hom_group(Z, Z)
    assert hz.orders == (0,) and hz.basis[0] == identity_hom(Z)


def test_enumerate_hom_examples():
    assert len(enumerate_hom(Z2, Z2, 10)) == 2
    assert enumerate_hom(Z, Z, 10**9) is None
    m = group(4, 2)
    # the gcd-product formula and the brute matrix count agree: 4·2·2·2 = 32
    assert len(brute_hom_matrices(m, m)) == 32
    assert hom_count(m, m) == 32
    assert len(enumerate_hom(m, m, 1000)) == 32
    assert enumerate_hom(m, m, 10) is None  # over budget -> unknown


def test_hom_enumeration_complete_and_valid():
    for m, n in [(Z4, group(2, 4)), (group(2, 2), Z4), (Z, Z4)]:
        hom_list = enumerate_hom(m, n, 10**4)
        assert len(hom_list) == len(set(h.rows for h in hom_list))
        assert len(hom_list) == len(brute_hom_matrices(m, n))


def test_iter_hom_rows_matches_the_product_of_row_tables():
    # the lazy odometer lists Hom(M, N) in the order of the product of the
    # per-row tables it replaced, element for element
    groups = list(enumerate_groups(16))
    pairs = [(m, n) for m, n in product(groups, groups) if hom_count(m, n) <= 4096]
    assert len(pairs) == 624  # every pair but ((Z/2)⁴, (Z/2)⁴)
    for m, n in pairs:
        assert list(iter_hom_rows(m, n)) == hom_rows_by_row_tables(m, n), (m, n)


def test_iter_hom_rows_lists_nothing_ahead():
    # |End(Z/300 ⊕ Z/300)| = 300⁴; a table of each row's 90,000 values
    # would take megabytes before the first element
    import tracemalloc

    m = group(300, 300)
    tracemalloc.start()
    try:
        rows = iter_hom_rows(m, m)
        first = [next(rows), next(rows)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [((0, 0), (0, 0)), ((0, 0), (0, 1))]
    assert peak < 10**6, peak


def _brute_entries(a, b):
    """The entries x of maps Z/a -> Z/b, found by testing a·x ≡ 0 (mod b);
    None when every integer is one (Hom(Z, Z))."""
    if b == 0:
        return None if a == 0 else (0,)  # a·x = 0 in Z forces x = 0
    return tuple(x for x in range(b) if a * x % b == 0)


def test_pair_generator_lists_exactly_the_legal_entries():
    sizes = [0, *range(2, 13)]
    for a, b in product(sizes, sizes):
        step, order = _pair_generator(a, b)
        assert (order == 0) == (a == b == 0), (a, b)
        if order:
            entries = tuple(k * step % b if b else k * step for k in range(order))
            assert entries == _brute_entries(a, b), (a, b)


def test_hom_group_and_count_match_brute_force_entries():
    # each nonzero entry set is cyclic, generated by its least positive
    # element (1 on Hom(Z, Z)); the basis has one generator per such entry
    groups = list(enumerate_groups(16)) + [Z, group(2, 0), group(0, 0)]
    for m, n in product(groups, groups):
        cells = [
            (i, j, _brute_entries(a, b))
            for i, b in enumerate(n.factors)
            for j, a in enumerate(m.factors)
        ]
        sizes = [None if e is None else len(e) for _, _, e in cells]
        assert hom_count(m, n) == (None if None in sizes else prod(sizes)), (m, n)
        want = [
            (i, j, 1, 0) if e is None else (i, j, e[1], len(e))
            for i, j, e in cells
            if e is None or len(e) > 1
        ]
        got = []
        h = hom_group(m, n)
        for g, order in zip(h.basis, h.orders, strict=True):
            nonzero = [(i, j, x) for i, row in enumerate(g.rows) for j, x in enumerate(row) if x]
            assert len(nonzero) == 1, (m, n, g.rows)
            got.append((*nonzero[0], order))
        assert got == want, (m, n)


# --- kernels / cokernels / images -------------------------------------------


def element_kernel(f):
    return sorted(x for x in f.dom.elements() if not any(f(x)))


def test_kernel_examples():
    k, _ = kernel(identity_hom(group(6)))
    assert k.is_trivial
    m = group(4, 3)
    kg, km = kernel(zero_hom(m, Z2))
    assert kg.factors == m.factors and is_mono(km)
    f = morphism(Z4, Z4, [[2]])
    kg, km = kernel(f)
    assert kg.factors == (2,)
    # oracle: exhaust the 4 elements
    assert element_kernel(f) == [(0,), (2,)]
    assert compose(f, km).is_zero


def test_cokernel_examples():
    c, _ = cokernel(identity_hom(group(8)))
    assert c.is_trivial
    c, q = cokernel(morphism(Z4, Z4, [[2]]))
    assert c.factors == (2,)  # oracle: 4 elements / {0,2}
    assert is_epi(q)
    from absplit.subgroups import image_subgroup

    img = image_subgroup(morphism(Z, Z, [[3]]))
    assert img.contains((3,)) and not img.contains((1,))


def test_coimage_image_isomorphism():
    # factor f through dom/ker; the induced map to the image is an iso
    from oracles import express_in_subgroup

    from absplit.subgroups import (
        image_subgroup,
        inclusion,
        kernel_subgroup,
        quotient,
    )

    rng = random.Random(11)
    for _ in range(25):
        m = random_group(rng)
        n = random_group(rng)
        f = random_hom(rng, m, n)
        coim, q = quotient(m, kernel_subgroup(f))
        img = image_subgroup(f)
        inc = inclusion(img)
        # induced map: canonical generator of coim -> f(preimage) in img coords
        from absplit.intmat import solve_congruences

        rows = []
        for t in range(coim.ngens):
            e = [1 if i == t else 0 for i in range(coim.ngens)]
            x = solve_congruences(q.rows, e, coim.factors, ncols=m.ngens)
            assert x is not None  # q is epi
            coords = express_in_subgroup(img, f(m.reduce(x)))
            assert coords is not None
            rows.append(coords)
        phi = morphism(coim, inc.dom, list(zip(*rows)) if rows else [])
        assert is_mono(phi) and is_epi(phi)
        assert compose(inc, compose(phi, q)) == f


# --- biproducts --------------------------------------------------------------


def test_biproduct_examples():
    g, injs, projs = biproduct([Z2, Z4])
    assert g.factors == (2, 4)
    g, injs, projs = biproduct([Z2, Z3])
    assert g.factors == (6,)
    assert injs[0].rows == ((3,),)  # CRT: the order-2 element of Z/6 is 3
    g, injs, projs = biproduct([])
    assert g.is_trivial
    for parts in [[Z2, Z4], [Z2, Z3], [group(2, 4), Z3, Z]]:
        g, injs, projs = biproduct(parts)
        for l, part in enumerate(parts):
            assert compose(projs[l], injs[l]) == identity_hom(part)
            for k in range(len(parts)):
                if k != l:
                    assert compose(projs[k], injs[l]).is_zero
        total = zero_hom(g, g)
        for inj, proj in zip(injs, projs):
            total = add_hom(total, compose(inj, proj))
        assert total == identity_hom(g)


# --- pullbacks / pushouts ----------------------------------------------------


def element_intersection(sub1, sub2, m):
    return sorted(
        x for x in m.elements() if sub1.contains(x) and sub2.contains(x)
    )


def test_pullback_examples():
    m = group(4, 3)
    p, pa, pb = pullback(identity_hom(m), identity_hom(m))
    assert p.factors == m.factors
    f = morphism(Z4, Z2, [[1]])
    zero_leg = zero_hom(group(), Z2)
    p, pa, pb = pullback(f, zero_leg)
    assert p.factors == kernel(f)[0].factors
    # intersection of {0,2} with itself inside Z/4
    from absplit.subgroups import sub_from_gens

    inc = morphism(Z2, Z4, [[2]])
    p, pa, pb = pullback(inc, inc)
    assert p.factors == (2,)
    s = sub_from_gens(Z4, [(2,)])
    assert element_intersection(s, s, Z4) == [(0,), (2,)]


def test_pushout_examples():
    m = group(4, 3)
    q, qa, qb = pushout(identity_hom(m), identity_hom(m))
    assert q.factors == m.factors
    g = morphism(Z4, Z2, [[1]])
    q, qa, qb = pushout(zero_hom(Z4, group()), g)
    assert q.factors == cokernel(g)[0].factors
    inc = morphism(Z2, Z4, [[2]])
    q, qa, qb = pushout(inc, inc)
    # oracle for mono legs: |Q| = |A||B|/|C| = 4·4/2
    assert q.order == 8
    assert compose(qa, inc) == compose(qb, inc)


def random_group(rng, max_factors=3, pool=(2, 3, 4, 6, 8, 9, 12)):
    k = rng.randint(0, max_factors)
    fs = sorted(rng.choice(pool) for _ in range(k))
    return group(*fs)


def random_hom(rng, m, n):
    h = hom_group(m, n)
    rows = [[0] * m.ngens for _ in range(n.ngens)]
    f = Morphism(m, n, freeze(rows))
    for b, o in zip(h.basis, h.orders):
        c = rng.randint(0, (o - 1) if o else 5)
        scaled = Morphism(
            m, n, tuple(tuple(c * x for x in row) for row in b.rows)
        )
        f = add_hom(f, scaled)
    return f


def test_pullback_universal_property_random():
    rng = random.Random(77)
    for _ in range(60):
        a, b, c = random_group(rng), random_group(rng), random_group(rng)
        f = random_hom(rng, a, c)
        g = random_hom(rng, b, c)
        p, pa, pb = pullback(f, g)
        assert compose(f, pa) == compose(g, pb)
        t = random_group(rng, 2)
        u = random_hom(rng, t, p)
        x, y = compose(pa, u), compose(pb, u)
        # the factorization through P exists and is unique
        got = factor_through_pullback(pa, pb, x, y)
        assert got == u


def factor_through_pullback(pa, pb, x, y):
    """Unique u with pa∘u = x and pb∘u = y; exists iff f∘x = g∘y held."""
    p = pa.dom
    t = x.dom
    rows_a, rhs, moduli = [], [], []
    nvars = p.ngens * t.ngens
    for i in range(p.ngens):
        for j in range(t.ngens):
            row = [0] * nvars
            row[i * t.ngens + j] = t.factors[j]
            rows_a.append(row)
            rhs.append(0)
            moduli.append(p.factors[i])
    for leg, target in ((pa, x), (pb, y)):
        for r in range(leg.cod.ngens):
            for j in range(t.ngens):
                row = [0] * nvars
                for i in range(p.ngens):
                    row[i * t.ngens + j] = leg.rows[r][i]
                rows_a.append(row)
                rhs.append(target.rows[r][j])
                moduli.append(leg.cod.factors[r])
    from absplit.intmat import solve_congruences

    sol = solve_congruences(freeze(rows_a), rhs, moduli, ncols=nvars)
    assert sol is not None
    rows = [[sol[i * t.ngens + j] for j in range(t.ngens)] for i in range(p.ngens)]
    return morphism(t, p, rows)


def test_pushout_universal_property_random():
    rng = random.Random(78)
    for _ in range(60):
        a, b, c = random_group(rng), random_group(rng), random_group(rng)
        f = random_hom(rng, c, a)
        g = random_hom(rng, c, b)
        q, qa, qb = pushout(f, g)
        assert compose(qa, f) == compose(qb, g)
        t = random_group(rng, 2)
        u = random_hom(rng, q, t)
        x, y = compose(u, qa), compose(u, qb)
        got_x = solve_compose_right(qa, x)
        assert got_x is not None
        # uniqueness: any solution of both legs agrees with u
        cand = solve_pair_through_pushout(qa, qb, x, y)
        assert cand == u


def solve_pair_through_pushout(qa, qb, x, y):
    q = qa.cod
    t = x.cod
    rows_a, rhs, moduli = [], [], []
    nvars = t.ngens * q.ngens
    for r in range(t.ngens):
        for i in range(q.ngens):
            row = [0] * nvars
            row[r * q.ngens + i] = q.factors[i]
            rows_a.append(row)
            rhs.append(0)
            moduli.append(t.factors[r])
    for leg, target in ((qa, x), (qb, y)):
        for r in range(t.ngens):
            for j in range(leg.dom.ngens):
                row = [0] * nvars
                for i in range(q.ngens):
                    row[r * q.ngens + i] = leg.rows[i][j]
                rows_a.append(row)
                rhs.append(target.rows[r][j])
                moduli.append(t.factors[r])
    from absplit.intmat import solve_congruences

    sol = solve_congruences(freeze(rows_a), rhs, moduli, ncols=nvars)
    assert sol is not None
    rows = [[sol[r * q.ngens + i] for i in range(q.ngens)] for r in range(t.ngens)]
    return morphism(q, t, rows)


def test_pullback_pasting():
    # two pullback squares side by side paste to a pullback rectangle
    rng = random.Random(79)
    for _ in range(30):
        a, b, c = random_group(rng, 2), random_group(rng, 2), random_group(rng, 2)
        f = random_hom(rng, a, c)
        g = random_hom(rng, b, c)
        p, pa, pb = pullback(f, g)
        t = random_group(rng, 2)
        h = random_hom(rng, t, a)
        p2, p2t, p2p = pullback(h, pa)
        # outer rectangle: pullback of (f∘h, g)
        outer, oa, ob = pullback(compose(f, h), g)
        assert outer.factors == p2.factors
        # both computations admit mutually inverse comparisons
        u = factor_through_pullback(oa, ob, p2t, compose(pb, p2p))
        v = factor_through_pullback(
            p2t, p2p, oa, factor_through_pullback(pa, pb, compose(h, oa), ob)
        )
        assert compose(u, v) == identity_hom(outer)
        assert compose(v, u) == identity_hom(p2)


# --- mono/epi/section/retraction ---------------------------------------------


def test_section_examples():
    inc = morphism(Z2, Z4, [[2]])
    assert is_mono(inc)
    # oracle: both candidates in Hom(Z/4, Z/2) fail to retract
    cands = [r for r in iter_hom(Z4, Z2)]
    assert len(cands) == 2
    assert all(compose(r, inc) != identity_hom(Z2) for r in cands)
    assert section_witness(inc) is None

    g, injs, _ = biproduct([Z2, Z3])
    w = section_witness(injs[0])
    assert w is not None and compose(w, injs[0]) == identity_hom(Z2)

    two = morphism(Z, Z, [[2]])
    assert is_mono(two) and section_witness(two) is None


def test_section_agrees_with_exhaustive_search():
    rng = random.Random(13)
    checked = 0
    for _ in range(300):
        m = random_group(rng, 2)
        n = random_group(rng, 2)
        f = random_hom(rng, m, n)
        total = hom_count(n, m)
        if total is None or total > 10**4:
            continue
        checked += 1
        wit = section_witness(f)
        brute = next(
            (r for r in iter_hom(n, m) if compose(r, f) == identity_hom(m)), None
        )
        assert (wit is None) == (brute is None)
        if wit is not None:
            assert compose(wit, f) == identity_hom(m)
        rwit = retraction_witness(f)
        rbrute = next(
            (s for s in iter_hom(n, m) if compose(f, s) == identity_hom(n)), None
        )
        assert (rwit is None) == (rbrute is None)
    assert checked > 100


# --- category laws ------------------------------------------------------------


def test_category_laws_500_random_triples():
    rng = random.Random(20240401)
    for _ in range(500):
        a, b, c, d = (random_group(rng, 2) for _ in range(4))
        f = random_hom(rng, c, d)
        g = random_hom(rng, b, c)
        h = random_hom(rng, a, b)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, identity_hom(c)) == f
        assert compose(identity_hom(d), f) == f


def test_compose_is_the_entrywise_product_also_through_the_trivial_group():
    # entry (i, j) of f ∘ g is Σ_t f[i][t]·g[t][j] reduced modulo the i-th
    # factor of cod(f), in shape cod(f) × dom(g); three maps in four go into,
    # through or out of the trivial group, where an inner or outer
    # dimension is 0
    rng = random.Random(2028)
    pool = (0, 2, 3, 4, 6, 8, 9, 12)
    for k in range(400):
        objs = [random_group(rng, 2, pool) for _ in range(3)]
        if k % 4 < 3:
            objs[k % 4] = group()
        a, b, c = objs
        g, f = random_hom(rng, a, b), random_hom(rng, b, c)
        entries = [
            [(d, sum(f.rows[i][t] * g.rows[t][j] for t in range(b.ngens))) for j in range(a.ngens)]
            for i, d in enumerate(c.factors)
        ]
        want = tuple(tuple(x % d if d else x for d, x in row) for row in entries)
        got = compose(f, g)
        assert (got.dom, got.cod, got.rows) == (a, c, want), (a, b, c)


def test_additivity_bilinear():
    rng = random.Random(515)
    for _ in range(100):
        a, b, c = (random_group(rng, 2) for _ in range(3))
        f1, f2 = random_hom(rng, b, c), random_hom(rng, b, c)
        g = random_hom(rng, a, b)
        assert compose(add_hom(f1, f2), g) == add_hom(compose(f1, g), compose(f2, g))
        h = random_hom(rng, c, random_group(rng, 2))
        assert compose(h, add_hom(f1, f2)) == add_hom(compose(h, f1), compose(h, f2))
        assert add_hom(f1, negate_hom(f1)).is_zero


def test_kernel_cokernel_universal_properties():
    rng = random.Random(616)
    for _ in range(60):
        m, n = random_group(rng, 2), random_group(rng, 2)
        f = random_hom(rng, m, n)
        kg, k = kernel(f)
        assert compose(f, k).is_zero and is_mono(k)
        t = random_group(rng, 2)
        u0 = random_hom(rng, t, kg)
        g = compose(k, u0)  # any map killed by f
        assert compose(f, g).is_zero
        u = solve_compose_left(k, g)
        assert u is not None and compose(k, u) == g
        assert u == u0  # unique since k is mono
        cg, q = cokernel(f)
        assert compose(q, f).is_zero and is_epi(q)
        v0 = random_hom(rng, cg, t)
        h = compose(v0, q)
        v = solve_compose_right(q, h)
        assert v is not None and compose(v, q) == h
        assert v == v0


# --- group spec grammar --------------------------------------------------------


def test_parse_examples():
    assert parse_group_spec("Z/2 x Z/4 x Z").factors == (2, 4, 0)
    assert parse_group_spec("2,4,0").factors == (2, 4, 0)
    assert parse_group_spec("Z").factors == (0,)
    assert parse_group_spec("z/6").factors == (6,)
    assert parse_group_spec("Z/2 x Z/3").factors == (6,)  # canonicalized
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z/1")
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z/2 + Z/3")
    with pytest.raises(GroupSpecError):
        parse_group_spec("")
    try:
        parse_group_spec("Z/2 x Q")
    except GroupSpecError as exc:
        assert exc.position > 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 9]), max_size=4))
def test_parse_format_round_trip(factors):
    g = group(*factors)
    assert parse_group_spec(format_group(g)) == g or g.is_trivial
    if not g.is_trivial:
        comma = ",".join(str(d) for d in g.factors)
        assert parse_group_spec(comma) == g
