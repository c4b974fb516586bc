"""Subgroup calculus and fully-invariance decisions."""

import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from absplit.groups import (
    add_hom,
    biproduct,
    compose,
    group,
    hom_group,
    identity_hom,
    is_epi,
    is_mono,
    iter_hom,
    morphism,
    section_witness,
    zero_hom,
)
from absplit.harness import enumerate_groups
from absplit.intmat import SeededHnf, freeze, hnf_rows, row_lattice_contains
from absplit.subgroups import (
    FullyInvariantError,
    ShortExactSequence,
    Subgroup,
    SubgroupCapError,
    all_subgroups,
    build_ses,
    fi_ses,
    fi_violation,
    full_subgroup,
    image_subgroup,
    inclusion,
    intersect,
    is_fully_invariant,
    is_pure,
    is_summand,
    kernel_subgroup,
    map_subgroup,
    preimage_subgroup,
    quotient,
    sub_from_gens,
    subgroup_group,
    sum_sub,
    summand_witness,
    trivial_subgroup,
)
from oracles import is_fully_coinvariant, smith_solution_lattice, sub_equal

Z = group(0)
Z4 = group(4)
V4 = group(2, 2)
Z12 = group(4, 3)


# --- construction and membership ---------------------------------------------


def test_sub_from_gens_examples():
    s = sub_from_gens(Z4, [(2,)])
    assert s.order == 2 and s.contains((0,)) and s.contains((2,))
    assert not s.contains((1,))
    assert sub_equal(sub_from_gens(Z4, [(1,)]), sub_from_gens(Z4, [(3,)]))
    assert sub_from_gens(Z4, []).order == 1


def test_subgroup_equality_follows_the_canonical_form():
    # == and hash go by (ambient, canonical), as sub_equal does; the
    # generators a subgroup was built from are not kept
    a, b = sub_from_gens(Z4, [(1,)]), sub_from_gens(Z4, [(3,)])
    assert sub_equal(a, b) and Subgroup.__slots__ == ("ambient", "canonical")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != sub_from_gens(Z4, [(2,)])
    z2, z4 = full_subgroup(group(2)), full_subgroup(group(4))
    assert z2.canonical == z4.canonical and z2 != z4  # the ambient counts
    c = sub_from_gens(Z4, [(2,)])
    with pytest.raises(AttributeError):
        a.canonical = c.canonical
    with pytest.raises(AttributeError):
        del a.canonical
    with pytest.raises(AttributeError):
        a.ambient = V4
    assert a.canonical == b.canonical != c.canonical and a.ambient == Z4


def test_canonical_independent_of_generators():
    rng = random.Random(2)
    for _ in range(60):
        m = group(*sorted(rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))))
        elems = list(m.elements())
        gens = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
        s = sub_from_gens(m, gens)
        # generate the same subgroup from its full element set
        all_elems = [x for x in elems if s.contains(x)]
        assert sub_from_gens(m, all_elems).canonical == s.canonical
        assert s.order == len(all_elems)


# --- intersection and sum -----------------------------------------------------


def test_intersect_sum_idempotent():
    s = sub_from_gens(Z12, [(2,)])
    assert sub_equal(intersect(s, s), s)
    assert sub_equal(sum_sub(s, s), s)


def test_intersect_example():
    # Z/4 ⊕ Z/2 in canonical coordinates (2, 4): the order-4 factor is second
    m = group(4, 2)
    assert m.factors == (2, 4)
    a = sub_from_gens(m, [(0, 2)])
    b = sub_from_gens(m, [(0, 1)])
    inter = intersect(a, b)
    # oracle: element-wise intersection
    expected = [x for x in m.elements() if a.contains(x) and b.contains(x)]
    assert inter.order == len(expected) == 2
    assert sub_equal(inter, a)


def test_sum_fills_group():
    a = sub_from_gens(V4, [(1, 0)])
    b = sub_from_gens(V4, [(0, 1)])
    assert sum_sub(a, b).is_full


@pytest.mark.parametrize("factors", [(2, 4), (4, 0), (0, 0)])
def test_is_full_reads_the_identity_basis(factors):
    m = group(*factors)
    full, trivial = full_subgroup(m), trivial_subgroup(m)
    assert full.is_full and not trivial.is_full
    n = m.ngens
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # the full subgroup from redundant, non-canonical generators
    assert sub_from_gens(m, [(3,) * n, *units[1:], tuple(range(1, n + 1))]).is_full
    for i in range(n):
        doubled = [tuple(2 * x for x in u) if k == i else u for k, u in enumerate(units)]
        assert not sub_from_gens(m, doubled).is_full
    if m.is_finite:
        for s in all_subgroups(m):
            assert s.is_full == (s.order == m.order)


def test_intersect_matches_elements_random():
    rng = random.Random(31)
    for _ in range(40):
        m = group(*sorted(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))))
        elems = list(m.elements())
        s = sub_from_gens(m, [rng.choice(elems) for _ in range(2)])
        t = sub_from_gens(m, [rng.choice(elems) for _ in range(2)])
        inter = intersect(s, t)
        expected = sorted(x for x in elems if s.contains(x) and t.contains(x))
        assert sorted(x for x in elems if inter.contains(x)) == expected
        total = sum_sub(s, t)
        base = sorted(
            m.reduce([a + b for a, b in zip(x, y)])
            for x in elems if s.contains(x)
            for y in elems if t.contains(y)
        )
        assert sorted(set(base)) == sorted(x for x in elems if total.contains(x))


def _pullback_intersect(s, t):
    # the categorical construction: image of the pullback of both inclusions
    from absplit.groups import pullback

    ji, jj = inclusion(s), inclusion(t)
    _p, pa, _pb = pullback(ji, jj)
    return image_subgroup(compose(ji, pa))


@pytest.mark.parametrize("factors", [(2, 2, 6), (4, 4), (2, 2, 2, 2)])
def test_intersect_lattice_matches_pullback_and_elements(factors):
    m = group(*factors)
    elems = list(m.elements())
    subs = all_subgroups(m)
    members = {s.canonical: {x for x in elems if s.contains(x)} for s in subs}
    for s in subs:
        for t in subs:
            inter = intersect(s, t)
            assert inter.canonical == _pullback_intersect(s, t).canonical
            assert members[inter.canonical] == members[s.canonical] & members[t.canonical]


def test_intersect_lattice_infinite_ambient():
    m = group(4, 0)
    gens = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 3), (3, 6), (0, 4), (2, 6)]
    subs = [sub_from_gens(m, [])] + [sub_from_gens(m, [a]) for a in gens]
    subs += [sub_from_gens(m, [a, b]) for a, b in combinations(gens, 2)]
    window = [(a, b) for a in range(4) for b in range(-12, 13)]
    for s in subs:
        for t in subs:
            inter = intersect(s, t)
            assert inter.canonical == _pullback_intersect(s, t).canonical
            for x in window:
                assert inter.contains(x) == (s.contains(x) and t.contains(x))


# --- one set of rows per operation, on every ambient ----------------------------
#
# Test-local copies of the earlier general routines (hnf_rows over the
# relation rows, the hnf_rows Zassenhaus, the SNF preimage and kernel), which
# no ambient takes any more; the one hnf_rows pass from an echelon start,
# on finite and mixed ambients alike, must give the same canonical forms.
# The preimage and the kernel solve their systems by the Smith form, not by
# the graph Hermite pass that preimage_subgroup and kernel_subgroup share
# with solution_lattice.


def _general_sub(ambient, gens):
    n = ambient.ngens
    rel = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(ambient.factors) if d > 0]
    return hnf_rows([tuple(g) for g in gens] + rel, n)


def _general_intersect(s, t):
    n = s.ambient.ngens
    rows = [r + r for r in s.canonical] + [r + (0,) * n for r in t.canonical]
    return _general_sub(s.ambient, [r[n:] for r in hnf_rows(rows, 2 * n) if not any(r[:n])])


def _general_preimage(f, t):
    m, n = f.dom.ngens, f.cod.ngens
    w = freeze(zip(*t.canonical)) if t.canonical else freeze([[] for _ in range(n)])
    r = len(t.canonical)
    sys_rows = [list(f.rows[i]) + [-w[i][k] for k in range(r)] for i in range(n)]
    lat = smith_solution_lattice(freeze(sys_rows), f.cod.factors, m + r)
    gens = [[lat[i][j] for j in range(len(lat[0]))] for i in range(m)] if lat and lat[0] else []
    return _general_sub(f.dom, list(zip(*gens)) if gens else [])


def _general_kernel(f):
    lat = smith_solution_lattice(f.rows, f.cod.factors, f.dom.ngens)
    return _general_sub(f.dom, list(zip(*lat)) if lat and lat[0] else [])


@pytest.mark.parametrize(
    "factors",
    [m.factors for m in enumerate_groups(32)],
    ids=lambda fs: "x".join(map(str, fs)) or "0",
)
def test_seeded_lattices_match_the_general_path_to_order_32(factors):
    m = group(*factors)
    elems = list(m.elements())
    subs = all_subgroups(m)
    members = {s.canonical: frozenset(x for x in elems if s.contains(x)) for s in subs}
    for i, s in enumerate(subs):
        for t in subs[i:]:
            ms, mt = members[s.canonical], members[t.canonical]
            want_inter = _general_intersect(s, t)
            want_sum = _general_sub(m, s.canonical + t.canonical)
            assert intersect(s, t).canonical == intersect(t, s).canonical == want_inter
            assert sum_sub(s, t).canonical == want_sum
            # the same sum from reduced, non-canonical generators, T's first
            gens = [m.reduce(r) for r in t.canonical + s.canonical]
            assert sub_from_gens(m, gens).canonical == want_sum
            assert members[want_inter] == ms & mt
            mu = members[want_sum]
            assert ms | mt <= mu and len(mu) * len(ms & mt) == len(ms) * len(mt)


def test_seeded_preimages_and_kernels_match_the_general_path_to_order_16():
    groups = list(enumerate_groups(16))
    for n in groups:
        n_elems = list(n.elements())
        targets = [(t, {x for x in n_elems if t.contains(x)}) for t in all_subgroups(n)]
        for m in groups:
            m_elems = list(m.elements())
            for f in hom_group(m, n).basis:
                images = [(x, f(x)) for x in m_elems]
                ker = kernel_subgroup(f)
                assert ker.canonical == _general_kernel(f), (m, n, f)
                assert {x for x, y in images if not any(y)} == {x for x in m_elems if ker.contains(x)}
                for t, t_members in targets:
                    pre = preimage_subgroup(f, t)
                    assert pre.canonical == _general_preimage(f, t), (m, n, f, t)
                    want = {x for x, y in images if y in t_members}
                    assert want == {x for x in m_elems if pre.contains(x)}


MIXED = [(0,), (0, 0), (2, 0), (4, 0), (2, 4, 0), (2, 0, 0)]
MIXED_IDS = ["x".join(map(str, fs)) for fs in MIXED]


def _window(m, free=range(-3, 5)):
    """Elements of m with finite coordinates reduced and free ones in free."""
    return list(product(*(range(d) if d else free for d in m.factors)))


def _window_subgroups(m, pairs=80):
    """The subgroups generated by no vector, one vector or a seeded sample of
    two vectors of the window, once each, with their generators."""
    vecs = _window(m)
    rng = random.Random(len(vecs))
    two = list(combinations(vecs, 2))
    gen_sets = [[]] + [[v] for v in vecs] + [list(p) for p in rng.sample(two, min(pairs, len(two)))]
    subs = {}
    for gens in gen_sets:
        subs.setdefault(sub_from_gens(m, gens), gens)
    return list(subs.items())


def _window_morphisms(m, n):
    """The hom_group basis, the sums of two basis elements, and the sum with
    multiplicities 1, 2, 3, ... of the whole basis."""
    basis = list(hom_group(m, n).basis)
    out = [zero_hom(m, n)] + basis + [add_hom(a, b) for a, b in combinations(basis, 2)]
    total = zero_hom(m, n)
    for k, h in enumerate(basis, 1):
        for _ in range(k):
            total = add_hom(total, h)
    return out + [total]


@pytest.mark.parametrize("factors", MIXED, ids=MIXED_IDS)
def test_mixed_lattices_match_the_general_path(factors):
    m = group(*factors)
    window = _window(m)
    subs = _window_subgroups(m)
    assert len(subs) >= 5
    for s, gens in subs:
        assert s.canonical == _general_sub(m, gens)
        assert all(s.contains(g) for g in gens)
        assert s.order == subgroup_group(s).order
    tested = [s for s, _ in subs[::2]]
    for s in tested:
        for t in tested:
            inter, total = intersect(s, t), sum_sub(s, t)
            assert inter.canonical == _general_intersect(s, t), (s, t)
            assert total.canonical == _general_sub(m, s.canonical + t.canonical), (s, t)
            assert inter.order == subgroup_group(inter).order
            assert total.order == subgroup_group(total).order
            for x in window:
                assert inter.contains(x) == (s.contains(x) and t.contains(x))


@pytest.mark.parametrize("factors", MIXED, ids=MIXED_IDS)
def test_mixed_preimages_and_kernels_match_the_general_path(factors):
    m = group(*factors)
    window = _window(m)
    for n in [group(*fs) for fs in MIXED] + [group(2, 4)]:
        targets = [t for t, _ in _window_subgroups(n, pairs=10)[::4]]
        for f in _window_morphisms(m, n) + _window_morphisms(n, m):
            images = [(x, f(x)) for x in (window if f.dom == m else _window(n))]
            ker = kernel_subgroup(f)
            assert ker.canonical == _general_kernel(f), f
            assert ker.order == subgroup_group(ker).order
            assert all(ker.contains(x) == (not any(y)) for x, y in images)
            for t in targets if f.cod == n else [full_subgroup(m), trivial_subgroup(m)]:
                pre = preimage_subgroup(f, t)
                assert pre.canonical == _general_preimage(f, t), (f, t)
                assert all(pre.contains(x) == t.contains(y) for x, y in images)


def _checked_start_bases(monkeypatch):
    """Make every SeededHnf pass that starts from a given basis also run from
    the diagonal seed over the start rows followed by the inserted rows, and
    require the two to agree; returns the list of checked passes."""
    real = SeededHnf.canonical
    checked = []

    def canonical(self, extra, start=None):
        extra = list(extra)
        got = real(self, extra, start)
        if start is not None:
            assert got == real(self, list(start) + extra), (start, extra)
            checked.append(len(extra))
        return got

    monkeypatch.setattr(SeededHnf, "canonical", canonical)
    return checked


def _checked_start_blocks(monkeypatch):
    """Make every subgroup pass that starts from given rows also run over the
    relations followed by the start rows and the inserted rows, and require
    the two to agree; returns the list of checked passes."""
    import absplit.subgroups as subgroups_mod

    real = subgroups_mod._seeded_block
    checked = []

    def block(factors, rows, k, start=None):
        rows = list(rows)
        got = real(factors, rows, k, start)
        if start is not None:
            assert got == real(factors, list(start) + rows, k), (start, rows)
            checked.append(len(rows))
        return got

    monkeypatch.setattr(subgroups_mod, "_seeded_block", block)
    return checked


def test_start_basis_passes_match_passes_from_the_seed_to_order_16(monkeypatch):
    checked = _checked_start_blocks(monkeypatch)
    for m in enumerate_groups(16):
        subs = all_subgroups(m)
        for i, s in enumerate(subs):
            _, q = quotient(m, s)
            assert kernel_subgroup(q) == s
            for t in subs[i:]:
                total = sum_sub(s, t)
                assert total.canonical == SeededHnf(m.factors).canonical(s.canonical + t.canonical)
                assert preimage_subgroup(q, map_subgroup(q, t)) == total
                assert total.contains_subgroup(intersect(s, t))
                assert intersect(t, s) == intersect(s, t)
    assert len(checked) > 10_000


def test_sweep_joins_match_passes_from_the_seed(monkeypatch):
    from absplit import splitness
    from absplit.splitness import self_split_profile

    checked = _checked_start_bases(monkeypatch)
    m = group(2, 2, 2, 2)
    for f in (trivial_subgroup(m), full_subgroup(m)):
        # sweep outcomes and joins are kept on the group's analysis, and the
        # two profiles share moduli (2, 2, 2, 2); each starts from none
        monkeypatch.setattr(splitness, "_ANALYSES", {})
        before = len(checked)
        self_split_profile(m, f)
        # each sweep joins its states with 16 coordinate values per level
        joins = [n for n in checked[before:] if n == 1]
        assert len(joins) >= 2 * 16


def _count_calls(monkeypatch, modules, name):
    """Count the calls of the function bound to name in the first module,
    through every module given that binds it."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_finite_ambients_take_one_seeded_pass(monkeypatch):
    import absplit.groups as groups_mod
    import absplit.intmat as intmat_mod
    import absplit.subgroups as subgroups_mod

    solves = _count_calls(monkeypatch, [groups_mod], "solution_lattice")
    # preimages and kernels reach the pass through intmat._graph_basis
    hnfs = _count_calls(monkeypatch, [intmat_mod, subgroups_mod], "hnf_rows")

    def one_pass(op):
        before = len(hnfs)
        op()
        assert len(hnfs) == before + 1

    # one hnf_rows pass per operation over the same rows on every ambient,
    # finite or with a free part, and no congruence solving
    m, n = group(2, 4, 4), group(2, 8)
    for f in hom_group(m, n).basis:
        one_pass(lambda: kernel_subgroup(f))
        for t in all_subgroups(n):
            one_pass(lambda: preimage_subgroup(f, t))
    subs = all_subgroups(m)
    for s in subs[::7]:
        for t in subs[::5]:
            one_pass(lambda: intersect(s, t))
            one_pass(lambda: sum_sub(s, t))
    one_pass(lambda: sub_from_gens(m, [(1, 2, 3), (0, 2, 2)]))
    mixed = group(4, 0)
    g = morphism(mixed, mixed, [[1, 0], [0, 2]])
    before = len(hnfs)
    s, t = sub_from_gens(mixed, [(0, 2)]), sub_from_gens(mixed, [(2, 3)])
    assert len(hnfs) == before + 2
    for op in (
        lambda: preimage_subgroup(g, t),
        lambda: kernel_subgroup(g),
        lambda: sub_from_gens(mixed, [(1, 3)]),
        lambda: intersect(s, t),
        lambda: sum_sub(s, t),
    ):
        one_pass(op)
    assert solves == []


# --- inclusion / quotient -------------------------------------------------------


def test_quotient_examples():
    c, q = quotient(Z12, trivial_subgroup(Z12))
    assert c.factors == Z12.factors
    c, q = quotient(Z4, sub_from_gens(Z4, [(2,)]))
    assert c.factors == (2,)  # oracle: 2 cosets
    assert kernel_subgroup(q).canonical == sub_from_gens(Z4, [(2,)]).canonical
    c, q = quotient(Z, sub_from_gens(Z, [(3,)]))
    assert c.factors == (3,)


def test_inclusion_and_ses():
    s = sub_from_gens(Z12, [(3,)])
    inc = inclusion(s)
    assert is_mono(inc) and inc.dom.factors == (4,)
    assert image_subgroup(inc).canonical == s.canonical
    c, q = quotient(Z12, s)
    ses = build_ses(inc, q)
    assert ses.middle == Z12
    # exactness: im(i) = ker(d) exactly
    assert image_subgroup(ses.i).canonical == kernel_subgroup(ses.d).canonical


# --- enumeration ----------------------------------------------------------------


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def rank2_subgroup_count(m, n):
    """Independent oracle: #subgroups of Z/m ⊕ Z/n = Σ_{a|m, b|n} gcd(a, b)."""
    return sum(
        gcd(a, b)
        for a in range(1, m + 1) if m % a == 0
        for b in range(1, n + 1) if n % b == 0
    )


def hnf_sublattice_count(m):
    """Independent oracle: subgroups of a finite abelian group correspond to
    sublattices of Z^k between the relation lattice and Z^k, enumerated as
    column-style HNF matrices (diagonal entries + reduced off-diagonal)."""
    factors = m.factors
    k = len(factors)
    if k == 0:
        return 1
    count = 0

    def rec(i, diag):
        nonlocal count
        if i == k:
            # off-diagonal entries H[i][j] (i < j) run mod diag[i], but the
            # lattice must contain the relation vectors d_j e_j
            total = 0
            offsets = []
            for row in range(k):
                for col in range(row + 1, k):
                    offsets.append((row, col))
            # canonical row HNF: the entry above the pivot of column c is
            # reduced modulo that pivot
            candidates = [range(diag[c]) for r, c in offsets]
            for combo in product(*candidates):
                h = [[0] * k for _ in range(k)]
                for d_idx in range(k):
                    h[d_idx][d_idx] = diag[d_idx]
                for (r, c), v in zip(offsets, combo):
                    h[r][c] = v
                ok = True
                for j in range(k):
                    # d_j e_j must be in the row lattice of h
                    v = [factors[j] if t == j else 0 for t in range(k)]
                    for row in range(k):
                        piv = h[row][row]
                        if v[row] % piv != 0:
                            ok = False
                            break
                        q = v[row] // piv
                        for t in range(row, k):
                            v[t] -= q * h[row][t]
                    if not ok or any(v):
                        ok = False
                        break
                if ok:
                    total += 1
            count += total
            return
        d = factors[i]
        for a in range(1, d + 1):
            if d % a == 0:
                rec(i + 1, diag + [a])

    rec(0, [])
    return count


def closed_subset_count(m):
    """Literal oracle for tiny groups: subsets closed under the operation."""
    elems = list(m.elements())
    count = 0
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            s = set(combo)
            if tuple(0 for _ in m.factors) not in s:
                continue
            closed = all(
                m.reduce([a + b for a, b in zip(x, y)]) in s for x in s for y in s
            ) and all(m.reduce([-a for a in x]) in s for x in s)
            if closed:
                count += 1
    return count


def test_all_subgroups_examples():
    assert len(all_subgroups(group(5))) == 2
    assert len(all_subgroups(Z12)) == 6  # divisors of 12
    assert len(all_subgroups(V4)) == 5  # three order-2 + trivial + full


def test_all_subgroups_against_oracles():
    from absplit.harness import enumerate_groups

    for m in enumerate_groups(32):
        factors = m.factors
        got = len(all_subgroups(m))
        assert got == hnf_sublattice_count(m), factors
        if len(factors) == 1:
            assert got == divisor_count(factors[0])
        if len(factors) == 2:
            assert got == rank2_subgroup_count(*factors)
        if m.order <= 8:
            assert got == closed_subset_count(m)


def test_all_subgroups_complete_and_duplicate_free():
    for factors in [(2, 4), (2, 2, 2), (3, 3)]:
        m = group(*factors)
        subs = all_subgroups(m)
        assert len({s.canonical for s in subs}) == len(subs)
        # every cyclic subgroup is listed
        for x in m.elements():
            c = sub_from_gens(m, [x])
            assert any(s.canonical == c.canonical for s in subs)


def test_all_subgroups_cap_refusal():
    with pytest.raises(SubgroupCapError):
        all_subgroups(group(2, 4), cap=4)
    with pytest.raises(SubgroupCapError):
        all_subgroups(group(0))


def _cyclic_closure(m):
    """The enumeration all_subgroups used to run, kept as an oracle: the
    cyclic subgroups closed under sums with cyclic subgroups, deduplicated
    by canonical form.  SeededHnf stands in for sub_from_gens (the same
    canonical form, several times faster), and a sum with a cyclic subgroup
    already inside is skipped (it gives the subgroup itself)."""
    if not m.factors:
        return [()]
    acc = SeededHnf(m.factors)
    cyclic = {}
    for x in m.elements():
        cyclic.setdefault(acc.canonical([x]), x)
    seen = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        nxt = []
        for s in frontier:
            for x in cyclic.values():
                if row_lattice_contains(s, x):
                    continue
                u = acc.canonical(list(s) + [x])
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    order = lambda h: m.order // prod(h[i][i] for i in range(len(h)))  # noqa: E731
    return sorted(seen, key=lambda h: (order(h), h))


def test_all_subgroups_matches_cyclic_closure():
    from absplit.harness import enumerate_groups

    specs = [m.factors for m in enumerate_groups(64)]
    specs += [(2, 2, 2, 2, 6), (4, 12, 24), (12, 18), ()]
    for factors in specs:
        m = group(*factors)
        subs = all_subgroups(m, cap=m.order)
        assert [s.canonical for s in subs] == _cyclic_closure(m), factors
        assert all(s.ambient == m for s in subs)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_elementary_abelian_counts_are_gaussian_sums():
    for p, n, total in [(2, 6, 2825), (3, 4, 212)]:
        assert sum(gaussian_binomial(n, k, p) for k in range(n + 1)) == total
        assert len(all_subgroups(group(*[p] * n))) == total


def test_all_subgroups_needs_no_hermite_normalisation(monkeypatch):
    import absplit.intmat
    import absplit.subgroups

    calls = []

    def counting(vectors, width):
        calls.append(width)
        return hnf_rows(vectors, width)

    monkeypatch.setattr(absplit.subgroups, "hnf_rows", counting)
    monkeypatch.setattr(absplit.intmat, "hnf_rows", counting)
    subs = all_subgroups(group(2, 2, 2, 2, 2, 2))
    assert len(subs) == 2825
    assert len(calls) <= len(subs)  # the cyclic closure made 180,800


def test_all_subgroups_refuses_rather_than_truncates():
    m = group(2, 2, 2, 2, 2, 2)
    for cap in (0, 1, 32, 63):
        with pytest.raises(SubgroupCapError, match="exceeds the subgroup enumeration cap"):
            all_subgroups(m, cap=cap)
    assert len(all_subgroups(m, cap=64)) == 2825
    with pytest.raises(SubgroupCapError, match="exceeds"):
        all_subgroups(group(), cap=0)
    assert len(all_subgroups(group(), cap=1)) == 1
    for factors in [(0,), (2, 0), (0, 0)]:
        with pytest.raises(SubgroupCapError, match="infinite"):
            all_subgroups(group(*factors), cap=10**9)


# --- fully invariant subgroups ----------------------------------------------------


def test_fi_examples():
    for s in all_subgroups(Z12):
        assert is_fully_invariant(s)
    bad = sub_from_gens(V4, [(1, 0)])
    assert not is_fully_invariant(bad)
    h, x = fi_violation(bad)
    assert bad.contains(x) and not bad.contains(h(x))
    t = sub_from_gens(group(4, 0), [(1, 0)])
    assert is_fully_invariant(t)  # torsion part of Z/4 ⊕ Z


def test_fi_brute_force_agreement():
    # basis test == quantification over every endomorphism
    for factors in [(2, 2), (2, 4), (8,), (3, 3), (2, 2, 2)]:
        m = group(*factors)
        endos = list(iter_hom(m, m))
        for s in all_subgroups(m):
            brute = all(
                s.contains(h(x))
                for h in endos
                for x in m.elements()
                if s.contains(x)
            )
            assert is_fully_invariant(s) == brute, (factors, s.canonical)


def test_fi_violation_matches_the_morphism_call():
    # the single-coordinate image must find the same first (h, x) as
    # applying each End basis element through Morphism.__call__
    from absplit.harness import enumerate_groups

    def reference(s):
        for h in hom_group(s.ambient, s.ambient).basis:
            for row in s.canonical:
                if not s.contains(h(row)):
                    return h, tuple(row)
        return None

    for m in enumerate_groups(32):
        for s in all_subgroups(m):
            assert fi_violation(s) == reference(s), (m.factors, s.canonical)
    for factors in [(2, 0), (4, 0, 0), (6, 12, 0)]:
        m = group(*factors)
        for gens in [[(1,) + (0,) * (m.ngens - 1)], [(0,) * (m.ngens - 1) + (2,)]]:
            s = sub_from_gens(m, gens)
            assert fi_violation(s) == reference(s), (factors, gens)


def test_fully_coinvariant():
    m = group(4, 0)
    t = sub_from_gens(m, [(1, 0)])
    c, q = quotient(m, t)
    assert is_fully_coinvariant(q)
    g, injs, projs = biproduct([group(2), group(2)])
    assert not is_fully_coinvariant(projs[0])
    assert is_fully_coinvariant(identity_hom(Z12))
    from absplit.groups import ObjectMismatchError

    with pytest.raises(ObjectMismatchError):
        is_fully_coinvariant(morphism(group(2), Z4, [[2]]))


def test_fi_ses():
    h4 = sub_from_gens(Z12, [(3,)])
    ses = fi_ses(Z12, h4)
    assert ses.d.cod.factors == (3,)
    ses0 = fi_ses(Z12, trivial_subgroup(Z12))
    assert ses0.i.dom.is_trivial and ses0.d.cod.factors == Z12.factors
    with pytest.raises(FullyInvariantError) as exc:
        fi_ses(V4, sub_from_gens(V4, [(1, 0)]))
    h = exc.value.endo
    assert not sub_from_gens(V4, [(1, 0)]).contains(h(exc.value.element))


# --- structural properties of fully invariant subgroups -------------------------------------------------------


def summand_decompositions(m):
    """All (X, Y) with X ⊕ Y = M, found via section checks on inclusions."""
    subs = all_subgroups(m)
    out = []
    for x in subs:
        for y in subs:
            if (x.order or 0) * (y.order or 0) != m.order:
                continue
            if intersect(x, y).order == 1 and sum_sub(x, y).is_full:
                out.append((x, y))
    return out


def test_fi_splits_along_decompositions():
    # F fully invariant, M = M1 ⊕ M2  =>  F ≅ (F∩M1) ⊕ (F∩M2)
    for factors in [(2, 4), (2, 2), (12,), (2, 6)]:
        m = group(*factors)
        fis = [s for s in all_subgroups(m) if is_fully_invariant(s)]
        for x, y in summand_decompositions(m):
            assert is_summand(x) and is_summand(y)
            for f in fis:
                fx = intersect(f, x)
                fy = intersect(f, y)
                assert fx.order * fy.order == f.order
                joined = sorted(
                    subgroup_group(fx).factors + subgroup_group(fy).factors
                )
                combined, _, _ = biproduct(
                    [subgroup_group(fx), subgroup_group(fy)]
                )
                assert combined.factors == subgroup_group(f).factors


def test_fi_intersection_with_summand_is_fi_in_summand():
    # the inclusion F∩M1 -> M1 is fully invariant
    for factors in [(2, 4), (2, 2, 2), (2, 6)]:
        m = group(*factors)
        fis = [s for s in all_subgroups(m) if is_fully_invariant(s)]
        for x, _y in summand_decompositions(m):
            inc = inclusion(x)
            for f in fis:
                fx_in_x = preimage_subgroup(inc, intersect(f, x))
                assert is_fully_invariant(fx_in_x), (factors, f.canonical)


def test_fi_intersection_of_two_fi_is_fi():
    # both sequences fully invariant -> F∩G fully invariant in M
    for factors in [(2, 4), (2, 2), (4, 8), (2, 6)]:
        m = group(*factors)
        fis = [s for s in all_subgroups(m) if is_fully_invariant(s)]
        for f in fis:
            for g in fis:
                assert is_fully_invariant(intersect(f, g))


def test_fi_intersection_in_g_under_extension_hypothesis():
    # if every endomorphism of G extends to M, then F∩G is fully invariant in G;
    # an endomorphism h of G extends iff f∘inc = inc∘h is solvable for f: M→M,
    # and extendability of the additive End(G)-basis extends to all of End(G)
    from absplit.groups import solve_compose_right

    hit = 0
    for factors in [(2, 4), (2, 2), (2, 6)]:
        m = group(*factors)
        subs = all_subgroups(m)
        fis = [s for s in subs if is_fully_invariant(s)]
        for g_sub in subs:
            inc = inclusion(g_sub)
            g_grp = inc.dom
            extends = all(
                solve_compose_right(inc, compose(inc, h)) is not None
                for h in hom_group(g_grp, g_grp).basis
            )
            if not extends:
                continue
            hit += 1
            for f in fis:
                fg = preimage_subgroup(inc, intersect(f, g_sub))
                assert is_fully_invariant(fg), (factors, f.canonical, g_sub.canonical)
    assert hit > 5


def test_composition_of_fi_inclusions_is_fi():
    # S fully invariant in T, T fully invariant in M  =>  S fully invariant in M
    for factors in [(2, 4), (8,), (2, 6), (4, 4)]:
        m = group(*factors)
        subs = all_subgroups(m)
        for t in subs:
            if not is_fully_invariant(t):
                continue
            inc_t = inclusion(t)
            for s_abs in all_subgroups(inc_t.dom):
                if not is_fully_invariant(s_abs):
                    continue
                s_in_m = map_subgroup(inc_t, s_abs)
                assert is_fully_invariant(s_in_m), (factors, t.canonical)


def test_block_diagonal_fi_forces_blockwise_fi():
    # [i 0; 0 i'] fully invariant  =>  i and i' fully invariant
    cases = [((2, 4), (2,)), ((2, 2), (3,)), ((4,), (4,))]
    for fa, fb in cases:
        a, b = group(*fa), group(*fb)
        g, injs, _ = biproduct([a, b])
        for sa in all_subgroups(a):
            for sb in all_subgroups(b):
                gens = [injs[0](r) for r in sa.canonical] + [
                    injs[1](r) for r in sb.canonical
                ]
                block = sub_from_gens(g, gens)
                if is_fully_invariant(block):
                    assert is_fully_invariant(sa) and is_fully_invariant(sb)


def test_zero_hom_family_biproduct_fi():
    # with pairwise-zero Homs, blockwise fully invariant <=> biproduct fully invariant
    a, b = group(4), group(9)
    g, injs, _ = biproduct([a, b])
    for sa in all_subgroups(a):
        for sb in all_subgroups(b):
            gens = [injs[0](r) for r in sa.canonical] + [
                injs[1](r) for r in sb.canonical
            ]
            block = sub_from_gens(g, gens)
            assert is_fully_invariant(block) == (
                is_fully_invariant(sa) and is_fully_invariant(sb)
            )


def test_purity_decides_summands_to_order_32():
    # in a finite abelian group the pure subgroups are the direct summands;
    # Z/2 x Z/8 has <(1, 2)> with S ∩ 2M = 2S but S ∩ 4M != 4S = 0
    count = 0
    for m in enumerate_groups(32):
        for s in all_subgroups(m):
            assert is_pure(s) == (summand_witness(s) is not None), (m, s)
            count += 1
    assert count == 1030
    m = group(2, 8)
    s = sub_from_gens(m, [(1, 2)])
    assert not is_pure(s) and summand_witness(s) is None
    with pytest.raises(ValueError):
        is_pure(full_subgroup(group(2, 0)))


def test_cokernel_retraction_factoring():
    # a factor of a fully coinvariant retraction through an epi is again one
    from absplit.groups import retraction_witness as rw
    from absplit.groups import solve_compose_right

    exercised = 0
    for factors in [(2, 4), (12,), (2, 2), (2, 6), (8,), (4, 4)]:
        m = group(*factors)
        subs = all_subgroups(m)
        for f in subs:
            if not is_fully_invariant(f) or not is_summand(f):
                continue
            cgrp, d = quotient(m, f)  # fully coinvariant retraction
            assert rw(d) is not None
            assert is_fully_coinvariant(d)
            for k in subs:
                # factor d = d2 ∘ g through the quotient by any k <= f
                if not f.contains_subgroup(k):
                    continue
                bgrp, g = quotient(m, k)
                d2 = solve_compose_right(g, d)
                assert d2 is not None  # k <= ker(d), so d factors through g
                exercised += 1
                assert rw(d2) is not None
                assert is_fully_coinvariant(d2)
    assert exercised > 20
