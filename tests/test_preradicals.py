"""Concrete preradicals: closed forms, naturality, exactness behaviour."""

import random

import pytest

from absplit.groups import group, hom_group
from absplit.harness import enumerate_groups
from absplit.preradicals import (
    Preradical,
    divisible,
    evaluate,
    mul_image,
    ntorsion,
    parse_preradical,
    ppart,
    radical,
    socle,
    torsion,
)
from absplit.subgroups import (
    all_subgroups,
    inclusion,
    intersect,
    is_fully_invariant,
    map_subgroup,
    preimage_subgroup,
    quotient,
    sum_sub,
)
from oracles import naturality_check, sub_equal

ALL = [
    torsion(), socle(), radical(), ppart(2), ppart(3), mul_image(2), mul_image(6),
    ntorsion(2), ntorsion(4), divisible(),
]


def test_preradicals_are_immutable_values():
    a = ppart(3)
    b = Preradical("ppart", 3, hereditary=True, idempotent=True, is_radical=True)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == parse_preradical("ppart:3") and a != ppart(5) and torsion() != socle()
    assert Preradical("ppart", 3) != a  # the metadata flags count
    with pytest.raises(AttributeError):
        a.param = 5
    assert a.name == "ppart:3"


def test_evaluate_examples():
    m = group(4, 0)
    t = evaluate(torsion(), m)
    assert t.order == 4 and t.contains((1, 0)) and not t.contains((0, 1))

    soc = evaluate(socle(), group(4))
    assert soc.order == 2 and soc.contains((2,))
    # oracle: the unique minimal subgroup of Z/4 by enumeration
    minimal = [
        s for s in all_subgroups(group(4)) if s.order == 2
    ]
    assert len(minimal) == 1 and sub_equal(soc, minimal[0])

    rad = evaluate(radical(), group(4, 3))
    assert rad.order == 2
    # oracle: intersection of all maximal subgroups by enumeration
    subs = all_subgroups(group(4, 3))
    maximal = [s for s in subs if s.order == 6 or s.order == 4]
    acc = None
    for s in subs:
        if s.order in (4, 6):  # index 3 and index 2 subgroups of Z/12
            acc = s if acc is None else intersect(acc, s)
    assert sub_equal(rad, acc)


def test_socle_matches_sum_of_simples():
    for factors in [(4,), (2, 4), (12,), (2, 2), (9, 27), (2, 6)]:
        m = group(*factors)
        subs = all_subgroups(m)
        acc = None
        for s in subs:
            o = s.order
            if o > 1 and all(o % d for d in range(2, o)):  # prime order = simple
                acc = s if acc is None else sum_sub(acc, s)
        want = evaluate(socle(), m)
        if acc is None:
            assert want.order == 1
        else:
            assert sub_equal(want, acc), factors


def test_radical_matches_intersection_of_maximals():
    for factors in [(4,), (2, 4), (12,), (2, 2), (8,), (2, 6)]:
        m = group(*factors)
        subs = all_subgroups(m)
        order = m.order
        acc = None
        for s in subs:
            if s.order != order and (order // s.order) in (2, 3, 5, 7, 11, 13):
                # index-prime subgroups are exactly the maximal ones
                acc = s if acc is None else intersect(acc, s)
        want = evaluate(radical(), m)
        if acc is None:
            assert want.is_full
        else:
            assert sub_equal(want, acc), factors


def test_ppart_mul_ntorsion():
    z12 = group(12)
    assert evaluate(ppart(2), z12).order == 4
    assert evaluate(ppart(3), z12).order == 3
    m = group(4, 2)
    assert evaluate(mul_image(2), m).order == 2
    nt = evaluate(ntorsion(2), m)
    # oracle: {x : 2x = 0} element count
    assert nt.order == len([x for x in m.elements() if not any(m.reduce((2 * x[0], 2 * x[1])))])
    assert evaluate(divisible(), group(8, 0)).order == 1


def test_naturality_identity_and_random():
    rng = random.Random(7)
    pool = [group(4, 3), group(2, 2), group(8), group(2, 4, 0), group(0), group(6, 0)]
    for r in ALL:
        for m in pool:
            from absplit.groups import identity_hom

            assert naturality_check(r, identity_hom(m))
    for _ in range(200):
        m = rng.choice(pool)
        n = rng.choice(pool)
        h = hom_group(m, n)
        rows = [[0] * m.ngens for _ in range(n.ngens)]
        from absplit.groups import Morphism, add_hom
        from absplit.intmat import freeze

        f = Morphism(m, n, freeze(rows))
        for b, o in zip(h.basis, h.orders):
            c = rng.randint(0, (o - 1) if o else 4)
            f = add_hom(f, Morphism(m, n, tuple(tuple(c * x for x in row) for row in b.rows)))
        for r in ALL:
            assert naturality_check(r, f), (r.name, m.factors, n.factors)


def test_ntorsion_multiplication_example():
    m = group(4, 2)
    from absplit.groups import morphism

    f = morphism(m, m, [[3, 0], [0, 3]])
    assert naturality_check(ntorsion(2), f)


def test_images_fully_invariant_up_to_48():
    for m in enumerate_groups(48):
        for r in ALL:
            assert is_fully_invariant(evaluate(r, m)), (r.name, m.factors)


# every group to order 48, each with its subgroups, for the flag laws below
LAW_GROUPS = [(m, all_subgroups(m)) for m in enumerate_groups(48)]


def _flagged(flag):
    chosen = [r for r in ALL if getattr(r, flag)]
    assert chosen, flag
    return chosen


def test_hereditary_on_subgroups():
    # r(N) ∩ N' = r(N') for every preradical flagged hereditary
    hered = _flagged("hereditary")
    for n, subs in LAW_GROUPS:
        rn = {r: evaluate(r, n) for r in hered}
        for np in subs:
            inc = inclusion(np)
            for r in hered:
                lhs = intersect(rn[r], np)
                rhs = map_subgroup(inc, evaluate(r, inc.dom))
                assert lhs.canonical == rhs.canonical, (r.name, n.factors, np.canonical)


def test_cohereditary_on_quotients():
    # (r(N) + N')/N' = r(N/N') for every preradical flagged cohereditary
    cohered = _flagged("cohereditary")
    for n, subs in LAW_GROUPS:
        rn = {r: evaluate(r, n) for r in cohered}
        for np in subs:
            cgrp, q = quotient(n, np)
            for r in cohered:
                lhs = map_subgroup(q, rn[r])
                rhs = evaluate(r, cgrp)
                assert lhs.canonical == rhs.canonical, (r.name, n.factors, np.canonical)


def test_idempotent_on_its_image():
    # r(r(M)) = r(M) for every preradical flagged idempotent
    for r in _flagged("idempotent"):
        for m, _ in LAW_GROUPS:
            inc = inclusion(evaluate(r, m))
            assert map_subgroup(inc, evaluate(r, inc.dom)) == evaluate(r, m), (r.name, m.factors)


def test_radical_on_its_quotient():
    # r(M/r(M)) = 0 for every preradical flagged as a radical
    for r in _flagged("is_radical"):
        for m, _ in LAW_GROUPS:
            cgrp, _ = quotient(m, evaluate(r, m))
            assert evaluate(r, cgrp).order == 1, (r.name, m.factors)


def test_radical_superfluous_socle_essential():
    for m in enumerate_groups(32):
        if m.order == 1:
            continue
        rad = evaluate(radical(), m)
        soc = evaluate(socle(), m)
        for k in all_subgroups(m):
            if sum_sub(rad, k).is_full:
                assert k.is_full, (m.factors, k.canonical)
            if intersect(soc, k).order == 1:
                assert k.order == 1, (m.factors, k.canonical)


def test_parse_preradical():
    assert parse_preradical("torsion").tag == "torsion"
    assert parse_preradical("ppart:5").param == 5
    assert parse_preradical("mul:6").param == 6
    assert parse_preradical("ntorsion:4").param == 4
    assert parse_preradical("divisible").tag == "divisible"
    with pytest.raises(ValueError):
        parse_preradical("ppart:x")
    with pytest.raises(ValueError):
        parse_preradical("frobenius")
    with pytest.raises(ValueError):
        ppart(4)


def test_metadata_flags():
    assert torsion().hereditary and torsion().is_radical
    assert socle().hereditary and socle().idempotent and not socle().is_radical
    assert radical().cohereditary and radical().is_radical
    assert mul_image(3).cohereditary
    assert ntorsion(2).hereditary
