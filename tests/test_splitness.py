"""Splitness predicates: brute force, theorem reductions, certificates."""

import itertools
import random

import pytest

from absplit.groups import (
    compose,
    group,
    hom_count,
    identity_hom,
    iter_hom,
    morphism,
)
from absplit.harness import enumerate_groups
from absplit.splitness import (
    Caps,
    EndRingView,
    InternalConsistencyError,
    decide_self_profile,
    end_ring,
    end_ring_abelian_closed_form,
    has_sip_summands_containing,
    has_ssp_summands_contained_in,
    is_abelian_ring,
    is_dual_M_F_split,
    is_dual_self_F_split_theorem,
    is_dual_self_rickart,
    is_M_F_split,
    is_self_F_split_theorem,
    is_self_rickart,
    noncentral_idempotent,
    reverify,
    self_split_profile,
    self_split_profile_theorem,
    strongly_no_witness_search,
    structural_dual_self_rickart,
    structural_self_rickart,
)
from absplit import splitness
from absplit.preradicals import evaluate, radical, socle, torsion
from absplit.subgroups import (
    FullyInvariantError,
    all_subgroups,
    full_subgroup,
    is_fully_invariant,
    sub_from_gens,
    trivial_subgroup,
)

Z12 = group(4, 3)


def z12_by_order():
    return {s.order: s for s in all_subgroups(Z12)}


# --- primal brute force ---------------------------------------------------------


def test_full_subgroup_always_splits():
    for m, n in [(group(2), group(4)), (group(6), group(6)), (group(2, 2), group(8))]:
        v = is_M_F_split(m, n, full_subgroup(n), strongly=True)
        assert v.is_yes


def test_z12_primal_pattern():
    subs = z12_by_order()
    yes = is_M_F_split(Z12, Z12, subs[4], strongly=True)
    assert yes.is_yes and reverify(yes)
    no = is_M_F_split(Z12, Z12, subs[1])
    assert no.is_no and reverify(no)
    # the counterexample's kernel genuinely fails the section test
    ce = no.counterexample
    from absplit.subgroups import summand_witness

    assert summand_witness(ce.subgroup) is None


def test_non_fully_invariant_rejected():
    v4 = group(2, 2)
    with pytest.raises(FullyInvariantError) as exc:
        is_M_F_split(v4, v4, sub_from_gens(v4, [(1, 0)]))
    assert exc.value.endo is not None


def test_unknown_reasons():
    z = group(0)
    v = is_M_F_split(z, z, trivial_subgroup(z))
    assert v.is_unknown and "infinite" in v.reason
    m = group(2, 2, 2, 2, 2)
    v = is_M_F_split(m, m, trivial_subgroup(m), budget=10**6)
    assert v.is_unknown and "exceeds budget" in v.reason


# --- dual brute force -------------------------------------------------------------


def test_dual_zero_always_splits():
    for n, m in [(group(4), group(4)), (group(2, 2), group(6)), (group(12), group(12))]:
        v = is_dual_M_F_split(n, m, trivial_subgroup(n), strongly=True)
        assert v.is_yes


def test_z12_dual_pattern():
    subs = z12_by_order()
    assert is_dual_M_F_split(Z12, Z12, subs[3], strongly=True).is_yes
    v = is_dual_M_F_split(Z12, Z12, subs[4])
    assert v.is_no and reverify(v)
    assert is_dual_M_F_split(Z12, Z12, subs[12]).is_no  # Z/12 is not dual self-Rickart


# --- Rickart delegates --------------------------------------------------------------


def test_rickart_examples():
    assert is_self_rickart(group(3), strongly=True).is_yes
    assert is_self_rickart(group(4)).is_no
    v = is_self_rickart(group(2, 2))
    assert v.is_yes and reverify(v)
    assert is_self_rickart(group(2, 2), strongly=True).is_no
    assert is_dual_self_rickart(group(2, 3), strongly=True).is_yes
    assert is_dual_self_rickart(group(4)).is_no


def test_finite_rickart_iff_semisimple():
    for m in enumerate_groups(24):
        if hom_count(m, m) > 10**5:
            continue
        assert is_self_rickart(m).is_yes == m.is_semisimple, m.factors
        assert is_dual_self_rickart(m).is_yes == m.is_semisimple, m.factors


# --- structural classifiers ----------------------------------------------------------


def test_structural_matches_brute_on_corpus():
    for m in enumerate_groups(24):
        if hom_count(m, m) > 10**5:
            continue
        ok, wit = structural_self_rickart(m)
        assert ok == is_self_rickart(m).is_yes, m.factors
        if not ok:
            from absplit.subgroups import kernel_subgroup, summand_witness

            assert summand_witness(kernel_subgroup(wit)) is None
        ok_d, wit_d = structural_dual_self_rickart(m)
        assert ok_d == is_dual_self_rickart(m).is_yes, m.factors
        if not ok_d:
            from absplit.subgroups import image_subgroup, summand_witness

            assert summand_witness(image_subgroup(wit_d)) is None


def test_structural_infinite_witnesses():
    # free: self-Rickart yes, dual no; mixed: both no; all with checkable
    # witnesses through the congruence solver
    from absplit.subgroups import image_subgroup, kernel_subgroup, summand_witness

    for factors in [(0,), (0, 0), (2, 0), (4, 0, 0), (6, 12, 0)]:
        m = group(*factors)
        ok, wit = structural_self_rickart(m)
        assert ok == m.is_free
        if wit is not None:
            assert summand_witness(kernel_subgroup(wit)) is None
        ok_d, wit_d = structural_dual_self_rickart(m)
        assert not ok_d
        assert summand_witness(image_subgroup(wit_d)) is None


def test_end_ring_abelian_closed_form_matches_enumeration():
    for m in enumerate_groups(24):
        view = end_ring(m, cap=10**5)
        if view is None:
            continue
        assert is_abelian_ring(view) == end_ring_abelian_closed_form(m), m.factors


# --- theorem mode ---------------------------------------------------------------------


def test_theorem_mode_z12():
    subs = z12_by_order()
    assert is_self_F_split_theorem(Z12, subs[4], strongly=True).is_yes
    v = is_self_F_split_theorem(Z12, subs[3])
    assert v.is_no and v.counterexample is not None and reverify(v)
    # F not a summand -> immediate no with the identity as counterexample
    v2 = is_self_F_split_theorem(Z12, subs[2])
    assert v2.is_no and v2.counterexample.g == identity_hom(Z12)
    assert is_dual_self_F_split_theorem(Z12, subs[3], strongly=True).is_yes
    assert is_dual_self_F_split_theorem(Z12, subs[4]).is_no
    assert is_dual_self_F_split_theorem(Z12, trivial_subgroup(Z12), strongly=True).is_yes


def test_theorem_mode_infinite():
    m = group(2, 0)
    t = evaluate(torsion(), m)
    assert is_self_F_split_theorem(m, t, strongly=True).is_yes
    assert is_dual_self_F_split_theorem(m, t, strongly=True).is_yes
    v = is_self_F_split_theorem(m, trivial_subgroup(m))
    assert v.is_no and reverify(v)
    z2 = group(0, 0)
    v2 = is_self_F_split_theorem(z2, trivial_subgroup(z2), strongly=True)
    assert v2.is_no and v2.counterexample.kind == "not_fully_invariant"
    assert reverify(v2)
    assert is_self_F_split_theorem(z2, trivial_subgroup(z2)).is_yes


def test_brute_equals_theorem_small_corpus():
    for m in enumerate_groups(16):
        if hom_count(m, m) > 10**5:
            continue
        for f in all_subgroups(m):
            if not is_fully_invariant(f):
                continue
            brute = self_split_profile(m, f)
            theorem = self_split_profile_theorem(m, f)
            for k in brute:
                assert brute[k].answer == theorem[k].answer, (m.factors, f.canonical, k)


def test_decide_profile_modes():
    subs = z12_by_order()
    prof = decide_self_profile(Z12, subs[4])
    assert prof["primal_strong"].mode == "brute+theorem"
    m = group(2, 0)
    prof2 = decide_self_profile(m, evaluate(torsion(), m))
    assert prof2["primal_plain"].mode == "theorem"
    assert prof2["primal_plain"].is_yes


# --- end rings ---------------------------------------------------------------------------


def test_end_ring_examples():
    for n in (5, 6, 8, 12):
        view = end_ring(group(n))
        assert view.size == n
        assert is_abelian_ring(view)
    view = end_ring(group(2, 2))
    assert view.size == 16
    assert not is_abelian_ring(view)
    e, h = noncentral_idempotent(view)
    assert compose(e, e) == e and compose(e, h) != compose(h, e)
    view = end_ring(group(2, 3))
    assert view.size == 6 and is_abelian_ring(view)
    assert end_ring(group(2, 2, 2, 2, 2), cap=100) is None
    assert end_ring(group(0)) is None


def test_idempotents_complete():
    # the raw-row summary against End(M) built from Morphism objects and
    # compose: same size, same idempotents in odometer order, same verdict
    from absplit.groups import hom_group

    for m in enumerate_groups(16):
        if hom_count(m, m) > 10**5:
            continue
        view = end_ring(m, cap=10**5)
        elements = list(iter_hom(m, m))
        idempotents = [e for e in elements if compose(e, e) == e]
        abelian = all(
            compose(e, h) == compose(h, e)
            for e in idempotents
            for h in hom_group(m, m).basis
        )
        assert view.size == len(elements), m.factors
        assert list(view.idempotent_rows) == [e.rows for e in idempotents], m.factors
        assert is_abelian_ring(view) == abelian, m.factors


def test_end_ring_closed_under_add_and_compose():
    from absplit.groups import add_hom

    m = group(2, 4)
    elems = set(e.rows for e in iter_hom(m, m))
    assert end_ring(m).size == len(elems)
    assert set(end_ring(m).idempotent_rows) <= elems
    for a in iter_hom(m, m):
        for b in iter_hom(m, m):
            assert compose(a, b).rows in elems
            assert add_hom(a, b).rows in elems


def test_end_ring_enumerated_once_per_group():
    m = group(2, 2, 2)
    view = end_ring(m)
    assert end_ring(m) is view
    assert end_ring(group(2, 2, 2), cap=view.size) is view
    assert end_ring(m, cap=view.size - 1) is None


def test_centrality_basis_test_equals_full_commutation():
    for factors in [(2, 2), (6,), (2, 4), (3, 3)]:
        m = group(*factors)
        view = end_ring(m)
        basis_verdict = is_abelian_ring(view)
        full = all(
            compose(e, h) == compose(h, e)
            for e in (morphism(m, m, rows) for rows in view.idempotent_rows)
            for h in iter_hom(m, m)
        )
        assert basis_verdict == full, factors


def test_free_group_kernels_split_sampled():
    # sampled back-up for the structural claim used by theorem mode on
    # free groups: kernels of endomorphisms of Z^n are direct summands
    from absplit.groups import morphism
    from absplit.subgroups import kernel_subgroup, summand_witness

    rng = random.Random(424)
    for _ in range(40):
        n = rng.randint(1, 3)
        z = group(*(0,) * n)
        g = morphism(z, z, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert summand_witness(kernel_subgroup(g)) is not None


def test_profile_matches_individual_calls():
    rng = random.Random(99)
    pool = [group(4, 3), group(2, 4), group(2, 2), group(8), group(2, 6)]
    for _ in range(15):
        m = rng.choice(pool)
        fis = [s for s in all_subgroups(m) if is_fully_invariant(s)]
        f = rng.choice(fis)
        prof = self_split_profile(m, f)
        assert prof["primal_plain"].answer == is_M_F_split(m, m, f).answer
        assert prof["primal_strong"].answer == is_M_F_split(m, m, f, strongly=True).answer
        assert prof["dual_plain"].answer == is_dual_M_F_split(m, m, f).answer
        assert (
            prof["dual_strong"].answer
            == is_dual_M_F_split(m, m, f, strongly=True).answer
        )


# --- SIP / SSP ------------------------------------------------------------------------------


def test_sip_examples():
    v4 = group(2, 2)
    assert has_sip_summands_containing(v4, full_subgroup(v4))
    assert has_sip_summands_containing(v4, trivial_subgroup(v4))
    assert has_ssp_summands_contained_in(v4, trivial_subgroup(v4))
    assert has_ssp_summands_contained_in(v4, full_subgroup(v4))


def test_sip_for_split_instances():
    for m in enumerate_groups(16):
        if hom_count(m, m) > 10**5:
            continue
        for f in all_subgroups(m):
            if not is_fully_invariant(f):
                continue
            prof = self_split_profile(m, f)
            if prof["primal_plain"].is_yes:
                assert has_sip_summands_containing(m, f), (m.factors, f.canonical)
            if prof["dual_plain"].is_yes:
                assert has_ssp_summands_contained_in(m, f), (m.factors, f.canonical)


# --- witness search ----------------------------------------------------------------------------


def test_witness_search_examples():
    z2 = group(0, 0)
    w = strongly_no_witness_search(z2, trivial_subgroup(z2), entry_bound=1)
    assert w is not None
    from absplit.splitness import analysis_for

    props = analysis_for(z2).subgroup_props(w)
    assert props.is_summand and not props.is_fi
    assert strongly_no_witness_search(group(3), trivial_subgroup(group(3))) is None
    m = group(2, 0)
    assert strongly_no_witness_search(m, evaluate(torsion(), m), entry_bound=2) is None


def test_witness_search_contained_mode():
    z2 = group(0, 0)
    w = strongly_no_witness_search(
        z2, full_subgroup(z2), entry_bound=1, contained_in=True
    )
    assert w is not None


def _full_box_search(m, f_sub, entry_bound, contained_in, record):
    """The search as first written: every nonzero vector of the box and
    every pair of them, generated before deduplication.  Runs to the end,
    adds each distinct subgroup to record and returns the first witness."""
    analysis = splitness.analysis_for(m)
    base = [] if contained_in else list(f_sub.canonical)
    box = itertools.product(range(-entry_bound, entry_bound + 1), repeat=m.ngens)
    pool = [v for v in box if any(v) and (not contained_in or f_sub.contains(v))]
    found = None
    for size in (1, 2):
        for combo in itertools.combinations(pool, size):
            cand = sub_from_gens(m, base + list(combo))
            if cand.canonical in record:
                continue
            record.add(cand.canonical)
            props = analysis.subgroup_props(cand)
            if found is None and props.is_summand and not props.is_fi:
                found = cand
    return found


def _recording_sub_from_gens(monkeypatch):
    made = []

    def record(ambient, gens):
        sub = sub_from_gens(ambient, gens)
        made.append(sub.canonical)
        return sub

    monkeypatch.setattr(splitness, "sub_from_gens", record)
    return made


def test_witness_search_matches_full_box_oracle(monkeypatch):
    # torsion part of order <= 9, free rank <= 2, at most 4 generators; the
    # oracle's box has at most 125 vectors, so its pairs stay affordable
    made = _recording_sub_from_gens(monkeypatch)
    cases = 0
    for t_grp in enumerate_groups(9):
        for rank in range(3):
            m = group(*(t_grp.factors + (0,) * rank))
            fs = {
                f.canonical: f
                for f in [trivial_subgroup(m), full_subgroup(m)]
                + [evaluate(r(), m) for r in (torsion, socle, radical)]
            }
            for f, contained_in, bound in itertools.product(
                fs.values(), (False, True), (1, 2)
            ):
                if (2 * bound + 1) ** m.ngens > 125:
                    continue
                cases += 1
                old_tried: set = set()
                old = _full_box_search(m, f, bound, contained_in, old_tried)
                made.clear()
                new = strongly_no_witness_search(m, f, bound, contained_in)
                case = (m.factors, f.canonical, contained_in, bound)
                assert (new is None) == (old is None), case
                new_tried = set(made)
                if new is None:
                    # the zero coset gives F itself (the zero subgroup when
                    # contained_in), which the new search leaves out
                    zero = (trivial_subgroup(m) if contained_in else f).canonical
                    assert new_tried == old_tried - {zero}, case
                else:
                    assert new_tried <= old_tried, case
                    props = splitness.analysis_for(m).subgroup_props(new)
                    assert props.is_summand and not props.is_fi, case
                    if contained_in:
                        assert f.contains_subgroup(new), case
                    else:
                        assert new.contains_subgroup(f), case
    assert cases > 200


def test_witness_search_counts_cosets_not_vectors(monkeypatch):
    # the old search generated all 7^7 - 1 = 823,542 box vectors here
    m = group(2, 2, 2, 2, 2, 2, 0)
    f = evaluate(torsion(), m)
    made = _recording_sub_from_gens(monkeypatch)
    lines: list = []
    assert strongly_no_witness_search(m, f, entry_bound=3, trace=lines) is None
    assert len(made) <= 10
    assert lines == [
        "witness search (entry bound 3): 6 of 6 candidates, found nothing"
    ]


def test_witness_search_cap_is_reported():
    m = group(0, 0)
    f = trivial_subgroup(m)
    lines: list = []
    wit, tried, _ = splitness._witness_search(m, f, 2, False, 10**6)
    assert wit is not None and tried > 1
    capped = strongly_no_witness_search(
        m, f, entry_bound=2, max_checked=tried - 1, trace=lines
    )
    assert capped is None
    # 24 nonzero vectors in [-2, 2]^2 give 12 keys up to sign: 12 + 66 candidates
    assert lines == [
        f"witness search (entry bound 2): {tried - 1} of 78 candidates, "
        "stopped at the cap, found nothing"
    ]


def test_summand_route_reports_candidates_searched():
    m = group(2, 4, 0)
    v = is_self_F_split_theorem(m, evaluate(torsion(), m), strongly=True)
    assert (
        "summand route (witness search (entry bound 3): 6 of 6 candidates, "
        "found nothing): inconclusive"
    ) in v.trace


# --- transfer along epis and monos -------------------------------------------------------------


def test_split_transfers_to_summands_and_quotients():
    # N (strongly) M-F-split implies N1 is M1-(F∩N1)-split for every summand
    # M1 <= M and N1 <= N (with the intersection fully invariant in N1)
    from absplit.subgroups import (
        inclusion,
        intersect,
        preimage_subgroup,
        summand_witness,
    )

    rng = random.Random(321)
    cases = 0
    pool = [group(4, 3), group(2, 4), group(2, 2), group(12), group(2, 6), group(8)]
    while cases < 30:
        n = rng.choice(pool)
        m = rng.choice(pool)
        fis = [s for s in all_subgroups(n) if is_fully_invariant(s)]
        f = rng.choice(fis)
        whole = is_M_F_split(m, n, f)
        whole_strong = is_M_F_split(m, n, f, strongly=True)
        n_summands = [s for s in all_subgroups(n) if summand_witness(s) is not None]
        m_summands = [s for s in all_subgroups(m) if summand_witness(s) is not None]
        n1 = rng.choice(n_summands)
        m1 = rng.choice(m_summands)
        inc_n = inclusion(n1)
        f1 = preimage_subgroup(inc_n, intersect(f, n1))
        if not is_fully_invariant(f1):
            continue
        cases += 1
        part = is_M_F_split(inclusion(m1).dom, inc_n.dom, f1)
        if whole.is_yes:
            assert part.is_yes, (m.factors, n.factors, f.canonical)
        part_strong = is_M_F_split(inclusion(m1).dom, inc_n.dom, f1, strongly=True)
        if whole_strong.is_yes:
            assert part_strong.is_yes


def test_hereditary_preradical_transfer():
    # r hereditary, N (strongly) M-r(N)-split  =>  N' (strongly) M'-r(N')-split
    # for subobjects N' <= N and quotients M' of M
    from absplit.preradicals import socle
    from absplit.subgroups import inclusion, quotient

    rng = random.Random(808)
    pool = [group(4, 3), group(2, 4), group(12), group(2, 2), group(9, 3)]
    for r in (torsion(), socle()):
        for _ in range(25):
            n = rng.choice(pool)
            m = rng.choice(pool)
            whole = is_M_F_split(m, n, evaluate(r, n))
            if not whole.is_yes:
                continue
            n_prime = rng.choice(all_subgroups(n))
            inc = inclusion(n_prime)
            m_prime, e = quotient(m, rng.choice(all_subgroups(m)))
            part = is_M_F_split(m_prime, inc.dom, evaluate(r, inc.dom))
            assert part.is_yes, (r.name, m.factors, n.factors, n_prime.canonical)


def test_pullback_leg_is_kernel_of_composite():
    # the pullback of (F -> N, g: M -> N) has its M-leg equal to the kernel
    # inclusion of (N -> N/F) ∘ g, up to canonical isomorphism
    from absplit.groups import pullback
    from absplit.subgroups import image_subgroup, inclusion, kernel_subgroup, quotient

    rng = random.Random(11)
    pool = [group(4, 3), group(2, 4), group(2, 2), group(8)]
    for _ in range(40):
        n = rng.choice(pool)
        m = rng.choice(pool)
        fis = [s for s in all_subgroups(n) if is_fully_invariant(s)]
        f = rng.choice(fis)
        inc = inclusion(f)
        from absplit.groups import hom_group, Morphism, add_hom
        from absplit.intmat import freeze

        h = hom_group(m, n)
        g = Morphism(m, n, freeze([[0] * m.ngens for _ in range(n.ngens)]))
        for b, o in zip(h.basis, h.orders):
            c = rng.randint(0, (o - 1) if o else 3)
            g = add_hom(g, Morphism(m, n, tuple(tuple(c * x for x in row) for row in b.rows)))
        p, p_f, p_m = pullback(inc, g)
        cgrp, q = quotient(n, f)
        from absplit.groups import kernel

        kg, k = kernel(compose(q, g))
        assert image_subgroup(p_m).canonical == image_subgroup(k).canonical
        assert kg.factors == p.factors


def test_infinite_source_finite_hom():
    # M = Z/2 ⊕ Z is infinite but Hom(M, Z/4) is finite, so brute force still
    # decides: some g sends the free generator to an odd residue, whose
    # kernel Z/2 ⊕ 2Z has index 2 yet is not a summand (its complement would
    # add a second order-2 torsion element)
    m = group(2, 0)
    n = group(4)
    f = sub_from_gens(n, [(2,)])
    assert hom_count(m, n) == 8
    v = is_M_F_split(m, n, f)
    assert v.is_no and reverify(v)
    assert v.counterexample.kind == "not_summand"
    # with F = N everything splits regardless
    assert is_M_F_split(m, n, full_subgroup(n), strongly=True).is_yes
    # dual direction: Hom(N, M) = Hom(Z/4, Z/2 ⊕ Z) is finite too
    v2 = is_dual_M_F_split(n, m, f)
    assert not v2.is_unknown


# --- sweep cache soundness ----------------------------------------------------------------------


def test_sweep_evaluators_match_direct_computation():
    # the brute-force sweeps cache kernels by character-lattice key and
    # images by canonical form; both must agree with the direct
    # preimage/image computations for every single morphism
    from absplit.splitness import _DualEval, _PrimalEval
    from absplit.subgroups import map_subgroup, preimage_subgroup, summand_witness

    for m_factors, f_gens in [
        ((4, 3), [(3,)]),
        ((2, 4), [(0, 2)]),
        ((2, 2), []),
        ((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ((8,), [(4,)]),
    ]:
        m = group(*m_factors)
        f = sub_from_gens(m, f_gens)
        if not is_fully_invariant(f):
            continue
        primal = _PrimalEval(m, m, f)
        dual = _DualEval(m, m, f)
        for g in iter_hom(m, m):
            p_props = primal.props(g.rows)
            want_p = preimage_subgroup(g, f)
            assert p_props.subgroup.canonical == want_p.canonical
            assert p_props.is_summand == (summand_witness(want_p) is not None)
            d_props = dual.props(g.rows)
            want_d = map_subgroup(g, f)
            assert d_props.subgroup.canonical == want_d.canonical
            assert d_props.is_summand == (summand_witness(want_d) is not None)


def test_profile_budget_respected():
    m = group(4, 2)  # |End| = 32
    prof = self_split_profile(m, trivial_subgroup(m), budget=31)
    assert all(v.is_unknown and "exceeds budget" in v.reason for v in prof.values())
    prof2 = self_split_profile(m, trivial_subgroup(m), budget=32)
    assert not any(v.is_unknown for v in prof2.values())


# --- verdict plumbing ------------------------------------------------------------------------------


def test_verdict_fields_and_witness_counts():
    subs = z12_by_order()
    v = is_M_F_split(Z12, Z12, subs[12], strongly=True)
    assert v.is_yes
    total = sum(w[3] for w in v.witnesses)
    assert total == hom_count(Z12, Z12) == 12
    assert v.predicate == "strongly_self_F_split"
    d = is_dual_M_F_split(Z12, Z12, subs[3])
    assert d.predicate == "dual_self_F_split"


# --- work done by classify ------------------------------------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_computes_summand_witnesses_only_when_read(monkeypatch):
    from absplit.harness import classify_rows
    from absplit.subgroups import is_summand

    m = group(2, 2, 2, 2, 6)
    monkeypatch.setattr(splitness, "_ANALYSES", {})  # a cold analysis
    calls = _counting(monkeypatch, splitness, "summand_witness")
    rows, _ = classify_rows(m)
    # 748 subgroups are enumerated and tested for full invariance; only
    # the rows and the summand routes ask which of them are summands
    assert len(splitness.analysis_for(m).subgroups(512)) == 748
    assert len(calls) <= 50
    monkeypatch.undo()
    assert [r["is_summand"] for r in rows] == [
        is_summand(sub_from_gens(m, r["generators"])) for r in rows
    ]


def test_classify_skips_the_sweep_when_hom_is_out_of_reach(monkeypatch):
    from absplit.harness import classify_rows

    m = group(2, 2, 0)
    calls = _counting(monkeypatch, splitness, "self_split_profile")
    rows, _ = classify_rows(m)
    assert calls == []
    monkeypatch.undo()
    # the sweep could only have answered unknown, which leaves the theorem
    # verdicts in place
    for r in rows:
        f = sub_from_gens(m, r["generators"])
        assert all(v.is_unknown for v in self_split_profile(m, f).values())
    cells = [
        (r["order"], r["is_summand"], r["self_F_split"], r["strongly"],
         r["dual_self_F_split"], r["dual_strongly"], r["deciding_mode"])
        for r in rows
    ]
    assert cells == [
        (1, True, "no", "no", "yes", "yes", "theorem"),
        (4, True, "yes", "yes", "yes", "no", "theorem"),
        ("infinite", True, "yes", "yes", "no", "no", "theorem"),
    ]


def test_dual_summand_route_inside_finite_f_is_cheap(monkeypatch):
    # the route enumerates the subgroups of F = (Z/2)^6 inside Z/2^6 x Z;
    # the cyclic closure made 180,874 HNF calls here
    import absplit.intmat
    import absplit.subgroups
    from absplit.harness import preradical_row

    m = group(2, 2, 2, 2, 2, 2, 0)
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    direct = _counting(monkeypatch, absplit.subgroups, "hnf_rows")
    other = _counting(monkeypatch, absplit.intmat, "hnf_rows")
    (row,), _ = preradical_row(m, "torsion")
    assert 0 < len(direct) + len(other) <= 100
    verdicts = ("self_F_split", "strongly", "dual_self_F_split", "dual_strongly")
    assert (row["order"], row["is_summand"]) == (64, True)
    assert [row[k] for k in verdicts] == ["yes", "yes", "yes", "no"]
