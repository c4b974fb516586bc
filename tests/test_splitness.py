"""Splitness predicates: brute force, theorem reductions, certificates."""

import functools
import gc
import itertools
import os
import random

import pytest

from absplit.groups import (
    compose,
    group,
    hom_count,
    identity_hom,
    iter_hom,
    morphism,
    parse_group_spec,
)
from absplit.harness import enumerate_groups
from absplit.splitness import (
    DEFAULT_HOM_BUDGET,
    DEFAULT_SUBGROUP_CAP,
    Caps,
    EndRingView,
    InternalConsistencyError,
    decide_self_profile,
    end_ring,
    end_ring_abelian_closed_form,
    fi_exponents,
    fi_factors,
    has_sip_summands_containing,
    has_ssp_summands_contained_in,
    is_abelian_ring,
    is_dual_M_F_split,
    is_dual_self_F_split_theorem,
    is_dual_self_rickart,
    is_M_F_split,
    is_self_F_split_theorem,
    is_self_rickart,
    reverify,
    self_split_profile,
    self_split_profile_theorem,
    strongly_no_witness_search,
    structural_self_rickart,
)
from absplit import splitness
from absplit.preradicals import evaluate, parse_preradical, socle, torsion
from absplit.subgroups import (
    FullyInvariantError,
    SubgroupCapError,
    all_subgroups,
    full_subgroup,
    is_fully_invariant,
    quotient,
    sub_from_gens,
    subgroup_group,
    trivial_subgroup,
)
from oracles import near_summands_fi_by_enumeration, noncentral_idempotent

Z12 = group(4, 3)


def z12_by_order():
    return {s.order: s for s in all_subgroups(Z12)}


def test_caps_are_immutable_values_with_the_default_budgets():
    c = Caps()
    assert (c.hom_budget, c.subgroup_cap, c.per_group_timeout_s) == (
        DEFAULT_HOM_BUDGET, DEFAULT_SUBGROUP_CAP, 0.0,
    )
    positional = Caps(DEFAULT_HOM_BUDGET, DEFAULT_SUBGROUP_CAP, 0.0)
    assert c == positional and hash(c) == hash(positional) and len({c, positional}) == 1
    assert Caps(subgroup_cap=2) == Caps(subgroup_cap=2) != c
    assert Caps(per_group_timeout_s=1.5) != c
    with pytest.raises(AttributeError):
        c.hom_budget = 1
    assert c.hom_budget == DEFAULT_HOM_BUDGET


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
    from absplit.subgroups import image_subgroup, kernel_subgroup, summand_witness

    for m in enumerate_groups(24):
        if hom_count(m, m) > 10**5:
            continue
        for dual, brute, reached in (
            (False, is_self_rickart, kernel_subgroup),
            (True, is_dual_self_rickart, image_subgroup),
        ):
            ok, wit = structural_self_rickart(m, dual)
            assert ok == brute(m).is_yes, (m.factors, dual)
            if not ok:
                assert summand_witness(reached(wit)) is None


def test_structural_infinite_witnesses():
    # free: self-Rickart yes, dual no; mixed: both no; all with checkable
    # witnesses through the congruence solver
    from absplit.subgroups import image_subgroup, kernel_subgroup, summand_witness

    for factors in [(0,), (0, 0), (2, 0), (4, 0, 0), (6, 12, 0)]:
        m = group(*factors)
        for dual, reached in ((False, kernel_subgroup), (True, image_subgroup)):
            ok, wit = structural_self_rickart(m, dual)
            assert ok == (m.is_free and not dual)
            if not ok:
                assert summand_witness(reached(wit)) is None


def test_end_ring_abelian_closed_form_matches_enumeration():
    for m in enumerate_groups(24):
        view = end_ring(m)
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
    theorem = self_split_profile_theorem(Z12, subs[4])
    assert all(prof[k].trace == theorem[k].trace != () for k in prof)
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
    assert end_ring(group(0)) is None and end_ring(group(2, 0)) is None


def test_idempotents_complete():
    # the raw-row summary against End(M) built from Morphism objects and
    # compose: same size, same idempotents in odometer order, same verdict
    from absplit.groups import hom_group

    for m in enumerate_groups(16):
        if hom_count(m, m) > 10**5:
            continue
        view = end_ring(m)
        elements = list(iter_hom(m, m))
        idempotents = [e for e in elements if compose(e, e) == e]
        abelian = all(
            compose(e, h) == compose(h, e)
            for e in idempotents
            for h in hom_group(m, m).basis
        )
        assert view.size == len(elements), m.factors
        assert list(splitness._idempotents(m)) == [e.rows for e in idempotents], m.factors
        assert is_abelian_ring(view) == abelian, m.factors


def _brute_entries(a, b):
    """The entries x of maps Z/a -> Z/b (finite Hom), found by testing
    a·x ≡ 0 (mod b); only 0 when b = 0."""
    assert a or b, "Hom(Z, Z) is infinite"
    return tuple(x for x in range(b) if a * x % b == 0) if b else (0,)


@functools.cache
def _full_product_end_ring(m):
    """An End-ring pass with no shortcut: one flat product of entry tables,
    sliced into rows, and a full e·e per element."""
    from absplit.groups import hom_group

    factors, w = m.factors, m.ngens

    def product_rows(left, right):
        return tuple(
            tuple(sum(c * right[t][j] for t, c in enumerate(row)) % d for j in range(w))
            for row, d in zip(left, factors)
        )

    tables = [_brute_entries(a, b) for b in factors for a in factors]
    size, idem = 0, []
    for flat in itertools.product(*tables):
        rows = tuple(flat[i * w : (i + 1) * w] for i in range(w))
        size += 1
        if product_rows(rows, rows) == rows:
            idem.append(rows)
    basis = [h.rows for h in hom_group(m, m).basis]
    noncentral = next(
        ((e, h) for e in idem for h in basis if product_rows(e, h) != product_rows(h, e)),
        None,
    )
    return size, tuple(idem), noncentral


def test_end_ring_row_test_matches_the_full_product_loop(monkeypatch):
    # the enumeration solves for the last row of each idempotent; it must
    # find the same ones, in the same order, as testing every element
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    groups = [m for m in enumerate_groups(32) if hom_count(m, m) <= 10**5]
    assert len(groups) == 53 and groups[0] == group()
    for m in groups:
        view = end_ring(m)
        idempotents = tuple(splitness._idempotents(m))
        assert (view.size, idempotents, view.noncentral) == _full_product_end_ring(m), m
    view = end_ring(group(2, 2, 2, 2))
    assert view.size == 65536 and len(list(splitness._idempotents(group(2, 2, 2, 2)))) == 802
    assert view.noncentral is not None


def test_end_ring_scan_stops_at_the_first_noncentral_idempotent(monkeypatch):
    # the route keeps only |End| and the first idempotent that fails to
    # commute, which must be the full product loop's first
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    groups = [m for m in enumerate_groups(48) if hom_count(m, m) <= 10**5]
    for m in groups:
        view = end_ring(m)
        size, _idempotents, noncentral = _full_product_end_ring(m)
        assert (view.size, view.noncentral) == (size, noncentral), m
    # (Z/2)^4 has 802 idempotents, and the second one is not central
    read = _count_idempotents_read(monkeypatch)
    view = splitness._enumerate_end_ring(group(2, 2, 2, 2))
    assert view.noncentral is not None and 1 <= len(read) <= 2


def _count_idempotents_read(monkeypatch):
    """A list that records every idempotent the End-ring scan reads."""
    read = []
    idempotents = splitness._idempotents

    def counted(m):
        for e in idempotents(m):
            read.append(e)
            yield e

    monkeypatch.setattr(splitness, "_idempotents", counted)
    return read


def test_every_end_ring_to_order_128_is_read_in_at_most_two_idempotents(monkeypatch):
    # with no cap every finite End ring is scanned, |End| > 10^6 included:
    # diag(0, ..., 0, 1), the second element of End(M), fails to commute
    # with e_{n-1} -> e_0 whenever M is not cyclic
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    read = _count_idempotents_read(monkeypatch)
    sizes = []
    for m in enumerate_groups(128):
        read.clear()
        view = end_ring(m)
        assert view is not None and is_abelian_ring(view) == end_ring_abelian_closed_form(m), m
        assert len(m.factors) <= 1 or len(read) <= 2, m
        sizes.append(view.size)
    assert len(sizes) == 247 and sum(size > 10**6 for size in sizes) == 13


def test_cyclic_end_ring_by_crt_matches_the_full_scan():
    # End(Z/d) = Z/d: the idempotents come from the prime powers of d by
    # CRT, and must be every x with x·x ≡ x (mod d), in increasing order
    from absplit.groups import iter_hom_rows

    for d in list(range(2, 3001)) + [999_983, 250_000]:
        view = splitness._enumerate_end_ring(group(d))
        scan = tuple(((x,),) for x in range(d) if x * x % d == x)
        idempotents = tuple(splitness._idempotents(group(d)))
        assert (view.size, idempotents, view.noncentral) == (d, scan, None), d
    # increasing order is the order in which iter_hom_rows lists End(Z/d)
    for d in (2, 12, 30, 64):
        assert list(iter_hom_rows(group(d), group(d))) == [((x,),) for x in range(d)]


def test_end_ring_closed_under_add_and_compose():
    from absplit.groups import add_hom

    m = group(2, 4)
    elems = set(e.rows for e in iter_hom(m, m))
    assert end_ring(m).size == len(elems)
    assert set(splitness._idempotents(m)) <= elems
    for a in iter_hom(m, m):
        for b in iter_hom(m, m):
            assert compose(a, b).rows in elems
            assert add_hom(a, b).rows in elems


def test_end_ring_enumerated_once_per_group():
    m = group(2, 2, 2)
    view = end_ring(m)
    assert end_ring(m) is view
    assert end_ring(group(2, 2, 2)) is view


def test_centrality_basis_test_equals_full_commutation():
    for factors in [(2, 2), (6,), (2, 4), (3, 3)]:
        m = group(*factors)
        view = end_ring(m)
        basis_verdict = is_abelian_ring(view)
        full = all(
            compose(e, h) == compose(h, e)
            for e in (morphism(m, m, rows) for rows in splitness._idempotents(m))
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


def test_subgroup_cap_refuses_in_a_warm_process_too(monkeypatch):
    # the subgroup list is cached per group, but every call checks its cap:
    # a cap below the order refuses before and after a listing under a larger one
    m = group(2, 4)
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    with pytest.raises(SubgroupCapError):
        has_sip_summands_containing(m, trivial_subgroup(m), cap=4)
    assert has_sip_summands_containing(m, trivial_subgroup(m), cap=512) is False
    with pytest.raises(SubgroupCapError):
        has_sip_summands_containing(m, trivial_subgroup(m), cap=4)
    assert splitness.analysis_for(m).subgroups(8) == all_subgroups(m)


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


# --- summands over or inside F: the coordinate test -------------------------------------------


def test_witness_search_examples():
    z2 = group(0, 0)
    w = strongly_no_witness_search(z2, trivial_subgroup(z2))
    assert w is not None
    from absplit.splitness import analysis_for

    props = analysis_for(z2).subgroup_props(w)
    assert props.is_summand and not props.is_fi
    assert strongly_no_witness_search(group(3), trivial_subgroup(group(3))) is None
    m = group(2, 0)
    assert strongly_no_witness_search(m, evaluate(torsion(), m)) is None
    # <e_1> = Z/2 is the torsion part, fully invariant; only the Z
    # coordinate moves (e_2 -> e_1 + e_2), so a test of <e_1> alone misses it
    assert strongly_no_witness_search(m, trivial_subgroup(m)) == sub_from_gens(m, [(0, 1)])


def test_witness_search_contained_mode():
    z2 = group(0, 0)
    w = strongly_no_witness_search(z2, full_subgroup(z2), contained_in=True)
    assert w is not None


def _check_witness(m, f, contained_in, wit):
    """A returned witness is a summand that is not fully invariant, over F
    (inside F when contained_in)."""
    props = splitness.analysis_for(m).subgroup_props(wit)
    assert props.is_summand and not props.is_fi
    assert f.contains_subgroup(wit) if contained_in else wit.contains_subgroup(f)


def test_coordinate_test_matches_enumeration_to_order_128():
    # every fully invariant summand F of every finite M of order <= 128, on
    # both sides; the route enumerates the subgroups near F there, which is
    # the oracle, and the factor (M/F, or F inside) has at most one
    # invariant factor exactly when every summand near F is fully invariant
    cases = hits = 0
    for m in enumerate_groups(128):
        analysis = splitness.analysis_for(m)
        for f in analysis.fi_subgroups(DEFAULT_SUBGROUP_CAP):
            if not analysis.subgroup_props(f).is_summand:
                continue
            for contained_in in (False, True):
                verdict, how = splitness._summand_condition_route(m, f, Caps(), contained_in)
                assert how == "subgroup enumeration"
                wit = strongly_no_witness_search(m, f, contained_in)
                case = (m.factors, f.canonical, contained_in)
                assert (wit is None) == verdict, case
                factor = subgroup_group(f) if contained_in else quotient(m, f)[0]
                assert verdict == (len(factor.factors) <= 1), case
                if wit is not None:
                    hits += 1
                    _check_witness(m, f, contained_in, wit)
                cases += 1
    assert (cases, hits) == (1758, 414)


def _mixed_pool_specs():
    """The groups with a free part that the benchmark's classify-mixed
    workload draws from, read from perfbench/workloads.py."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return [s for st in mod.WORKLOADS["classify-mixed"].strata for s in st.pool]


_MIXED_PRERADICALS = ("torsion", "socle", "radical", "ppart:2", "ppart:3", "ntorsion:2", "divisible")


def test_coordinate_test_is_exact_on_the_mixed_pool_specs():
    # no enumeration fits an infinite M, so the strong verdicts rest on the
    # coordinate test alone: it must never be inconclusive, and it must
    # agree with the closed form on the factor
    specs = _mixed_pool_specs()
    assert specs and all(not parse_group_spec(s).is_finite for s in specs)
    routed = decided = 0
    for spec in specs:
        m = parse_group_spec(spec)
        for name in _MIXED_PRERADICALS:
            f = evaluate(parse_preradical(name), m)
            for key, v in self_split_profile_theorem(m, f).items():
                assert not any("inconclusive" in line for line in v.trace), (spec, name, key)
                routed += any(line.startswith("summand route (") for line in v.trace)
            if not splitness.analysis_for(m).subgroup_props(f).is_summand:
                with pytest.raises(ValueError):
                    strongly_no_witness_search(m, f)
                continue
            for contained_in in (False, True):
                wit = strongly_no_witness_search(m, f, contained_in)
                factor = subgroup_group(f) if contained_in else quotient(m, f)[0]
                assert (wit is None) == (len(factor.factors) <= 1), (spec, name, contained_in)
                if wit is not None:
                    _check_witness(m, f, contained_in, wit)
                decided += 1
    assert routed > 0 and decided > 0


def test_coordinate_test_matches_enumeration_over_and_inside_F_on_the_mixed_pool_specs():
    # on a group with a free part, the summands containing F are the
    # preimages of the subgroups of M/F, and those inside F the images of
    # the subgroups of F; wherever that group fits the cap, enumerating it
    # is an oracle for the coordinate test
    compared = {}
    for spec in _mixed_pool_specs():
        m = parse_group_spec(spec)
        for name in _MIXED_PRERADICALS:
            f = evaluate(parse_preradical(name), m)
            if not splitness.analysis_for(m).subgroup_props(f).is_summand:
                continue
            for contained_in in (False, True):
                want = near_summands_fi_by_enumeration(m, f, DEFAULT_SUBGROUP_CAP, contained_in)
                if want is None:
                    continue
                wit = strongly_no_witness_search(m, f, contained_in)
                case = (spec, name, contained_in)
                assert (wit is None) == want, case
                assert splitness._summand_condition_route(m, f, Caps(), contained_in) == (
                    want, "coordinate summands"
                ), case
                compared[m.factors, f.canonical, contained_in] = want
    # distinct (M, F, side) cases, and those with a summand that is not
    # fully invariant
    assert (len(compared), sum(not v for v in compared.values())) == (52, 19)


def test_coordinate_test_rejects_an_F_that_is_not_a_fully_invariant_summand():
    z4 = group(4)
    with pytest.raises(ValueError, match="not a direct summand"):
        strongly_no_witness_search(z4, sub_from_gens(z4, [(2,)]))
    m = group(4, 0)
    with pytest.raises(ValueError, match="not a direct summand"):
        strongly_no_witness_search(m, evaluate(parse_preradical("mul:2"), m), contained_in=True)
    v4 = group(2, 2)
    with pytest.raises(FullyInvariantError):
        strongly_no_witness_search(v4, sub_from_gens(v4, [(1, 0)]))


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


def _direct_subgroups(src, dst, f, dual):
    """The per-morphism oracle: {canonical subgroup: [number of g, first g's
    rows]} over every g in Hom(src, dst), each through preimage_subgroup or
    map_subgroup.  Hom is enumerated row by row (primal) or column by column
    (dual), each row or column in odometer order, so the subgroups come in
    the order the sweep first reaches them."""
    from absplit.groups import Morphism
    from absplit.subgroups import map_subgroup, preimage_subgroup

    if dual:
        columns = [
            list(itertools.product(*(_brute_entries(a, b) for b in dst.factors)))
            for a in src.factors
        ]
        matrices = (
            tuple(tuple(col[r] for col in cols) for r in range(dst.ngens))
            for cols in itertools.product(*columns)
        )
    else:
        rows = [
            list(itertools.product(*(_brute_entries(a, b) for a in src.factors)))
            for b in dst.factors
        ]
        matrices = itertools.product(*rows)
    out = {}
    for rows in matrices:
        g = Morphism(src, dst, rows)
        sub = map_subgroup(g, f) if dual else preimage_subgroup(g, f)
        out.setdefault(sub.canonical, [0, g.rows])[0] += 1
    return out


def _check_sweep(m, n, f):
    """For F <= N, the primal sweep over Hom(M, N) and the dual sweep over
    Hom(N, M) list the oracle's subgroups with the same counts, in the order
    the oracle first reaches them, each with the oracle's first morphism as
    its sample, built from the kept entries, and every counterexample
    re-verifies."""
    from absplit.subgroups import map_subgroup, preimage_subgroup

    for dual in (False, True):
        src, dst = (n, m) if dual else (m, n)
        outcomes = [
            (props, count, splitness._sample(src, dst, parts, dual))
            for props, count, parts in splitness._sweep(src, dst, f, dual)
        ]
        got = [(props.subgroup.canonical, count, g.rows) for props, count, g in outcomes]
        direct = _direct_subgroups(src, dst, f, dual)
        want = [(sub, count, rows) for sub, (count, rows) in direct.items()]
        assert got == want, (m, n, f, dual)
        assert sum(count for _, count, _ in got) == hom_count(src, dst)
        for props, _, g in outcomes:
            assert (g.dom, g.cod) == (src, dst)
            sub = map_subgroup(g, f) if dual else preimage_subgroup(g, f)
            assert sub.canonical == props.subgroup.canonical
        for strongly in (False, True):
            if dual:
                v = is_dual_M_F_split(n, m, f, strongly)
            else:
                v = is_M_F_split(m, n, f, strongly)
            assert not v.is_no or reverify(v), (m, n, f, dual, strongly)


@pytest.mark.parametrize(
    "factors",
    [m.factors for m in enumerate_groups(16)],
    ids=lambda fs: "x".join(map(str, fs)) or "0",
)
def test_sweep_matches_per_morphism_oracle_to_order_16(factors):
    m = group(*factors)
    for f in all_subgroups(m):
        if is_fully_invariant(f):
            _check_sweep(m, m, f)


def test_sweep_matches_per_morphism_oracle_between_groups():
    # the pairs M != N of the full-subgroup and zero-subgroup tests, and the
    # finite Hom sets between Z/2 ⊕ Z and Z/4, both ways
    for m, n in [
        (group(2), group(4)),
        (group(2, 2), group(8)),
        (group(6), group(2, 2)),
        (group(2, 0), group(4)),
    ]:
        for f in all_subgroups(n):
            if is_fully_invariant(f):
                _check_sweep(m, n, f)
    # carriers N with a free factor, where F meets it trivially (a = 0) or
    # not; all_subgroups refuses an infinite N, so F runs over preradicals
    for m, n in [
        (group(4), group(2, 0)),
        (group(6), group(0)),
        (group(2, 4), group(2, 0)),
        (group(3), group(3, 0)),
        (group(2, 2), group(0, 0)),
        (group(4), group(4, 0)),
    ]:
        fs = {}
        for f in [trivial_subgroup(n), full_subgroup(n)] + [
            evaluate(parse_preradical(r), n) for r in ("torsion", "mul:2", "socle", "ntorsion:2")
        ]:
            fs.setdefault(f.canonical, f)
        for f in fs.values():
            _check_sweep(m, n, f)


def test_sweep_decides_one_coordinate_at_a_time(monkeypatch):
    # End((Z/2)^4) has 65,536 elements; the sweep joins lattices instead
    from absplit.intmat import SeededHnf

    monkeypatch.setattr(splitness, "_ANALYSES", {})  # no sweep kept yet
    calls = _counting(monkeypatch, SeededHnf, "canonical")
    m = group(2, 2, 2, 2)
    prof = self_split_profile(m, trivial_subgroup(m))
    assert 0 < len(calls) <= 5000
    assert [prof[k].answer for k in ("primal_plain", "primal_strong", "dual_plain", "dual_strong")] == [
        "yes", "no", "yes", "yes"
    ]
    assert sum(w[3] for w in prof["primal_plain"].witnesses) == 65536


def _verdict_fields(v):
    ce = v.counterexample
    return (
        v.answer, v.predicate, v.strongly, v.dual, v.source, v.carrier,
        None if ce is None else (ce.g, ce.subgroup.canonical, ce.kind),
        v.witnesses,
    )


@pytest.mark.parametrize(
    "m_factors, n_factors",
    [((6,), (2, 4)), ((2, 4), (4,)), ((2, 2), (8,))],
    ids=["6-2x4", "2x4-4", "2x2-8"],
)
def test_plain_and_strong_read_one_sweep_between_groups(monkeypatch, m_factors, n_factors):
    # M != N: both predicates of a side read the answers kept on M's
    # analysis, and each verdict equals one decided on a fresh analysis
    m, n = group(*m_factors), group(*n_factors)
    for f in (trivial_subgroup(n), evaluate(socle(), n), full_subgroup(n)):
        for dual in (False, True):
            def decide(strongly):
                if dual:
                    return is_dual_M_F_split(n, m, f, strongly)
                return is_M_F_split(m, n, f, strongly)

            monkeypatch.setattr(splitness, "_ANALYSES", {})
            sweeps = _counting(monkeypatch, splitness, "_sweep")
            shared = [decide(strongly) for strongly in (False, True)]
            assert len(sweeps) == 1, (m, n, f, dual)
            for strongly, v in zip((False, True), shared):
                monkeypatch.setattr(splitness, "_ANALYSES", {})
                assert _verdict_fields(v) == _verdict_fields(decide(strongly)), (m, n, f, dual)
                assert reverify(v), (m, n, f, dual, strongly)
            monkeypatch.undo()


def test_verify_sweeps_each_argument_once(monkeypatch):
    # on cold caches, verify-24 sweeps every (src, dst, F, side) once:
    # the plain and the strong predicate no longer sweep apart for M != N
    from absplit import harness

    monkeypatch.setattr(splitness, "_ANALYSES", {})
    sweeps = _counting(monkeypatch, splitness, "_sweep")
    assert harness.run_verification(24)["passed"]
    keys = [(src.factors, dst.factors, f.canonical, dual) for src, dst, f, dual in sweeps]
    assert len(keys) == len(set(keys)) == 991
    assert any(src != dst for src, dst, _, _ in keys)


def test_verify_reads_tds_pieces_and_factor_groups_in_closed_form(monkeypatch):
    # verify-24 builds no quotient, inclusion, preimage or image of a finite
    # group: tds pieces and the factors M/F and F are read in closed form,
    # and what is left is the summand tests of thomzero's free-part pattern
    from absplit import harness, subgroups

    monkeypatch.setattr(splitness, "_ANALYSES", {})
    ambients = {
        "quotient": lambda m, s: m,
        "inclusion": lambda s: s.ambient,
        "preimage_subgroup": lambda f, t: f.dom,
        "map_subgroup": lambda f, s: f.cod,
    }
    calls = []
    for name, ambient in ambients.items():
        real = getattr(subgroups, name)

        def counted(*args, real=real, ambient=ambient):
            calls.append(ambient(*args))
            return real(*args)

        for module in (splitness, subgroups):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert harness.run_verification(24)["passed"]
    assert calls and not any(m.is_finite for m in calls)


def test_verify_builds_no_counterexample_it_does_not_read(monkeypatch):
    # verify-24 reads answers alone: theorem mode lifts no witness
    # endomorphism and brute force builds no sample, so nothing composes
    import absplit
    import absplit.groups

    monkeypatch.setattr(splitness, "_ANALYSES", {})
    real = absplit.groups.compose
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    modules = [m for m in vars(absplit).values() if getattr(m, "compose", None) is real]
    assert splitness in modules and absplit.groups in modules
    for module in modules:
        monkeypatch.setattr(module, "compose", counted)
    assert absplit.harness.run_verification(24)["passed"]
    assert calls == []


def test_every_no_counterexample_is_built_on_read_and_kept_to_order_16():
    # brute force and theorem mode, every fully invariant F of every group
    # to order 16: each No carries a counterexample that re-verifies, and a
    # second read returns the object the first one built; the strongest
    # verdict builds the counterexample brute force builds
    nos = 0
    for m in enumerate_groups(16):
        for f in splitness.analysis_for(m).fi_subgroups(DEFAULT_SUBGROUP_CAP):
            brute = self_split_profile(m, f)
            for profile in (brute, self_split_profile_theorem(m, f)):
                for v in profile.values():
                    if not v.is_no:
                        assert v.counterexample is None, (m, f, v.predicate, v.mode)
                        continue
                    nos += 1
                    ce = v.counterexample
                    assert ce is not None and reverify(v), (m, f, v.predicate, v.mode)
                    assert v.counterexample is ce
            for k, v in decide_self_profile(m, f).items():
                assert v.counterexample == brute[k].counterexample, (m, f, k)
    assert nos > 0


def test_verify_keeps_no_verdict_alive(monkeypatch):
    # verify reads each sweep's answers: after a cold verify-24 no verdict
    # it built is alive, as the memo keeps answers and each turn drops its
    # profiles (the verdicts alive before the run are held, so none dies)
    from absplit import harness

    def alive():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, splitness.SplitVerdict)]

    before = alive()
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    assert harness.run_verification(24)["passed"]
    assert len(alive()) == len(before)


def _outcomes(args):
    """A sweep's outcomes, each sample morphism built from its kept entries."""
    src, dst, _f, dual = args
    return [
        (props.subgroup.ambient.factors, props.subgroup.canonical, count,
         splitness._sample(src, dst, parts, dual).rows)
        for props, count, parts in splitness._sweep(*args)
    ]


def test_shared_sweep_tables_give_the_cold_outcomes(monkeypatch):
    # the joins and reached subgroups are kept on M's analysis across
    # sweeps: every sweep of verify-24, run after the others in either
    # order, must list what it lists on a cold analysis
    from absplit import harness

    monkeypatch.setattr(splitness, "_ANALYSES", {})
    sweeps = _counting(monkeypatch, splitness, "_sweep")
    assert harness.run_verification(24)["passed"]
    monkeypatch.undo()
    assert len(sweeps) == 991
    cold = []
    for args in sweeps:
        monkeypatch.setattr(splitness, "_ANALYSES", {})
        cold.append(_outcomes(args))
    for order in (1, -1):
        monkeypatch.setattr(splitness, "_ANALYSES", {})
        warm = [_outcomes(args) for args in sweeps[::order]]
        assert warm == cold[::order]


def test_a_sweep_sharing_m_and_moduli_makes_no_new_join(monkeypatch):
    # M = (Z/2)^4: the primal sweep of F = 0 and the dual sweep of F = M
    # both run over the moduli (2, 2, 2, 2) with every value of (Z/2)^4 per
    # level; so do the primal sweeps of F = 0 into Z/2 and into Z/4, which
    # share M and moduli but neither N nor F
    from absplit.intmat import SeededHnf

    m, z2, z4 = group(2, 2, 2, 2), group(2), group(4)
    pairs = [
        ((m, m, trivial_subgroup(m), False), (m, m, full_subgroup(m), True)),
        ((m, z2, trivial_subgroup(z2), False), (m, z4, trivial_subgroup(z4), False)),
    ]
    for first, second in pairs:
        monkeypatch.setattr(splitness, "_ANALYSES", {})
        cold = _outcomes(second)
        monkeypatch.setattr(splitness, "_ANALYSES", {})
        calls = _counting(monkeypatch, SeededHnf, "canonical")
        _outcomes(first)
        assert calls
        before = len(calls)
        assert _outcomes(second) == cold
        assert len(calls) == before, (first, second)
        monkeypatch.undo()


def test_sweep_evaluators_match_direct_computation():
    # the sweep's subgroups, and their summand flags, must agree with the
    # direct preimage/image computations for every single morphism
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
        primal = {p.subgroup.canonical: p for p, _, _ in splitness._sweep(m, m, f, False)}
        dual = {p.subgroup.canonical: p for p, _, _ in splitness._sweep(m, m, f, True)}
        for g in iter_hom(m, m):
            want_p = preimage_subgroup(g, f)
            p_props = primal[want_p.canonical]
            assert p_props.is_summand == (summand_witness(want_p) is not None)
            want_d = map_subgroup(g, f)
            d_props = dual[want_d.canonical]
            assert d_props.is_summand == (summand_witness(want_d) is not None)


def test_kept_verdict_still_checks_its_arguments(monkeypatch):
    # the memo of brute-force answers keys on F's canonical matrix: a later
    # call reads the kept entry with no sweep and gives the same verdict,
    # but a kept entry must not let a wrong F through
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    m = group(2, 4)
    fi = sub_from_gens(m, [(0, 2)])
    assert is_fully_invariant(fi)
    kept = is_M_F_split(m, m, fi)
    kept_dual = is_dual_M_F_split(m, m, fi, True)
    sweeps = _counting(monkeypatch, splitness, "_sweep")
    repeats = [
        (kept, is_M_F_split(m, m, fi)),
        (kept, self_split_profile(m, fi)["primal_plain"]),
        (kept_dual, self_split_profile(m, fi)["dual_strong"]),
    ]
    assert sweeps == []  # before any certificate is read
    for first, again in repeats:
        assert _verdict_fields(again) == _verdict_fields(first)
    not_fi = sub_from_gens(m, [(1, 0)])
    for decide in (
        lambda: is_M_F_split(m, m, not_fi),
        lambda: is_dual_M_F_split(m, m, not_fi, True),
        lambda: self_split_profile(m, not_fi),
    ):
        with pytest.raises(FullyInvariantError):
            decide()
    # <2> of Z/4 has the canonical matrix of 0 in Z/2, whose verdict is kept
    z2, z4 = group(2), group(4)
    assert is_M_F_split(z2, z2, trivial_subgroup(z2)).is_yes
    assert self_split_profile(z2, trivial_subgroup(z2))["dual_plain"].is_yes
    two = sub_from_gens(z4, [(2,)])
    assert two.canonical == trivial_subgroup(z2).canonical
    for decide in (
        lambda: is_M_F_split(z2, z2, two),
        lambda: is_dual_M_F_split(z2, z2, two),
        lambda: self_split_profile(z2, two),
    ):
        with pytest.raises(ValueError, match="carrier"):
            decide()


def test_profile_budget_respected():
    m = group(4, 2)  # |End| = 32
    prof = self_split_profile(m, trivial_subgroup(m), budget=31)
    assert all(v.is_unknown and "exceeds budget" in v.reason for v in prof.values())
    prof2 = self_split_profile(m, trivial_subgroup(m), budget=32)
    assert not any(v.is_unknown for v in prof2.values())
    # a kept answer is still refused to a caller with a smaller budget
    prof3 = self_split_profile(m, trivial_subgroup(m), budget=31)
    assert all(v.is_unknown and "exceeds budget" in v.reason for v in prof3.values())


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


def test_verdict_predicate_is_read_from_side_strength_and_carrier():
    z2, z4 = group(2), group(4)
    f = trivial_subgroup(z4)
    assert is_M_F_split(z2, z4, f).predicate == "M_F_split"
    assert is_dual_M_F_split(z4, z2, f, strongly=True).predicate == "dual_strongly_M_F_split"
    unknown = is_M_F_split(z2, z4, f, budget=0)
    assert unknown.is_unknown and unknown.predicate == "M_F_split"
    for key, v in decide_self_profile(z4, f).items():
        assert v.predicate == {
            "primal_plain": "self_F_split",
            "primal_strong": "strongly_self_F_split",
            "dual_plain": "dual_self_F_split",
            "dual_strong": "dual_strongly_self_F_split",
        }[key]


# --- work done by classify ------------------------------------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_yes_witnesses_are_built_only_when_read(monkeypatch):
    import absplit.groups

    m = group(2, 2, 2, 2)
    monkeypatch.setattr(splitness, "_ANALYSES", {})  # no retraction cached yet
    witnesses = _counting(monkeypatch, splitness, "summand_witness")
    # groups is the only module that solves congruences
    solves = _counting(monkeypatch, absplit.groups, "solve_congruences")
    prof = self_split_profile(m, trivial_subgroup(m))
    assert [prof[k].answer for k in ("primal_plain", "primal_strong", "dual_plain", "dual_strong")] == [
        "yes", "no", "yes", "yes"
    ]
    assert witnesses == [] and solves == []
    # theorem mode solves for its own counterexamples, not for these witnesses
    decided = decide_self_profile(m, trivial_subgroup(m))
    assert witnesses == []
    v = prof["primal_plain"]
    assert sum(w[3] for w in v.witnesses) == 65536
    assert len(witnesses) == len(v.witnesses) > 1 and solves
    assert decided["primal_plain"].witnesses == v.witnesses
    monkeypatch.undo()
    assert reverify(v)


@pytest.mark.parametrize(
    "m_factors, n_factors",
    [((2, 4), (2, 4)), ((2, 2, 2), (2, 2, 2)), ((3, 9), (3, 9)), ((6,), (2, 4)), ((2, 4), (4,))],
    ids=["2x4", "2x2x2", "3x9", "6-2x4", "2x4-4"],
)
def test_a_kept_yes_verdict_holds_its_sweep_and_not_its_outcomes(monkeypatch, m_factors, n_factors):
    # a Yes verdict's witnesses run the sweep again when first read, so the
    # kept verdict holds (src, dst, F, side) and no outcome list, and the
    # witnesses read after the sweep tables are released are those a cold
    # analysis builds
    m, n = group(*m_factors), group(*n_factors)
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    fs = splitness.analysis_for(n).fi_subgroups(DEFAULT_SUBGROUP_CAP)
    kept = []
    for f in fs:
        for dual in (False, True):
            for strongly in (False, True):
                v = is_dual_M_F_split(n, m, f, strongly) if dual else is_M_F_split(m, n, f, strongly)
                if v.is_yes:
                    held = [c.cell_contents for c in v._witnesses.__closure__]
                    assert not any(isinstance(x, list) for x in held), (f, dual, strongly)
                    kept.append((f, dual, strongly, v))
    assert kept
    # the memo keeps (|Hom|, plain answer, strong answer) and no verdict
    entries = [e for a in splitness._ANALYSES.values() for e in a._sweeps.values()]
    assert entries and all(
        type(total) is int and {plain, strong} <= {"yes", "no"} for total, plain, strong in entries
    )
    splitness.analysis_for(m)._sweep_lattices.clear()
    got = [v.witnesses for *_, v in kept]
    monkeypatch.setattr(splitness, "_ANALYSES", {})
    for (f, dual, strongly, _), witnesses in zip(kept, got):
        cold = is_dual_M_F_split(n, m, f, strongly) if dual else is_M_F_split(m, n, f, strongly)
        assert witnesses == cold.witnesses, (f, dual, strongly)
        assert sum(w[3] for w in witnesses) == hom_count(*((n, m) if dual else (m, n)))


def test_reverify_is_false_on_a_yes_whose_quantifier_it_cannot_rerun(monkeypatch):
    # |End((Z/2)^5)| = 2^25 is over the re-check's budget: the witnesses
    # hold, but True would claim a per-morphism check that never ran
    m = group(2, 2, 2, 2, 2)
    v = is_M_F_split(m, m, full_subgroup(m), budget=10**30)
    assert v.is_yes and v.mode == "brute"
    calls = _counting(monkeypatch, splitness, "iter_hom")
    assert not reverify(v) and calls == []
    small = is_M_F_split(group(2, 2), group(2, 2), full_subgroup(group(2, 2)))
    assert reverify(small) and len(calls) == 1


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


# --- closed-form sub-quotients of a fully invariant F -----------------------
# ABSPLIT_CLOSED_FORM_MAX_ORDER raises the order bound below (CI runs these
# to order 96 in a step of its own)

_CLOSED_FORM_MAX_ORDER = int(os.environ.get("ABSPLIT_CLOSED_FORM_MAX_ORDER") or 64)


def test_closed_form_factor_groups_match_smith_on_every_fully_invariant_f():
    # M/F = ⊕ Z/a_i and F = ⊕ Z/(d_i/a_i) against the Smith forms of the
    # quotient and of the subgroup, on every (M, fully invariant F)
    pairs = 0
    for m in enumerate_groups(_CLOSED_FORM_MAX_ORDER):
        for f in splitness.analysis_for(m).fi_subgroups(DEFAULT_SUBGROUP_CAP):
            assert fi_factors(m, f) == (quotient(m, f)[0], subgroup_group(f)), (m, f)
            pairs += 1
    assert pairs >= 541


def test_closed_form_factor_groups_match_smith_on_the_mixed_pool_specs():
    # a free coordinate gives Z to M/F when F misses it, else Z/a_i to M/F
    # and Z to F; nM meets every free coordinate, the other preradicals none
    seen = set()
    for spec in _mixed_pool_specs():
        m = parse_group_spec(spec)
        for name in _MIXED_PRERADICALS + ("mul:2", "mul:6"):
            f = evaluate(parse_preradical(name), m)
            assert fi_factors(m, f) == (quotient(m, f)[0], subgroup_group(f)), (spec, name)
            steps = splitness._fi_steps(m, f)
            seen.update(a > 0 for d, a in zip(m.factors, steps) if d == 0)
    assert seen == {False, True}


def test_closed_form_refuses_an_f_that_is_not_fully_invariant():
    # <(1, 0)> in Z/2 ⊕ Z/2 is diagonal, with steps (1, 2): its exponent
    # function takes two values at 2-exponent 1, so every closed-form
    # reader raises, while theorem mode rejects it before reading one
    m = group(2, 2)
    f = sub_from_gens(m, [(1, 0)])
    assert splitness._fi_steps(m, f) == (1, 2)
    for read in (fi_exponents, fi_factors):
        with pytest.raises(InternalConsistencyError):
            read(m, f)
    for theorem in (is_self_F_split_theorem, is_dual_self_F_split_theorem):
        for strongly in (False, True):
            with pytest.raises(FullyInvariantError):
                theorem(m, f, strongly)


def test_closed_form_refuses_exactly_the_diagonal_f_not_fully_invariant():
    # Kaplansky: a diagonal F of a finite group is fully invariant iff each
    # exponent function k_p is single-valued with k_p and e - k_p
    # non-decreasing, which fi_exponents tests
    refused = 0
    for m in enumerate_groups(32):
        for s in splitness.analysis_for(m).subgroups(DEFAULT_SUBGROUP_CAP):
            if any(sum(1 for x in row if x) != 1 for row in s.canonical):
                continue
            try:
                fi_exponents(m, s)
            except InternalConsistencyError:
                refused += 1
                assert not is_fully_invariant(s), (m, s)
            else:
                assert is_fully_invariant(s), (m, s)
    assert refused > 0
