"""csip, tds and tdsprerad decide once per automorphism orbit; these oracles
walk every pair of summands and every decomposition instead.

SIP/SSP take the first summand of a pair from one representative per
isomorphism type, and tds decides one decomposition per unordered pair of
summand types and counts the rest.  The oracles below are the every-pair
and every-decomposition forms those replaced.  Tier-1 runs them to order 32;
ABSPLIT_ORBIT_MAX_ORDER raises the bound (CI runs them to order 48 in a
step of its own).
"""

import collections
import itertools
import os

import pytest

from absplit import splitness
from absplit.groups import format_group, group
from absplit import harness
from absplit.harness import (
    Corpus,
    TheoremReport,
    _decided_profiles,
    _decomposition_types,
    _tds_piece,
    check_csip,
    check_tds,
    check_tdsprerad,
    enumerate_groups,
)
from absplit.splitness import Caps, analysis_for, is_dual_M_F_split, is_M_F_split
from absplit.subgroups import (
    inclusion,
    intersect,
    map_subgroup,
    preimage_subgroup,
    quotient,
    require_fully_invariant,
    subgroup_group,
    sum_sub,
)
from oracles import _decompositions

MAX_ORDER = int(os.environ.get("ABSPLIT_ORBIT_MAX_ORDER", "32"))
CORPUS = enumerate_groups(MAX_ORDER)
CAPS = Caps()


def _candidates(m, f_sub, cap, fully_invariant_only, dual):
    """The (fully invariant) summands containing F, or contained in F."""
    analysis = analysis_for(m)

    def kept(s):
        props = analysis.subgroup_props(s)
        return props.is_summand and (not fully_invariant_only or props.is_fi)

    return [s for s in analysis.subgroups_near(f_sub, cap, dual) if kept(s)], kept


def _every_pair_closed(m, f_sub, cap, fully_invariant_only, dual):
    """SIP over F (SSP under F, dually) tested on every pair of candidates."""
    join = sum_sub if dual else intersect
    cands, kept = _candidates(m, f_sub, cap, fully_invariant_only, dual)
    return all(kept(join(a, b)) for a, b in itertools.combinations(cands, 2))


def _unnested(pairs):
    """The pairs whose summands do not lie one in the other: the nested
    ones are closed with no join, their join being one of the two."""
    return [(a, b) for a, b in pairs if not (a.contains_subgroup(b) or b.contains_subgroup(a))]


def _joined_pairs(monkeypatch):
    """The pairs _summands_closed joins from now on, with a join that keeps
    every pair closed so that no pair ends the walk."""
    joined = []
    for name in ("intersect", "sum_sub"):
        monkeypatch.setattr(splitness, name, lambda a, b: joined.append((a, b)) or a)
    return joined


@pytest.mark.parametrize("m", list(CORPUS), ids=format_group)
def test_sip_and_ssp_match_every_pair(monkeypatch, m):
    cap = CAPS.subgroup_cap
    cases = [
        (f, fi_only, dual)
        for f in analysis_for(m).fi_subgroups(cap)
        for fi_only, dual in itertools.product((False, True), repeat=2)
    ]
    for f, fi_only, dual in cases:
        got = splitness._summands_closed(m, f, cap, fi_only, dual)
        assert got == _every_pair_closed(m, f, cap, fi_only, dual), (f, fi_only, dual)
    # the pairs are the first candidate of each isomorphism type with every
    # other candidate, and in the fully invariant variants every pair once;
    # exactly those whose summands are not nested are joined, in that order
    joined = _joined_pairs(monkeypatch)
    for f, fi_only, dual in cases:
        joined.clear()
        assert splitness._summands_closed(m, f, cap, fi_only, dual)
        cands, _ = _candidates(m, f, cap, fi_only, dual)
        if fi_only:
            pairs = list(itertools.combinations(cands, 2))
        else:
            firsts = {}
            for a in cands:
                firsts.setdefault(subgroup_group(a).factors, a)
            pairs = [(a, b) for a in firsts.values() for b in cands if b != a]
        assert joined == _unnested(pairs), (f, fi_only, dual)


def test_sip_and_ssp_over_an_f_not_fully_invariant_match_every_pair(monkeypatch):
    # Aut(M) need not fix such an F, so every pair is joined
    cases = [
        (m, f, fi_only, dual)
        for m in enumerate_groups(16)
        for f in analysis_for(m).subgroups(CAPS.subgroup_cap)
        if not analysis_for(m).subgroup_props(f).is_fi
        for fi_only, dual in itertools.product((False, True), repeat=2)
    ]
    assert cases
    for m, f, fi_only, dual in cases:
        got = splitness._summands_closed(m, f, CAPS.subgroup_cap, fi_only, dual)
        assert got == _every_pair_closed(m, f, CAPS.subgroup_cap, fi_only, dual), (m, f, dual)
    joined = _joined_pairs(monkeypatch)
    for m, f, fi_only, dual in cases:
        joined.clear()
        splitness._summands_closed(m, f, CAPS.subgroup_cap, fi_only, dual)
        cands, _ = _candidates(m, f, CAPS.subgroup_cap, fi_only, dual)
        assert joined == _unnested(itertools.combinations(cands, 2)), (m, f, dual)


@pytest.mark.parametrize("n_grp", list(CORPUS), ids=format_group)
def test_primal_tds_piece_reads_f_with_no_intersection(n_grp):
    # the inclusion of X lands in X, so inc⁻¹(F) = inc⁻¹(F ∩ X): on every
    # decomposition and every fully invariant F, _tds_piece gives the
    # piece the intersection gives; a piece depends on its part alone, so
    # each part of some decomposition is tested once
    parts = dict.fromkeys(part for xy in _decompositions(n_grp, CAPS) for part in xy)
    for f in analysis_for(n_grp).fi_subgroups(CAPS.subgroup_cap):
        for part in parts:
            inc = inclusion(part)
            want = preimage_subgroup(inc, intersect(f, part))
            assert preimage_subgroup(inc, f) == want, (n_grp, f, part)
            assert _tds_piece(part, f, False) == (inc.dom, want), (n_grp, f, part)


def _piece(part, f, dual):
    """(Nk, F∩Nk seen inside Nk), or dually (N/Nk, (F+Nk)/Nk), built for
    this decomposition alone."""
    if dual:
        grp, q = quotient(part.ambient, part)
        fk = map_subgroup(q, f)
    else:
        inc = inclusion(part)
        grp, fk = inc.dom, preimage_subgroup(inc, intersect(f, part))
    require_fully_invariant(grp, fk)
    return grp, fk


def _tds_rows(n_grp, f, x, y, samples, caps):
    """The (M, strongly, dual, whole, parts) answers of one decomposition,
    with its pieces built for it alone."""
    pieces = {dual: [_piece(part, f, dual) for part in (x, y)] for dual in (False, True)}
    rows = []
    for m, strongly, dual in itertools.product(samples, (False, True), (False, True)):
        whole, *parts = [
            is_dual_M_F_split(n, m, fn, strongly, caps.hom_budget) if dual
            else is_M_F_split(m, n, fn, strongly, caps.hom_budget)
            for n, fn in ((n_grp, f), *pieces[dual])
        ]
        rows.append((m, strongly, dual, whole, parts))
    return rows


def _samples(n_grp):
    z6 = group(6)
    return [n_grp] + ([z6] if n_grp != z6 else [])


def _every_decomposition_tds(corpus, caps):
    """The tds report with every decomposition's verdicts read for it
    alone, and those verdicts as answers, by (N, F, X, Y)."""
    rep = TheoremReport("tds")
    verdicts = {}
    for n_grp, f, _ in _decided_profiles(corpus, caps, rep):
        for x, y in _decompositions(n_grp, caps):
            rows = _tds_rows(n_grp, f, x, y, _samples(n_grp), caps)
            verdicts[n_grp, f, x, y] = [
                (m, strongly, dual, whole.answer, [p.answer for p in parts])
                for m, strongly, dual, whole, parts in rows
            ]
            for m, strongly, dual, whole, parts in rows:
                if whole.is_unknown or any(p.is_unknown for p in parts):
                    rep.skipped.append(
                        {"group": format_group(n_grp), "f": str(f), "m": format_group(m),
                         "reason": "budget (dual)" if dual else "budget"}
                    )
                    continue
                rep.instances += 1
                if whole.is_yes != all(p.is_yes for p in parts):
                    failure = {"group": format_group(n_grp), "f": str(f),
                               "m": format_group(m), "strongly": strongly,
                               "decomposition": [str(x), str(y)],
                               "whole": whole.answer,
                               "parts": [p.answer for p in parts]}
                    if dual:
                        failure["dual"] = True
                    rep.failures.append(failure)
    return rep, verdicts


def _without_notes(rep):
    doc = rep.to_dict()
    del doc["notes"], doc["elapsed_s"]
    return doc


def _type(s):
    return analysis_for(s.ambient).subgroup_props(s).iso_type


def _type_pair(x, y):
    return tuple(sorted((_type(x), _type(y))))


@pytest.mark.parametrize("n_grp", list(CORPUS), ids=format_group)
def test_decomposition_types_count_every_decomposition(n_grp):
    want = collections.Counter(_type_pair(x, y) for x, y in _decompositions(n_grp, CAPS))
    summands = analysis_for(n_grp).summands(CAPS.subgroup_cap)
    got = collections.Counter()
    for x, y, count in _decomposition_types(n_grp, CAPS):
        # complementary summands, X the first summand of its type
        assert analysis_for(n_grp).subgroup_props(y).is_summand
        assert sum_sub(x, y).is_full and intersect(x, y).order == 1, (x, y)
        assert x == next(s for s in summands if _type(s) == _type(x)), x
        assert _type_pair(x, y) not in got, (x, y)
        got[_type_pair(x, y)] = count
    assert got == want


def test_tds_matches_every_decomposition():
    oracle, want = _every_decomposition_tds(CORPUS, CAPS)
    assert oracle.instances > 0
    assert _without_notes(check_tds(CORPUS, CAPS)) == _without_notes(oracle)
    # each decomposition gives the answers of its type pair's entry, whose
    # pieces come in the same order when the decomposition's do
    entries = {}
    for n_grp, f, _ in _decided_profiles(CORPUS, CAPS, TheoremReport("tds")):
        for x, y, _count in _decomposition_types(n_grp, CAPS):
            rows = _tds_rows(n_grp, f, x, y, _samples(n_grp), CAPS)
            entries[n_grp, f, _type_pair(x, y)] = (_type(x), [
                (m, strongly, dual, whole.answer, [p.answer for p in parts])
                for m, strongly, dual, whole, parts in rows
            ])
    for (n_grp, f, x, y), rows in want.items():
        first, entry_rows = entries[n_grp, f, _type_pair(x, y)]
        if _type(x) != first:
            rows = [(m, s, d, whole, parts[::-1]) for m, s, d, whole, parts in rows]
        assert rows == entry_rows, (n_grp, f, x, y)


class _Flipped:
    """The opposite of a known verdict."""

    def __init__(self, verdict):
        self.is_yes = not verdict.is_yes
        self.is_unknown = False
        self.answer = "yes" if self.is_yes else "no"


def test_a_wrong_piece_verdict_fails_every_decomposition_of_its_type(monkeypatch):
    # N = Z/2 ⊕ Z/4 decomposes as 0 ⊕ N and as Z/2 ⊕ Z/4, the latter in 4
    # ways; a wrong primal verdict on every Z/4 piece must fail each of those
    # 4 decompositions, reported as one failure per verdict
    n_grp = group(2, 4)
    corpus = Corpus(8, (n_grp,))
    pair = ((2,), (4,))
    oracle_count = sum(_type_pair(x, y) == pair for x, y in _decompositions(n_grp, CAPS))
    assert oracle_count == 4
    before = check_tds(corpus, CAPS)
    assert before.passed and before.instances > 0
    real = harness.is_M_F_split

    def wrong_on_z4(m, n, fn, strongly, budget):
        verdict = real(m, n, fn, strongly, budget)
        return _Flipped(verdict) if n.factors == (4,) else verdict

    monkeypatch.setattr(harness, "is_M_F_split", wrong_on_z4)
    after = check_tds(corpus, CAPS)
    assert after.instances == before.instances
    assert after.failures
    by_verdict = collections.Counter()
    for failure in after.failures:
        assert not failure.get("dual") and failure["decomposition"]
        by_verdict[failure["f"], failure["m"], failure["strongly"]] += failure["decompositions"]
    assert set(by_verdict.values()) == {oracle_count}


@pytest.mark.parametrize("check", [check_csip, check_tdsprerad], ids=["csip", "tdsprerad"])
def test_sip_checks_match_every_pair(monkeypatch, check):
    got = check(CORPUS, CAPS)
    monkeypatch.setattr(splitness, "_summands_closed", _every_pair_closed)
    want = check(CORPUS, CAPS)
    assert want.instances > 0
    assert _without_notes(got) == _without_notes(want)
