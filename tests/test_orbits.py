"""csip, tds and tdsprerad decide once per automorphism orbit; these oracles
walk every pair of summands and every decomposition instead.

SIP/SSP take the first summand of a pair from one representative per
isomorphism type, and tds reads the verdicts of one decomposition per
ordered pair of summand types.  The oracles below are the every-pair and
every-decomposition forms those replaced.  Tier-1 runs them to order 32;
ABSPLIT_ORBIT_MAX_ORDER raises the bound (CI runs them to order 48 in a
step of its own).
"""

import itertools
import os

import pytest

from absplit import splitness
from absplit.groups import format_group, group
from absplit.harness import (
    TheoremReport,
    _decided_profiles,
    _decompositions,
    _tds_verdicts,
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
    # the first summands meet every isomorphism type of candidate, and each
    # is joined with every other candidate; the fully invariant variants
    # join every pair once
    joined = _joined_pairs(monkeypatch)
    for f, fi_only, dual in cases:
        joined.clear()
        assert splitness._summands_closed(m, f, cap, fi_only, dual)
        cands, _ = _candidates(m, f, cap, fi_only, dual)
        if fi_only:
            assert joined == list(itertools.combinations(cands, 2)), f
            continue
        firsts = {a for a, _ in joined}
        assert {subgroup_group(a).factors for a in firsts} == (
            {subgroup_group(a).factors for a in cands} if len(cands) > 1 else set()
        ), (f, dual)
        assert all({b for a2, b in joined if a2 == a} == set(cands) - {a} for a in firsts)


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
        assert joined == list(itertools.combinations(cands, 2)), (m, f, dual)


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


def _every_decomposition_tds(corpus, caps):
    """The tds report with every decomposition's verdicts read for it
    alone, and those verdicts, by (N, F, X, Y)."""
    rep = TheoremReport("tds")
    verdicts = {}
    z6 = group(6)
    for n_grp, f, _ in _decided_profiles(corpus, caps, rep):
        samples = [n_grp] + ([z6] if n_grp != z6 else [])
        for x, y in _decompositions(n_grp, caps):
            pieces = {dual: [_piece(part, f, dual) for part in (x, y)] for dual in (False, True)}
            rows = verdicts[n_grp, f, x, y] = []
            for m, strongly, dual in itertools.product(samples, (False, True), (False, True)):
                whole, *parts = [
                    is_dual_M_F_split(n, m, fn, strongly, caps.hom_budget) if dual
                    else is_M_F_split(m, n, fn, strongly, caps.hom_budget)
                    for n, fn in ((n_grp, f), *pieces[dual])
                ]
                rows.append((m, strongly, dual, whole.answer, [p.answer for p in parts]))
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


def test_tds_matches_every_decomposition():
    oracle, want = _every_decomposition_tds(CORPUS, CAPS)
    got = {}
    z6 = group(6)
    for n_grp, f, _ in _decided_profiles(CORPUS, CAPS, TheoremReport("tds")):
        samples = [n_grp] + ([z6] if n_grp != z6 else [])
        decompositions = _decompositions(n_grp, CAPS)
        for x, y, rows in _tds_verdicts(n_grp, f, decompositions, samples, CAPS):
            got[n_grp, f, x, y] = [
                (m, strongly, dual, whole.answer, [p.answer for p in parts])
                for m, strongly, dual, whole, *parts in rows
            ]
    assert list(got) == list(want)
    assert got == want
    assert oracle.instances > 0
    assert _without_notes(check_tds(CORPUS, CAPS)) == _without_notes(oracle)


@pytest.mark.parametrize("check", [check_csip, check_tdsprerad], ids=["csip", "tdsprerad"])
def test_sip_checks_match_every_pair(monkeypatch, check):
    got = check(CORPUS, CAPS)
    monkeypatch.setattr(splitness, "_summands_closed", _every_pair_closed)
    want = check(CORPUS, CAPS)
    assert want.instances > 0
    assert _without_notes(got) == _without_notes(want)
