"""Corpus enumeration and the verification checks on small corpora."""

import json

import pytest

from absplit.groups import group
from absplit.harness import (
    CHECKS,
    Corpus,
    TheoremReport,
    check_csip,
    check_semis,
    check_socrad,
    check_tds,
    check_tdsprerad,
    check_tendab,
    check_thomzero,
    check_tkey,
    check_trel,
    classify_rows,
    cyclic_pq_classification,
    enumerate_groups,
    groups_of_order,
    partitions,
    run_verification,
    torsion_split_samples,
    worked_examples_report,
)
from absplit.splitness import Caps


def partition_count_pentagonal(n):
    """Independent partition counter (Euler's pentagonal recurrence)."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > i and g2 > i:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= i:
                p[i] += sign * p[i - g1]
            if g2 <= i:
                p[i] += sign * p[i - g2]
            k += 1
    return p[n]


def test_theorem_reports_do_not_share_their_lists():
    lists = ("failures", "skipped", "expected_failures", "expected_failure_misses", "notes")
    a, b = TheoremReport("tkey"), TheoremReport("trel", 3, elapsed_s=0.25)
    for name in lists:
        getattr(a, name).append(name)
    assert all(getattr(b, name) == [] for name in lists)
    assert b.to_dict() == {
        "theorem": "trel", "instances": 3, "failures": [], "skipped": [],
        "expected_failures": [], "expected_failure_misses": [], "notes": [],
        "passed": True, "elapsed_s": 0.25,
    }
    assert not a.passed and TheoremReport("tkey").failures == []


def test_partitions_examples():
    assert partitions(0) == [()]
    assert len(partitions(3)) == 3
    assert len(partitions(5)) == partition_count_pentagonal(5) == 7


def test_groups_of_order_examples():
    assert len(groups_of_order(1)) == 1
    assert [g.factors for g in groups_of_order(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert len(groups_of_order(36)) == 4


def test_corpus_counts_match_partition_formula():
    from absplit.intmat import prime_factors
    from math import prod

    for n in range(1, 65):
        expected = prod(
            partition_count_pentagonal(e) for e in prime_factors(n).values()
        ) if n > 1 else 1
        got = groups_of_order(n)
        assert len(got) == expected, n
        # canonical, duplicate-free, right order
        assert len({g.factors for g in got}) == len(got)
        for g in got:
            assert g.order == n


def test_corpus_complete():
    c = enumerate_groups(16)
    assert all(g.order <= 16 for g in c)
    assert len(c.groups) == sum(len(groups_of_order(n)) for n in range(1, 17))


CAPS = Caps()


def test_check_tkey_small():
    rep = check_tkey(enumerate_groups(16), CAPS)
    assert rep.passed and rep.instances > 100
    assert not rep.skipped


def test_check_tkey_records_budget_skips():
    rep = check_tkey(Corpus(32, (group(2, 2, 2, 2, 2),)), CAPS)
    assert rep.passed
    assert rep.skipped and "exceeds hom budget" in rep.skipped[0]["reason"]


def test_check_trel_small():
    rep = check_trel(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 50


def test_check_tendab_small():
    rep = check_tendab(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 50


def test_check_csip_small():
    rep = check_csip(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 50


def test_check_tds_small():
    rep = check_tds(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 200


def test_check_thomzero_small():
    rep = check_thomzero(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 10
    assert len(rep.expected_failures) == 3
    assert not rep.expected_failure_misses


def test_check_tdsprerad_small():
    rep = check_tdsprerad(enumerate_groups(12), CAPS)
    assert rep.passed and rep.instances > 50
    # instances whose SIP hypothesis fails are recorded, never silently dropped
    assert all("reason" in s for s in rep.skipped)


@pytest.mark.xfail(
    strict=True,
    reason="tdsprerad shares one sample count across its preradicals: at "
    "order 24 socle takes 22 pairs, ppart:2 takes 2 and ntorsion:2 none, and "
    "from order 48 only socle is checked",
)
def test_check_tdsprerad_samples_every_preradical():
    from absplit.preradicals import ntorsion, ppart, socle

    corpus = enumerate_groups(24)
    rads = [socle(), ppart(2), ntorsion(2)]
    alone = [check_tdsprerad(corpus, CAPS, rads=[r]).instances for r in rads]
    assert min(alone) > 0
    # each preradical is checked on the pairs it would get on its own
    assert check_tdsprerad(corpus, CAPS, rads=rads).instances == sum(alone)


def test_check_semis_small():
    rep = check_semis(enumerate_groups(12), CAPS, max_n=12)
    assert rep.passed
    bad_ns = {e["n"] for e in rep.expected_failures}
    assert bad_ns == {4, 8, 9, 12}
    assert all(e["witness_group"] in ("Z/4", "Z/9") for e in rep.expected_failures)


def test_check_socrad_small():
    rep = check_socrad(enumerate_groups(16), CAPS)
    assert rep.passed and rep.instances > 50


class _TickingClock:
    """Stands in for the time module: each read is one second later."""

    def __init__(self):
        self.now = 0.0

    def time(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("name", ["tkey", "trel", "tendab", "csip", "tds", "semis"])
def test_per_group_timeout_guards_every_profile_check(monkeypatch, name):
    # each check that walks (M, F) through the shared loop honours --timeout:
    # with reads one second apart and a 1.5 s guard, the first F of a group
    # is decided and the next one is skipped
    from absplit import harness

    corpus = enumerate_groups(8)
    monkeypatch.setattr(harness, "time", _TickingClock())
    rep = CHECKS[name](corpus, Caps(per_group_timeout_s=1.5))
    timed_out = [s for s in rep.skipped if s["reason"] == "per-group timeout"]
    assert timed_out and all(set(s) == {"group", "f", "reason"} for s in timed_out)
    assert rep.passed and rep.instances > 0
    rep = CHECKS[name](corpus, Caps())  # 0, the default, turns the guard off
    assert not any(s["reason"] == "per-group timeout" for s in rep.skipped)


def test_per_group_timeout_guards_socrad(monkeypatch):
    # socrad decides a group from the profiles of its three F (Rad M, 0 and
    # Soc M); under the ticking clock only the first is reached, so every
    # group skips the other two, in that order, and none is decided
    from absplit import harness
    from absplit.preradicals import evaluate, socle
    from absplit.subgroups import trivial_subgroup

    corpus = enumerate_groups(8)
    monkeypatch.setattr(harness, "time", _TickingClock())
    rep = check_socrad(corpus, Caps(per_group_timeout_s=1.5))
    assert rep.instances == 0 and rep.passed
    assert [(s["group"], s["f"], s["reason"]) for s in rep.skipped] == [
        (str(m), str(f), "per-group timeout")
        for m in corpus for f in (trivial_subgroup(m), evaluate(socle(), m))
    ]
    rep = check_socrad(corpus, Caps())
    assert rep.instances == 4 * len(list(corpus)) and not rep.skipped


def test_per_group_timeout_is_one_clock_per_group(monkeypatch):
    # the checks of one walk share each group's clock: under the ticking
    # clock tkey reaches the first F of each group, and trel, which takes
    # the group after tkey, finds its time used up
    from absplit import harness

    monkeypatch.setattr(harness, "time", _TickingClock())
    tkey, trel = run_verification(8, ["tkey", "trel"], Caps(per_group_timeout_s=1.5))["theorems"]
    groups = len(enumerate_groups(8).groups)
    assert tkey["instances"] == 4 * groups
    assert trel["instances"] == 0
    assert len(trel["skipped"]) == len(tkey["skipped"]) + groups
    assert all(s["reason"] == "per-group timeout" for s in trel["skipped"])


@pytest.mark.parametrize(
    "name, keys, items",
    [
        # per pair (A, B), its pairs (FA, FB) of fully invariant subgroups
        ("thomzero", {"parts", "f", "reason"}, {
            ("Z/2", "Z/3"): 4, ("Z/2", "Z/5"): 4, ("Z/3", "Z/2 x Z/2"): 4, ("Z/3", "Z/4"): 6,
        }),
        # per pair (N1, N2) of each r, the pool of M: 0, Z/2, Z/3 and Z/4
        ("tdsprerad", {"r", "parts", "m", "reason"}, None),
    ],
)
def test_per_group_timeout_guards_thomzero_and_tdsprerad(monkeypatch, name, keys, items):
    # both checks walk loops of their own: under the ticking clock and a
    # 1.5 s guard, each pair of parts decides its first item and skips
    # the rest
    from collections import Counter

    from absplit import harness

    corpus = enumerate_groups(12)
    base = CHECKS[name](corpus, Caps()).to_dict()
    assert not any(s["reason"] == "per-group timeout" for s in base["skipped"])
    unhit = CHECKS[name](corpus, Caps(per_group_timeout_s=1e9)).to_dict()
    assert {**unhit, "elapsed_s": 0} == {**base, "elapsed_s": 0}
    monkeypatch.setattr(harness, "time", _TickingClock())
    rep = CHECKS[name](corpus, Caps(per_group_timeout_s=1.5))
    timed_out = [s for s in rep.skipped if s["reason"] == "per-group timeout"]
    assert timed_out and all(set(s) == keys for s in timed_out)
    assert rep.passed and 0 < rep.instances < base["instances"]
    per_pair = Counter(tuple(s["parts"]) + ((s["r"],) if "r" in s else ()) for s in timed_out)
    if items is None:
        assert set(per_pair.values()) == {3}
    else:
        assert per_pair == {parts: n - 1 for parts, n in items.items()}
        assert rep.instances == 2 * len(items)
        assert len(rep.expected_failures) == 3


def test_run_verification_unknown_id():
    with pytest.raises(KeyError):
        run_verification(6, ["nope"])


def test_run_verification_deterministic():
    r1 = run_verification(10, ["tkey", "csip", "socrad"], CAPS)
    r2 = run_verification(10, ["tkey", "csip", "socrad"], CAPS)

    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "elapsed_s"}
        if isinstance(doc, list):
            return [strip(x) for x in doc]
        return doc

    assert json.dumps(strip(r1), sort_keys=True) == json.dumps(strip(r2), sort_keys=True)
    assert r1["passed"]
    assert set(r1["corpus_spec"]) == {"max_order", "group_count"}
    assert {t["theorem"] for t in r1["theorems"]} == {"tkey", "csip", "socrad"}


@pytest.mark.parametrize("budget", [Caps().hom_budget, 300])
def test_one_walk_gives_each_check_its_report_alone(budget):
    # the checks share one walk of the corpus; each report is the one its
    # check gives when run alone.  A budget of 300 skips groups in
    # every per-group check: semis lists its skips n by n, one per n whose
    # exponent condition holds, and socrad keeps corpus order
    from absplit.groups import format_group, hom_count
    from absplit.intmat import is_squarefree

    caps = Caps(hom_budget=budget)
    corpus = enumerate_groups(24)
    walked = run_verification(max_order=24, caps=caps)["theorems"]
    alone = [CHECKS[name](corpus, caps).to_dict() for name in CHECKS]
    assert [{**t, "elapsed_s": 0} for t in walked] == [{**t, "elapsed_s": 0} for t in alone]
    over = [g for g in corpus if hom_count(g, g) > budget]
    reports = {t["theorem"]: t for t in walked}
    if budget == 300:
        assert over and all(
            any("exceeds hom budget" in s["reason"] for s in reports[name]["skipped"])
            for name in ("tkey", "trel", "tendab", "csip", "tds", "semis", "socrad")
        )
    ns = [n for n in range(1, 31) if n == 1 or is_squarefree(n)]
    assert [(s["group"], s["reason"]) for s in reports["semis"]["skipped"]] == [
        (format_group(g), f"|End| = {hom_count(g, g)} exceeds hom budget {budget}")
        for n in ns for g in over if n % g.exponent == 0
    ]
    assert [s["group"] for s in reports["socrad"]["skipped"]] == [format_group(g) for g in over]
    assert all(t["passed"] for t in walked)


def test_walk_releases_each_groups_sweep_tables(monkeypatch):
    # a group's sweep join tables are released after its turn of the walk;
    # what stays is built after it, by sweeps over small groups: tds's
    # second M (Z/6) and the pair loops of thomzero and tdsprerad.  Keeping
    # every group's tables would leave 21,099 joins here
    from absplit import splitness

    monkeypatch.setattr(splitness, "_ANALYSES", {})
    assert run_verification(max_order=48)["passed"]
    joins = sum(
        len(level)
        for analysis in splitness._ANALYSES.values()
        for lattices in analysis._sweep_lattices.values()
        for level in lattices.joins
    )
    assert joins <= 100


def test_report_schema():
    rep = check_tkey(enumerate_groups(6), CAPS).to_dict()
    assert set(rep) == {
        "theorem", "instances", "failures", "skipped", "expected_failures",
        "expected_failure_misses", "notes", "passed", "elapsed_s",
    }
    json.dumps(rep)  # serializable


# --- classification tables ------------------------------------------------------


def test_classify_rows_z12():
    rows, notes = classify_rows(group(4, 3))
    assert len(rows) == 6 and not notes
    by_order = {r["order"]: r for r in rows}
    assert by_order[4]["self_F_split"] == "yes"
    assert by_order[4]["strongly"] == "yes"
    assert by_order[12]["self_F_split"] == "yes"
    assert by_order[1]["dual_self_F_split"] == "yes"
    assert by_order[3]["dual_strongly"] == "yes"
    assert by_order[2]["self_F_split"] == "no"
    assert all(r["fully_invariant"] for r in rows)
    assert all(r["deciding_mode"] == "brute+theorem" for r in rows)


def test_classify_rows_infinite():
    rows, notes = classify_rows(group(2, 0))
    assert notes
    assert all(r["deciding_mode"] == "theorem" for r in rows)
    torsion_row = next(r for r in rows if r["order"] == 2)
    assert torsion_row["self_F_split"] == "yes"
    assert torsion_row["strongly"] == "yes"
    assert "torsion" in torsion_row["preradicals"]


def test_classify_rows_cap_exceeded_is_marked():
    rows, notes = classify_rows(group(2, 2), Caps(subgroup_cap=2))
    assert notes and "caps" in notes[0]
    assert rows


def test_classify_note_names_the_modes_of_its_rows():
    # past the subgroup cap the table is restricted, but brute force still
    # decides every row within the Hom budget, and the note says so
    note = (
        "group outside enumeration caps: table restricted to "
        "preradical-generated fully invariant subgroups, {} mode"
    )
    rows, notes = classify_rows(group(2, 4), Caps(subgroup_cap=0))
    assert {r["deciding_mode"] for r in rows} == {"brute+theorem"}
    assert notes == [note.format("brute+theorem")]
    rows, notes = classify_rows(group(2, 4, 0))
    assert {r["deciding_mode"] for r in rows} == {"theorem"}
    assert notes == [note.format("theorem")]


@pytest.mark.parametrize(
    "cap, over_parts, over_m",
    [
        (0, [["Z/2", "Z/3"], ["Z/2", "Z/5"], ["Z/3", "Z/2 x Z/2"], ["Z/3", "Z/4"]],
         ["0", "Z/2", "Z/3", "Z/2 x Z/2"]),
        (4, [["Z/2", "Z/5"]], []),
    ],
)
def test_thomzero_and_tdsprerad_skip_groups_over_the_subgroup_cap(cap, over_parts, over_m):
    # both checks enumerate subgroups of groups that the gate of the other
    # checks never sees: the parts of each biproduct, and the pool of M
    report = run_verification(12, ["thomzero", "tdsprerad"], Caps(subgroup_cap=cap))
    thomzero, tdsprerad = report["theorems"]
    reason = f"order exceeds subgroup cap {cap}"
    assert thomzero["skipped"] == [{"parts": p, "reason": reason} for p in over_parts]
    assert [s for s in tdsprerad["skipped"] if "m" in s and "r" not in s] == [
        {"m": m, "reason": reason} for m in over_m
    ]
    assert thomzero["failures"] == tdsprerad["failures"] == []
    assert report["passed"]
    # the pairs and the M within the cap are still checked
    assert thomzero["instances"] == (28 if cap else 0)
    assert tdsprerad["instances"] == (192 if cap else 0)


# --- worked examples ----------------------------------------------------------------


def test_cyclic_pq_classification():
    t = cyclic_pq_classification(2, 3)
    assert t["group"] == "Z/12"
    assert t["subgroup_orders"] == [1, 2, 3, 4, 6, 12]
    assert t["primal_strongly_yes_orders"] == [4, 12]
    assert t["dual_strongly_yes_orders"] == [1, 3]
    assert t["matches"]["primal_stated"] and t["matches"]["dual_engine"]
    assert not t["matches"]["dual_stated"]
    assert {d["order"] for d in t["discrepancies"]} == {1, 12}
    with pytest.raises(ValueError):
        cyclic_pq_classification(2, 2)
    with pytest.raises(ValueError):
        cyclic_pq_classification(4, 3)


def test_torsion_split_samples():
    samples = torsion_split_samples(max_torsion_order=4, max_rank=2)
    for s in samples:
        assert s["self_split"] == "yes"
        assert (s["strongly"] == "yes") == (s["free_rank"] <= 1)
        if s["free_rank"] == 2:
            assert s["witness_found"]
        if s["free_rank"] == 1:
            assert not s["witness_found"]


def test_worked_examples_report_passes():
    rep = worked_examples_report(pq_pairs=((2, 3),))
    assert rep["passed"]
    json.dumps(rep)


def test_worked_examples_over_the_hom_budget_fall_back_to_theorem_mode():
    # with every brute-force verdict unknown, each cell is decided by theorem
    # mode, as classify decides it, and none is counted as No
    rep = worked_examples_report(Caps(hom_budget=0))
    assert rep["passed"]
    assert rep["tables"] == worked_examples_report()["tables"]

