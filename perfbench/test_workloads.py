"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import refclock
import run
from workloads import BYPASS_LIMIT, WORKLOADS, all_requests, requests, verdict_digest

HERE = Path(__file__).resolve().parent
SEEDS = range(300)


@pytest.mark.parametrize("name", [w for w in WORKLOADS if WORKLOADS[w].strata])
def test_generator_is_deterministic_and_draws_stated_strata(name):
    workload = WORKLOADS[name]
    stratum_of = {spec: st.name for st in workload.strata for spec in st.pool}
    assert len(stratum_of) == sum(len(st.pool) for st in workload.strata)
    distinct = set()
    for seed in SEEDS:
        reqs = requests(workload, seed)
        assert reqs == requests(workload, seed)
        specs = [argv[1] for argv in reqs]
        assert len(set(specs)) == len(specs)
        drawn = Counter(stratum_of[s] for s in specs)
        assert drawn == {st.name: st.draw for st in workload.strata}
        distinct.add(tuple(reqs))
    assert len(distinct) > len(SEEDS) // 2  # the seed does change the pass


def test_verify_workload_ignores_seed():
    w = WORKLOADS["verify-24"]
    assert requests(w, 0) == requests(w, 12345) == [w.fixed_argv]


def test_every_pool_entry_has_a_digest():
    digests = json.loads((HERE / "digests.json").read_text())
    keys = [" ".join(argv) for argv in all_requests()]
    assert sorted(keys) == sorted(digests)


def test_digest_ignores_timing_and_extra_counters_but_not_verdicts():
    row = {
        "generators": [[1, 0]], "order": 2, "fully_invariant": True,
        "is_summand": True, "self_F_split": "yes", "strongly": "yes",
        "dual_self_F_split": "no", "dual_strongly": "no", "deciding_mode": "theorem",
    }
    argv = ("classify", "2,0", "--json")
    base = verdict_digest(argv, {"group": "Z/2 x Z", "rows": [row], "notes": [], "elapsed_s": 0.1})
    extra = dict(row, hom_elements=7)
    assert verdict_digest(argv, {"rows": [extra], "elapsed_s": 9.9}) == base
    flipped = dict(row, strongly="no")
    assert verdict_digest(argv, {"rows": [flipped]}) != base


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    per_layer = run.per_layer_metrics({}, {}, 0.0)
    assert [m["name"] for m in doc["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in doc["per_layer"])
    names = [m["name"] for m in doc["end_to_end"]]
    assert names == ["ref_wall_s", "ref_req_p50_s", "peak_rss_mb", "setup_s"]


def test_reference_clock_reads_a_request_by_its_own_ticks():
    clock = refclock.RefClock()
    assert clock.factor() == 1.0  # no ticks: the ordinary clock
    clock.ticks = [2 * refclock.TICK_S] * 20 + [refclock.TICK_S] * 20
    assert clock.factor(0, 20) == pytest.approx(0.5)  # the host ran at half speed
    assert clock.factor(20, 40) == pytest.approx(1.0)
    # too few ticks of its own: the whole run's mean tick
    assert clock.factor(0, 5) == pytest.approx(1 / 1.5)
    clock.tick()
    assert len(clock.ticks) == 41 and clock.ticks[-1] > 0


def test_traced_request_records_layers(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "request.py"), str(trace), "classify", "2,2,0", "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    wall_s = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("perfbench-ready ")
    docs = [json.loads(trace.read_text())]
    counts, times = run.layer_counts(docs)
    assert counts["cli.main.calls"] == 1
    assert counts["splitness.witness_search.candidates"] > 0
    assert counts["subgroups.sub_from_gens.calls"] >= counts["splitness.witness_search.candidates"]
    assert counts["intmat.hnf_rows.calls"] > 0
    # a sweep is refused at once on an infinite Hom set
    assert counts.get("splitness.sweep.elements", 0) == 0
    bypassed = run.bypass_share(docs, WORKLOADS["classify-mixed"].bypasses)
    assert all(secs / wall_s < BYPASS_LIMIT for secs in bypassed.values())
    (top,) = [s for s in docs[0]["spans"] if s[4] == 0]
    assert top[1] == "cli.main"
    assert all(t >= -1e-6 for t in times.values())
