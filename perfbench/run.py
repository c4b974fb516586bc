"""absplit benchmark: cold-process CLI requests, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one pass each
    python3 perfbench/run.py --record-digests      # rewrite perfbench/digests.json

Run from the root of a source checkout; the program is imported from
``src/``.  A pass sends the seeded requests of a workload one at a time,
each in a fresh ``python3 perfbench/request.py`` process, so no module-level
cache of absplit carries over between requests.  A run makes one pass, and
another while the elapsed time plus one pass fits in --seconds.

Untraced (--trace 0) the last line reports the end-to-end metrics:
``ref_wall_s`` (summed request time of a pass), ``ref_req_p50_s`` (median
request time), ``peak_rss_mb`` (largest request process) and ``setup_s``
(median time from spawn to ``absplit.cli`` imported, over set-up probes and
requests), each the median over the run's passes.  Traced (--trace 1) a run
makes one untraced pass and two traced passes and reports the per-layer
metrics.

Every time is measured from outside the request process: from spawning it
to its exit, and to its ``perfbench-ready`` line for ``setup_s``, less the
moments the runner paused it.  The end-to-end times are read on the
reference clock of refclock.py, whose ticks the runner takes on the
request's CPU during those pauses; the same times on the ordinary clock
(``wall_s``, ``req_p50_s``, ``raw_setup_s``) are printed on the line before
the last, prefixed with ``perfbench-raw``.

Every request must exit 0 without a traceback and match the digest of its
verdicts recorded in digests.json.  A traced run also fails when a bypassed
layer takes more than BYPASS_LIMIT of the traced wall time, or when
the two traced passes disagree on any call or element count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from refclock import SAMPLE_EVERY_S, RefClock
from workloads import BYPASS_LIMIT, WORKLOADS, all_requests, requests, verdict_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUEST = HERE / "request.py"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 11
# a run kills what is still running this long after it starts, to end within
# the 180 s a run is allowed
RUN_LIMIT_S = 170.0

CHECK_IDS = ("tkey", "trel", "tendab", "csip", "tds", "thomzero", "tdsprerad", "semis", "socrad")
# layers reported with .calls and .self_s
TIMED_LAYERS = (
    "splitness.sweep", "splitness.end_ring", "groups.compose", "subgroups.intersect",
    "groups.pullback", "splitness.sip", "splitness.witness_search",
    "subgroups.all_subgroups", "subgroups.sub_from_gens", "intmat.hnf_rows",
    "intmat.seeded_hnf", "subgroups.summand_witness", "groups.section_witness",
    "intmat.solve_congruences", "intmat.snf", "subgroups.fi_violation",
    "splitness.theorem", "splitness.subgroup_props", "harness.cached_profile",
    "preradicals.evaluate",
)


@dataclass
class Request:
    """Outcome of one request process."""

    argv: tuple[str, ...]
    wall_s: float  # spawn to exit, less the time it was paused
    setup_s: float | None  # spawn to absplit.cli imported, less the same
    ticks: tuple[int, int]  # the reference ticks taken while it was paused
    rss_mb: float
    error: str | None


class Runner:
    """Spawns request processes for one run and keeps their outcomes."""

    def __init__(self, work: Path, digests: dict, deadline: float):
        self.work = work
        self.digests = digests
        self.deadline = deadline  # time.monotonic() by which every request is killed
        self.done: list[Request] = []
        self.clock = RefClock()
        # requests and reference ticks share one CPU, so a tick sees the
        # host as the request does
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self, argv: tuple[str, ...], trace_file: str = "-") -> tuple[Request, str]:
        """Run one request process to its exit; returns the outcome and stdout.

        An untraced request is paused every SAMPLE_EVERY_S for one tick of
        the reference clock; a traced one is left alone, so that its layer
        times hold no pauses."""
        out, err = self.work / "stdout", self.work / "stderr"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        args = [sys.executable, str(REQUEST), trace_file, *argv]
        first_tick = len(self.clock.ticks)
        pauses: list[tuple[float, float]] = []
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        reaped = False
        try:
            while not (exited := bool(select.select([pidfd], [], [], SAMPLE_EVERY_S)[0])):
                if time.monotonic() > self.deadline:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    break
                if trace_file == "-":
                    p0 = time.monotonic()
                    signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                    info = os.waitid(os.P_PIDFD, pidfd, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if info.si_code != os.CLD_STOPPED:
                        exited = True
                        break
                    self.clock.tick()
                    signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                    pauses.append((p0, time.monotonic()))
            _, status, usage = os.wait4(pid, 0)
            t1 = time.monotonic()
            reaped = True
        finally:
            if not reaped:  # it may be stopped: kill it and wait for it
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(pidfd)
        paused = lambda end: sum(min(b, end) - a for a, b in pauses if a < end)  # noqa: E731
        stdout, stderr = out.read_text(), err.read_text()
        code = os.waitstatus_to_exitcode(status)
        setup_s = error = None
        for line in stderr.splitlines():
            words = line.split()
            if len(words) == 2 and words[0] == "perfbench-ready":
                setup_s = float(words[1]) - t0 - paused(float(words[1]))
        if not exited:
            error = "killed at the run's deadline"
        elif "Traceback (most recent call last)" in stderr:
            error = "traceback:\n" + stderr
        elif code != 0:
            error = f"exit code {code}:\n{stderr}"
        elif setup_s is None:
            error = "no ready line on stderr:\n" + stderr
        req = Request(argv, t1 - t0 - paused(t1), setup_s, (first_tick, len(self.clock.ticks)),
                      usage.ru_maxrss / 1024, error)
        return req, stdout

    def request(self, argv: tuple[str, ...], trace_file: str = "-") -> Request:
        """One request, failed unless its verdicts match the recorded digest."""
        req, stdout = self.spawn(argv, trace_file)
        if req.error is None:
            key = " ".join(argv)
            try:
                got = verdict_digest(argv, json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                req.error = f"unreadable report: {exc!r}"
            else:
                if self.digests.get(key) != got:
                    req.error = f"verdict digest {got} does not match {self.digests.get(key)}"
        if req.error is not None:
            print(f"request {' '.join(argv)!r} failed: {req.error}", file=sys.stderr)
        self.done.append(req)
        return req

    def run_pass(self, reqs, trace_dir: Path | None = None) -> list[Request]:
        return [
            self.request(argv, str(trace_dir / f"{i}.json") if trace_dir else "-")
            for i, argv in enumerate(reqs)
        ]

    def setup_probes(self) -> list[Request]:
        self.spawn(())  # warm-up: byte-compiles src/ on a fresh checkout
        probes = [self.spawn(())[0] for _ in range(SETUP_PROBES)]
        bad = [p.error for p in probes if p.error is not None]
        if bad:
            raise RuntimeError(f"set-up probe failed: {bad[0]}")
        return probes


def pass_metrics(reqs: list[Request], clock: RefClock) -> dict:
    """End-to-end metrics of one pass, on both clocks."""
    walls = [r.wall_s for r in reqs]
    ref_walls = [r.wall_s * clock.factor(*r.ticks) for r in reqs]
    return {
        "ref_wall_s": sum(ref_walls),
        "ref_req_p50_s": statistics.median(ref_walls),
        "peak_rss_mb": max(r.rss_mb for r in reqs),
        "wall_s": sum(walls),
        "req_p50_s": statistics.median(walls),
    }


# ---------------------------------------------------------------------------
# traced runs


def load_traces(trace_dir: Path, n: int) -> list[dict]:
    return [json.loads((trace_dir / f"{i}.json").read_text()) for i in range(n)]


def layer_counts(docs: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """(exact counts, times) summed over the requests of one traced pass."""
    counts: Counter = Counter()
    times: Counter = Counter()
    for doc in docs:
        owner = {s[0]: s[1] for s in doc["spans"]}
        for sid, name, t0, t1, parent, self_s, note in doc["spans"]:
            counts[f"{name}.calls"] += 1
            counts[f"{name}.note"] += note
            times[f"{name}.self_s"] += self_s
            if name == "splitness.sweep":
                times["splitness.sweep.total_s"] += t1 - t0
                if owner.get(parent) == "harness.cached_profile":
                    counts["harness.cached_profile.misses"] += 1
        for sid, name, caller, calls, total_s, self_s, note in doc["aggs"]:
            counts[f"{name}.calls"] += calls
            counts[f"{name}.note"] += note
            times[f"{name}.self_s"] += self_s
            if name == "groups.iter_hom_rows":
                counts[f"{owner.get(sid)}.elements"] += calls
            elif name == "subgroups.sub_from_gens" and caller == "splitness.witness_search":
                counts["splitness.witness_search.candidates"] += calls
            elif name == "subgroups.summand_witness" and caller == "splitness.subgroup_props":
                counts["splitness.subgroup_props.misses"] += calls
    return dict(counts), dict(times)


def bypass_share(docs: list[dict], layers: tuple[str, ...]) -> dict[str, float]:
    """Seconds spent inside each bypassed layer, outermost spans only."""
    out = dict.fromkeys(layers, 0.0)
    for doc in docs:
        spans = {s[0]: s for s in doc["spans"]}
        for sid, name, t0, t1, parent, _self, _note in doc["spans"]:
            if name not in out:
                continue
            p = parent
            while p and spans[p][1] not in out:
                p = spans[p][4]
            if not p:
                out[name] += t1 - t0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(counts: dict, times: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric in BENCHMARK.json.

    Elements are Hom matrices yielded by ``groups.iter_hom_rows`` directly
    inside a sweep or an End-ring span; ``elements_per_s`` divides by the
    sweeps' whole duration.  Witness candidates are ``sub_from_gens`` calls
    made by the search itself.  A ``subgroup_props`` miss is a call that had
    to compute a summand witness; a ``cached_profile`` miss is one that ran
    a sweep."""
    c = lambda k: counts.get(k, 0)  # noqa: E731
    t = lambda k: times.get(k, 0.0)  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (c(f"{layer}.calls"), "count")
        m[f"{layer}.self_s"] = (t(f"{layer}.self_s"), "s")
    m["splitness.sweep.elements_per_s"] = (
        _ratio(c("splitness.sweep.elements"), t("splitness.sweep.total_s")), "1/s")
    m["splitness.sweep.elements"] = (c("splitness.sweep.elements"), "count")
    m["groups.hom_elements"] = (c("groups.iter_hom_rows.calls"), "count")
    m["splitness.end_ring.elements"] = (c("splitness.end_ring.elements"), "count")
    m["splitness.witness_search.candidates"] = (c("splitness.witness_search.candidates"), "count")
    m["splitness.witness_search.found_ratio"] = (
        _ratio(c("splitness.witness_search.note"), c("splitness.witness_search.calls")), "ratio")
    m["subgroups.all_subgroups.found"] = (c("subgroups.all_subgroups.note"), "count")
    m["subgroups.summand_witness.yes_ratio"] = (
        _ratio(c("subgroups.summand_witness.note"), c("subgroups.summand_witness.calls")), "ratio")
    m["splitness.subgroup_props.miss_ratio"] = (
        _ratio(c("splitness.subgroup_props.misses"), c("splitness.subgroup_props.calls")), "ratio")
    m["harness.cached_profile.hit_ratio"] = (
        1.0 - _ratio(c("harness.cached_profile.misses"), c("harness.cached_profile.calls"))
        if c("harness.cached_profile.calls") else 0.0, "ratio")
    for check_id in CHECK_IDS:
        m[f"harness.check.{check_id}.self_s"] = (t(f"harness.check.{check_id}.self_s"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def traced_run(runner: Runner, workload, reqs) -> tuple[bool, dict]:
    untraced = runner.run_pass(reqs)
    passes = []
    for k in range(2):
        trace_dir = runner.work / f"trace{k}"
        trace_dir.mkdir()
        traced = runner.run_pass(reqs, trace_dir)
        if any(r.error for r in traced):
            return False, {}
        docs = load_traces(trace_dir, len(reqs))
        passes.append((pass_metrics(traced, runner.clock), docs, *layer_counts(docs)))
    (pass_a, docs_a, counts_a, times_a), (pass_b, docs_b, counts_b, times_b) = passes
    ok = True

    for k in sorted(counts_a.keys() | counts_b.keys()):
        if counts_a.get(k, 0) != counts_b.get(k, 0):
            ok = False
            print(f"EXACT-COUNT CHECK FAILED: {k} = {counts_a.get(k, 0)} then "
                  f"{counts_b.get(k, 0)}", file=sys.stderr)

    for docs, traced in ((docs_a, pass_a), (docs_b, pass_b)):
        for layer, secs in bypass_share(docs, workload.bypasses).items():
            share = secs / traced["wall_s"]
            print(f"bypass {layer}: {secs:.3f} s = {share:.2%} of traced wall "
                  f"(limit {BYPASS_LIMIT:.0%})", file=sys.stderr)
            if share > BYPASS_LIMIT:
                ok = False
                print(f"BYPASS CHECK FAILED: {workload.name} spends {share:.2%} of its "
                      f"wall time in {layer}", file=sys.stderr)

    times = {k: (times_a.get(k, 0.0) + times_b.get(k, 0.0)) / 2
             for k in times_a.keys() | times_b.keys()}
    # the untraced pass is paused for reference ticks and the traced ones are
    # not, so this compares times on the ordinary clock
    overhead = (pass_a["wall_s"] + pass_b["wall_s"]) / 2 - pass_metrics(untraced, runner.clock)["wall_s"]
    return ok, per_layer_metrics(counts_a, times, overhead)


# ---------------------------------------------------------------------------


def untraced_run(runner: Runner, reqs, seconds: float) -> tuple[bool, dict, dict]:
    """(ok, end-to-end metrics, the same times on the ordinary clock)."""
    probes = runner.setup_probes()
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass(reqs))
        if time.monotonic() - start + (time.monotonic() - t0) > seconds:
            break
    # set-up times are too short to hold ten ticks, so they are read with
    # the whole run's mean tick
    ready = [r.setup_s for r in probes + runner.done if r.setup_s is not None]
    passes = [pass_metrics(p, runner.clock) for p in passes]
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {
        "ref_wall_s": (med("ref_wall_s"), "s"),
        "ref_req_p50_s": (med("ref_req_p50_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(ready) * runner.clock.factor(), "s"),
    }
    raw = {
        "wall_s": (med("wall_s"), "s"),
        "req_p50_s": (med("req_p50_s"), "s"),
        "raw_setup_s": (statistics.median(ready), "s"),
    }
    walls = ", ".join(f"{p['ref_wall_s']:.3f} ({p['wall_s']:.3f})" for p in passes)
    print(f"{len(passes)} pass(es), {len(probes)} set-up probes; ref_wall_s (wall_s) per "
          f"pass {walls}", file=sys.stderr)
    return True, metrics, raw


@contextlib.contextmanager
def work_dir():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        yield work
    finally:
        shutil.rmtree(work)


def run_workload(name: str, seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    workload = WORKLOADS[name]
    reqs = requests(workload, seed)
    with work_dir() as work:
        runner = Runner(work, digests, time.monotonic() + RUN_LIMIT_S)
        if trace:
            ok, metrics = traced_run(runner, workload, reqs)
            raw = {}
        else:
            ok, metrics, raw = untraced_run(runner, reqs, seconds)
    done = runner.done
    failed = sum(1 for r in done if r.error is not None)
    for metric, (value, unit) in {**metrics, **raw}.items():
        print(f"{name:18s} {metric:42s} {value:16.6f} {unit}")
    print(f"{name:18s} {'error_rate':42s} {failed / max(len(done), 1):16.6f} ratio")
    if raw:
        print("perfbench-raw " + json.dumps({k: v for k, (v, _) in raw.items()}))
    return {
        "correct": ok and failed == 0 and len(done) > 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_digests() -> None:
    digests = {}
    with work_dir() as work:
        runner = Runner(work, {}, time.monotonic() + 3600)
        for argv in all_requests():
            req, stdout = runner.spawn(argv)
            if req.error is not None:
                raise SystemExit(f"{' '.join(argv)}: {req.error}")
            digests[" ".join(argv)] = verdict_digest(argv, json.loads(stdout))
            print(f"{req.wall_s:8.2f} s  {' '.join(argv)}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "absplit" / "cli.py").is_file():
        print(f"error: no absplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    digests = json.loads(DIGESTS.read_text())
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), digests)
    else:
        results = {w: run_workload(w, args.seed, 0, bool(args.trace), digests) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
