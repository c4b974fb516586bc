"""Workload definitions for the absplit benchmark.

Each workload is a closed loop with one client: the requests of a pass are
sent one at a time, each in a fresh interpreter that calls
``absplit.cli.main(argv)``.  The seed only chooses which specs of each
stratum a pass contains and in what order; the program sees nothing but the
generated command lines.

Strata group specs of near-equal cold cost, so that a pass costs about the
same for every seed and run-to-run spread measures the program and the host,
not the draw.  Per-spec costs quoted below are medians of three cold
requests on a 2-core x86-64 container with Python 3.11, whose speed
changes by up to 2x within tens of seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Stratum:
    name: str
    pool: tuple[str, ...]
    draw: int  # specs drawn per pass, without replacement


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[Stratum, ...]
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    fixed_argv: tuple[str, ...] = ()


# Layers a workload is meant to bypass, as span names recorded by the tracer,
# and the largest share of the traced wall time each of them may take.
BYPASS_LIMIT = 0.01
SWEEP = "splitness.sweep"
END_RING = "splitness.end_ring"
WITNESS_SEARCH = "splitness.witness_search"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="verify-24",
            why=(
                "the users' batch job, all nine law checks up to order 24; "
                "exercises the Hom sweep, End ring, intersect and SeededHnf; "
                "bypasses the witness search; the seed is unused"
            ),
            strata=(),
            fixed_argv=("verify", "--max-order", "24", "--json"),
            exercises=(
                # 603,494 Hom elements in all (groups.hom_elements), of which
                # 418,196 are End-ring elements and the rest the sweep's own
                # (splitness.sweep.elements)
                "splitness.sweep",
                "splitness.end_ring",
                "subgroups.intersect via tds and csip",
                "intmat.seeded_hnf",
                "harness.cached_profile",
            ),
            bypasses=(WITNESS_SEARCH,),
        ),
        Workload(
            name="classify-mixed",
            why=(
                "classify on groups with a free part, where Hom is infinite; "
                "exercises the witness search and HNF on an infinite ambient; "
                "bypasses the Hom sweep and End ring"
            ),
            strata=(
                # free rank 1, two torsion factors: the search tries all
                # 58,672 candidates and finds none (2.5 s each, within noise)
                Stratum(
                    "rank1-two-torsion",
                    (
                        "2,2,0", "2,4,0", "2,6,0", "2,8,0", "3,3,0", "3,6,0",
                        "3,9,0", "4,4,0", "2,10,0", "5,5,0", "2,12,0", "4,8,0",
                    ),
                    6,
                ),
                # free rank 1, three torsion factors: the search stops at its
                # 200,000-candidate cap (11 s each).  3,3,3,0 costs the same
                # but peaks at 25 MB against 18.6 MB for every other spec here,
                # which would make peak_rss_mb depend on the draw.
                Stratum("rank1-three-torsion", ("2,2,2,0", "2,2,4,0"), 1),
                # free rank 2 or cyclic torsion: decided at once, so these
                # requests are bound by set-up time (0.2 s each).  Two of
                # them against one capped search keep the median request in
                # the middle of the first stratum, where it is steadiest.
                Stratum(
                    "setup-bound",
                    ("0,0", "2,0,0", "4,0", "6,0", "12,0", "2,2,0,0", "8,0"),
                    2,
                ),
            ),
            exercises=(
                "splitness.witness_search",
                "subgroups.sub_from_gens",
                "intmat.hnf_rows (infinite ambient)",
                "splitness.theorem",
            ),
            bypasses=(SWEEP, END_RING),
        ),
        Workload(
            name="classify-lattice",
            why=(
                "classify on finite groups of order <= 128 with |End| > 10^6; "
                "exercises all_subgroups, summand_witness and HNF on a finite "
                "ambient; bypasses the sweep, End ring and search"
            ),
            strata=(
                # both drawn (0.9-1.4 s).  5,5,5 (0.1 s) is left out: a pass
                # with it instead of one of these cost 2-3 s less, which made
                # ref_wall_s depend on the draw.
                Stratum("small", ("3,3,3,3", "2,2,4,4"), 2),
                # both drawn, so the median request time does not depend on
                # the seed: it is the mean of these two (2.7 and 3.1 s)
                Stratum("mid", ("2,2,2,2,2", "2,2,4,8"), 2),
                Stratum("large", ("2,4,4,4", "2,2,2,2,4"), 1),  # 5.0-5.7 s
                # the only mixed-prime group in range (8 s)
                Stratum("mixed-prime", ("2,2,2,2,6",), 1),
            ),
            exercises=(
                "subgroups.all_subgroups",
                "subgroups.summand_witness",
                "subgroups.sub_from_gens",
                "intmat.hnf_rows (finite ambient)",
                "subgroups.fi_violation",
            ),
            bypasses=(SWEEP, END_RING, WITNESS_SEARCH),
        ),
    )
}

# Left out of every pool as too long for one request: 2,2,2,2,8 (12 s),
# 2,2,2,4,4 (20 s), 2,2,2,2,2,2, 3,3,3,3,3 and 2,2,2,2,2,4 (over 30 s).
# The examples command is left out too: its time is the same witness
# search classify-mixed measures, at twice the cost.


def requests(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The command lines of one pass, in the order they are sent."""
    if workload.fixed_argv:
        return [workload.fixed_argv]
    rng = random.Random(f"{workload.name}:{seed}")
    specs = [s for st in workload.strata for s in rng.sample(st.pool, st.draw)]
    rng.shuffle(specs)
    return [("classify", spec, "--json") for spec in specs]


def all_requests() -> list[tuple[str, ...]]:
    """Every command line any seed can produce, one per pool entry."""
    out = []
    for w in WORKLOADS.values():
        if w.fixed_argv:
            out.append(w.fixed_argv)
        out.extend(("classify", spec, "--json") for st in w.strata for spec in st.pool)
    return out


_CLASSIFY_FIELDS = (
    "generators", "order", "is_summand", "self_F_split", "strongly",
    "dual_self_F_split", "dual_strongly", "deciding_mode",
)
_CHECK_FIELDS = (
    "theorem", "instances", "failures", "skipped", "expected_failures",
    "expected_failure_misses", "passed",
)


def _strip_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _strip_elapsed(v) for k, v in doc.items() if k != "elapsed_s"}
    if isinstance(doc, list):
        return [_strip_elapsed(v) for v in doc]
    return doc


def verdict_digest(argv: tuple[str, ...], report: dict) -> str:
    """SHA-256 over the verdict-carrying fields of a --json report.

    Counters and timings a later change may add to the reports are not
    hashed, so the digest stays valid as long as the verdicts do."""
    report = _strip_elapsed(report)
    if argv[0] == "classify":
        doc = [{k: row[k] for k in _CLASSIFY_FIELDS} for row in report["rows"]]
    else:
        doc = {
            "theorems": [{k: t[k] for k in _CHECK_FIELDS} for t in report["theorems"]],
            "passed": report["passed"],
        }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
