"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Two sub-criteria encode statements that the engine's own brute force refutes
(they trace back to two erroneous cells in a circulated classification table
and an over-broad strong-mode claim for semisimple coefficient rings).  Those
are implemented literally and marked strict-xfail: they run, they must fail,
and the corrected counterparts next to them must pass.  See the project
notes ledger for the analysis.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from absplit.cli import main as cli_main
from absplit.groups import (
    add_hom,
    biproduct,
    compose,
    group,
    hom_count,
    identity_hom,
    iter_hom,
    pullback,
    pushout,
    section_witness,
    solve_compose_left,
    solve_compose_right,
)
from absplit.harness import (
    check_csip,
    check_semis,
    check_socrad,
    check_tds,
    check_tendab,
    check_tkey,
    check_trel,
    cyclic_pq_classification,
    enumerate_groups,
)
from absplit.splitness import (
    Caps,
    is_self_rickart,
    reverify,
    strongly_no_witness_search,
)
from absplit.subgroups import all_subgroups, is_fully_invariant, trivial_subgroup

CAPS = Caps()


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} {detail}")
    return ok


# -- criterion 1: the Z/p² ⊕ Z/q tables ---------------------------------------


def _pq_table(p, q):
    return cyclic_pq_classification(p, q, CAPS)


def test_criterion_1_primal_and_subgroups():
    t0 = time.time()
    ok = True
    for p, q in ((2, 3), (3, 2), (2, 5)):
        t = _pq_table(p, q)
        ok &= t["subgroup_orders"] == sorted(
            {1, q, p, p * q, p * p, p * p * q}
        )
        g = group(p * p, q)
        subs = all_subgroups(g)
        ok &= len(subs) == 6 and all(is_fully_invariant(s) for s in subs)
        stated = sorted([p * p, p * p * q])
        ok &= t["primal_yes_orders"] == stated
        ok &= t["primal_strongly_yes_orders"] == stated
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert report("1 (primal + lattice)", ok, f"elapsed {elapsed:.2f}s"), "criterion 1"


@pytest.mark.xfail(
    strict=True,
    reason="the circulated dual column places F = 0 in the No set and F = G in "
    "the Yes set; both cells contradict the definition-level brute force "
    "(see the decisions ledger)",
)
def test_criterion_1_dual_as_stated():
    t = _pq_table(2, 3)
    stated_dual = sorted([3, 12])
    report(
        "1 (dual, as stated)",
        t["dual_yes_orders"] == stated_dual,
        f"engine says {t['dual_yes_orders']}, statement says {stated_dual}",
    )
    assert t["dual_yes_orders"] == stated_dual
    assert t["dual_strongly_yes_orders"] == stated_dual


def test_criterion_1_dual_corrected():
    ok = True
    for p, q in ((2, 3), (3, 2), (2, 5)):
        t = _pq_table(p, q)
        ok &= t["dual_yes_orders"] == sorted([1, q])
        ok &= t["dual_strongly_yes_orders"] == sorted([1, q])
        ok &= {d["order"] for d in t["discrepancies"]} == {1, p * p * q}
    assert report(
        "1 (dual, engine-corrected)",
        ok,
        "dual-yes exactly at {0, H1}, the two discrepant cells flagged",
    ), "criterion 1 corrected dual"


# -- criterion 2: brute force == theorem mode up to order 48 -------------------


def test_criterion_2_tkey_oracle_equivalence():
    t0 = time.time()
    rep = check_tkey(enumerate_groups(48), CAPS)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 600
    budget_skips = [s for s in rep.skipped if "hom budget" in s["reason"]]
    assert report(
        "2",
        ok,
        f"{rep.instances} instances, {len(rep.failures)} disagreements, "
        f"{len(budget_skips)} budget skip(s), {elapsed:.0f}s",
    ), rep.failures[:3]


# -- criterion 3: the strong-mode characterizations up to order 32 -------------


def test_criterion_3_trel_tendab():
    rep1 = check_trel(enumerate_groups(32), CAPS)
    rep2 = check_tendab(enumerate_groups(32), CAPS)
    ok = rep1.passed and rep2.passed
    assert report(
        "3",
        ok,
        f"summand-route {rep1.instances} instances, end-ring route "
        f"{rep2.instances} instances, 0 route disagreements",
    ), (rep1.failures[:3], rep2.failures[:3])


# -- criterion 4: SIP ------------------------------------------------------------


def test_criterion_4_csip():
    rep = check_csip(enumerate_groups(32), CAPS)
    assert report("4", rep.passed, f"{rep.instances} instances"), rep.failures[:3]


# -- criterion 5: direct sum decompositions up to order 36 ------------------------


def test_criterion_5_tds():
    rep = check_tds(enumerate_groups(36), CAPS)
    assert report("5", rep.passed, f"{rep.instances} instances"), rep.failures[:3]


# -- criterion 6: the Mod(Z/n) instantiation --------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the strong parenthetical fails already at n = 2: Z/2 ⊕ Z/2 with "
    "F = 0 is self-0-split but not strongly (its End ring is a 2x2 matrix "
    "ring over F_2, not abelian); see the decisions ledger",
)
def test_criterion_6_all_four_predicates_as_stated():
    m = group(2, 2)
    prof_ok = is_self_rickart(m, strongly=True).is_yes
    report("6 (strong clause, as stated)", prof_ok, "Z/2 x Z/2, F = 0, strongly")
    assert prof_ok


def test_criterion_6_semis_corrected():
    rep = check_semis(enumerate_groups(30), CAPS, max_n=30)
    squarefree_ns = {e["n"] for e in rep.expected_failures}
    ok = rep.passed and squarefree_ns == {
        n for n in range(2, 31) if any(n % (p * p) == 0 for p in (2, 3, 5))
    }
    assert report(
        "6 (plain predicates + End-ring strong flags + converse witnesses)",
        ok,
        f"{rep.instances} instances, counterexamples at n in {sorted(squarefree_ns)}",
    ), rep.failures[:3]


# -- criterion 7: radical/socle splitting up to order 48 ----------------------------


def test_criterion_7_socrad():
    rep = check_socrad(enumerate_groups(48), CAPS)
    assert report("7", rep.passed, f"{rep.instances} instances"), rep.failures[:3]


# -- criterion 8: negative witnesses re-verify ----------------------------------------


def test_criterion_8_negative_witnesses():
    v = is_self_rickart(group(4))
    ok = v.is_no and reverify(v)
    z2 = group(0, 0)
    w = strongly_no_witness_search(z2, trivial_subgroup(z2))
    ok &= w is not None
    if w is not None:
        from absplit.splitness import analysis_for

        props = analysis_for(z2).subgroup_props(w)
        ok &= props.is_summand and not props.is_fi
    assert report(
        "8",
        ok,
        "Z/4 counterexample re-verified; Z x Z coordinate summand witness re-verified",
    )


# -- criterion 9: core randomized suites -----------------------------------------------


def test_criterion_9_snf_1000():
    from absplit.intmat import freeze, mat_mul, snf
    from oracles import det

    rng = random.Random(1000003)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = freeze(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        dec = snf(a)
        assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.s
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        diag = dec.diagonal
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else (y == 0)
        assert all(d >= 0 for d in diag)
    assert report("9 (SNF, 1000 random matrices)", True)


def _random_group(rng):
    pool = [g for g in enumerate_groups(24) if g.order > 1]
    return rng.choice(pool)


def _random_hom(rng, m, n):
    from absplit.groups import Morphism, hom_group
    from absplit.intmat import freeze

    h = hom_group(m, n)
    f = Morphism(m, n, freeze([[0] * m.ngens for _ in range(n.ngens)]))
    for b, o in zip(h.basis, h.orders):
        c = rng.randint(0, (o - 1) if o else 4)
        f = add_hom(f, Morphism(m, n, tuple(tuple(c * x for x in row) for row in b.rows)))
    return f


def test_criterion_9_pullback_pushout_500():
    rng = random.Random(555000)
    for trial in range(500):
        a, b, c = _random_group(rng), _random_group(rng), _random_group(rng)
        if trial % 2 == 0:
            f = _random_hom(rng, a, c)
            g = _random_hom(rng, b, c)
            p, pa, pb = pullback(f, g)
            assert compose(f, pa) == compose(g, pb)
            t = _random_group(rng)
            u = _random_hom(rng, t, p)
            # ia∘s + ib∘t determines s and t (the injections of A ⊕ B are
            # jointly monic), so this one equation is pa∘u = x and pb∘u = y
            _, (ia, ib), _ = biproduct([a, b])
            got = solve_compose_left(
                add_hom(compose(ia, pa), compose(ib, pb)),
                add_hom(compose(ia, compose(pa, u)), compose(ib, compose(pb, u))),
            )
            assert got == u  # existence and uniqueness of the mediating map
        else:
            f = _random_hom(rng, c, a)
            g = _random_hom(rng, c, b)
            q, qa, qb = pushout(f, g)
            assert compose(qa, f) == compose(qb, g)
            t = _random_group(rng)
            u = _random_hom(rng, q, t)
            # s∘pr_a + t∘pr_b determines s and t (the projections of A ⊕ B
            # are jointly epic), so this one equation is u∘qa = x and u∘qb = y
            _, _, (pr_a, pr_b) = biproduct([a, b])
            got = solve_compose_right(
                add_hom(compose(qa, pr_a), compose(qb, pr_b)),
                add_hom(compose(compose(u, qa), pr_a), compose(compose(u, qb), pr_b)),
            )
            assert got == u  # existence and uniqueness of the mediating map
    assert report("9 (pullback/pushout universal properties, 500 spans)", True)


def test_criterion_9_section_vs_exhaustive():
    rng = random.Random(991)
    checked = 0
    while checked < 150:
        m, n = _random_group(rng), _random_group(rng)
        f = _random_hom(rng, m, n)
        total = hom_count(n, m)
        if total is None or total > 10**4:
            continue
        checked += 1
        wit = section_witness(f)
        brute = next(
            (r for r in iter_hom(n, m) if compose(r, f) == identity_hom(m)), None
        )
        assert (wit is None) == (brute is None)
    assert report("9 (section decision vs exhaustive Hom search)", True, f"{checked} morphisms")


# -- criterion 10: determinism -------------------------------------------------------------


def _strip_timing(text):
    doc = json.loads(text)

    def go(d):
        if isinstance(d, dict):
            return {k: go(v) for k, v in d.items() if k != "elapsed_s"}
        if isinstance(d, list):
            return [go(x) for x in d]
        return d

    return json.dumps(go(doc), sort_keys=True, indent=2)


def test_criterion_10_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["verify", "--max-order", "24", "--out", str(f1)])
    code2 = cli_main(["verify", "--max-order", "24", "--out", str(f2)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0
    s1, s2 = _strip_timing(f1.read_text()), _strip_timing(f2.read_text())
    ok &= s1 == s2
    assert report("10", ok, "two verify runs byte-identical apart from timing"), (
        code1,
        code2,
    )


def test_criterion_10_cold_process_determinism():
    # per-group memos (analyses, End rings) live for the whole process, so a
    # warm in-process run must agree with fresh interpreters
    import absplit
    from absplit.harness import run_verification

    env = dict(os.environ)
    src = str(Path(absplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "absplit.cli", "verify", "--max-order", "12", "--json"]
    cold = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        cold.append(_strip_timing(proc.stdout))
    warm = _strip_timing(json.dumps(run_verification(12)))
    ok = cold[0] == cold[1] == warm
    assert report("10", ok, "two cold verify processes and a warm run byte-identical")


# SHA-256 of each report below with every elapsed_s removed, recorded on the
# engine before the primal and dual sides shared one implementation; a
# refactor must leave every one of them unchanged, and a change that alters
# a report on purpose records the new digest here
GOLDEN_DIGESTS = {
    "verify": "7ca34fa24f52ca1038b4e39016dcd8916def4fd52c8b8304d2ca5d57420ff22e",
    "examples": "3f6021471a6579f7de12208df8a7e0fbb43d0520a23b0771f3e58ef42320575e",
    "classify 2,4": "6aeaff021fbbf9a5731d2fdfb87148127be4d6ec09099876454d56e98c6e73f3",
    "classify 2,2,2": "c8731695e470bf74ddea4ae31b4d613c514874e83d7de2d0ce216b4eba903f31",
    "classify 4,0": "033dc61670468d88875858642841fbd64e2da6b1a3fcb8e9272a12ce35feb894",
    "classify 2,4,0": "f775b257c572a8e12c1c64bc9957f96b89b4be127ffc42bf7e60343b90497b1b",
    "classify 2,4,0 --preradical torsion": "f5ff56854b9396dbf2c42d4dac05fe59f152ff0a977c81c656514d2edb4aef13",
    "theorem internals": "9811b2fb7045eca3272a675e619b4305f64c571a2c502b93a20e89c7b38f2f88",
}

_GOLDEN_CLASSIFY = (
    ("2,4",),
    ("2,2,2",),
    ("4,0",),
    ("2,4,0",),
    ("2,4,0", "--preradical", "torsion"),
)


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _theorem_internals(m):
    """Every theorem-mode verdict on M, with its trace and counterexample,
    over the fully invariant subgroups of a finite M, or over the
    preradical-generated ones when M is infinite."""
    from absplit.preradicals import evaluate, parse_preradical
    from absplit.splitness import analysis_for, self_split_profile_theorem
    from absplit.subgroups import full_subgroup

    if m.is_finite:
        subs = analysis_for(m).fi_subgroups(CAPS.subgroup_cap)
    else:
        names = ("torsion", "socle", "radical", "divisible", "mul:2", "ntorsion:2", "ppart:2")
        found = {}
        for s in (trivial_subgroup(m), *(evaluate(parse_preradical(n), m) for n in names),
                  full_subgroup(m)):
            found.setdefault(s.canonical, s)
        subs = list(found.values())
    out = []
    for f in subs:
        for key, v in self_split_profile_theorem(m, f, CAPS).items():
            ce = v.counterexample
            out.append({
                "group": str(m), "f": [list(r) for r in f.canonical], "variant": key,
                "answer": v.answer, "trace": list(v.trace),
                "counterexample": None if ce is None else {
                    "g": [list(r) for r in ce.g.rows],
                    "subgroup": [list(r) for r in ce.subgroup.canonical],
                    "kind": ce.kind,
                },
            })
    return out


def _golden_reports(capsys):
    def cli_doc(*argv):
        code = cli_main(list(argv))
        out, err = capsys.readouterr()
        return {"argv": list(argv), "code": code, "stderr": err,
                "doc": json.loads(_strip_timing(out))}

    docs = {
        "verify": cli_doc("verify", "--max-order", "16", "--json"),
        "examples": cli_doc("examples", "--json"),
    }
    for argv in _GOLDEN_CLASSIFY:
        docs["classify " + " ".join(argv)] = cli_doc("classify", *argv, "--json")
    groups = list(enumerate_groups(16)) + [group(4, 0), group(2, 4, 0), group(0, 0)]
    docs["theorem internals"] = [row for m in groups for row in _theorem_internals(m)]
    return {name: _digest(doc) for name, doc in docs.items()}


def test_criterion_10_golden_reports(capsys):
    digests = _golden_reports(capsys)
    assert report("10", digests == GOLDEN_DIGESTS, "reports match their recorded digests"), digests
