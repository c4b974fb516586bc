"""Corpus enumeration and law-by-law verification with machine-readable reports.

Every check walks finite abelian groups up to a configurable order bound,
exercises a splitness law in both brute-force and reduction modes, and
reports instance counts, failures, and deterministic skips.  Expected-failure
instances (counterexample patterns) are first class: the harness asserts that
they fail, guarding against a bug that silently makes everything split.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from . import __version__
from .groups import (
    FgAbGroup,
    biproduct,
    format_group,
    group,
    hom_count,
)
from .intmat import is_squarefree, prime_factors
from .preradicals import Preradical, evaluate, ntorsion, ppart, socle, torsion
from .splitness import (
    Caps,
    YES,
    SplitVerdict,
    analysis_for,
    end_ring,
    end_ring_abelian_closed_form,
    has_sip_summands_containing,
    has_ssp_summands_contained_in,
    is_abelian_ring,
    is_dual_M_F_split,
    is_dual_self_F_split_theorem,
    is_M_F_split,
    is_self_F_split_theorem,
    self_split_profile,
    self_split_profile_theorem,
    strongly_no_witness_search,
)
from .subgroups import (
    Subgroup,
    all_subgroups,
    inclusion,
    intersect,
    is_fully_invariant,
    map_subgroup,
    preimage_subgroup,
    quotient,
    sub_from_gens,
    subgroup_group,
    sum_sub,
    trivial_subgroup,
)

PROFILE_KEYS = ("primal_plain", "primal_strong", "dual_plain", "dual_strong")


# ---------------------------------------------------------------------------
# corpus


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts descending, deterministic order."""
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, biggest: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, biggest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def groups_of_order(n: int) -> list[FgAbGroup]:
    """One group per isomorphism class of order n, canonical factors."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [group()]
    primes = prime_factors(n)
    choices: list[list[tuple[int, ...]]] = [
        [tuple(p**e for e in part) for part in partitions(exp)]
        for p, exp in sorted(primes.items())
    ]
    out = []
    for combo in itertools.product(*choices):
        k = max(len(c) for c in combo)
        # align largest prime powers to build the divisibility chain
        factors = []
        for pos in range(k):
            d = 1
            for c in combo:
                if pos < len(c):
                    d *= c[pos]
            factors.append(d)
        factors.reverse()
        out.append(FgAbGroup(tuple(factors)))
    return sorted(out, key=lambda g: g.factors)


@dataclass(frozen=True)
class Corpus:
    max_order: int
    groups: tuple[FgAbGroup, ...]

    def __iter__(self):
        return iter(self.groups)


def enumerate_groups(max_order: int) -> Corpus:
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    gs: list[FgAbGroup] = []
    for n in range(1, max_order + 1):
        gs.extend(groups_of_order(n))
    return Corpus(max_order, tuple(sorted(gs, key=lambda g: (g.order, g.factors))))


# ---------------------------------------------------------------------------
# reports


@dataclass
class TheoremReport:
    theorem: str
    instances: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    expected_failures: list = field(default_factory=list)
    expected_failure_misses: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures and not self.expected_failure_misses

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "failures": self.failures,
            "skipped": self.skipped,
            "expected_failures": self.expected_failures,
            "expected_failure_misses": self.expected_failure_misses,
            "notes": self.notes,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _gname(g: FgAbGroup) -> str:
    return format_group(g)


def _fname(s: Subgroup) -> str:
    return str(s)


# profile caches shared across checks (results are pure functions of the key)
_PROFILE_CACHE: dict = {}
_MF_CACHE: dict = {}


def cached_profile(m: FgAbGroup, f_sub: Subgroup, budget: int) -> dict[str, SplitVerdict]:
    key = (m.factors, f_sub.canonical, budget)
    prof = _PROFILE_CACHE.get(key)
    if prof is None:
        prof = self_split_profile(m, f_sub, budget)
        _PROFILE_CACHE[key] = prof
    return prof


def cached_mf_split(
    m: FgAbGroup, carrier: FgAbGroup, f_sub: Subgroup, strongly: bool, dual: bool, budget: int
) -> SplitVerdict:
    if m == carrier:
        prof = cached_profile(m, f_sub, budget)
        return prof[("dual_" if dual else "primal_") + ("strong" if strongly else "plain")]
    key = (m.factors, carrier.factors, f_sub.canonical, strongly, dual, budget)
    v = _MF_CACHE.get(key)
    if v is None:
        if dual:
            v = is_dual_M_F_split(carrier, m, f_sub, strongly, budget)
        else:
            v = is_M_F_split(m, carrier, f_sub, strongly, budget)
        _MF_CACHE[key] = v
    return v


def _fi_subgroups(m: FgAbGroup, caps: Caps) -> list[Subgroup]:
    analysis = analysis_for(m)
    return analysis.fi_subgroups(caps.subgroup_cap)


def _group_feasible(m: FgAbGroup, caps: Caps, report: TheoremReport) -> bool:
    order = m.order
    if order is None or order > caps.subgroup_cap:
        report.skipped.append(
            {"group": _gname(m), "reason": f"order exceeds subgroup cap {caps.subgroup_cap}"}
        )
        return False
    total = hom_count(m, m)
    if total is not None and total > caps.hom_budget:
        report.skipped.append(
            {"group": _gname(m), "reason": f"|End| = {total} exceeds hom budget {caps.hom_budget}"}
        )
        return False
    return True


# ---------------------------------------------------------------------------
# the key equivalence: brute force against the summand+Rickart reduction


def check_tkey(corpus: Corpus, caps: Caps = Caps()) -> TheoremReport:
    """Brute-force verdict must equal theorem-mode verdict for all four
    predicate variants, on every group and every fully invariant subgroup."""
    rep = TheoremReport("tkey")
    t0 = time.time()
    for m in corpus:
        if not _group_feasible(m, caps, rep):
            continue
        group_start = time.time()
        for f in _fi_subgroups(m, caps):
            if (
                caps.per_group_timeout_s
                and time.time() - group_start > caps.per_group_timeout_s
            ):
                rep.skipped.append(
                    {"group": _gname(m), "f": _fname(f), "reason": "per-group timeout"}
                )
                continue
            brute = cached_profile(m, f, caps.hom_budget)
            theorem = self_split_profile_theorem(m, f, caps)
            for k in PROFILE_KEYS:
                rep.instances += 1
                bv, tv = brute[k], theorem[k]
                if bv.is_unknown:
                    rep.skipped.append(
                        {"group": _gname(m), "f": _fname(f), "variant": k, "reason": bv.reason}
                    )
                    continue
                if bv.answer != tv.answer:
                    rep.failures.append(
                        {
                            "group": _gname(m),
                            "f": _fname(f),
                            "variant": k,
                            "brute": bv.answer,
                            "theorem": tv.answer,
                        }
                    )
    rep.elapsed_s = time.time() - t0
    return rep


def check_trel(corpus: Corpus, caps: Caps = Caps()) -> TheoremReport:
    """Strong splitness == plain splitness + every summand containing F
    (contained in F, dually) fully invariant, checked by direct enumeration."""
    rep = TheoremReport("trel")
    t0 = time.time()
    for m in corpus:
        if not _group_feasible(m, caps, rep):
            continue
        analysis = analysis_for(m)
        subs = analysis.subgroups(caps.subgroup_cap)
        for f in _fi_subgroups(m, caps):
            brute = cached_profile(m, f, caps.hom_budget)
            if any(brute[k].is_unknown for k in PROFILE_KEYS):
                rep.skipped.append({"group": _gname(m), "f": _fname(f), "reason": "budget"})
                continue
            over_fi = all(
                analysis.subgroup_props(s).is_fi
                for s in subs
                if s.contains_subgroup(f) and analysis.subgroup_props(s).is_summand
            )
            under_fi = all(
                analysis.subgroup_props(s).is_fi
                for s in subs
                if f.contains_subgroup(s) and analysis.subgroup_props(s).is_summand
            )
            expected_strong = brute["primal_plain"].is_yes and over_fi
            expected_dual_strong = brute["dual_plain"].is_yes and under_fi
            rep.instances += 2
            if brute["primal_strong"].is_yes != expected_strong:
                rep.failures.append(
                    {
                        "group": _gname(m), "f": _fname(f), "variant": "primal",
                        "strong": brute["primal_strong"].answer,
                        "plain_and_summands_fi": expected_strong,
                    }
                )
            if brute["dual_strong"].is_yes != expected_dual_strong:
                rep.failures.append(
                    {
                        "group": _gname(m), "f": _fname(f), "variant": "dual",
                        "strong": brute["dual_strong"].answer,
                        "plain_and_summands_fi": expected_dual_strong,
                    }
                )
            # the two theorem routes (end-ring and summand enumeration) are
            # cross-validated inside theorem mode; a disagreement raises
            is_self_F_split_theorem(m, f, True, caps)
            is_dual_self_F_split_theorem(m, f, True, caps)
    rep.elapsed_s = time.time() - t0
    return rep


def check_tendab(corpus: Corpus, caps: Caps = Caps()) -> TheoremReport:
    """Strong splitness == plain splitness + abelian endomorphism ring of the
    complement (of F itself, dually), with End rings fully enumerated."""
    rep = TheoremReport("tendab")
    t0 = time.time()
    for m in corpus:
        if not _group_feasible(m, caps, rep):
            continue
        for f in _fi_subgroups(m, caps):
            brute = cached_profile(m, f, caps.hom_budget)
            if any(brute[k].is_unknown for k in PROFILE_KEYS):
                rep.skipped.append({"group": _gname(m), "f": _fname(f), "reason": "budget"})
                continue
            cgrp, _ = quotient(m, f)
            fgrp = subgroup_group(f)
            view_c = end_ring(cgrp, caps.endring_cap)
            view_f = end_ring(fgrp, caps.endring_cap)
            if view_c is None or view_f is None:
                rep.skipped.append(
                    {"group": _gname(m), "f": _fname(f), "reason": "end ring cap"}
                )
                continue
            expected_strong = brute["primal_plain"].is_yes and is_abelian_ring(view_c)
            expected_dual_strong = brute["dual_plain"].is_yes and is_abelian_ring(view_f)
            rep.instances += 2
            if brute["primal_strong"].is_yes != expected_strong:
                rep.failures.append(
                    {"group": _gname(m), "f": _fname(f), "variant": "primal",
                     "strong": brute["primal_strong"].answer,
                     "plain_and_end_abelian": expected_strong}
                )
            if brute["dual_strong"].is_yes != expected_dual_strong:
                rep.failures.append(
                    {"group": _gname(m), "f": _fname(f), "variant": "dual",
                     "strong": brute["dual_strong"].answer,
                     "plain_and_end_abelian": expected_dual_strong}
                )
    rep.elapsed_s = time.time() - t0
    return rep


def check_csip(corpus: Corpus, caps: Caps = Caps()) -> TheoremReport:
    """Self-F-split groups have SIP for summands containing F (fully
    invariant summands in the strong case); dually SSP below F."""
    rep = TheoremReport("csip")
    t0 = time.time()
    for m in corpus:
        if not _group_feasible(m, caps, rep):
            continue
        for f in _fi_subgroups(m, caps):
            brute = cached_profile(m, f, caps.hom_budget)
            if any(brute[k].is_unknown for k in PROFILE_KEYS):
                rep.skipped.append({"group": _gname(m), "f": _fname(f), "reason": "budget"})
                continue
            if brute["primal_plain"].is_yes:
                rep.instances += 1
                if not has_sip_summands_containing(m, f, caps.subgroup_cap):
                    rep.failures.append(
                        {"group": _gname(m), "f": _fname(f), "property": "SIP"}
                    )
            if brute["primal_strong"].is_yes:
                rep.instances += 1
                if not has_sip_summands_containing(
                    m, f, caps.subgroup_cap, fully_invariant_only=True
                ):
                    rep.failures.append(
                        {"group": _gname(m), "f": _fname(f), "property": "SIP-fi"}
                    )
            if brute["dual_plain"].is_yes:
                rep.instances += 1
                if not has_ssp_summands_contained_in(m, f, caps.subgroup_cap):
                    rep.failures.append(
                        {"group": _gname(m), "f": _fname(f), "property": "SSP"}
                    )
            if brute["dual_strong"].is_yes:
                rep.instances += 1
                if not has_ssp_summands_contained_in(
                    m, f, caps.subgroup_cap, fully_invariant_only=True
                ):
                    rep.failures.append(
                        {"group": _gname(m), "f": _fname(f), "property": "SSP-fi"}
                    )
    rep.elapsed_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# direct sum decompositions


def _decompositions(m: FgAbGroup, caps: Caps) -> list[tuple[Subgroup, Subgroup]]:
    """Unordered complementary summand pairs (X, Y): X + Y = M, X ∩ Y = 0."""
    analysis = analysis_for(m)
    summands = analysis.summands(caps.subgroup_cap)
    order = m.order
    out = []
    for i, x in enumerate(summands):
        for y in summands[i:]:
            if x.order * y.order != order:
                continue
            if not sum_sub(x, y).is_full:
                continue
            if intersect(x, y).order != 1:
                continue
            out.append((x, y))
    return out


def _as_abstract(carrier: FgAbGroup, part: Subgroup, f: Subgroup):
    """(K, F∩part seen inside K) for a subgroup part <= carrier."""
    inc = inclusion(part)
    fk = preimage_subgroup(inc, intersect(f, part))
    return inc.dom, fk


def check_tds(
    corpus: Corpus, caps: Caps = Caps(), m_samples: Optional[Sequence[FgAbGroup]] = None
) -> TheoremReport:
    """For N = N1 ⊕ N2 with F fully invariant: N is (strongly) M-F-split iff
    each Nk is (strongly) M-(F∩Nk)-split; dually over the quotients N/Nk
    with (F+Nk)/Nk."""
    rep = TheoremReport("tds")
    t0 = time.time()
    for n_grp in corpus:
        if not _group_feasible(n_grp, caps, rep):
            continue
        decomps = _decompositions(n_grp, caps)
        if m_samples is not None:
            samples = list(m_samples)
        else:
            samples = [n_grp] + ([group(6)] if n_grp != group(6) else [])
        for f in _fi_subgroups(n_grp, caps):
            for x, y in decomps:
                parts = []
                ok = True
                for part in (x, y):
                    k_grp, fk = _as_abstract(n_grp, part, f)
                    if not is_fully_invariant(fk):
                        ok = False
                        break
                    parts.append((k_grp, fk))
                if not ok:
                    rep.skipped.append(
                        {"group": _gname(n_grp), "f": _fname(f),
                         "reason": "F∩Nk not fully invariant (hypothesis)"}
                    )
                    continue
                quots = []
                for part in (x, y):
                    q_grp, q = quotient(n_grp, part)
                    fbar = map_subgroup(q, f)
                    if not is_fully_invariant(fbar):
                        ok = False
                        break
                    quots.append((q_grp, fbar))
                if not ok:
                    rep.skipped.append(
                        {"group": _gname(n_grp), "f": _fname(f),
                         "reason": "(F+Nk)/Nk not fully invariant (hypothesis)"}
                    )
                    continue
                for m in samples:
                    for strongly in (False, True):
                        whole = cached_mf_split(m, n_grp, f, strongly, False, caps.hom_budget)
                        pieces = [
                            cached_mf_split(m, kg, fk, strongly, False, caps.hom_budget)
                            for kg, fk in parts
                        ]
                        dual_whole = cached_mf_split(m, n_grp, f, strongly, True, caps.hom_budget)
                        dual_pieces = [
                            cached_mf_split(m, qg, fb, strongly, True, caps.hom_budget)
                            for qg, fb in quots
                        ]
                        if whole.is_unknown or any(p.is_unknown for p in pieces):
                            rep.skipped.append(
                                {"group": _gname(n_grp), "f": _fname(f), "m": _gname(m),
                                 "reason": "budget"}
                            )
                        else:
                            rep.instances += 1
                            lhs = whole.is_yes
                            rhs = all(p.is_yes for p in pieces)
                            if lhs != rhs:
                                rep.failures.append(
                                    {"group": _gname(n_grp), "f": _fname(f),
                                     "m": _gname(m), "strongly": strongly,
                                     "decomposition": [_fname(x), _fname(y)],
                                     "whole": whole.answer,
                                     "parts": [p.answer for p in pieces]}
                                )
                        if dual_whole.is_unknown or any(p.is_unknown for p in dual_pieces):
                            rep.skipped.append(
                                {"group": _gname(n_grp), "f": _fname(f), "m": _gname(m),
                                 "reason": "budget (dual)"}
                            )
                        else:
                            rep.instances += 1
                            lhs = dual_whole.is_yes
                            rhs = all(p.is_yes for p in dual_pieces)
                            if lhs != rhs:
                                rep.failures.append(
                                    {"group": _gname(n_grp), "f": _fname(f),
                                     "m": _gname(m), "strongly": strongly, "dual": True,
                                     "decomposition": [_fname(x), _fname(y)],
                                     "whole": dual_whole.answer,
                                     "parts": [p.answer for p in dual_pieces]}
                                )
    rep.elapsed_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# coproducts with vanishing Hom


def _fi_biproduct(parts: Sequence[FgAbGroup], f_parts: Sequence[Subgroup]):
    """(G, F) with G = ⊕ parts and F = ⊕ f_parts inside it."""
    g, injs, _ = biproduct(list(parts))
    gens = []
    for inj, fp in zip(injs, f_parts):
        for row in fp.canonical:
            gens.append(inj(row))
    return g, sub_from_gens(g, gens)


def check_thomzero(corpus: Corpus, caps: Caps = Caps(), pair_limit: int = 40) -> TheoremReport:
    """Families with pairwise-zero Homs: the biproduct is self-(⊕Fk)-split
    iff every part is self-Fk-split; the strong version holds iff every part
    is strongly split and Hom(Ck, Cl) = 0 for k != l.  Counterexample
    patterns with nonzero Homs are asserted to genuinely fail."""
    rep = TheoremReport("thomzero")
    t0 = time.time()
    finite = [g for g in corpus if g.order and g.order > 1]
    pairs = []
    for i, a in enumerate(finite):
        for b in finite[i:]:
            if gcd(a.order, b.order) == 1 and a.order * b.order <= corpus.max_order:
                pairs.append((a, b))
    pairs = pairs[:pair_limit]
    for a, b in pairs:
        fa_list = _fi_subgroups(a, caps)
        fb_list = _fi_subgroups(b, caps)
        for fa in fa_list:
            for fb in fb_list:
                g, f = _fi_biproduct([a, b], [fa, fb])
                if not is_fully_invariant(f):
                    rep.failures.append(
                        {"parts": [_gname(a), _gname(b)],
                         "reason": "⊕Fk not fully invariant despite zero Homs"}
                    )
                    continue
                whole = cached_profile(g, f, caps.hom_budget)
                pa = cached_profile(a, fa, caps.hom_budget)
                pb = cached_profile(b, fb, caps.hom_budget)
                if any(v.is_unknown for v in (whole["primal_plain"], pa["primal_plain"], pb["primal_plain"])):
                    rep.skipped.append({"parts": [_gname(a), _gname(b)], "reason": "budget"})
                    continue
                rep.instances += 1
                if whole["primal_plain"].is_yes != (
                    pa["primal_plain"].is_yes and pb["primal_plain"].is_yes
                ):
                    rep.failures.append(
                        {"parts": [_gname(a), _gname(b)], "f": [_fname(fa), _fname(fb)],
                         "variant": "plain"}
                    )
                # strong variant: include the Hom(Ck, Cl) = 0 condition
                ca, _ = quotient(a, fa)
                cb, _ = quotient(b, fb)
                homzero_c = hom_count(ca, cb) == 1 and hom_count(cb, ca) == 1
                rep.instances += 1
                expected = (
                    pa["primal_strong"].is_yes
                    and pb["primal_strong"].is_yes
                    and homzero_c
                )
                if whole["primal_strong"].is_yes != expected:
                    rep.failures.append(
                        {"parts": [_gname(a), _gname(b)], "f": [_fname(fa), _fname(fb)],
                         "variant": "strong"}
                    )
    # expected failure 1: strong equivalence without the Hom(C) condition
    z2 = group(2)
    g, f = _fi_biproduct([z2, z2], [trivial_subgroup(z2), trivial_subgroup(z2)])
    parts_strong = cached_profile(z2, trivial_subgroup(z2), caps.hom_budget)["primal_strong"]
    whole_strong = cached_profile(g, f, caps.hom_budget)["primal_strong"]
    if parts_strong.is_yes and whole_strong.is_no and hom_count(z2, z2) != 1:
        rep.expected_failures.append(
            {"pattern": "Z/2 ⊕ Z/2 with F = 0",
             "detail": "parts strongly split, biproduct not (Hom between complements nonzero)"}
        )
    else:
        rep.expected_failure_misses.append({"pattern": "Z/2 ⊕ Z/2 with F = 0"})
    # expected failure 2: finite transposition of the mixed pattern — the
    # biproduct Z/3 ⊕ Z/8 ⊕ Z/2 is not split over its 3-part
    m1 = group(3, 8)
    f1 = evaluate(ppart(3), m1)
    m2 = group(2)
    g2, f2 = _fi_biproduct([m1, m2], [f1, trivial_subgroup(m2)])
    v = cached_profile(g2, f2, caps.hom_budget)["primal_plain"]
    if v.is_no and hom_count(m1, m2) != 1:
        rep.expected_failures.append(
            {"pattern": "(Z/3 x Z/8, 3-part) ⊕ (Z/2, 0)",
             "detail": "biproduct not self-(F1⊕F2)-split; Hom(M1, M2) nonzero"}
        )
    else:
        rep.expected_failure_misses.append({"pattern": "(Z/3 x Z/8, 3-part) ⊕ (Z/2, 0)"})
    # expected failure 3: the free-part pattern, theorem mode — parts
    # strongly split, biproduct not even plainly split
    g1 = group(3, 0)
    f1 = evaluate(torsion(), g1)
    part1 = is_self_F_split_theorem(g1, f1, True, caps)
    g3, f3 = _fi_biproduct([g1, group(2)], [f1, trivial_subgroup(group(2))])
    whole3 = is_self_F_split_theorem(g3, f3, False, caps)
    if part1.is_yes and whole3.is_no and hom_count(g1, group(2)) != 1:
        rep.expected_failures.append(
            {"pattern": "(Z/3 x Z, torsion) ⊕ (Z/2, 0)",
             "detail": "theorem mode: parts strongly split, biproduct not self-F-split"}
        )
    else:
        rep.expected_failure_misses.append({"pattern": "(Z/3 x Z, torsion) ⊕ (Z/2, 0)"})
    rep.elapsed_s = time.time() - t0
    return rep


def check_tdsprerad(
    corpus: Corpus,
    caps: Caps = Caps(),
    rads: Optional[Sequence[Preradical]] = None,
    sample_limit: int = 24,
) -> TheoremReport:
    """For preradicals r and M with SIP for (fully invariant) summands over
    r(M): N1 ⊕ N2 is (strongly) M-r(N1⊕N2)-split iff each Nk is (strongly)
    M-r(Nk)-split.  Also checks r(⊕Nk) = ⊕ r(Nk) coordinatewise."""
    rep = TheoremReport("tdsprerad")
    t0 = time.time()
    if rads is None:
        rads = [socle(), ppart(2), ntorsion(2)]
    finite = [g for g in corpus if g.order and g.order > 1][:8]
    m_pool = [g for g in corpus if g.order and g.order <= 12]
    count = 0
    for r in rads:
        for i, n1 in enumerate(finite):
            for n2 in finite[i:]:
                if count >= sample_limit:
                    break
                n, injs, _ = biproduct([n1, n2])
                if n.order > corpus.max_order:
                    continue
                count += 1
                rn = evaluate(r, n)
                parts_f = [evaluate(r, n1), evaluate(r, n2)]
                gens = []
                for inj, fp in zip(injs, parts_f):
                    for row in fp.canonical:
                        gens.append(inj(row))
                if sub_from_gens(n, gens).canonical != rn.canonical:
                    rep.failures.append(
                        {"r": r.name, "parts": [_gname(n1), _gname(n2)],
                         "reason": "r(⊕Nk) != ⊕ r(Nk)"}
                    )
                    continue
                for m in m_pool[:4]:
                    rm = evaluate(r, m)
                    for strongly in (False, True):
                        if not has_sip_summands_containing(
                            m, rm, caps.subgroup_cap, fully_invariant_only=strongly
                        ):
                            rep.skipped.append(
                                {"r": r.name, "m": _gname(m),
                                 "reason": "SIP hypothesis unmet", "strongly": strongly}
                            )
                            continue
                        whole = cached_mf_split(m, n, rn, strongly, False, caps.hom_budget)
                        p1 = cached_mf_split(m, n1, parts_f[0], strongly, False, caps.hom_budget)
                        p2 = cached_mf_split(m, n2, parts_f[1], strongly, False, caps.hom_budget)
                        if any(v.is_unknown for v in (whole, p1, p2)):
                            rep.skipped.append(
                                {"r": r.name, "m": _gname(m), "reason": "budget"}
                            )
                            continue
                        rep.instances += 1
                        if whole.is_yes != (p1.is_yes and p2.is_yes):
                            rep.failures.append(
                                {"r": r.name, "m": _gname(m),
                                 "parts": [_gname(n1), _gname(n2)],
                                 "strongly": strongly,
                                 "whole": whole.answer,
                                 "part_answers": [p1.answer, p2.answer]}
                            )
    rep.elapsed_s = time.time() - t0
    return rep


def check_semis(
    corpus: Corpus, caps: Caps = Caps(), max_n: int = 30
) -> TheoremReport:
    """Mod(Z/n) instantiation: n squarefree iff every group of exponent
    dividing n is self-F-split and dual self-F-split for every fully
    invariant F.  Strong flags are cross-checked against the End-ring
    criterion rather than asserted to hold outright (a group with a p-rank
    >= 2 complement is never strongly split over it, squarefree or not)."""
    rep = TheoremReport("semis")
    t0 = time.time()
    for n in range(1, max_n + 1):
        mods = [g for g in corpus if g.order and n % (g.exponent or 1) == 0]
        if is_squarefree(n) if n > 1 else True:
            for m in mods:
                if not _group_feasible(m, caps, rep):
                    continue
                for f in _fi_subgroups(m, caps):
                    prof = cached_profile(m, f, caps.hom_budget)
                    if any(prof[k].is_unknown for k in PROFILE_KEYS):
                        rep.skipped.append(
                            {"n": n, "group": _gname(m), "reason": "budget"}
                        )
                        continue
                    rep.instances += 1
                    if not (prof["primal_plain"].is_yes and prof["dual_plain"].is_yes):
                        rep.failures.append(
                            {"n": n, "group": _gname(m), "f": _fname(f),
                             "primal": prof["primal_plain"].answer,
                             "dual": prof["dual_plain"].answer}
                        )
                    cgrp, _ = quotient(m, f)
                    fgrp = subgroup_group(f)
                    want_strong = prof["primal_plain"].is_yes and end_ring_abelian_closed_form(cgrp)
                    want_dual_strong = prof["dual_plain"].is_yes and end_ring_abelian_closed_form(fgrp)
                    if prof["primal_strong"].is_yes != want_strong or (
                        prof["dual_strong"].is_yes != want_dual_strong
                    ):
                        rep.failures.append(
                            {"n": n, "group": _gname(m), "f": _fname(f),
                             "reason": "strong flag disagrees with End-ring criterion"}
                        )
        else:
            # non-squarefree: exhibit an explicit failing (group, F)
            p = next(p for p, e in prime_factors(n).items() if e >= 2)
            bad = group(p * p)
            v = cached_profile(bad, trivial_subgroup(bad), caps.hom_budget)["primal_plain"]
            rep.instances += 1
            if v.is_no:
                rep.expected_failures.append(
                    {"n": n, "witness_group": _gname(bad), "f": "<0>",
                     "detail": "not self-Rickart"}
                )
            else:
                rep.expected_failure_misses.append({"n": n, "witness_group": _gname(bad)})
    rep.elapsed_s = time.time() - t0
    return rep


def check_socrad(corpus: Corpus, caps: Caps = Caps()) -> TheoremReport:
    """Radical/socle splitting: M self-Rad(M)-split iff Rad(M) = 0 and M
    self-Rickart (strongly likewise); M dual self-Soc(M)-split iff M is
    semisimple; dual strongly iff additionally End(M) is abelian."""
    from .preradicals import radical as rad_pr, socle as soc_pr

    rep = TheoremReport("socrad")
    t0 = time.time()
    for m in corpus:
        if not _group_feasible(m, caps, rep):
            continue
        rad = evaluate(rad_pr(), m)
        soc = evaluate(soc_pr(), m)
        prof_rad = cached_profile(m, rad, caps.hom_budget)
        prof_rick = cached_profile(m, trivial_subgroup(m), caps.hom_budget)
        prof_soc = cached_profile(m, soc, caps.hom_budget)
        if any(
            prof[k].is_unknown
            for prof in (prof_rad, prof_rick, prof_soc)
            for k in PROFILE_KEYS
        ):
            rep.skipped.append({"group": _gname(m), "reason": "budget"})
            continue
        rad_zero = rad.order == 1
        semisimple = soc.is_full
        rep.instances += 4
        if prof_rad["primal_plain"].is_yes != (rad_zero and prof_rick["primal_plain"].is_yes):
            rep.failures.append({"group": _gname(m), "variant": "rad plain"})
        if prof_rad["primal_strong"].is_yes != (rad_zero and prof_rick["primal_strong"].is_yes):
            rep.failures.append({"group": _gname(m), "variant": "rad strong"})
        if prof_soc["dual_plain"].is_yes != semisimple:
            rep.failures.append({"group": _gname(m), "variant": "soc dual plain"})
        if prof_soc["dual_strong"].is_yes != (
            semisimple and end_ring_abelian_closed_form(m)
        ):
            rep.failures.append({"group": _gname(m), "variant": "soc dual strong"})
    rep.elapsed_s = time.time() - t0
    return rep


CHECKS = {
    "tkey": check_tkey,
    "trel": check_trel,
    "tendab": check_tendab,
    "csip": check_csip,
    "tds": check_tds,
    "thomzero": check_thomzero,
    "tdsprerad": check_tdsprerad,
    "semis": check_semis,
    "socrad": check_socrad,
}


# ---------------------------------------------------------------------------
# classification tables


def _verdict_cell(v: SplitVerdict) -> str:
    return v.answer


def classify_rows(m: FgAbGroup, caps: Caps = Caps()) -> tuple[list[dict], list[str]]:
    """Fully-invariant-subgroup table with splitness flags.

    Finite groups within caps get the complete fully invariant lattice with
    brute-force + theorem verdicts; otherwise the table covers the
    preradical-generated fully invariant subgroups, theorem mode only.
    Returns (rows, notes)."""
    from .preradicals import divisible, radical as rad_pr, socle as soc_pr
    from .splitness import decide_self_profile

    notes: list[str] = []
    rows: list[dict] = []
    order = m.order
    if order is not None and order <= caps.subgroup_cap:
        subs = _fi_subgroups(m, caps)
    else:
        notes.append(
            "group outside enumeration caps: table restricted to "
            "preradical-generated fully invariant subgroups, theorem mode"
        )
        cands: dict = {}
        named = [
            ("0", trivial_subgroup(m)),
            ("torsion", evaluate(torsion(), m)),
            ("socle", evaluate(soc_pr(), m)),
            ("radical", evaluate(rad_pr(), m)),
            ("divisible", evaluate(divisible(), m)),
        ]
        for p in sorted({p for d in m.torsion_factors for p in prime_factors(d)}):
            named.append((f"ppart:{p}", evaluate(ppart(p), m)))
        from .subgroups import full_subgroup

        named.append(("all", full_subgroup(m)))
        for name, s in named:
            if s.canonical in cands:
                cands[s.canonical]["names"].append(name)
            else:
                cands[s.canonical] = {"sub": s, "names": [name]}
        subs = [c["sub"] for c in cands.values()]
        name_map = {c["sub"].canonical: c["names"] for c in cands.values()}
    for s in subs:
        prof = decide_self_profile(m, s, caps)
        analysis = analysis_for(m)
        props = analysis.subgroup_props(s)
        gens = [tuple(m.reduce(r)) for r in s.canonical]
        gens = [g for g in gens if any(g)]
        row = {
            "generators": [list(g) for g in gens],
            "order": s.order if s.order is not None else "infinite",
            "fully_invariant": True,
            "is_summand": props.is_summand,
            "self_F_split": _verdict_cell(prof["primal_plain"]),
            "strongly": _verdict_cell(prof["primal_strong"]),
            "dual_self_F_split": _verdict_cell(prof["dual_plain"]),
            "dual_strongly": _verdict_cell(prof["dual_strong"]),
            "deciding_mode": prof["primal_plain"].mode,
        }
        if order is None or order > caps.subgroup_cap:
            row["preradicals"] = name_map[s.canonical]
        rows.append(row)
    return rows, notes


def preradical_row(m: FgAbGroup, name: str, caps: Caps = Caps()) -> tuple[list[dict], list[str]]:
    """Single classification row for F = r(M) given a preradical name."""
    from .preradicals import parse_preradical
    from .splitness import decide_self_profile

    r = parse_preradical(name)
    f = evaluate(r, m)
    prof = decide_self_profile(m, f, caps)
    analysis = analysis_for(m)
    props = analysis.subgroup_props(f)
    gens = [tuple(m.reduce(row)) for row in f.canonical]
    gens = [g for g in gens if any(g)]
    row = {
        "generators": [list(g) for g in gens],
        "order": f.order if f.order is not None else "infinite",
        "fully_invariant": True,
        "is_summand": props.is_summand,
        "self_F_split": prof["primal_plain"].answer,
        "strongly": prof["primal_strong"].answer,
        "dual_self_F_split": prof["dual_plain"].answer,
        "dual_strongly": prof["dual_strong"].answer,
        "deciding_mode": prof["primal_plain"].mode,
        "preradicals": [r.name],
    }
    return [row], []


# ---------------------------------------------------------------------------
# worked examples


def _self_table(g: FgAbGroup, caps: Caps) -> dict[int, dict]:
    subs = _fi_subgroups(g, caps)
    table = {}
    for s in subs:
        prof = cached_profile(g, s, caps.hom_budget)
        tprof = self_split_profile_theorem(g, s, caps)
        for k in PROFILE_KEYS:
            if not prof[k].is_unknown and prof[k].answer != tprof[k].answer:
                raise AssertionError(
                    f"mode disagreement on {g} F={s}: {k}"
                )
        table[s.order] = {k: prof[k].answer for k in PROFILE_KEYS}
    return table


def cyclic_pq_classification(p: int, q: int, caps: Caps = Caps()) -> dict:
    """Classification of Z/p² ⊕ Z/q with all six subgroups.

    Expected pattern (orders vs. splitness):
      primal strongly-yes exactly at {p², p²q};
      dual strongly-yes exactly at {1, q} — the two edge cells of the
      historically circulated table ({q, p²q} with 1 in the No set) fail
      brute-force re-verification and are listed under `discrepancies`.
    """
    from .intmat import prime_factors as pf

    if p == q or pf(p) != {p: 1} or pf(q) != {q: 1}:
        raise ValueError("p and q must be distinct primes")
    g = group(p * p, q)
    subs = all_subgroups(g, caps.subgroup_cap)
    if len(subs) != 6:
        raise AssertionError(f"expected 6 subgroups of Z/{p*p} x Z/{q}, got {len(subs)}")
    if not all(is_fully_invariant(s) for s in subs):
        raise AssertionError("all subgroups of a cyclic group are fully invariant")
    table = _self_table(g, caps)
    orders = sorted(table)
    primal_yes = sorted(o for o in orders if table[o]["primal_plain"] == YES)
    primal_strong_yes = sorted(o for o in orders if table[o]["primal_strong"] == YES)
    dual_yes = sorted(o for o in orders if table[o]["dual_plain"] == YES)
    dual_strong_yes = sorted(o for o in orders if table[o]["dual_strong"] == YES)
    stated_primal = sorted([p * p, p * p * q])
    stated_dual = sorted([q, p * p * q])
    engine_dual = sorted([1, q])
    discrepancies = []
    if dual_yes != stated_dual:
        for o in sorted(set(stated_dual) ^ set(dual_yes)):
            discrepancies.append(
                {"order": o, "stated_dual": o in stated_dual, "engine_dual": o in dual_yes}
            )
    return {
        "p": p,
        "q": q,
        "group": _gname(g),
        "subgroup_orders": orders,
        "table": {str(o): table[o] for o in orders},
        "primal_yes_orders": primal_yes,
        "primal_strongly_yes_orders": primal_strong_yes,
        "dual_yes_orders": dual_yes,
        "dual_strongly_yes_orders": dual_strong_yes,
        "matches": {
            "primal_stated": primal_yes == stated_primal
            and primal_strong_yes == stated_primal,
            "dual_engine": dual_yes == engine_dual and dual_strong_yes == engine_dual,
            "dual_stated": dual_yes == stated_dual,
        },
        "discrepancies": discrepancies,
    }


def torsion_split_samples(
    caps: Caps = Caps(), max_torsion_order: int = 16, max_rank: int = 2
) -> list[dict]:
    """Torsion-part splitting of finitely generated groups, theorem mode:
    G is always self-t(G)-split, and strongly iff the free rank is <= 1
    (trivially when the rank is 0).  Rank-2 samples must yield a bounded
    search witness; rank-1 samples must not (entry bound 1)."""
    out = []
    torsion_groups = [g for g in enumerate_groups(max_torsion_order)]
    for t_grp in torsion_groups:
        for rank in range(0, max_rank + 1):
            g = group(*(t_grp.factors + (0,) * rank))
            f = evaluate(torsion(), g)
            plain = is_self_F_split_theorem(g, f, False, caps)
            strong = is_self_F_split_theorem(g, f, True, caps)
            entry = {
                "group": _gname(g),
                "free_rank": rank,
                "torsion_order": t_grp.order,
                "self_split": plain.answer,
                "strongly": strong.answer,
            }
            if rank >= 1:
                wit = strongly_no_witness_search(g, f, entry_bound=1)
                entry["witness_found"] = wit is not None
            out.append(entry)
    return out


def worked_examples_report(
    caps: Caps = Caps(), pq_pairs: Sequence[tuple[int, int]] = ((2, 3), (3, 2), (2, 5))
) -> dict:
    tables = [cyclic_pq_classification(p, q, caps) for p, q in pq_pairs]
    samples = torsion_split_samples(caps)
    sample_ok = all(
        s["self_split"] == YES
        and (s["strongly"] == YES) == (s["free_rank"] <= 1)
        and s.get("witness_found", s["free_rank"] >= 2) == (s["free_rank"] >= 2)
        for s in samples
    )
    return {
        "engine_version": __version__,
        "caps": caps.to_dict(),
        "tables": tables,
        "torsion_samples": samples,
        "torsion_samples_ok": sample_ok,
        "passed": sample_ok
        and all(t["matches"]["primal_stated"] and t["matches"]["dual_engine"] for t in tables),
    }


def run_verification(
    max_order: int,
    theorems: Optional[Sequence[str]] = None,
    caps: Caps = Caps(),
    preradicals: Optional[Sequence[Preradical]] = None,
    with_examples: bool = False,
) -> dict:
    """Run the selected checks over the corpus; structured, deterministic
    report (timing fields aside)."""
    names = list(theorems) if theorems else list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(
            f"unknown theorem id(s) {unknown}; valid ids: {', '.join(sorted(CHECKS))}"
        )
    corpus = enumerate_groups(max_order)
    reports = []
    for n in names:
        if n == "tdsprerad" and preradicals:
            reports.append(check_tdsprerad(corpus, caps, rads=preradicals))
        else:
            reports.append(CHECKS[n](corpus, caps))
    examples = [worked_examples_report(caps)] if with_examples else []
    return {
        "engine_version": __version__,
        "caps": caps.to_dict(),
        "corpus_spec": {"max_order": max_order, "group_count": len(corpus.groups)},
        "theorems": [r.to_dict() for r in reports],
        "examples": examples,
        "passed": all(r.passed for r in reports)
        and all(e["passed"] for e in examples),
    }
