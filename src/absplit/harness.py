"""Corpus enumeration and law-by-law verification with machine-readable reports.

Every check walks finite abelian groups up to a configurable order bound,
exercises a splitness law in both brute-force and reduction modes, and
reports instance counts, failures, and deterministic skips.  Expected-failure
instances (counterexample patterns) are first class: the harness asserts that
they fail, guarding against a bug that silently makes everything split.
"""

from __future__ import annotations

import functools
import itertools
import time
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .groups import (
    FgAbGroup,
    biproduct,
    format_group,
    group,
    hom_count,
)
from .intmat import is_squarefree, prime_factors
from .preradicals import (
    Preradical,
    divisible,
    evaluate,
    ntorsion,
    parse_preradical,
    ppart,
    radical,
    socle,
    torsion,
)
from .splitness import (
    PROFILE_KEYS,
    Caps,
    YES,
    SplitVerdict,
    analysis_for,
    decide_self_profile,
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
    full_subgroup,
    inclusion,
    is_fully_invariant,
    map_subgroup,
    preimage_subgroup,
    quotient,
    sub_from_gens,
    subgroup_group,
    sum_sub,
    trivial_subgroup,
)


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


class Corpus:
    __slots__ = ("max_order", "groups")

    def __init__(self, max_order: int, groups: tuple[FgAbGroup, ...]):
        self.max_order = max_order
        self.groups = groups

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


class TheoremReport:
    __slots__ = (
        "theorem", "instances", "failures", "skipped", "expected_failures",
        "expected_failure_misses", "notes", "elapsed_s",
    )

    def __init__(
        self,
        theorem: str,
        instances: int = 0,
        failures: Optional[list] = None,
        skipped: Optional[list] = None,
        expected_failures: Optional[list] = None,
        expected_failure_misses: Optional[list] = None,
        notes: Optional[list] = None,
        elapsed_s: float = 0.0,
    ):
        # each list omitted is a new one, never shared between reports
        self.theorem = theorem
        self.instances = instances
        self.failures = [] if failures is None else failures
        self.skipped = [] if skipped is None else skipped
        self.expected_failures = [] if expected_failures is None else expected_failures
        self.expected_failure_misses = [] if expected_failure_misses is None else expected_failure_misses
        self.notes = [] if notes is None else notes
        self.elapsed_s = elapsed_s

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


def _cap_reason(caps: Caps) -> str:
    return f"order exceeds subgroup cap {caps.subgroup_cap}"


def _group_feasible(m: FgAbGroup, caps: Caps, report: TheoremReport) -> bool:
    order = m.order
    if order is None or order > caps.subgroup_cap:
        report.skipped.append({"group": format_group(m), "reason": _cap_reason(caps)})
        return False
    total = hom_count(m, m)
    if total is not None and total > caps.hom_budget:
        report.skipped.append(
            {"group": format_group(m), "reason": f"|End| = {total} exceeds hom budget {caps.hom_budget}"}
        )
        return False
    return True


def _expected_failure(
    rep: TheoremReport,
    verdicts: Sequence[SplitVerdict],
    fails: bool,
    entry: dict,
    extra: dict,
) -> bool:
    """Record a pattern asserted to fail: skipped when a deciding verdict is
    unknown over budget, else a confirmed expected failure or a miss.
    Returns whether the pattern was decided."""
    if any(v.is_unknown for v in verdicts):
        rep.skipped.append({**entry, "reason": "budget"})
        return False
    if fails:
        rep.expected_failures.append({**entry, **extra})
    else:
        rep.expected_failure_misses.append(entry)
    return True


CHECKS: dict = {}


def _check(name: str):
    """Register a law check in CHECKS under its id.  The decorated body
    fills the report it is given; the public function creates and times it."""

    def register(body):
        @functools.wraps(body)
        def run(corpus: Corpus, caps: Caps = Caps(), *args, **kwargs) -> TheoremReport:
            rep = TheoremReport(name)
            t0 = time.time()
            body(rep, corpus, caps, *args, **kwargs)
            rep.elapsed_s = time.time() - t0
            return rep

        CHECKS[name] = run
        return run

    return register


def _timed(items: Iterable, caps: Caps, rep: TheoremReport, named: Callable[..., dict]):
    """The items in turn, until the per-group timeout, counted from the
    first item, has run out; each item after that is recorded as skipped
    under the entry named(item).  The time counted includes what the caller
    does with the items it is given."""
    start = time.time()
    for item in items:
        if caps.per_group_timeout_s and time.time() - start > caps.per_group_timeout_s:
            rep.skipped.append({**named(item), "reason": "per-group timeout"})
            continue
        yield item


def _decided_profiles(
    groups: Iterable[FgAbGroup],
    caps: Caps,
    rep: TheoremReport,
    fs: Optional[Callable[[FgAbGroup], Iterable[Subgroup]]] = None,
):
    """(M, F, brute-force profile) for every F of every feasible M: every
    fully invariant F, or the ones fs(M) names.  An F is recorded as skipped
    when a verdict is unknown, or when it comes after M's per-group timeout
    has run out."""
    for m in groups:
        if not _group_feasible(m, caps, rep):
            continue
        f_list = analysis_for(m).fi_subgroups(caps.subgroup_cap) if fs is None else fs(m)
        for f in _timed(f_list, caps, rep, lambda f: {"group": format_group(m), "f": str(f)}):
            prof = self_split_profile(m, f, caps.hom_budget)
            if any(prof[k].is_unknown for k in PROFILE_KEYS):
                rep.skipped.append({"group": format_group(m), "f": str(f), "reason": "budget"})
                continue
            yield m, f, prof


# ---------------------------------------------------------------------------
# the key equivalence: brute force against the summand+Rickart reduction


@_check("tkey")
def check_tkey(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Brute-force verdict must equal theorem-mode verdict for all four
    predicate variants, on every group and every fully invariant subgroup."""
    for m, f, brute in _decided_profiles(corpus, caps, rep):
        theorem = self_split_profile_theorem(m, f, caps)
        for k in PROFILE_KEYS:
            rep.instances += 1
            if brute[k].answer != theorem[k].answer:
                rep.failures.append(
                    {
                        "group": format_group(m),
                        "f": str(f),
                        "variant": k,
                        "brute": brute[k].answer,
                        "theorem": theorem[k].answer,
                    }
                )


@_check("trel")
def check_trel(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Strong splitness == plain splitness + every summand containing F
    (contained in F, dually) fully invariant, checked by direct enumeration."""
    for m, f, brute in _decided_profiles(corpus, caps, rep):
        analysis = analysis_for(m)
        for side, dual in (("primal", False), ("dual", True)):
            summands_fi = all(
                analysis.subgroup_props(s).is_fi
                for s in analysis.subgroups_near(f, caps.subgroup_cap, dual)
                if analysis.subgroup_props(s).is_summand
            )
            expected = brute[side + "_plain"].is_yes and summands_fi
            rep.instances += 1
            if brute[side + "_strong"].is_yes != expected:
                rep.failures.append(
                    {
                        "group": format_group(m), "f": str(f), "variant": side,
                        "strong": brute[side + "_strong"].answer,
                        "plain_and_summands_fi": expected,
                    }
                )
        # the two theorem routes (end-ring and summand enumeration) are
        # cross-validated inside theorem mode; a disagreement raises
        is_self_F_split_theorem(m, f, True, caps)
        is_dual_self_F_split_theorem(m, f, True, caps)


@_check("tendab")
def check_tendab(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Strong splitness == plain splitness + abelian endomorphism ring of the
    complement (of F itself, dually), each End ring scanned for its first
    non-central idempotent."""
    for m, f, brute in _decided_profiles(corpus, caps, rep):
        cgrp, _ = quotient(m, f)
        for side, grp in (("primal", cgrp), ("dual", subgroup_group(f))):
            expected = brute[side + "_plain"].is_yes and is_abelian_ring(end_ring(grp))
            rep.instances += 1
            if brute[side + "_strong"].is_yes != expected:
                rep.failures.append(
                    {"group": format_group(m), "f": str(f), "variant": side,
                     "strong": brute[side + "_strong"].answer,
                     "plain_and_end_abelian": expected}
                )


@_check("csip")
def check_csip(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Self-F-split groups have SIP for summands containing F (fully
    invariant summands in the strong case); dually SSP below F."""
    rep.notes.append(
        "SIP and SSP take the first summand of each pair from one "
        "representative per isomorphism type (one Aut(M)-orbit, as Aut(M) "
        "fixes F), and every pair in the fully invariant variants"
    )
    for m, f, brute in _decided_profiles(corpus, caps, rep):
        for k, prop in zip(PROFILE_KEYS, ("SIP", "SIP-fi", "SSP", "SSP-fi")):
            if brute[k].is_yes:
                rep.instances += 1
                closed = (
                    has_ssp_summands_contained_in if "dual" in k else has_sip_summands_containing
                )
                if not closed(m, f, caps.subgroup_cap, fully_invariant_only="strong" in k):
                    rep.failures.append(
                        {"group": format_group(m), "f": str(f), "property": prop}
                    )


# ---------------------------------------------------------------------------
# direct sum decompositions


def _decomposition_types(n_grp: FgAbGroup, caps: Caps) -> list[tuple[Subgroup, Subgroup, int]]:
    """One (X, Y, count) per unordered pair {A, B} of summand types with
    N = A ⊕ B: X the first summand of type A, Y the first summand
    complementary to it, and count the number of decompositions N = X' ⊕ Y'
    with X' of type A and Y' of type B, each unordered pair once.

    The complements of a summand X with complement Y are exactly the graphs
    {y + φ(y)} of φ ∈ Hom(Y, X), all of type B, so the ordered pairs number
    (summands of type A)·|Hom(B, A)|, and each unordered one is met twice
    when A = B, apart from the trivial group's one pair (0, 0)."""
    analysis = analysis_for(n_grp)
    summands = analysis.summands(caps.subgroup_cap)
    types = [analysis.subgroup_props(s).iso_type for s in summands]
    orders = [s.order for s in summands]
    order = n_grp.order
    out = []
    seen = set()
    for x, a, x_order in zip(summands, types, orders):
        if a in seen:
            continue
        # with |X||Y| = |N|, X ∩ Y = 0 exactly when X + Y = N, the cheaper test
        y, b = next(
            (y, b) for y, b, y_order in zip(summands, types, orders)
            if x_order * y_order == order and sum_sub(x, y).is_full
        )
        seen.update((a, b))
        count = types.count(a) * hom_count(FgAbGroup(b), FgAbGroup(a))
        out.append((x, y, count // 2 if a == b and order > 1 else count))
    return out


def _tds_piece(part: Subgroup, f: Subgroup, dual: bool) -> tuple[FgAbGroup, Subgroup]:
    """(Nk, F∩Nk seen inside Nk), or dually (N/Nk, (F+Nk)/Nk).  The
    inclusion of Nk lands in Nk, so F∩Nk inside Nk is inc⁻¹(F), with no
    intersection.  Both pieces of F are fully invariant, as the projections
    onto N1 and N2 are endomorphisms of N: a piece that is not raises, its
    full invariance read from the piece group's analysis."""
    if dual:
        grp, q = quotient(part.ambient, part)
        fk = map_subgroup(q, f)
    else:
        inc = inclusion(part)
        grp, fk = inc.dom, preimage_subgroup(inc, f)
    analysis_for(grp).require_fully_invariant(fk)
    return grp, fk


@_check("tds")
def check_tds(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """For N = N1 ⊕ N2 with F fully invariant: N is (strongly) M-F-split iff
    each Nk is (strongly) M-(F∩Nk)-split; dually over the quotients N/Nk
    with (F+Nk)/Nk.  M runs over N itself and Z/6.  Every decomposition is
    an instance, decided by one representative per unordered pair of
    summand types (_decomposition_types): two decompositions of one such
    type differ by an α ∈ Aut(N), which fixes F and carries each piece and
    its F onto the other's, and a fully invariant piece of F is fixed by
    every automorphism of its canonical group, so both read the same
    (factors, F-piece) verdicts.  A representative adds its count of
    instances per known verdict, or that many skips; a failure names the
    representative and carries the count under "decompositions"."""
    rep.notes.append(
        "decompositions N = X ⊕ Y are counted per unordered pair of summand "
        "types {A, B}, as (summands of type A)·|Hom(B, A)|, halved when A = B; "
        "each pair's verdicts are read once, on its first decomposition (one "
        "Aut(N)-orbit, as Aut(N) fixes F), and count as that many instances"
    )
    decomposition_types = functools.cache(_decomposition_types)
    z6 = group(6)
    for n_grp, f, _ in _decided_profiles(corpus, caps, rep):
        samples = [n_grp] + ([z6] if n_grp != z6 else [])
        for x, y, count in decomposition_types(n_grp, caps):
            pieces = {dual: [_tds_piece(part, f, dual) for part in (x, y)] for dual in (False, True)}
            for m, strongly, dual in itertools.product(samples, (False, True), (False, True)):
                whole, *parts = (
                    is_dual_M_F_split(n, m, fn, strongly, caps.hom_budget) if dual
                    else is_M_F_split(m, n, fn, strongly, caps.hom_budget)
                    for n, fn in ((n_grp, f), *pieces[dual])
                )
                if whole.is_unknown or any(p.is_unknown for p in parts):
                    rep.skipped.extend(
                        {"group": format_group(n_grp), "f": str(f), "m": format_group(m),
                         "reason": "budget (dual)" if dual else "budget"}
                        for _ in range(count)
                    )
                    continue
                rep.instances += count
                if whole.is_yes != all(p.is_yes for p in parts):
                    failure = {"group": format_group(n_grp), "f": str(f),
                               "m": format_group(m), "strongly": strongly,
                               "decomposition": [str(x), str(y)],
                               "decompositions": count,
                               "whole": whole.answer,
                               "parts": [p.answer for p in parts]}
                    if dual:
                        failure["dual"] = True
                    rep.failures.append(failure)


# ---------------------------------------------------------------------------
# coproducts with vanishing Hom


def _fi_sum(g: FgAbGroup, injs: Sequence, f_parts: Sequence[Subgroup]) -> Subgroup:
    """⊕ f_parts inside G, through the injections of G's parts."""
    return sub_from_gens(g, [inj(row) for inj, fp in zip(injs, f_parts) for row in fp.canonical])


def _fi_biproduct(parts: Sequence[FgAbGroup], f_parts: Sequence[Subgroup]):
    """(G, F) with G = ⊕ parts and F = ⊕ f_parts inside it."""
    g, injs, _ = biproduct(list(parts))
    return g, _fi_sum(g, injs, f_parts)


# thomzero checks at most this many coprime pairs (A, B)
_THOMZERO_PAIRS = 40


@_check("thomzero")
def check_thomzero(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Families with pairwise-zero Homs: the biproduct is self-(⊕Fk)-split
    iff every part is self-Fk-split; the strong version holds iff every part
    is strongly split and Hom(Ck, Cl) = 0 for k != l.  Counterexample
    patterns with nonzero Homs are asserted to genuinely fail.  The
    per-group timeout runs per pair (A, B), over its pairs (FA, FB)."""
    finite = [g for g in corpus if g.order and g.order > 1]
    pairs = []
    for i, a in enumerate(finite):
        for b in finite[i:]:
            if gcd(a.order, b.order) == 1 and a.order * b.order <= corpus.max_order:
                pairs.append((a, b))
    rep.notes.append(
        f"(A, B) takes the first {min(len(pairs), _THOMZERO_PAIRS)} of the {len(pairs)} "
        f"coprime pairs of groups of order > 1 with |A|·|B| <= {corpus.max_order}, "
        f"in corpus order; at most {_THOMZERO_PAIRS} at any order"
    )
    pairs = pairs[:_THOMZERO_PAIRS]
    for a, b in pairs:
        parts = [format_group(a), format_group(b)]
        # the parts' subgroups are enumerated
        if max(a.order, b.order) > caps.subgroup_cap:
            rep.skipped.append({"parts": parts, "reason": _cap_reason(caps)})
            continue
        f_pairs = itertools.product(
            analysis_for(a).fi_subgroups(caps.subgroup_cap),
            analysis_for(b).fi_subgroups(caps.subgroup_cap),
        )
        # one biproduct A ⊕ B serves every (FA, FB)
        g, injs, _ = biproduct([a, b])
        for fa, fb in _timed(f_pairs, caps, rep, lambda fs: {"parts": parts, "f": list(map(str, fs))}):
            f = _fi_sum(g, injs, [fa, fb])
            if not is_fully_invariant(f):
                rep.failures.append(
                    {"parts": parts, "reason": "⊕Fk not fully invariant despite zero Homs"}
                )
                continue
            whole = self_split_profile(g, f, caps.hom_budget)
            pa = self_split_profile(a, fa, caps.hom_budget)
            pb = self_split_profile(b, fb, caps.hom_budget)
            if any(v.is_unknown for v in (whole["primal_plain"], pa["primal_plain"], pb["primal_plain"])):
                rep.skipped.append({"parts": parts, "reason": "budget"})
                continue
            rep.instances += 1
            if whole["primal_plain"].is_yes != (
                pa["primal_plain"].is_yes and pb["primal_plain"].is_yes
            ):
                rep.failures.append({"parts": parts, "f": [str(fa), str(fb)], "variant": "plain"})
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
                rep.failures.append({"parts": parts, "f": [str(fa), str(fb)], "variant": "strong"})
    # expected failure 1: strong equivalence without the Hom(C) condition
    z2 = group(2)
    g, f = _fi_biproduct([z2, z2], [trivial_subgroup(z2), trivial_subgroup(z2)])
    parts_strong = self_split_profile(z2, trivial_subgroup(z2), caps.hom_budget)["primal_strong"]
    whole_strong = self_split_profile(g, f, caps.hom_budget)["primal_strong"]
    _expected_failure(
        rep, (parts_strong, whole_strong),
        parts_strong.is_yes and whole_strong.is_no and hom_count(z2, z2) != 1,
        {"pattern": "Z/2 ⊕ Z/2 with F = 0"},
        {"detail": "parts strongly split, biproduct not (Hom between complements nonzero)"},
    )
    # expected failure 2: finite transposition of the mixed pattern — the
    # biproduct Z/3 ⊕ Z/8 ⊕ Z/2 is not split over its 3-part
    m1 = group(3, 8)
    f1 = evaluate(ppart(3), m1)
    m2 = group(2)
    g2, f2 = _fi_biproduct([m1, m2], [f1, trivial_subgroup(m2)])
    v = self_split_profile(g2, f2, caps.hom_budget)["primal_plain"]
    _expected_failure(
        rep, (v,), v.is_no and hom_count(m1, m2) != 1,
        {"pattern": "(Z/3 x Z/8, 3-part) ⊕ (Z/2, 0)"},
        {"detail": "biproduct not self-(F1⊕F2)-split; Hom(M1, M2) nonzero"},
    )
    # expected failure 3: the free-part pattern, theorem mode — parts
    # strongly split, biproduct not even plainly split
    g1 = group(3, 0)
    f1 = evaluate(torsion(), g1)
    part1 = is_self_F_split_theorem(g1, f1, True, caps)
    g3, f3 = _fi_biproduct([g1, group(2)], [f1, trivial_subgroup(group(2))])
    whole3 = is_self_F_split_theorem(g3, f3, False, caps)
    _expected_failure(
        rep, (part1, whole3),
        part1.is_yes and whole3.is_no and hom_count(g1, group(2)) != 1,
        {"pattern": "(Z/3 x Z, torsion) ⊕ (Z/2, 0)"},
        {"detail": "theorem mode: parts strongly split, biproduct not self-F-split"},
    )


# tdsprerad checks at most this many pairs (N1, N2), a count shared by all
# its preradicals
_TDSPRERAD_SAMPLES = 24


@_check("tdsprerad")
def check_tdsprerad(
    rep: TheoremReport,
    corpus: Corpus,
    caps: Caps,
    rads: Optional[Sequence[Preradical]] = None,
) -> None:
    """For preradicals r and M with SIP for (fully invariant) summands over
    r(M): N1 ⊕ N2 is (strongly) M-r(N1⊕N2)-split iff each Nk is (strongly)
    M-r(Nk)-split.  Also checks r(⊕Nk) = ⊕ r(Nk) coordinatewise.  The
    per-group timeout runs per pair (N1, N2) of each r, over the pool of M.
    The SIP hypothesis is tested once per (r, M, strongly), and an unmet
    one is still recorded as a skip for every pair."""
    if rads is None:
        rads = [socle(), ppart(2), ntorsion(2)]
    finite = [g for g in corpus if g.order and g.order > 1][:8]
    # the summands of each M are enumerated
    m_pool = []
    small = [g for g in corpus if g.order and g.order <= 12][:4]
    for m in small:
        if m.order > caps.subgroup_cap:
            rep.skipped.append({"m": format_group(m), "reason": _cap_reason(caps)})
        else:
            m_pool.append(m)
    count = 0
    pairs_per_r = []
    for r in rads:
        start = count
        sip: dict[tuple[FgAbGroup, bool], bool] = {}  # SIP over r(M), by (M, strongly)
        for i, n1 in enumerate(finite):
            for n2 in finite[i:]:
                if count >= _TDSPRERAD_SAMPLES:
                    break
                if n1.order * n2.order > corpus.max_order:
                    continue
                count += 1
                parts = [format_group(n1), format_group(n2)]
                parts_f = [evaluate(r, n1), evaluate(r, n2)]
                n, sum_f = _fi_biproduct([n1, n2], parts_f)
                rn = evaluate(r, n)
                if sum_f.canonical != rn.canonical:
                    rep.failures.append(
                        {"r": r.name, "parts": parts, "reason": "r(⊕Nk) != ⊕ r(Nk)"}
                    )
                    continue
                for m in _timed(
                    m_pool, caps, rep, lambda m: {"r": r.name, "m": format_group(m), "parts": parts}
                ):
                    for strongly in (False, True):
                        if (m, strongly) not in sip:
                            sip[m, strongly] = has_sip_summands_containing(
                                m, evaluate(r, m), caps.subgroup_cap, fully_invariant_only=strongly
                            )
                        if not sip[m, strongly]:
                            rep.skipped.append(
                                {"r": r.name, "m": format_group(m),
                                 "reason": "SIP hypothesis unmet", "strongly": strongly}
                            )
                            continue
                        whole = is_M_F_split(m, n, rn, strongly, caps.hom_budget)
                        p1 = is_M_F_split(m, n1, parts_f[0], strongly, caps.hom_budget)
                        p2 = is_M_F_split(m, n2, parts_f[1], strongly, caps.hom_budget)
                        if any(v.is_unknown for v in (whole, p1, p2)):
                            rep.skipped.append(
                                {"r": r.name, "m": format_group(m), "reason": "budget"}
                            )
                            continue
                        rep.instances += 1
                        if whole.is_yes != (p1.is_yes and p2.is_yes):
                            rep.failures.append(
                                {"r": r.name, "m": format_group(m), "parts": parts,
                                 "strongly": strongly,
                                 "whole": whole.answer,
                                 "part_answers": [p1.answer, p2.answer]}
                            )
        pairs_per_r.append(f"{r.name} {count - start}")
    rep.notes.append(
        f"N1 and N2 come from the first {len(finite)} groups of order > 1 and M from the "
        f"first {len(small)} of order <= 12; the pairs (N1, N2) with |N1|·|N2| <= "
        f"{corpus.max_order} stop at {_TDSPRERAD_SAMPLES} in all, shared by the "
        f"preradicals in order: {', '.join(pairs_per_r)}"
    )


@_check("semis")
def check_semis(rep: TheoremReport, corpus: Corpus, caps: Caps, max_n: int = 30) -> None:
    """Mod(Z/n) instantiation: n squarefree iff every group of exponent
    dividing n is self-F-split and dual self-F-split for every fully
    invariant F.  Strong flags are cross-checked against the End-ring
    criterion rather than asserted to hold outright (a group with a p-rank
    >= 2 complement is never strongly split over it, squarefree or not)."""
    rep.notes.append(f"n ranges over 1..{max_n} only, whatever the max order")
    for n in range(1, max_n + 1):
        if is_squarefree(n) if n > 1 else True:
            mods = [g for g in corpus if g.order and n % (g.exponent or 1) == 0]
            for m, f, prof in _decided_profiles(mods, caps, rep):
                rep.instances += 1
                if not (prof["primal_plain"].is_yes and prof["dual_plain"].is_yes):
                    rep.failures.append(
                        {"n": n, "group": format_group(m), "f": str(f),
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
                        {"n": n, "group": format_group(m), "f": str(f),
                         "reason": "strong flag disagrees with End-ring criterion"}
                    )
        else:
            # non-squarefree: exhibit an explicit failing (group, F)
            p = next(p for p, e in prime_factors(n).items() if e >= 2)
            bad = group(p * p)
            v = self_split_profile(bad, trivial_subgroup(bad), caps.hom_budget)["primal_plain"]
            if _expected_failure(
                rep, (v,), v.is_no,
                {"n": n, "witness_group": format_group(bad)},
                {"f": "<0>", "detail": "not self-Rickart"},
            ):
                rep.instances += 1


@_check("socrad")
def check_socrad(rep: TheoremReport, corpus: Corpus, caps: Caps) -> None:
    """Radical/socle splitting: M self-Rad(M)-split iff Rad(M) = 0 and M
    self-Rickart (strongly likewise); M dual self-Soc(M)-split iff M is
    semisimple; dual strongly iff additionally End(M) is abelian.  A group
    is decided once all three of its F are."""

    def rad_zero_soc(m: FgAbGroup) -> tuple[Subgroup, ...]:
        return evaluate(radical(), m), trivial_subgroup(m), evaluate(socle(), m)

    decided: dict[FgAbGroup, list] = {}
    for m, f, prof in _decided_profiles(corpus, caps, rep, rad_zero_soc):
        decided.setdefault(m, []).append((f, prof))
        if len(decided[m]) < 3:
            continue
        (rad, prof_rad), (_, prof_rick), (soc, prof_soc) = decided[m]
        rad_zero = rad.order == 1
        semisimple = soc.is_full
        rep.instances += 4
        if prof_rad["primal_plain"].is_yes != (rad_zero and prof_rick["primal_plain"].is_yes):
            rep.failures.append({"group": format_group(m), "variant": "rad plain"})
        if prof_rad["primal_strong"].is_yes != (rad_zero and prof_rick["primal_strong"].is_yes):
            rep.failures.append({"group": format_group(m), "variant": "rad strong"})
        if prof_soc["dual_plain"].is_yes != semisimple:
            rep.failures.append({"group": format_group(m), "variant": "soc dual plain"})
        if prof_soc["dual_strong"].is_yes != (
            semisimple and end_ring_abelian_closed_form(m)
        ):
            rep.failures.append({"group": format_group(m), "variant": "soc dual strong"})


# ---------------------------------------------------------------------------
# classification tables


def classify_rows(m: FgAbGroup, caps: Caps = Caps()) -> tuple[list[dict], list[str]]:
    """Fully-invariant-subgroup table with splitness flags.

    Finite groups within caps get the complete fully invariant lattice with
    brute-force + theorem verdicts; otherwise the table covers the
    preradical-generated fully invariant subgroups, and a note names the
    modes that decided its rows.  Returns (rows, notes)."""
    order = m.order
    if order is not None and order <= caps.subgroup_cap:
        return [_row(m, s, caps) for s in analysis_for(m).fi_subgroups(caps.subgroup_cap)], []
    named = [
        ("0", trivial_subgroup(m)),
        ("torsion", evaluate(torsion(), m)),
        ("socle", evaluate(socle(), m)),
        ("radical", evaluate(radical(), m)),
        ("divisible", evaluate(divisible(), m)),
    ]
    for p in sorted({p for d in m.torsion_factors for p in prime_factors(d)}):
        named.append((f"ppart:{p}", evaluate(ppart(p), m)))
    named.append(("all", full_subgroup(m)))
    cands: dict = {}
    for name, s in named:
        cands.setdefault(s.canonical, (s, []))[1].append(name)
    rows = [{**_row(m, s, caps), "preradicals": names} for s, names in cands.values()]
    # within the Hom budget brute force decides the rows as well
    modes = sorted({row["deciding_mode"] for row in rows})
    note = (
        "group outside enumeration caps: table restricted to preradical-generated "
        f"fully invariant subgroups, {' and '.join(modes)} {'mode' if len(modes) == 1 else 'modes'}"
    )
    return rows, [note]


def preradical_row(m: FgAbGroup, name: str, caps: Caps = Caps()) -> tuple[list[dict], list[str]]:
    """Single classification row for F = r(M) given a preradical name."""
    r = parse_preradical(name)
    row = _row(m, evaluate(r, m), caps)
    row["preradicals"] = [r.name]
    return [row], []


def _row(m: FgAbGroup, s: Subgroup, caps: Caps) -> dict:
    """The classification row of one fully invariant subgroup."""
    prof = decide_self_profile(m, s, caps)
    props = analysis_for(m).subgroup_props(s)
    gens = [tuple(m.reduce(r)) for r in s.canonical]
    gens = [g for g in gens if any(g)]
    return {
        "generators": [list(g) for g in gens],
        "order": s.order if s.order is not None else "infinite",
        "fully_invariant": True,
        "is_summand": props.is_summand,
        "self_F_split": prof["primal_plain"].answer,
        "strongly": prof["primal_strong"].answer,
        "dual_self_F_split": prof["dual_plain"].answer,
        "dual_strongly": prof["dual_strong"].answer,
        "deciding_mode": prof["primal_plain"].mode,
    }


# ---------------------------------------------------------------------------
# worked examples


def _self_table(g: FgAbGroup, caps: Caps) -> dict[int, dict]:
    """The four self verdicts per fully invariant subgroup order, decided as
    classify decides them: brute force within the Hom budget, checked
    against theorem mode, and theorem mode alone beyond it."""
    table = {}
    for s in analysis_for(g).fi_subgroups(caps.subgroup_cap):
        prof = decide_self_profile(g, s, caps)
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
    if p == q or prime_factors(p) != {p: 1} or prime_factors(q) != {q: 1}:
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
        "group": format_group(g),
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
    (trivially when the rank is 0).  Rank-2 samples must have a summand over
    t(G) that is not fully invariant, and rank-1 samples none, by the exact
    coordinate test of strongly_no_witness_search."""
    out = []
    torsion_groups = [g for g in enumerate_groups(max_torsion_order)]
    for t_grp in torsion_groups:
        for rank in range(0, max_rank + 1):
            g = group(*(t_grp.factors + (0,) * rank))
            f = evaluate(torsion(), g)
            plain = is_self_F_split_theorem(g, f, False, caps)
            strong = is_self_F_split_theorem(g, f, True, caps)
            entry = {
                "group": format_group(g),
                "free_rank": rank,
                "torsion_order": t_grp.order,
                "self_split": plain.answer,
                "strongly": strong.answer,
            }
            if rank >= 1:
                wit = strongly_no_witness_search(g, f)
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
    names = list(CHECKS) if theorems is None else list(theorems)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(
            f"unknown theorem id(s) {unknown}; valid ids: {', '.join(sorted(CHECKS))}"
        )
    corpus = enumerate_groups(max_order)
    reports = []
    for n in names:
        if n == "tdsprerad" and preradicals is not None:
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
