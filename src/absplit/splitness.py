"""Splitness predicates with certificates.

The primal question: given a fully invariant F <= N, is ker(d∘g) a direct
summand of M for EVERY g: M -> N (d the quotient N -> N/F)?  The dual
question asks whether the image g(F) is a direct summand of M for every
g: N -> M.  "Strongly" additionally requires the kernel (resp. image) to be
a fully invariant subgroup.

Two independent decision modes are provided:
  * brute force — enumerate the (finite) Hom set and test every morphism;
    three-valued, returns Unknown with a reason when the Hom set is infinite
    or over budget;
  * theorem mode — reduce the self case to "F is a summand" plus a
    (dual) self-Rickart decision on the complementary factor, which is
    settled structurally; the strong case is additionally derived along two
    routes (endomorphism-ring abelianness and the summands-over-F test)
    whose disagreement raises an internal error.

Every No verdict carries a counterexample morphism whose failure re-verifies
independently; brute-force Yes verdicts carry per-kernel witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Optional

from .groups import (
    FgAbGroup,
    Morphism,
    compose,
    hom_count,
    hom_group,
    identity_hom,
    iter_hom,
    iter_hom_rows,
    morphism,
    retraction_witness,
    section_witness,
)
from .intmat import Matrix, prime_factors, row_lattice_reduce
from .subgroups import (
    FullyInvariantError,
    Subgroup,
    all_subgroups,
    fi_violation,
    inclusion,
    is_fully_invariant,
    kernel_subgroup,
    map_subgroup,
    preimage_subgroup,
    quotient,
    sub_from_gens,
    subgroup_group,
    summand_witness,
    trivial_subgroup,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

DEFAULT_HOM_BUDGET = 10**6
DEFAULT_SUBGROUP_CAP = 512
DEFAULT_ENDRING_CAP = 10**6
DEFAULT_ENTRY_BOUND = 3
DEFAULT_WITNESS_SEARCH_LIMIT = 200_000


class InternalConsistencyError(RuntimeError):
    """Two theorem routes produced contradictory strong-mode verdicts."""


@dataclass(frozen=True)
class Caps:
    hom_budget: int = DEFAULT_HOM_BUDGET
    subgroup_cap: int = DEFAULT_SUBGROUP_CAP
    endring_cap: int = DEFAULT_ENDRING_CAP
    entry_bound: int = DEFAULT_ENTRY_BOUND
    # wall-clock guard per group; 0 disables it (and keeps reports
    # deterministic, which timing-based skips cannot be)
    per_group_timeout_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "hom_budget": self.hom_budget,
            "subgroup_cap": self.subgroup_cap,
            "endring_cap": self.endring_cap,
            "entry_bound": self.entry_bound,
            "per_group_timeout_s": self.per_group_timeout_s,
        }


@dataclass(frozen=True)
class Counterexample:
    g: Morphism
    subgroup: Subgroup
    kind: str  # "not_summand" | "not_fully_invariant"


@dataclass(frozen=True)
class SplitVerdict:
    answer: str
    predicate: str
    mode: str
    strongly: bool
    dual: bool
    source: FgAbGroup  # M, the quantifier side
    carrier: FgAbGroup  # N, carrying the fully invariant sequence
    f_sub: Optional[Subgroup] = None
    counterexample: Optional[Counterexample] = None
    witnesses: tuple = ()  # (canonical, sample_g, witness_morphism, count)
    trace: tuple[str, ...] = ()
    reason: Optional[str] = None

    @property
    def is_yes(self) -> bool:
        return self.answer == YES

    @property
    def is_no(self) -> bool:
        return self.answer == NO

    @property
    def is_unknown(self) -> bool:
        return self.answer == UNKNOWN

    def describe(self) -> str:
        base = f"{self.predicate}: {self.answer} [{self.mode}]"
        if self.reason:
            base += f" ({self.reason})"
        return base


def _label(strongly: bool, dual: bool, self_case: bool) -> str:
    parts = []
    if dual:
        parts.append("dual")
    if strongly:
        parts.append("strongly")
    parts.append("self_F_split" if self_case else "M_F_split")
    return "_".join(parts)


def _require_fi(carrier: FgAbGroup, f_sub: Subgroup):
    if f_sub.ambient != carrier:
        raise ValueError("F does not live in the carrier group")
    bad = fi_violation(f_sub)
    if bad is not None:
        h, x = bad
        raise FullyInvariantError(
            f"F is not fully invariant in {carrier}: {x} moves to {h(x)}", h, x
        )


# ---------------------------------------------------------------------------
# cached per-group analysis


@dataclass
class SubProps:
    subgroup: Subgroup
    fi_viol: Optional[tuple[Morphism, tuple[int, ...]]]

    @cached_property
    def retraction(self) -> Optional[Morphism]:
        """Witness that the inclusion is a section, computed on first read."""
        return summand_witness(self.subgroup)

    @property
    def is_summand(self) -> bool:
        return self.retraction is not None

    @property
    def is_fi(self) -> bool:
        return self.fi_viol is None

    @property
    def is_non_fi_summand(self) -> bool:
        """A summand that is not fully invariant, the witness against the
        strong predicates; full invariance, the cheaper test, goes first."""
        return not self.is_fi and self.is_summand


class GroupAnalysis:
    """Memoized subgroup properties (summand/fully-invariant) for one group."""

    def __init__(self, m: FgAbGroup):
        self.group = m
        self._props: dict[Matrix, SubProps] = {}
        self._all_subgroups: Optional[list[Subgroup]] = None
        self._end_ring: Optional[EndRingView] = None

    def subgroup_props(self, s: Subgroup) -> SubProps:
        props = self._props.get(s.canonical)
        if props is None:
            props = SubProps(s, fi_violation(s))
            self._props[s.canonical] = props
        return props

    def subgroups(self, cap: int) -> list[Subgroup]:
        if self._all_subgroups is None:
            self._all_subgroups = all_subgroups(self.group, cap)
        return self._all_subgroups

    def fi_subgroups(self, cap: int) -> list[Subgroup]:
        return [s for s in self.subgroups(cap) if self.subgroup_props(s).is_fi]

    def summands(self, cap: int) -> list[Subgroup]:
        return [s for s in self.subgroups(cap) if self.subgroup_props(s).is_summand]

    def end_ring(self) -> EndRingView:
        if self._end_ring is None:
            self._end_ring = _enumerate_end_ring(self.group)
        return self._end_ring


_ANALYSES: dict[tuple[int, ...], GroupAnalysis] = {}


def analysis_for(m: FgAbGroup) -> GroupAnalysis:
    an = _ANALYSES.get(m.factors)
    if an is None:
        an = GroupAnalysis(m)
        _ANALYSES[m.factors] = an
    return an


def _mod_entry(x: int, d: int) -> int:
    return x % d if d else x


def _compose_rows(left: Matrix, right: Matrix, out_factors: tuple[int, ...]) -> Matrix:
    """Reduced matrix product: rows of (left · right) mod out_factors."""
    cols = len(right[0]) if right else 0
    out = []
    for i, lrow in enumerate(left):
        d = out_factors[i]
        row = []
        for j in range(cols):
            acc = 0
            for t, c in enumerate(lrow):
                if c:
                    acc += c * right[t][j]
            row.append(acc % d if d else acc)
        out.append(tuple(row))
    return tuple(out)


class _KernelKeyer:
    """Canonical cache key for ker(h), h: M -> C with M finite.

    The kernel is the annihilator of the subgroup of the character group
    M^ = ⊕ Z/d_j generated by the rows h_i read as characters
    x -> (h_i·x)/c_i; maps with the same character span have the same
    kernel, so the canonical Hermite form of that span is a sound cache key.
    """

    def __init__(self, m: FgAbGroup, cgrp: FgAbGroup):
        from .intmat import SeededHnf

        self.mf = m.factors
        self.cf = cgrp.factors
        self.width = m.ngens
        self._acc = SeededHnf(m.factors)

    def key(self, hrows: Matrix) -> Matrix:
        mf = self.mf
        chars = [
            [(row[j] * mf[j]) // c for j in range(self.width)]
            for row, c in zip(hrows, self.cf)
            if c  # a zero modulus row over a finite group is identically zero
        ]
        return self._acc.canonical(chars)


# ---------------------------------------------------------------------------
# brute force


def _verdict_unknown(reason, strongly, dual, m, n, f_sub, mode="brute"):
    return SplitVerdict(
        UNKNOWN,
        _label(strongly, dual, m == n),
        mode,
        strongly,
        dual,
        m,
        n,
        f_sub,
        reason=reason,
    )


class _PrimalEval:
    """Per-g work for the primal predicate: properties of ker((N->N/F)∘g)."""

    def __init__(self, m: FgAbGroup, n: FgAbGroup, f_sub: Subgroup):
        self.m = m
        self.cgrp, self.q = quotient(n, f_sub)
        self.analysis = analysis_for(m)
        self.qrows = self.q.rows
        self.cf = self.cgrp.factors
        self.keyer = _KernelKeyer(m, self.cgrp) if m.is_finite else None
        self.cache: dict = {}

    def props(self, rows: Matrix) -> SubProps:
        h = _compose_rows(self.qrows, rows, self.cf)
        key = self.keyer.key(h) if self.keyer is not None else h
        p = self.cache.get(key)
        if p is None:
            p = self.analysis.subgroup_props(
                kernel_subgroup(Morphism(self.m, self.cgrp, h))
            )
            self.cache[key] = p
        return p


class _DualEval:
    """Per-g work for the dual predicate: properties of the image g(F)."""

    def __init__(self, n: FgAbGroup, m: FgAbGroup, f_sub: Subgroup):
        from .intmat import SeededHnf, hnf_rows, row_lattice_contains

        self.m = m
        self.analysis = analysis_for(m)
        self.mf = m.factors
        self.rel = [
            [d if i == j else 0 for j in range(m.ngens)]
            for i, d in enumerate(m.factors)
        ]
        if m.is_finite:
            self._acc = SeededHnf(m.factors)
            self._hnf = None
        else:
            self._acc = None
            self._hnf = hnf_rows
        # generator rows of F lying in the relation lattice of N map into the
        # relation lattice of M under any well-defined morphism, so they
        # never affect the image
        n_rel = hnf_rows(
            [
                [d if i == j else 0 for j in range(n.ngens)]
                for i, d in enumerate(n.factors)
                if d > 0
            ],
            n.ngens,
        )
        self.frows = [
            v for v in f_sub.canonical if not row_lattice_contains(n_rel, v)
        ]
        self.cache: dict = {}

    def props(self, rows: Matrix) -> SubProps:
        mf = self.mf
        nm = len(mf)
        imgs = [
            [
                _mod_entry(sum(rows[i][t] * v[t] for t in range(len(v)) if v[t]), mf[i])
                for i in range(nm)
            ]
            for v in self.frows
        ]
        if self._acc is not None:
            canonical = self._acc.canonical(imgs)
        else:
            canonical = self._hnf(imgs + self.rel, nm)
        p = self.cache.get(canonical)
        if p is None:
            gens = tuple(zip(*imgs)) if imgs else ((),) * nm
            p = self.analysis.subgroup_props(Subgroup(self.m, gens, canonical))
            self.cache[canonical] = p
        return p


def _brute_sweep(
    src: FgAbGroup,
    dst: FgAbGroup,
    evaluator,
    strongly: bool,
    budget: int,
    label: str,
    dual: bool,
    m: FgAbGroup,
    n: FgAbGroup,
    f_sub: Subgroup,
) -> SplitVerdict:
    total = hom_count(src, dst)
    if total is None:
        return _verdict_unknown(
            f"Hom({src}, {dst}) is infinite", strongly, dual, m, n, f_sub
        )
    if total > budget:
        return _verdict_unknown(
            f"|Hom({src}, {dst})| = {total} exceeds budget {budget}",
            strongly, dual, m, n, f_sub,
        )
    witnesses: dict[Matrix, list] = {}
    for rows in iter_hom_rows(src, dst):
        props = evaluator.props(rows)
        if props.retraction is None:
            return SplitVerdict(
                NO, label, "brute", strongly, dual, m, n, f_sub,
                counterexample=Counterexample(
                    Morphism(src, dst, rows), props.subgroup, "not_summand"
                ),
            )
        if strongly and props.fi_viol is not None:
            return SplitVerdict(
                NO, label, "brute", strongly, dual, m, n, f_sub,
                counterexample=Counterexample(
                    Morphism(src, dst, rows), props.subgroup, "not_fully_invariant"
                ),
            )
        rec = witnesses.get(props.subgroup.canonical)
        if rec is None:
            witnesses[props.subgroup.canonical] = [
                props.subgroup.canonical, Morphism(src, dst, rows), props.retraction, 1,
            ]
        else:
            rec[3] += 1
    return SplitVerdict(
        YES, label, "brute", strongly, dual, m, n, f_sub,
        witnesses=tuple(tuple(w) for w in witnesses.values()),
    )


def is_M_F_split(
    m: FgAbGroup,
    n: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    budget: int = DEFAULT_HOM_BUDGET,
) -> SplitVerdict:
    """Brute force: for every g: M -> N, must ker((N->N/F)∘g) be a (fully
    invariant) direct summand of M."""
    _require_fi(n, f_sub)
    label = _label(strongly, False, m == n)
    return _brute_sweep(
        m, n, _PrimalEval(m, n, f_sub), strongly, budget, label, False, m, n, f_sub
    )


def is_dual_M_F_split(
    n: FgAbGroup,
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    budget: int = DEFAULT_HOM_BUDGET,
) -> SplitVerdict:
    """Brute force: for every g: N -> M, must coker(g∘i) be a (fully
    coinvariant) retraction — i.e. g(F) a (fully invariant) summand of M."""
    _require_fi(n, f_sub)
    label = _label(strongly, True, m == n)
    return _brute_sweep(
        n, m, _DualEval(n, m, f_sub), strongly, budget, label, True, m, n, f_sub
    )


def is_self_rickart(
    m: FgAbGroup, strongly: bool = False, budget: int = DEFAULT_HOM_BUDGET
) -> SplitVerdict:
    """Self-Rickart = self-0-split: kernels of endomorphisms are summands."""
    return is_M_F_split(m, m, trivial_subgroup(m), strongly, budget)


def is_dual_self_rickart(
    m: FgAbGroup, strongly: bool = False, budget: int = DEFAULT_HOM_BUDGET
) -> SplitVerdict:
    """Dual self-Rickart = dual self-M-split: images of endos are summands."""
    from .subgroups import full_subgroup

    return is_dual_M_F_split(m, m, full_subgroup(m), strongly, budget)


def self_split_profile(
    m: FgAbGroup,
    f_sub: Subgroup,
    budget: int = DEFAULT_HOM_BUDGET,
) -> dict[str, SplitVerdict]:
    """All four self predicates for (M, F) in one sweep over End(M).

    Equivalent to four separate brute-force calls but sharing the End
    enumeration, the per-kernel/per-image subgroup cache, and the
    summand/fully-invariant property cache.
    """
    _require_fi(m, f_sub)
    keys = ("primal_plain", "primal_strong", "dual_plain", "dual_strong")
    total = hom_count(m, m)
    if total is None or total > budget:
        reason = (
            "Hom(M, M) is infinite"
            if total is None
            else f"|Hom(M, M)| = {total} exceeds budget {budget}"
        )
        return {
            k: _verdict_unknown(reason, "strong" in k, "dual" in k, m, m, f_sub)
            for k in keys
        }
    primal = _PrimalEval(m, m, f_sub)
    dual_ev = _DualEval(m, m, f_sub)
    ce: dict[str, Optional[Counterexample]] = {k: None for k in keys}
    prim_wit: dict[Matrix, list] = {}
    dual_wit: dict[Matrix, list] = {}
    for rows in iter_hom_rows(m, m):
        if ce["primal_plain"] is None or ce["primal_strong"] is None:
            props = primal.props(rows)
            if props.retraction is None:
                bad = Counterexample(Morphism(m, m, rows), props.subgroup, "not_summand")
                if ce["primal_plain"] is None:
                    ce["primal_plain"] = bad
                if ce["primal_strong"] is None:
                    ce["primal_strong"] = bad
            else:
                if ce["primal_strong"] is None and props.fi_viol is not None:
                    ce["primal_strong"] = Counterexample(
                        Morphism(m, m, rows), props.subgroup, "not_fully_invariant"
                    )
                rec = prim_wit.get(props.subgroup.canonical)
                if rec is None:
                    prim_wit[props.subgroup.canonical] = [
                        props.subgroup.canonical, Morphism(m, m, rows), props.retraction, 1,
                    ]
                else:
                    rec[3] += 1
        if ce["dual_plain"] is None or ce["dual_strong"] is None:
            props = dual_ev.props(rows)
            if props.retraction is None:
                bad = Counterexample(Morphism(m, m, rows), props.subgroup, "not_summand")
                if ce["dual_plain"] is None:
                    ce["dual_plain"] = bad
                if ce["dual_strong"] is None:
                    ce["dual_strong"] = bad
            else:
                if ce["dual_strong"] is None and props.fi_viol is not None:
                    ce["dual_strong"] = Counterexample(
                        Morphism(m, m, rows), props.subgroup, "not_fully_invariant"
                    )
                rec = dual_wit.get(props.subgroup.canonical)
                if rec is None:
                    dual_wit[props.subgroup.canonical] = [
                        props.subgroup.canonical, Morphism(m, m, rows), props.retraction, 1,
                    ]
                else:
                    rec[3] += 1
        if all(ce[k] is not None for k in keys):
            break
    out = {}
    for k in keys:
        strongly = "strong" in k
        dual = k.startswith("dual")
        label = _label(strongly, dual, True)
        wit = dual_wit if dual else prim_wit
        if ce[k] is not None:
            out[k] = SplitVerdict(
                NO, label, "brute", strongly, dual, m, m, f_sub, counterexample=ce[k]
            )
        else:
            out[k] = SplitVerdict(
                YES, label, "brute", strongly, dual, m, m, f_sub,
                witnesses=tuple(tuple(w) for w in wit.values()),
            )
    return out


# ---------------------------------------------------------------------------
# structural (dual) self-Rickart classification
#
# For a finitely generated C:
#   * self-Rickart  <=>  C free, or C finite with squarefree exponent
#     (kernels of endomorphisms of a free group are pure hence split; in the
#     squarefree-exponent case every subgroup is a summand; otherwise
#     mult-by-p for p^2 | exponent, or a free-onto-torsion map, has a
#     non-split kernel);
#   * dual self-Rickart  <=>  C finite with squarefree exponent
#     (mult-by-2 resp. mult-by-p has a non-split image otherwise);
#   * the strong versions additionally need End(C) abelian, i.e. at most one
#     invariant factor: with factors a | b there are hom generators both ways
#     whose composites with a projection idempotent differ.
# Every negative answer is returned with a concrete witness endomorphism
# whose failure the caller re-verifies through the congruence solver.


def _bad_prime(m: FgAbGroup) -> int:
    exp = m.exponent
    for p, e in prime_factors(exp).items():
        if e >= 2:
            return p
    raise ValueError("group is semisimple; no witness prime")


def structural_self_rickart(c: FgAbGroup) -> tuple[bool, Optional[Morphism]]:
    """(decision, witness endo with non-summand kernel when negative)."""
    if c.is_trivial or c.is_free:
        return True, None
    if c.is_finite:
        if c.is_semisimple:
            return True, None
        p = _bad_prime(c)
        return False, morphism(
            c, c, [[p if i == j else 0 for j in range(c.ngens)] for i in range(c.ngens)]
        )
    # mixed: send a free generator onto a torsion generator
    free_j = next(j for j, d in enumerate(c.factors) if d == 0)
    tor_i = max(i for i, d in enumerate(c.factors) if d > 0)
    rows = [
        [1 if (i == tor_i and j == free_j) else 0 for j in range(c.ngens)]
        for i in range(c.ngens)
    ]
    return False, morphism(c, c, rows)


def structural_dual_self_rickart(c: FgAbGroup) -> tuple[bool, Optional[Morphism]]:
    """(decision, witness endo with non-summand image when negative)."""
    if c.is_trivial:
        return True, None
    if c.is_finite:
        if c.is_semisimple:
            return True, None
        p = _bad_prime(c)
    else:
        p = 2
    return False, morphism(
        c, c, [[p if i == j else 0 for j in range(c.ngens)] for i in range(c.ngens)]
    )


def structural_strong_rickart_witness(c: FgAbGroup) -> Optional[Morphism]:
    """Endomorphism whose kernel and image are summands but not fully
    invariant; it witnesses both the strong and the dual strong negative.

    Only meaningful when c is (dual) self-Rickart; None iff End(c) is
    abelian (at most one invariant factor)."""
    if len(c.factors) <= 1:
        return None
    a, b = c.factors[0], c.factors[1]
    step = 1 if a == 0 else a // gcd(a, b) if b else 1
    rows = [[0] * c.ngens for _ in range(c.ngens)]
    rows[0][1] = step
    return morphism(c, c, rows)


def end_ring_abelian_closed_form(m: FgAbGroup) -> bool:
    """End(M) abelian iff M has at most one invariant factor."""
    return len(m.factors) <= 1


# ---------------------------------------------------------------------------
# end rings


@dataclass(frozen=True)
class EndRingView:
    """What the End-ring route keeps of a full enumeration of End(M): its
    size, its idempotents, and the first idempotent that fails to commute
    with an additive basis element (None when every idempotent is central)."""

    object: FgAbGroup
    size: int
    idempotent_rows: tuple[Matrix, ...]
    noncentral: Optional[tuple[Matrix, Matrix]]


def _enumerate_end_ring(m: FgAbGroup) -> EndRingView:
    """One pass over End(M) on raw matrices: e is idempotent iff e·e = e.

    Centrality against the additive basis suffices: commutation with e is
    additive in the other argument."""
    factors = m.factors
    size = 0
    idem = []
    for rows in iter_hom_rows(m, m):
        size += 1
        if _compose_rows(rows, rows, factors) == rows:
            idem.append(rows)
    basis = [h.rows for h in hom_group(m, m).basis]
    noncentral = next(
        (
            (e, h)
            for e in idem
            for h in basis
            if _compose_rows(e, h, factors) != _compose_rows(h, e, factors)
        ),
        None,
    )
    return EndRingView(m, size, tuple(idem), noncentral)


def end_ring(m: FgAbGroup, cap: int = DEFAULT_ENDRING_CAP) -> Optional[EndRingView]:
    """Full endomorphism ring enumeration, done once per group and kept on
    its GroupAnalysis; None when |End| exceeds the cap."""
    total = hom_count(m, m)
    if total is None or total > cap:
        return None
    return analysis_for(m).end_ring()


def noncentral_idempotent(view: EndRingView) -> Optional[tuple[Morphism, Morphism]]:
    """(e, h) with idempotent e and basis element h that do not commute."""
    if view.noncentral is None:
        return None
    m = view.object
    e, h = view.noncentral
    return Morphism(m, m, e), Morphism(m, m, h)


def is_abelian_ring(view: EndRingView) -> bool:
    return view.noncentral is None


# ---------------------------------------------------------------------------
# summand searches (the summand-condition route and its negation witness)


def _witness_search(
    m: FgAbGroup,
    f_sub: Subgroup,
    entry_bound: int,
    contained_in: bool,
    max_checked: int,
) -> tuple[Optional[Subgroup], int, Optional[int]]:
    """(witness, candidates tried, candidates in all) of the search below;
    the total is None when a witness ends the search.

    A candidate is <F, v> or <F, v, w> (<v> or <v, w> when contained_in) for
    bounded vectors v, w.  Each coordinate of a bounded vector is replaced by
    its residue when the factor has at most 2*entry_bound+1 elements; the
    relations are in F (resp. in the relation lattice), so this changes no
    subgroup.  A candidate depends only on the cosets of ±v and ±w modulo
    that lattice, so each vector is keyed by the smaller reduction of v and
    -v and every pair of keys is tried once.  The zero coset is left out: it
    gives F itself, fully invariant in every caller (resp. the zero
    subgroup).  Single keys are tried as they are found, so a witness among
    them stops the enumeration early."""
    analysis = analysis_for(m)
    if contained_in:
        base: list = []
        lattice = trivial_subgroup(m).canonical
    else:
        base = list(f_sub.canonical)
        lattice = f_sub.canonical
    ranges = [
        range(d) if 0 < d <= 2 * entry_bound + 1 else range(-entry_bound, entry_bound + 1)
        for d in m.factors
    ]

    def fresh_keys() -> Iterator[tuple[int, ...]]:
        found: set[tuple[int, ...]] = set()
        for v in itertools.product(*ranges):
            key = min(
                row_lattice_reduce(lattice, v),
                row_lattice_reduce(lattice, [-x for x in v]),
            )
            if any(key) and key not in found:
                found.add(key)
                if not contained_in or f_sub.contains(key):
                    yield key

    keys = fresh_keys()
    pool: list[tuple[int, ...]] = []

    def candidates() -> Iterator[tuple[tuple[int, ...], ...]]:
        for key in keys:
            pool.append(key)
            yield (key,)
        yield from itertools.combinations(pool, 2)

    tried = 0
    seen: set[Matrix] = set()
    for combo in candidates():
        if tried == max_checked:
            break
        tried += 1
        cand = sub_from_gens(m, base + list(combo))
        if cand.canonical in seen:
            continue
        seen.add(cand.canonical)
        props = analysis.subgroup_props(cand)
        if props.is_non_fi_summand:
            return cand, tried, None
    n = len(pool) + sum(1 for _ in keys)
    return None, tried, n * (n + 1) // 2


def strongly_no_witness_search(
    m: FgAbGroup,
    f_sub: Subgroup,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    contained_in: bool = False,
    max_checked: int = DEFAULT_WITNESS_SEARCH_LIMIT,
    trace: Optional[list[str]] = None,
) -> Optional[Subgroup]:
    """Search for a non-fully-invariant direct summand containing F (or
    contained in F when contained_in=True), generated by F and up to two
    vectors with entries bounded by entry_bound.  Finding one certifies a
    strongly-No verdict even when the brute-force quantifier is infinite;
    absence proves nothing.  max_checked caps the number of distinct
    candidates tried.  When trace is given, one line saying how many
    candidates were tried, and why the search stopped, is appended to it."""
    wit, tried, total = _witness_search(m, f_sub, entry_bound, contained_in, max_checked)
    if trace is not None:
        if wit is not None:
            outcome = f"found a witness at candidate {tried}"
        elif tried < total:
            outcome = f"{tried} of {total} candidates, stopped at the cap, found nothing"
        else:
            outcome = f"{tried} of {total} candidates, found nothing"
        trace.append(f"witness search (entry bound {entry_bound}): {outcome}")
    return wit


def _summand_condition_route(
    m: FgAbGroup,
    f_sub: Subgroup,
    caps: Caps,
    contained_in: bool,
) -> tuple[Optional[bool], Optional[Subgroup], str]:
    """Are all direct summands of M containing F (resp. contained in F)
    fully invariant?  Returns (verdict|None, witness, how)."""
    analysis = analysis_for(m)
    cap = caps.subgroup_cap
    order = m.order
    cands = None
    if order is not None and order <= cap:
        how = "subgroup enumeration"
        if contained_in:
            cands = (s for s in analysis.subgroups(cap) if f_sub.contains_subgroup(s))
        else:
            cands = (s for s in analysis.subgroups(cap) if s.contains_subgroup(f_sub))
    elif contained_in:
        # summands of M inside F are subgroups of F: enumerable when F is finite
        forder = f_sub.order
        if forder is not None and forder <= cap:
            how = "subgroup enumeration inside F"
            inc = inclusion(f_sub)
            cands = (map_subgroup(inc, t) for t in all_subgroups(inc.dom, cap))
    else:
        # subgroups containing F correspond to subgroups of M/F
        cgrp, q = quotient(m, f_sub)
        if cgrp.order is not None and cgrp.order <= cap:
            how = "subgroup enumeration over F"
            cands = (preimage_subgroup(q, t) for t in all_subgroups(cgrp, cap))
    if cands is not None:
        for s in cands:
            if analysis.subgroup_props(s).is_non_fi_summand:
                return False, s, how
        return True, None, how
    search: list[str] = []
    wit = strongly_no_witness_search(
        m, f_sub, caps.entry_bound, contained_in=contained_in, trace=search
    )
    return (None if wit is None else False), wit, search[0]


# ---------------------------------------------------------------------------
# theorem mode


def _strong_routes(
    m: FgAbGroup,
    f_sub: Subgroup,
    comp: FgAbGroup,
    structural: bool,
    caps: Caps,
    contained_in: bool,
    trace: list[str],
):
    """Evaluate the End-ring route and the summand-condition route for the
    strong verdict; both must agree with the structural decision."""
    view = end_ring(comp, caps.endring_cap)
    if view is not None:
        route_endab = is_abelian_ring(view)
        trace.append(
            f"end-ring route: |End| = {view.size} enumerated, "
            f"abelian = {route_endab}"
        )
    else:
        route_endab = end_ring_abelian_closed_form(comp)
        trace.append(
            f"end-ring route: closed form on {comp}, abelian = {route_endab}"
        )
    route_rel, rel_wit, how = _summand_condition_route(m, f_sub, caps, contained_in)
    trace.append(
        f"summand route ({how}): "
        + ("inconclusive" if route_rel is None else f"all fully invariant = {route_rel}")
    )
    for name, val in (("end-ring", route_endab), ("summand", route_rel)):
        if val is not None and val != structural:
            raise InternalConsistencyError(
                f"strong-mode {name} route gives {val} but structural analysis "
                f"gives {structural} for {m} with F = {f_sub}"
            )


def is_self_F_split_theorem(
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    caps: Caps = Caps(),
) -> SplitVerdict:
    """Theorem mode: M is (strongly) self-F-split iff F is a direct summand
    and M/F is (strongly) self-Rickart; strong verdicts are derived along
    the End-ring and the summand routes, which must agree."""
    _require_fi(m, f_sub)
    label = _label(strongly, False, True)
    trace: list[str] = []
    analysis = analysis_for(m)
    fprops = analysis.subgroup_props(f_sub)
    if fprops.retraction is None:
        trace.append("F is not a direct summand; identity is a counterexample")
        return SplitVerdict(
            NO, label, "theorem", strongly, False, m, m, f_sub,
            counterexample=Counterexample(identity_hom(m), f_sub, "not_summand"),
            trace=tuple(trace),
        )
    trace.append("F is a direct summand")
    cgrp, q = quotient(m, f_sub)
    plain_ok, wit = structural_self_rickart(cgrp)
    if not plain_ok:
        s = retraction_witness(q)
        g = compose(s, compose(wit, q))
        bad = preimage_subgroup(g, f_sub)
        trace.append(f"complement {cgrp} is not self-Rickart")
        return SplitVerdict(
            NO, label, "theorem", strongly, False, m, m, f_sub,
            counterexample=Counterexample(g, bad, "not_summand"),
            trace=tuple(trace),
        )
    trace.append(f"complement {cgrp} is self-Rickart")
    if not strongly:
        return SplitVerdict(
            YES, label, "theorem", strongly, False, m, m, f_sub, trace=tuple(trace)
        )
    strong_wit = structural_strong_rickart_witness(cgrp)
    structural = strong_wit is None
    _strong_routes(m, f_sub, cgrp, structural, caps, contained_in=False, trace=trace)
    if structural:
        return SplitVerdict(
            YES, label, "theorem", strongly, False, m, m, f_sub, trace=tuple(trace)
        )
    s = retraction_witness(q)
    g = compose(s, compose(strong_wit, q))
    bad = preimage_subgroup(g, f_sub)
    trace.append("complement has a summand kernel that is not fully invariant")
    return SplitVerdict(
        NO, label, "theorem", strongly, False, m, m, f_sub,
        counterexample=Counterexample(g, bad, "not_fully_invariant"),
        trace=tuple(trace),
    )


def is_dual_self_F_split_theorem(
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    caps: Caps = Caps(),
) -> SplitVerdict:
    """Theorem mode dual: M is dual (strongly) self-F-split iff F is a direct
    summand and F is dual (strongly) self-Rickart."""
    _require_fi(m, f_sub)
    label = _label(strongly, True, True)
    trace: list[str] = []
    analysis = analysis_for(m)
    fprops = analysis.subgroup_props(f_sub)
    if fprops.retraction is None:
        trace.append("F is not a direct summand; identity is a counterexample")
        return SplitVerdict(
            NO, label, "theorem", strongly, True, m, m, f_sub,
            counterexample=Counterexample(identity_hom(m), f_sub, "not_summand"),
            trace=tuple(trace),
        )
    trace.append("F is a direct summand")
    inc = inclusion(f_sub)
    fgrp = inc.dom
    plain_ok, wit = structural_dual_self_rickart(fgrp)
    if not plain_ok:
        rho = fprops.retraction
        g = compose(inc, compose(wit, rho))
        bad = map_subgroup(g, f_sub)
        trace.append(f"kernel object {fgrp} is not dual self-Rickart")
        return SplitVerdict(
            NO, label, "theorem", strongly, True, m, m, f_sub,
            counterexample=Counterexample(g, bad, "not_summand"),
            trace=tuple(trace),
        )
    trace.append(f"kernel object {fgrp} is dual self-Rickart")
    if not strongly:
        return SplitVerdict(
            YES, label, "theorem", strongly, True, m, m, f_sub, trace=tuple(trace)
        )
    strong_wit = structural_strong_rickart_witness(fgrp)
    structural = strong_wit is None
    _strong_routes(m, f_sub, fgrp, structural, caps, contained_in=True, trace=trace)
    if structural:
        return SplitVerdict(
            YES, label, "theorem", strongly, True, m, m, f_sub, trace=tuple(trace)
        )
    rho = fprops.retraction
    g = compose(inc, compose(strong_wit, rho))
    bad = map_subgroup(g, f_sub)
    trace.append("kernel object has a summand image that is not fully invariant")
    return SplitVerdict(
        NO, label, "theorem", strongly, True, m, m, f_sub,
        counterexample=Counterexample(g, bad, "not_fully_invariant"),
        trace=tuple(trace),
    )


def self_split_profile_theorem(
    m: FgAbGroup, f_sub: Subgroup, caps: Caps = Caps()
) -> dict[str, SplitVerdict]:
    return {
        "primal_plain": is_self_F_split_theorem(m, f_sub, False, caps),
        "primal_strong": is_self_F_split_theorem(m, f_sub, True, caps),
        "dual_plain": is_dual_self_F_split_theorem(m, f_sub, False, caps),
        "dual_strong": is_dual_self_F_split_theorem(m, f_sub, True, caps),
    }


# ---------------------------------------------------------------------------
# SIP / SSP


def has_sip_summands_containing(
    m: FgAbGroup,
    f_sub: Subgroup,
    cap: int = DEFAULT_SUBGROUP_CAP,
    fully_invariant_only: bool = False,
) -> bool:
    """Do pairwise intersections of direct summands containing F remain
    (fully invariant) direct summands?"""
    from .subgroups import intersect

    analysis = analysis_for(m)
    cands = []
    for s in analysis.subgroups(cap):
        if not s.contains_subgroup(f_sub):
            continue
        props = analysis.subgroup_props(s)
        if props.is_summand and (not fully_invariant_only or props.is_fi):
            cands.append(s)
    for a, b in itertools.combinations(cands, 2):
        inter = intersect(a, b)
        props = analysis.subgroup_props(inter)
        if not props.is_summand or (fully_invariant_only and not props.is_fi):
            return False
    return True


def has_ssp_summands_contained_in(
    m: FgAbGroup,
    f_sub: Subgroup,
    cap: int = DEFAULT_SUBGROUP_CAP,
    fully_invariant_only: bool = False,
) -> bool:
    """Do pairwise sums of direct summands contained in F remain (fully
    invariant) direct summands?"""
    from .subgroups import sum_sub

    analysis = analysis_for(m)
    cands = []
    for s in analysis.subgroups(cap):
        if not f_sub.contains_subgroup(s):
            continue
        props = analysis.subgroup_props(s)
        if props.is_summand and (not fully_invariant_only or props.is_fi):
            cands.append(s)
    for a, b in itertools.combinations(cands, 2):
        u = sum_sub(a, b)
        props = analysis.subgroup_props(u)
        if not props.is_summand or (fully_invariant_only and not props.is_fi):
            return False
    return True


# ---------------------------------------------------------------------------
# strongest-mode resolver and certificate re-verification


def decide_self_profile(
    m: FgAbGroup, f_sub: Subgroup, caps: Caps = Caps()
) -> dict[str, SplitVerdict]:
    """Strongest available verdicts: brute force when the Hom set fits the
    budget, theorem mode always; definite answers must agree."""
    theorem = self_split_profile_theorem(m, f_sub, caps)
    total = hom_count(m, m)
    if total is None or total > caps.hom_budget:
        return theorem  # brute force could only answer unknown
    brute = self_split_profile(m, f_sub, caps.hom_budget)
    out = {}
    for k, tv in theorem.items():
        bv = brute[k]
        if not bv.is_unknown:
            if bv.answer != tv.answer:
                raise InternalConsistencyError(
                    f"brute force says {bv.answer} but theorem mode says "
                    f"{tv.answer} for {tv.predicate} on {m} with F = {f_sub}"
                )
            out[k] = SplitVerdict(
                bv.answer, bv.predicate, "brute+theorem", bv.strongly, bv.dual,
                m, m, f_sub, counterexample=bv.counterexample,
                witnesses=bv.witnesses, trace=tv.trace,
            )
        else:
            out[k] = tv
    return out


def reverify(verdict: SplitVerdict) -> bool:
    """Independently re-check a verdict's certificate."""
    if verdict.is_unknown:
        return True
    f_sub = verdict.f_sub
    if verdict.is_no:
        ce = verdict.counterexample
        if ce is None:
            return False
        if verdict.dual:
            sub = map_subgroup(ce.g, f_sub)
        else:
            sub = preimage_subgroup(ce.g, f_sub)
        if sub.canonical != ce.subgroup.canonical:
            return False
        if ce.kind == "not_summand":
            return summand_witness(sub) is None
        return summand_witness(sub) is not None and not is_fully_invariant(sub)
    # Yes with brute-force witnesses: re-run the quantifier, checking each
    # morphism's kernel/image lands on a certified summand
    if verdict.mode.startswith("brute") and verdict.witnesses:
        certified = {w[0] for w in verdict.witnesses}
        for w in verdict.witnesses:
            canonical, sample_g, witness, _count = w
            sub = Subgroup(verdict.source, (), canonical)
            inc = inclusion(sub)
            if compose(witness, inc) != identity_hom(inc.dom):
                return False
            if verdict.strongly and not is_fully_invariant(sub):
                return False
        src, dst = (verdict.carrier, verdict.source) if verdict.dual else (verdict.source, verdict.carrier)
        total = hom_count(src, dst)
        if total is not None and total <= DEFAULT_HOM_BUDGET:
            for g in iter_hom(src, dst):
                sub = (
                    map_subgroup(g, f_sub)
                    if verdict.dual
                    else preimage_subgroup(g, f_sub)
                )
                if sub.canonical not in certified:
                    return False
        return True
    # theorem-mode Yes: recheck the two reduction legs
    if summand_witness(f_sub) is None:
        return False
    if verdict.dual:
        comp = inclusion(f_sub).dom
        ok, _ = structural_dual_self_rickart(comp)
    else:
        comp, _q = quotient(verdict.carrier, f_sub)
        ok, _ = structural_self_rickart(comp)
    if not ok:
        return False
    if verdict.strongly:
        return end_ring_abelian_closed_form(comp)
    return True
