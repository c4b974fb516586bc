"""Splitness predicates with certificates.

The primal question: given a fully invariant F <= N, is ker(d∘g) a direct
summand of M for EVERY g: M -> N (d the quotient N -> N/F)?  The dual
question asks whether the image g(F) is a direct summand of M for every
g: N -> M.  "Strongly" additionally requires the kernel (resp. image) to be
a fully invariant subgroup.

Two independent decision modes are provided:
  * brute force — quantify over the whole (finite) Hom set, one coordinate
    of N at a time, and test every subgroup the morphisms reach;
    three-valued, returns Unknown with a reason when the Hom set is infinite
    or over budget;
  * theorem mode — reduce the self case to "F is a summand" plus a
    (dual) self-Rickart decision on the complementary factor, which is
    settled structurally; the strong case is additionally derived along two
    routes (endomorphism-ring abelianness and the summands-over-F test)
    whose disagreement raises an internal error.

Every No verdict carries a counterexample morphism whose failure re-verifies
independently; brute-force Yes verdicts carry per-kernel witnesses.  Both
are built when first read: theorem mode builds and lifts its witness
endomorphism, and brute force builds morphisms from the entries a fresh run
of its sweep meets, as it keeps only the answers.  SIP/SSP decides a pair
of nested summands without a join, as the join is then one of the pair.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, lcm, log, prod
from typing import Callable, Iterator, Optional, Union

from .groups import (
    FgAbGroup,
    _hom_table,
    _product,
    Morphism,
    ObjectMismatchError,
    compose,
    hom_count,
    hom_group,
    identity_hom,
    iter_hom,
    iter_hom_rows,
    morphism,
    retraction_witness,
    Value,
)
from .intmat import Matrix, SeededHnf, _diag_after, freeze, identity, prime_factors
from .subgroups import (
    Subgroup,
    all_subgroups,
    ElementBits,
    full_subgroup,
    inclusion,
    is_fully_invariant,
    is_pure,
    kernel_subgroup,
    map_subgroup,
    preimage_subgroup,
    quotient,
    require_fully_invariant,
    sub_from_gens,
    summand_witness,
    trivial_subgroup,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

DEFAULT_HOM_BUDGET = 10**6
DEFAULT_SUBGROUP_CAP = 512


class InternalConsistencyError(RuntimeError):
    """Two decision routes disagree, or a fact they rely on fails to hold."""


class Caps(Value):
    __slots__ = ("hom_budget", "subgroup_cap", "per_group_timeout_s")

    def __init__(
        self,
        hom_budget: int = DEFAULT_HOM_BUDGET,
        subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
        # wall-clock guard per group; 0 disables it (and keeps reports
        # deterministic, which timing-based skips cannot be)
        per_group_timeout_s: float = 0.0,
    ):
        super().__init__(hom_budget, subgroup_cap, per_group_timeout_s)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Counterexample(Value):
    __slots__ = ("g", "subgroup", "kind")  # kind: "not_summand" | "not_fully_invariant"


class SplitVerdict:
    """One predicate's answer with its certificate: a counterexample for No,
    per-subgroup witnesses for a brute-force Yes.  Either certificate may be
    given as a function, which builds it on first read; the value is then
    kept, so every later read returns the same object."""

    __slots__ = (
        "answer", "mode", "strongly", "dual", "source", "carrier",
        "f_sub", "_counterexample", "_witnesses", "trace", "reason",
    )

    def __init__(
        self,
        answer: str,
        mode: str,
        strongly: bool,
        dual: bool,
        source: FgAbGroup,  # M, the quantifier side
        carrier: FgAbGroup,  # N, carrying the fully invariant sequence
        f_sub: Optional[Subgroup] = None,
        # a Counterexample, or a function that builds one (or None) on first read
        counterexample: Union[None, Counterexample, Callable[[], Optional[Counterexample]]] = None,
        # (canonical, sample_g, witness_morphism, count) per subgroup, or a
        # function that builds them on first read
        witnesses: Union[tuple, Callable[[], tuple]] = (),
        trace: tuple[str, ...] = (),
        reason: Optional[str] = None,
    ):
        self.answer = answer
        self.mode = mode
        self.strongly = strongly
        self.dual = dual
        self.source = source
        self.carrier = carrier
        self.f_sub = f_sub
        self._counterexample = counterexample
        self._witnesses = witnesses
        self.trace = trace
        self.reason = reason

    @property
    def predicate(self) -> str:
        """The predicate's name, such as dual_strongly_self_F_split."""
        side = ("dual_" if self.dual else "") + ("strongly_" if self.strongly else "")
        return side + ("self_F_split" if self.source == self.carrier else "M_F_split")

    def _read(self, slot: str):
        value = getattr(self, slot)
        if callable(value):
            value = value()
            setattr(self, slot, value)
        return value

    @property
    def counterexample(self) -> Optional[Counterexample]:
        """The No certificate, lifted or built from the sweep's entries
        only when a reader asks."""
        return self._read("_counterexample")

    @property
    def witnesses(self) -> tuple:
        """Brute-force Yes certificates; their sample morphisms are built,
        and their retractions solved for, only when a reader asks."""
        return self._read("_witnesses")

    @property
    def is_yes(self) -> bool:
        return self.answer == YES

    @property
    def is_no(self) -> bool:
        return self.answer == NO

    @property
    def is_unknown(self) -> bool:
        return self.answer == UNKNOWN


# the four self predicates of a profile, as (dual, strongly), and their keys
_PROFILE_SIDES = ((False, False), (False, True), (True, False), (True, True))


def _profile_key(strongly: bool, dual: bool) -> str:
    return ("dual_" if dual else "primal_") + ("strong" if strongly else "plain")


PROFILE_KEYS = tuple(_profile_key(strongly, dual) for dual, strongly in _PROFILE_SIDES)


# ---------------------------------------------------------------------------
# cached per-group analysis


class SubProps:
    # no __slots__: cached_property stores its value in the instance __dict__
    def __init__(self, subgroup: Subgroup, is_fi: bool):
        self.subgroup = subgroup
        self.is_fi = is_fi

    @cached_property
    def retraction(self) -> Optional[Morphism]:
        """Witness that the inclusion is a section, computed on first read."""
        return summand_witness(self.subgroup)

    @cached_property
    def is_summand(self) -> bool:
        """The test follows from the ambient M alone: a listed M counts on
        S's bitset (ElementBits.is_pure), an unlisted finite M takes the
        Hermite test (is_pure), and with a free part the retraction witness
        decides.  Neither purity test builds a retraction."""
        m = self.subgroup.ambient
        if not m.is_finite:
            return self.retraction is not None
        analysis = analysis_for(m)
        if analysis.bits is None:
            return is_pure(self.subgroup)
        return analysis.bits.is_pure(analysis.masks[self.subgroup.canonical])

    @cached_property
    def iso_type(self) -> tuple[int, ...]:
        """The invariant factors of a subgroup S of a listed M, from the
        bitset M's analysis keeps: with n_k = |S ∩ M[p^k]|, n_k/n_{k-1} =
        p^r, r the number of cyclic factors of order >= p^k in S's p-part,
        each one p of the r largest factors."""
        analysis = analysis_for(self.subgroup.ambient)
        mask = analysis.masks[self.subgroup.canonical]
        out: list[int] = []
        for p, top in prime_factors(analysis.group.exponent).items():
            sizes = [(mask & analysis.bits.torsion(p**k)).bit_count() for k in range(top + 1)]
            for below, size in zip(sizes, sizes[1:]):
                r = round(log(size // below, p))
                out += [1] * (r - len(out))
                out[:r] = [x * p for x in out[:r]]
        return tuple(reversed(out))

    @property
    def is_non_fi_summand(self) -> bool:
        """A summand that is not fully invariant, the witness against the
        strong predicates; full invariance, the cheaper test, goes first."""
        return not self.is_fi and self.is_summand


class GroupAnalysis:
    """Memoized subgroup properties (summand/fully-invariant) for one group.

    Listing M (finite, of order at most the subgroup cap) builds every
    subgroup's element bitset with the list, in one stage.  The lattice
    queries on a listed M read those bitsets (masks): summands, the
    near-sets of SIP/SSP, trel and theorem mode's strong summand route,
    nested pairs, meets and sums, tds's complement test and isomorphism
    types.  An unlisted M, and a free part, take Hermite and Smith forms."""

    def __init__(self, m: FgAbGroup):
        self.group = m
        self._props: dict[Matrix, SubProps] = {}
        self._all_subgroups: Optional[list[Subgroup]] = None
        self._end_ring: Optional[EndRingView] = None
        # the element bitsets of the listed subgroups, by canonical form in
        # list order, built by subgroups; bits is None until M is listed
        self.bits: Optional[ElementBits] = None
        self.masks: dict[Matrix, int] = {}
        # (|Hom|, plain answer, strong answer) of each sweep with this group
        # quantified over, by (the other group's factors, F, side); the budget
        # only gates the sweep, so a refusal is never kept
        self._sweeps: dict[tuple, tuple[int, str, str]] = {}
        # the lattices every such sweep joins, by the moduli of their states
        self._sweep_lattices: dict[tuple[int, ...], SweepLattices] = {}
        # (M/F, F) of each fully invariant F read (fi_factors), by F
        self._factor_groups: dict[Matrix, tuple[FgAbGroup, FgAbGroup]] = {}

    def subgroup_props(self, s: Subgroup) -> SubProps:
        props = self._props.get(s.canonical)
        if props is None:
            props = SubProps(s, is_fully_invariant(s))
            self._props[s.canonical] = props
        return props

    def require_fully_invariant(self, s: Subgroup) -> None:
        """require_fully_invariant(M, S), reading full invariance from the
        properties kept here; the full test runs, and raises, only when S
        lives elsewhere or is not fully invariant."""
        if s.ambient != self.group or not self.subgroup_props(s).is_fi:
            require_fully_invariant(self.group, s)

    def factor_groups(self, f_sub: Subgroup) -> tuple[FgAbGroup, FgAbGroup]:
        """fi_factors(M, F), read once per F."""
        out = self._factor_groups.get(f_sub.canonical)
        if out is None:
            out = self._factor_groups[f_sub.canonical] = fi_factors(self.group, f_sub)
        return out

    def subgroups(self, cap: int) -> list[Subgroup]:
        """Every subgroup, listed once together with its element bitset; a
        cap below the order refuses on every call, not only on the call
        that lists them."""
        if self._all_subgroups is None or self.group.order > cap:
            subs = all_subgroups(self.group, cap)
            self.bits, forms = ElementBits(self.group.factors), [s.canonical for s in subs]
            self.masks = dict(zip(forms, self.bits.masks(forms)))
            self._all_subgroups = subs
        return self._all_subgroups

    def near(self, f_sub: Subgroup, cap: int, dual: bool) -> dict[int, Subgroup]:
        """The subgroups of M containing F (primal) or contained in F (dual),
        as {bitset: subgroup} in list order (A ⊆ B: A & ~B == 0)."""
        if f_sub.ambient != self.group:
            raise ObjectMismatchError("ambient mismatch")
        subs = self.subgroups(cap)
        f = self.masks[f_sub.canonical]
        return {a: s for s, a in zip(subs, self.masks.values()) if not (a & ~f if dual else f & ~a)}

    def near_summands_fi(self, f_sub: Subgroup, cap: int, dual: bool) -> bool:
        """Is every direct summand of M containing F (contained in F, dual)
        fully invariant?  Read from the near-set, with an early exit."""
        return not any(self.subgroup_props(s).is_non_fi_summand for s in self.near(f_sub, cap, dual).values())

    def fi_subgroups(self, cap: int) -> list[Subgroup]:
        return [s for s in self.subgroups(cap) if self.subgroup_props(s).is_fi]

    def summands(self, cap: int) -> list[Subgroup]:
        return [s for s in self.subgroups(cap) if self.subgroup_props(s).is_summand]

    def end_ring(self) -> EndRingView:
        if self._end_ring is None:
            self._end_ring = _enumerate_end_ring(self.group)
        return self._end_ring


class SweepLattices:
    """The sweep's states over one moduli tuple of M, shared by every sweep
    that quantifies over M: each canonical lattice reached, numbered in the
    order first reached, the number each (state, value) join reaches, in
    one dict per state, the properties of the subgroup of M each final
    state gives, by side, and each level's (value, entries) list, by
    (c_j, widths, entry steps), whose tuples are interned: the levels share
    one object per distinct tuple (the moduli allow |M/eM| values)."""

    __slots__ = ("acc", "lattices", "numbers", "joins", "reached", "values", "tuples")

    def __init__(self, moduli: tuple[int, ...]):
        self.acc = SeededHnf(moduli)
        self.lattices: list[Matrix] = []
        self.numbers: dict[Matrix, int] = {}
        self.joins: list[dict[tuple[int, ...], int]] = []
        self.reached: dict[tuple[bool, int], SubProps] = {}
        self.values: dict[tuple, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        self.tuples: dict[tuple, tuple] = {}
        self.number(self.acc.canonical(()))  # state 0: diag(moduli), nothing spanned

    def number(self, lat: Matrix) -> int:
        k = self.numbers.get(lat)
        if k is None:
            k = self.numbers[lat] = len(self.lattices)
            self.lattices.append(lat)
            self.joins.append({})
        return k

    def intern(self, t: tuple) -> tuple:
        return self.tuples.setdefault(t, t)

    def join(self, state: int, v: tuple[int, ...]) -> int:
        out = self.joins[state][v] = self.number(self.acc.canonical((v,), self.lattices[state]))
        return out


_ANALYSES: dict[tuple[int, ...], GroupAnalysis] = {}


def analysis_for(m: FgAbGroup) -> GroupAnalysis:
    an = _ANALYSES.get(m.factors)
    if an is None:
        an = GroupAnalysis(m)
        _ANALYSES[m.factors] = an
    return an


def _reached(g: Morphism, f_sub: Subgroup, dual: bool) -> Subgroup:
    """The subgroup of M that g reaches: g(F) for g: N -> M (dual), or the
    kernel g^-1(F) of M -> N -> N/F (primal)."""
    return map_subgroup(g, f_sub) if dual else preimage_subgroup(g, f_sub)


# ---------------------------------------------------------------------------
# brute force


def _fi_steps(carrier: FgAbGroup, f_sub: Subgroup) -> tuple[int, ...]:
    """(a_1, ..., a_k) with F = ⊕ a_i<e_i> over the generators e_i of the
    carrier (a_i = 0 where F meets a free factor trivially).

    A fully invariant F is stable under the coordinate projections, so it is
    the sum of its coordinate pieces and its Hermite basis is diagonal."""
    steps = [0] * carrier.ngens
    for row in f_sub.canonical:
        j = next(c for c, x in enumerate(row) if x)
        if any(row[j + 1:]):
            raise InternalConsistencyError(
                f"fully invariant F = {f_sub} in {carrier} is not a sum of "
                "coordinate subgroups"
            )
        steps[j] = row[j]
    return tuple(steps)


def fi_exponents(carrier: FgAbGroup, f_sub: Subgroup) -> dict[int, dict[int, int]]:
    """F's exponent function k[p][e] = v_p(a_i), on each finite coordinate
    with v_p(d_i) = e, and k[p][0] = 0, for F = ⊕ a_i<e_i> (_fi_steps).  A
    diagonal F is fully invariant in a finite group iff each k_p is
    single-valued with k_p and e - k_p non-decreasing (Kaplansky, Infinite
    Abelian Groups); sorted by (e, k), a second k at one e breaks the
    latter.  Any other F raises."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for d, a in zip(carrier.factors, _fi_steps(carrier, f_sub)):
        for p, e in prime_factors(d).items() if d else ():
            pairs.setdefault(p, [(0, 0)]).append((e, prime_factors(a).get(p, 0)))
    for p, ek in pairs.items():
        ek.sort()
        if any(k > l or e - k > f - l for (e, k), (f, l) in zip(ek, ek[1:])):
            raise InternalConsistencyError(
                f"F = {f_sub} in {carrier} is not fully invariant: its exponents at {p} are {ek}"
            )
    return {p: dict(ek) for p, ek in pairs.items()}


def fi_piece(exponents: dict[int, dict[int, int]], factors: tuple[int, ...]) -> Subgroup:
    """F ∩ X in the canonical group of a summand X with factors c_j, for F
    with these exponents: ⊕ (Π_p p^k_p(v_p(c_j)))<e_j>, as every cyclic
    summand of order p^e meets F in its p^k_p(e) multiples.  With N = X ⊕ Y,
    (F + X)/X ⊆ N/X ≅ Y is F ∩ Y."""
    steps = [prod(p ** exponents[p][e] for p, e in prime_factors(c).items()) for c in factors]
    return Subgroup(FgAbGroup(factors), tuple(_diag_after(0, steps)))


def fi_factors(carrier: FgAbGroup, f_sub: Subgroup) -> tuple[FgAbGroup, FgAbGroup]:
    """(M/F, F) for a fully invariant F = ⊕ a_i<e_i>: ⊕ Z/a_i and
    ⊕ Z/(d_i/a_i), where a free coordinate gives Z and nothing when a_i = 0,
    else Z/a_i and Z.  Without their 1s both are divisibility chains, by
    fi_exponents' conditions and as a free a_i is a multiple of every other."""
    fi_exponents(carrier, f_sub)
    steps = _fi_steps(carrier, f_sub)
    sub = (d // a if d else 0 for d, a in zip(carrier.factors, steps) if a and a != d)
    return FgAbGroup(tuple(a for a in steps if a != 1)), FgAbGroup(tuple(sub))


def _sweep(
    src: FgAbGroup, dst: FgAbGroup, f_sub: Subgroup, dual: bool
) -> list[tuple[SubProps, int, tuple]]:
    """Every subgroup ker((N -> N/F)∘g) (primal, g: M -> N) or g(F) (dual,
    g: N -> M) of M over the finite Hom set, as (properties, number of g
    giving it, the entries of the first such g).  The entries are kept
    as the sweep meets them, one row (column) per coordinate of N, and
    _sample builds the morphism only for a reader of a certificate.

    Hom(src, dst) is the product of its rows, and also of its columns, so the
    quantifier is decided one coordinate of N at a time.  With F = ⊕ a_i<e_i>:
      * primal: ker(d∘g) = ∩_i ker(x -> row_i(g)·x mod a_i).  Each condition
        is a character of M/eM, e = lcm a_i, a finite group even when M is
        not; the state is the span of the characters met so far, whose
        annihilator is the kernel;
      * dual: g(F) = Σ_i <a_i·col_i(g)>, a subgroup of the torsion part of M
        (a finite Hom set sends no torsion of N into a free factor and has
        no free factor of N unless M is finite); the state is that sum.
    A state is a canonical lattice (SeededHnf).  Entry j of row (column) i
    runs over k·step_j, k < order_j, and its value mod md_j is k·c_j, with
    c_j = step_j·md_j/a_i (primal) or a_i·step_j (dual).  So a level is the
    product of the cycles k < md_j/gcd(c_j, md_j), each value first reached
    at k·step_j and given by the same number of entries.  Each level joins
    every state with every value, by a pass that starts from the state's
    basis and inserts the value, and counts multiply.  The joins, the value
    lists and the subgroup each final state gives are kept on M's analysis
    (one SweepLattices per moduli tuple), so every later sweep over M with
    the same moduli reads them; states are numbered lattices."""
    m, carrier = (dst, src) if dual else (src, dst)
    steps = _fi_steps(carrier, f_sub)
    if dual:
        moduli = m.torsion_factors
    else:
        e = lcm(*(a for a in steps if a))
        moduli = tuple(gcd(d, e) for d in m.factors)
    analysis = analysis_for(m)
    lattices = analysis._sweep_lattices.get(moduli)
    if lattices is None:
        lattices = analysis._sweep_lattices[moduli] = SweepLattices(moduli)
    joins = lattices.joins
    states: dict[int, list] = {0: [1, ()]}
    table = _hom_table(src, dst)
    for i, a in enumerate(steps):
        # the entries of coordinate i: column i (dual) or row i of the table
        gens = [row[i] for row in table] if dual else table[i]
        # a = 0 only on a free factor of N, which a finite Hom set meets with
        # zero rows alone
        cs = [
            a * step % md if dual else (step * md // a % md if a else 0)
            for (step, _), md in zip(gens, moduli)
        ]
        # on the dual side a free factor of M has no modulus: its entry is 0
        widths = [md // gcd(c, md) for c, md in zip(cs, moduli)]
        widths += [1] * (len(gens) - len(widths))
        fibre = prod(order for _, order in gens) // prod(widths)
        entry_steps = tuple(step for step, _ in gens)
        key = (tuple(cs), tuple(widths), entry_steps)
        values = lattices.values.get(key)
        if values is None:
            intern = lattices.intern
            values = lattices.values[key] = [
                (
                    intern(tuple(k * c % md for k, c, md in zip(ks, cs, moduli))),
                    intern(tuple(k * step for k, step in zip(ks, entry_steps))),
                )
                for ks in itertools.product(*map(range, widths))
            ]
        nxt: dict[int, list] = {}
        for state, (count, parts) in states.items():
            row = joins[state]
            for v, part in values:
                out = row.get(v)
                if out is None:
                    out = lattices.join(state, v)
                rec = nxt.get(out)
                if rec is None:
                    nxt[out] = [count * fibre, parts + (part,)]
                else:
                    rec[0] += count * fibre
        states = nxt
    result = []
    for state, (count, parts) in states.items():
        props = lattices.reached.get((dual, state))
        if props is None:
            lat = lattices.lattices[state]
            if dual:
                sub = Subgroup(m, tuple(row + (0,) * m.rank for row in lat))
            else:
                # the kernel of characters with values c_j/md_j depends on
                # the moduli alone, not on e
                chars = [
                    [c * (e // d) % e for c, d in zip(row, moduli)] for row in lat
                ]
                chars = [row for row in chars if any(row)]
                sub = kernel_subgroup(Morphism(m, FgAbGroup((e,) * len(chars)), freeze(chars)))
            props = lattices.reached[(dual, state)] = analysis.subgroup_props(sub)
        result.append((props, count, parts))
    return result


def _sample(src: FgAbGroup, dst: FgAbGroup, parts: tuple, dual: bool) -> Morphism:
    """The morphism src -> dst whose entries _sweep kept: its rows (primal),
    or its columns (dual)."""
    rows = tuple(tuple(col[r] for col in parts) for r in range(dst.ngens)) if dual else parts
    return Morphism(src, dst, rows)


def _first_failure(outcomes: list[tuple[SubProps, int, tuple]], strongly: bool) -> Optional[tuple]:
    """(properties, entries, kind) of the first subgroup in the sweep's
    outcomes that is not a summand, or, when strongly, not fully invariant;
    None when every one passes."""
    for props, _count, parts in outcomes:
        if not props.is_summand:
            return props, parts, "not_summand"
        if strongly and not props.is_fi:
            return props, parts, "not_fully_invariant"
    return None


def _brute_sweep(
    m: FgAbGroup,
    n: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool,
    dual: bool,
    budget: int,
    name: Optional[str] = None,
) -> SplitVerdict:
    """The verdict from the sweep of (M, N, F, side).  The sweep runs once,
    and M's analysis keeps its (|Hom|, plain answer, strong answer), so the
    plain and the strong predicate, and every later call, read one entry.
    F is checked when no entry is kept, its full invariance read from N's
    analysis; otherwise only its ambient is, since an F of Z/4 can share
    its canonical matrix with an F of Z/2.

    Each call builds a new verdict.  The sweep is deterministic, so its
    certificate runs the sweep again when first read: No takes the first
    failing subgroup's sample morphism, Yes one witness per subgroup."""
    src, dst = (n, m) if dual else (m, n)
    kept = analysis_for(m)._sweeps
    key = (n.factors, f_sub.canonical, dual)
    entry = kept.get(key)
    if entry is not None and f_sub.ambient.factors == n.factors:
        total = entry[0]
    else:
        analysis_for(n).require_fully_invariant(f_sub)
        total = hom_count(src, dst)
        if total is not None and total <= budget:
            outcomes = _sweep(src, dst, f_sub, dual)
            entry = kept[key] = (total, *(NO if _first_failure(outcomes, s) else YES for s in (False, True)))
    if total is None or total > budget:
        name = name or f"{src}, {dst}"
        reason = (
            f"Hom({name}) is infinite" if total is None
            else f"|Hom({name})| = {total} exceeds budget {budget}"
        )
        return SplitVerdict(
            UNKNOWN, "brute", strongly, dual, m, n, f_sub, reason=reason,
        )
    if entry[1 + strongly] == NO:
        def counterexample() -> Counterexample:
            props, parts, kind = _first_failure(_sweep(src, dst, f_sub, dual), strongly)
            return Counterexample(_sample(src, dst, parts, dual), props.subgroup, kind)

        return SplitVerdict(NO, "brute", strongly, dual, m, n, f_sub, counterexample=counterexample)
    return SplitVerdict(
        YES, "brute", strongly, dual, m, n, f_sub,
        witnesses=lambda: tuple(
            (props.subgroup.canonical, _sample(src, dst, parts, dual), props.retraction, count)
            for props, count, parts in _sweep(src, dst, f_sub, dual)
        ),
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
    return _brute_sweep(m, n, f_sub, strongly, False, budget)


def is_dual_M_F_split(
    n: FgAbGroup,
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    budget: int = DEFAULT_HOM_BUDGET,
) -> SplitVerdict:
    """Brute force: for every g: N -> M, must coker(g∘i) be a (fully
    coinvariant) retraction — i.e. g(F) a (fully invariant) summand of M."""
    return _brute_sweep(m, n, f_sub, strongly, True, budget)


def is_self_rickart(
    m: FgAbGroup, strongly: bool = False, budget: int = DEFAULT_HOM_BUDGET
) -> SplitVerdict:
    """Self-Rickart = self-0-split: kernels of endomorphisms are summands."""
    return is_M_F_split(m, m, trivial_subgroup(m), strongly, budget)


def is_dual_self_rickart(
    m: FgAbGroup, strongly: bool = False, budget: int = DEFAULT_HOM_BUDGET
) -> SplitVerdict:
    """Dual self-Rickart = dual self-M-split: images of endos are summands."""
    return is_dual_M_F_split(m, m, full_subgroup(m), strongly, budget)


def self_split_profile(
    m: FgAbGroup,
    f_sub: Subgroup,
    budget: int = DEFAULT_HOM_BUDGET,
) -> dict[str, SplitVerdict]:
    """All four self predicates for (M, F): one primal and one dual sweep
    over End(M), each deciding its plain and strong predicate."""
    return {
        _profile_key(strongly, dual): _brute_sweep(m, m, f_sub, strongly, dual, budget, "M, M")
        for dual, strongly in _PROFILE_SIDES
    }


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


def structural_self_rickart(
    c: FgAbGroup, dual: bool = False
) -> tuple[bool, Optional[Morphism]]:
    """(decision, witness endo with a non-summand kernel, or image when dual,
    when negative)."""
    if c.is_trivial or (c.is_free and not dual) or (c.is_finite and c.is_semisimple):
        return True, None
    if c.is_finite or dual:
        p = _bad_prime(c) if c.is_finite else 2
        return False, morphism(
            c, c, [[p if i == j else 0 for j in range(c.ngens)] for i in range(c.ngens)]
        )
    # mixed, primal: send a free generator onto a torsion generator
    free_j = next(j for j, d in enumerate(c.factors) if d == 0)
    tor_i = max(i for i, d in enumerate(c.factors) if d > 0)
    rows = [
        [1 if (i == tor_i and j == free_j) else 0 for j in range(c.ngens)]
        for i in range(c.ngens)
    ]
    return False, morphism(c, c, rows)


def structural_strong_rickart_witness(c: FgAbGroup) -> Optional[Morphism]:
    """Endomorphism whose kernel and image are summands but not fully
    invariant; it witnesses both the strong and the dual strong negative.

    Only meaningful when c is (dual) self-Rickart; None iff End(c) is
    abelian (at most one invariant factor)."""
    if len(c.factors) <= 1:
        return None
    rows = [[0] * c.ngens for _ in range(c.ngens)]
    rows[0][1] = _hom_table(c, c)[0][1][0]
    return morphism(c, c, rows)


def end_ring_abelian_closed_form(m: FgAbGroup) -> bool:
    """End(M) abelian iff M has at most one invariant factor."""
    return len(m.factors) <= 1


# ---------------------------------------------------------------------------
# end rings


class EndRingView(Value):
    """What the End-ring route keeps of End(M): its size, and the first
    idempotent that fails to commute with an additive basis element (None
    when every idempotent is central)."""

    __slots__ = ("object", "size", "noncentral")


def _idempotents(m: FgAbGroup) -> Iterator[Matrix]:
    """The idempotents of End(M) (M finite) on raw matrices, in the order of
    iter_hom_rows: the e with e·e = e.  A cyclic M is read off by CRT
    instead (_cyclic_idempotents)."""
    factors = m.factors
    if len(factors) == 1:
        yield from _cyclic_idempotents(factors[0])
        return
    for e in iter_hom_rows(m, m):
        if _product(m, e, e, len(factors)) == e:
            yield e


def _cyclic_idempotents(d: int) -> Iterator[Matrix]:
    """The idempotents of End(Z/d) = Z/d, the solutions of x² ≡ x (mod d):
    by the Chinese remainder theorem, x ≡ 0 or 1 modulo each prime power p^k
    of d, 2^ω(d) of them, in increasing order (the order of iter_hom_rows)."""
    idem = [0]
    for p, k in prime_factors(d).items():
        q = p**k
        # the idempotent that is 1 mod q and 0 mod d/q
        unit = d // q * pow(d // q, -1, q) % d
        idem += [(x + unit) % d for x in idem]
    for x in sorted(idem):
        yield ((x,),)


def _enumerate_end_ring(m: FgAbGroup) -> EndRingView:
    """End(M) for a finite M: its size, and the first idempotent (in the
    order of _idempotents) that fails to commute with an additive basis
    element.  M is strong iff End(M) is abelian, i.e. every idempotent is
    central, so the scan stops at the first one that is not.  Centrality
    against the additive basis suffices: commutation with e is additive in
    the other argument."""
    n = m.ngens
    basis = [h.rows for h in hom_group(m, m).basis]
    noncentral = next(
        (
            (e, h)
            for e in _idempotents(m)
            for h in basis
            if _product(m, e, h, n) != _product(m, h, e, n)
        ),
        None,
    )
    return EndRingView(m, hom_count(m, m), noncentral)


def end_ring(m: FgAbGroup) -> Optional[EndRingView]:
    """The End-ring summary of M, read once per group and kept on its
    GroupAnalysis; None when M is infinite.  The scan stops at its first
    non-central idempotent, the second element of End(M) for every
    non-cyclic M, so its cost does not grow with |End|."""
    if not m.is_finite:
        return None
    return analysis_for(m).end_ring()


def is_abelian_ring(view: EndRingView) -> bool:
    return view.noncentral is None


# ---------------------------------------------------------------------------
# summands over or inside F (the summand-condition route and its witness)


def strongly_no_witness_search(
    m: FgAbGroup,
    f_sub: Subgroup,
    contained_in: bool = False,
) -> Optional[Subgroup]:
    """A direct summand of M that contains F (lies in F when contained_in)
    and is not fully invariant, or None when there is none; exact on every
    M.  F must be a fully invariant summand (else ValueError), M = F ⊕ C.

    Hom(F, C) = 0, so a summand S ⊇ F is F ⊕ (S ∩ C) and is fully invariant
    in M iff S ∩ C is in C; a summand inside F is fully invariant in M iff
    it is in F.  A group with invariant factors d_1 | … | d_k has a summand
    that is not fully invariant iff k >= 2, and then ⟨e_k⟩ is one (e_k ↦ e_1
    moves it).  So the candidates are ⟨F, s(e_i)⟩ for a section s of
    M -> M/F (⟨e_i⟩ for the generators of F when contained_in), in order."""
    analysis = analysis_for(m)
    analysis.require_fully_invariant(f_sub)
    if not analysis.subgroup_props(f_sub).is_summand:
        raise ValueError(f"{f_sub} is not a direct summand of {m}")
    if contained_in:
        base, lift = [], inclusion(f_sub)
    else:
        base, lift = list(f_sub.canonical), retraction_witness(quotient(m, f_sub)[1])
    for e in identity(lift.dom.ngens):
        cand = sub_from_gens(m, base + [lift(e)])
        if analysis.subgroup_props(cand).is_non_fi_summand:
            return cand
    return None


def _summand_condition_route(
    m: FgAbGroup,
    f_sub: Subgroup,
    caps: Caps,
    contained_in: bool,
) -> tuple[bool, str]:
    """Are all direct summands of M containing F (resp. contained in F)
    fully invariant?  Returns (verdict, how).  A listed M reads its near-set,
    an oracle for the exact coordinate test that decides every other M."""
    cap = caps.subgroup_cap
    if m.order is not None and m.order <= cap:
        return analysis_for(m).near_summands_fi(f_sub, cap, contained_in), "subgroup enumeration"
    return strongly_no_witness_search(m, f_sub, contained_in) is None, "coordinate summands"


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
    view = end_ring(comp)
    if view is not None:
        route_endab = is_abelian_ring(view)
        trace.append(f"end-ring route: |End| = {view.size}, abelian = {route_endab}")
    else:
        route_endab = end_ring_abelian_closed_form(comp)
        trace.append(
            f"end-ring route: closed form on {comp}, abelian = {route_endab}"
        )
    route_rel, how = _summand_condition_route(m, f_sub, caps, contained_in)
    trace.append(f"summand route ({how}): all fully invariant = {route_rel}")
    for name, val in (("end-ring", route_endab), ("summand", route_rel)):
        if val != structural:
            raise InternalConsistencyError(
                f"strong-mode {name} route gives {val} but structural analysis "
                f"gives {structural} for {m} with F = {f_sub}"
            )


def _self_F_split_theorem(
    m: FgAbGroup, f_sub: Subgroup, strongly: bool, dual: bool, caps: Caps
) -> SplitVerdict:
    """Theorem mode on one side.  The decision reads the structure of the
    factor alone, M/F (primal) or F (dual), in closed form (factor_groups).  A
    witness endomorphism w of the factor lifts to s∘w∘q resp. inc∘w∘ρ on M,
    with q the quotient map, s a section of it, inc the inclusion of F and
    ρ a retraction onto F, all built when the counterexample is first read."""
    analysis = analysis_for(m)
    analysis.require_fully_invariant(f_sub)
    trace: list[str] = []

    def verdict(answer, counterexample=None):
        return SplitVerdict(
            answer, "theorem", strongly, dual, m, m, f_sub,
            counterexample=counterexample, trace=tuple(trace),
        )

    fprops = analysis.subgroup_props(f_sub)
    if not fprops.is_summand:
        trace.append("F is not a direct summand; identity is a counterexample")
        return verdict(NO, Counterexample(identity_hom(m), f_sub, "not_summand"))
    trace.append("F is a direct summand")
    factor = analysis.factor_groups(f_sub)[dual]
    if dual:
        noun, rickart, part = "kernel object", "dual self-Rickart", "image"
    else:
        noun, rickart, part = "complement", "self-Rickart", "kernel"
    plain_ok, wit = structural_self_rickart(factor, dual)

    def lifted(witness: Callable[[], Morphism], kind: str) -> SplitVerdict:
        def counterexample() -> Counterexample:
            w = witness()
            if dual:
                g = compose(inclusion(f_sub), compose(w, fprops.retraction))
            else:
                q = quotient(m, f_sub)[1]
                g = compose(retraction_witness(q), compose(w, q))
            return Counterexample(g, _reached(g, f_sub, dual), kind)

        return verdict(NO, counterexample)

    if not plain_ok:
        trace.append(f"{noun} {factor} is not {rickart}")
        return lifted(lambda: wit, "not_summand")
    trace.append(f"{noun} {factor} is {rickart}")
    if not strongly:
        return verdict(YES)
    # the factor has at most one invariant factor, exactly when
    # structural_strong_rickart_witness finds no witness on it
    structural = end_ring_abelian_closed_form(factor)
    _strong_routes(m, f_sub, factor, structural, caps, contained_in=dual, trace=trace)
    if structural:
        return verdict(YES)
    trace.append(f"{noun} has a summand {part} that is not fully invariant")
    return lifted(lambda: structural_strong_rickart_witness(factor), "not_fully_invariant")


def is_self_F_split_theorem(
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    caps: Caps = Caps(),
) -> SplitVerdict:
    """Theorem mode: M is (strongly) self-F-split iff F is a direct summand
    and M/F is (strongly) self-Rickart; strong verdicts are derived along
    the End-ring and the summand routes, which must agree."""
    return _self_F_split_theorem(m, f_sub, strongly, False, caps)


def is_dual_self_F_split_theorem(
    m: FgAbGroup,
    f_sub: Subgroup,
    strongly: bool = False,
    caps: Caps = Caps(),
) -> SplitVerdict:
    """Theorem mode dual: M is dual (strongly) self-F-split iff F is a direct
    summand and F is dual (strongly) self-Rickart."""
    return _self_F_split_theorem(m, f_sub, strongly, True, caps)


def self_split_profile_theorem(
    m: FgAbGroup, f_sub: Subgroup, caps: Caps = Caps()
) -> dict[str, SplitVerdict]:
    return {
        _profile_key(strongly, dual): _self_F_split_theorem(m, f_sub, strongly, dual, caps)
        for dual, strongly in _PROFILE_SIDES
    }


# ---------------------------------------------------------------------------
# SIP / SSP


def _join_mask(bits: ElementBits, near: dict[int, Subgroup], a: int, b: int, dual: bool) -> int:
    """The bitset of A ∩ B, a & b, or when dual of A + B, A spanned by the
    rows of B; the near-set holds either."""
    return bits.span(a, near[b].canonical) if dual else a & b


def _summands_closed(
    m: FgAbGroup, f_sub: Subgroup, cap: int, fully_invariant_only: bool, dual: bool
) -> bool:
    """SIP over F, or SSP under F dually: does the intersection (sum) of any
    two (fully invariant) direct summands containing F (contained in F)
    remain one?

    A pair's first summand runs over one candidate per Aut(M)-orbit.  When F
    is fully invariant, every α ∈ Aut(M) fixes F, so α permutes the
    candidates and carries a pair and its join to a pair and its join.  Two
    summands of one isomorphism type lie in one orbit (Krull–Schmidt and
    cancellation give isomorphic complements), so the type names the orbit.
    Aut(M) fixes each fully invariant summand, so the fully invariant
    variants, and any F that is not fully invariant, take every pair.

    Candidates, types and joins (_join_mask) are read from M's element
    bitsets (GroupAnalysis.near); a nested pair, a & b being a or b, needs no
    join, as it is one of the two.  Summand and full invariance stay Hermite's."""
    analysis = analysis_for(m)
    near = analysis.near(f_sub, cap, dual)

    def kept(a: int) -> bool:
        props = analysis.subgroup_props(near[a])
        return props.is_summand and (not fully_invariant_only or props.is_fi)

    def closed(a: int, b: int) -> bool:
        return a & b in (a, b) or kept(_join_mask(analysis.bits, near, a, b, dual))

    cands = [a for a in near if kept(a)]
    if fully_invariant_only or not analysis.subgroup_props(f_sub).is_fi:
        pairs = itertools.combinations(cands, 2)
    else:
        firsts: dict = {}
        for a in cands:
            firsts.setdefault(analysis.subgroup_props(near[a]).iso_type, a)
        pairs = ((a, b) for a in firsts.values() for b in cands if b != a)
    return all(closed(a, b) for a, b in pairs)


def has_sip_summands_containing(
    m: FgAbGroup,
    f_sub: Subgroup,
    cap: int = DEFAULT_SUBGROUP_CAP,
    fully_invariant_only: bool = False,
) -> bool:
    """Do pairwise intersections of direct summands containing F remain
    (fully invariant) direct summands?"""
    return _summands_closed(m, f_sub, cap, fully_invariant_only, False)


def has_ssp_summands_contained_in(
    m: FgAbGroup,
    f_sub: Subgroup,
    cap: int = DEFAULT_SUBGROUP_CAP,
    fully_invariant_only: bool = False,
) -> bool:
    """Do pairwise sums of direct summands contained in F remain (fully
    invariant) direct summands?"""
    return _summands_closed(m, f_sub, cap, fully_invariant_only, True)


# ---------------------------------------------------------------------------
# strongest-mode resolver and certificate re-verification


def decide_self_profile(
    m: FgAbGroup, f_sub: Subgroup, caps: Caps = Caps()
) -> dict[str, SplitVerdict]:
    """Strongest available verdicts: theorem mode always, and brute force
    when the Hom set fits the budget, where each of its verdicts is
    definite; the answers must agree.  A brute-force verdict is new on each
    call, so it takes mode "brute+theorem" and theorem mode's trace itself."""
    theorem = self_split_profile_theorem(m, f_sub, caps)
    total = hom_count(m, m)
    if total is None or total > caps.hom_budget:
        return theorem  # brute force could only answer unknown
    brute = self_split_profile(m, f_sub, caps.hom_budget)
    for k, tv in theorem.items():
        bv = brute[k]
        if bv.answer != tv.answer:
            raise InternalConsistencyError(
                f"brute force says {bv.answer} but theorem mode says "
                f"{tv.answer} for {tv.predicate} on {m} with F = {f_sub}"
            )
        bv.mode, bv.trace = "brute+theorem", tv.trace
    return brute


def reverify(verdict: SplitVerdict) -> bool:
    """Independently re-check a verdict's certificate; True means every
    check ran and held, so a brute-force Yes over DEFAULT_HOM_BUDGET,
    whose quantifier is not re-run, is False."""
    if verdict.is_unknown:
        return True
    f_sub = verdict.f_sub
    if verdict.is_no:
        ce = verdict.counterexample
        if ce is None:
            return False
        sub = _reached(ce.g, f_sub, verdict.dual)
        if sub.canonical != ce.subgroup.canonical:
            return False
        if ce.kind == "not_summand":
            return summand_witness(sub) is None
        return summand_witness(sub) is not None and not is_fully_invariant(sub)
    # Yes with brute-force witnesses: re-run the quantifier, checking each
    # morphism's kernel/image lands on a certified summand
    if verdict.mode.startswith("brute") and verdict.witnesses:
        certified = {w[0] for w in verdict.witnesses}
        for canonical, _g, witness, _count in verdict.witnesses:
            sub = Subgroup(verdict.source, canonical)
            inc = inclusion(sub)
            if compose(witness, inc) != identity_hom(inc.dom):
                return False
            if verdict.strongly and not is_fully_invariant(sub):
                return False
        src, dst = (verdict.carrier, verdict.source) if verdict.dual else (verdict.source, verdict.carrier)
        total = hom_count(src, dst)
        if total is None or total > DEFAULT_HOM_BUDGET:
            return False
        return all(_reached(g, f_sub, verdict.dual).canonical in certified for g in iter_hom(src, dst))
    # theorem-mode Yes: recheck the two reduction legs
    if summand_witness(f_sub) is None:
        return False
    if verdict.dual:
        comp = inclusion(f_sub).dom
    else:
        comp, _q = quotient(verdict.carrier, f_sub)
    ok, _ = structural_self_rickart(comp, verdict.dual)
    if not ok:
        return False
    if verdict.strongly:
        return end_ring_abelian_closed_form(comp)
    return True
