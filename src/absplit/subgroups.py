"""Subgroup calculus: membership, intersection, sum, quotients, enumeration,
and fully-invariance decisions.

A subgroup is canonicalized as the row Hermite basis of the lattice spanned
by its generators together with the ambient relations, so two generator sets
spanning the same subgroup produce identical canonical matrices and subgroups
can be hashed and deduplicated.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .intmat import (
    Matrix,
    _diag_after,
    _graph_basis,
    hnf_rows,
    identity,
    prime_factors,
    row_lattice_contains,
)
from .groups import (
    FgAbGroup,
    Morphism,
    ObjectMismatchError,
    hom_group,
    is_epi,
    is_mono,
    _quotient_epi,
    _span_mono,
    section_witness,
    Value,
)


class SubgroupCapError(ValueError):
    """Subgroup enumeration refused: ambient order exceeds the cap."""


class FullyInvariantError(ValueError):
    """Subgroup is not fully invariant; carries a violating endomorphism."""

    def __init__(self, message: str, endo: Morphism, element: tuple[int, ...]):
        super().__init__(message)
        self.endo = endo
        self.element = element


class Subgroup(Value):
    """A subgroup of ambient, held as the canonical Hermite rows of its
    lattice (the generators together with the ambient relations)."""

    __slots__ = ("ambient", "canonical")

    def __init__(self, ambient: FgAbGroup, canonical: Matrix):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "canonical", canonical)

    @property
    def is_full(self) -> bool:
        # Z^n is the lattice of the full subgroup, finite ambient or not
        return self.canonical == identity(self.ambient.ngens)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient.ngens:
            raise ObjectMismatchError("element has wrong coordinate count")
        return row_lattice_contains(self.canonical, vec)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise ObjectMismatchError("ambient mismatch")
        return all(row_lattice_contains(self.canonical, r) for r in other.canonical)

    @property
    def order(self) -> Optional[int]:
        """Number of elements, None when infinite.  The lattice L holds the
        relations R of the t finite factors, which come first, so S = L/R is
        finite exactly when L has rank t; then row i pivots in column i and
        |S| = [L : R] = prod(d) / prod(pivots)."""
        torsion = self.ambient.torsion_factors
        if len(self.canonical) > len(torsion):
            return None
        return prod(torsion) // prod(r[i] for i, r in enumerate(self.canonical))

    def __str__(self) -> str:
        gens = [tuple(self.ambient.reduce(r)) for r in self.canonical]
        gens = [g for g in gens if any(g)]
        return "<" + ", ".join(str(g) for g in gens) + ">" if gens else "<0>"


def _seeded_block(
    factors: tuple[int, ...],
    rows: Iterable[Sequence[int]],
    k: int,
    start: Optional[Sequence[Sequence[int]]] = None,
) -> Matrix:
    """Columns k.. of the basis rows with zero in the first k coordinates, in
    the Hermite basis of the rows over the relations diag(factors), or over
    the start rows when given: the canonical basis of {x : (0, x) in the
    lattice}.  One hnf_rows pass on every ambient: the relations, or the
    start rows, go first and are in echelon form, so the pass places them
    without elimination and then inserts the rows."""
    seed = _diag_after(0, factors) if start is None else list(start)
    basis = hnf_rows(seed + list(rows), len(factors))
    return tuple(r[k:] for r in basis if not any(r[:k]))


def sub_from_gens(ambient: FgAbGroup, gens: Iterable[Sequence[int]]) -> Subgroup:
    """The subgroup generated by the given vectors: one Hermite pass over the
    generators and the relations."""
    gen_list = [tuple(v) for v in gens]
    for v in gen_list:
        if len(v) != ambient.ngens:
            raise ObjectMismatchError("generator has wrong coordinate count")
    return Subgroup(ambient, _seeded_block(ambient.factors, gen_list, 0))


def trivial_subgroup(ambient: FgAbGroup) -> Subgroup:
    return sub_from_gens(ambient, [])


def full_subgroup(ambient: FgAbGroup) -> Subgroup:
    n = ambient.ngens
    return sub_from_gens(ambient, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])


# ---------------------------------------------------------------------------
# subgroup <-> abstract group


def _columns(ambient: FgAbGroup, canonical: Matrix) -> Matrix:
    """The basis rows as columns, one row per generator of the ambient."""
    return tuple(zip(*canonical)) if canonical else ((),) * ambient.ngens


def inclusion(s: Subgroup) -> Morphism:
    """Monomorphism from the abstract group of s into the ambient group."""
    return _span_mono(s.ambient, _columns(s.ambient, s.canonical))


def subgroup_group(s: Subgroup) -> FgAbGroup:
    return inclusion(s).dom


def quotient(m: FgAbGroup, s: Subgroup) -> tuple[FgAbGroup, Morphism]:
    """(M/S, q) with q the canonical epimorphism; kernel of q is exactly S."""
    if s.ambient != m:
        raise ObjectMismatchError("subgroup does not live in the given group")
    q = _quotient_epi(m, _columns(m, s.canonical))
    return q.cod, q


# ---------------------------------------------------------------------------
# images and preimages


def map_subgroup(f: Morphism, s: Subgroup) -> Subgroup:
    """f(S) as a subgroup of cod(f)."""
    if s.ambient != f.dom:
        raise ObjectMismatchError("subgroup does not live in dom(f)")
    return sub_from_gens(f.cod, [f(r) for r in s.canonical])


def image_subgroup(f: Morphism) -> Subgroup:
    """im(f) as a canonical subgroup of cod(f), generated by f's columns."""
    cols = list(zip(*f.rows)) if f.rows else []
    return sub_from_gens(f.cod, cols)


def _seeded_preimage(f: Morphism, top: Sequence[Sequence[int]]) -> Subgroup:
    """f^{-1}(T), for T with the canonical basis top: the pairs (f(x) + t, x)
    with t in T and first part zero are the (0, x) with x in f^{-1}(T), the
    block after ngens(cod) columns of the graph basis."""
    n = f.cod.ngens
    basis = _graph_basis(f.rows, top, f.dom.ngens, f.dom.factors)
    return Subgroup(f.dom, tuple(r[n:] for r in basis if not any(r[:n])))


def preimage_subgroup(f: Morphism, t: Subgroup) -> Subgroup:
    """f^{-1}(T) as a subgroup of dom(f)."""
    if t.ambient != f.cod:
        raise ObjectMismatchError("subgroup does not live in cod(f)")
    return _seeded_preimage(f, t.canonical)


def kernel_subgroup(f: Morphism) -> Subgroup:
    return _seeded_preimage(f, _diag_after(0, f.cod.factors))


# ---------------------------------------------------------------------------
# lattice operations


def intersect(s: Subgroup, t: Subgroup) -> Subgroup:
    """S ∩ T on the canonical lattices (Zassenhaus).

    The rows (v, v) for v in S.canonical and (w, 0) for w in T.canonical
    span the pairs (a·S + b·T, a·S).  Those with first half zero are exactly
    the (0, x) with x = a·S = −b·T in S ∩ T, and a Hermite basis lists a
    basis of them last.  Both lattices hold the relations, so that block is
    already the canonical form.  The pass starts from the rows (v, v) and
    (0, d_i e_i), in echelon form, and inserts T's rows."""
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    n = s.ambient.ngens
    start = [r + r for r in s.canonical] + _diag_after(n, s.ambient.factors)
    tops = [r + (0,) * n for r in t.canonical]
    return Subgroup(s.ambient, _seeded_block(s.ambient.factors * 2, tops, n, start))


def sum_sub(s: Subgroup, t: Subgroup) -> Subgroup:
    """S + T: one pass that starts from S's canonical basis and inserts T's."""
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    return Subgroup(s.ambient, _seeded_block(s.ambient.factors, t.canonical, 0, s.canonical))


def all_subgroups(m: FgAbGroup, cap: int = 512) -> list[Subgroup]:
    """Complete duplicate-free subgroup list of a finite group of order <= cap,
    sorted by (order, canonical).

    With factors d_1, ..., d_n, a subgroup's canonical form is the n×n
    upper-triangular Hermite basis H of a lattice L between the relation
    lattice R = diag(d) and Z^n: its diagonal entries h_i divide d_i and the
    entries above the diagonal in column j lie in [0, h_j).  H is built from
    the last row up, and a row (0, ..., 0, h, t) over rows below is kept
    exactly when d_i e_i lies in L, that is when (d_i/h)·(0, t) reduces to
    zero against the rows below.  Distinct matrices of this shape span
    distinct lattices, so each subgroup is produced once and already
    canonical, at a cost that grows with the number of subgroups.  Refuses
    (never truncates) an infinite group or an order beyond the cap.
    """
    order = m.order
    if order is None:
        raise SubgroupCapError(f"{m} is infinite; subgroup enumeration refused")
    if order > cap:
        raise SubgroupCapError(
            f"order {order} exceeds the subgroup enumeration cap {cap}"
        )
    factors = m.factors
    forms: list[Matrix] = []

    def extend(i: int, below: Matrix) -> None:
        if i < 0:
            forms.append(below)
            return
        d = factors[i]
        # the pivot of below[k] sits in column i + 1 + k
        boxes = [range(row[j]) for j, row in enumerate(below, i + 1)]
        tails = list(itertools.product(*boxes))
        lead = (0,) * (i + 1)
        for h in range(1, d + 1):
            if d % h:
                continue
            k = d // h
            for t in tails:
                if row_lattice_contains(below, lead + tuple(k * x for x in t)):
                    extend(i - 1, ((0,) * i + (h,) + t,) + below)

    extend(len(factors) - 1, ())
    subs = [Subgroup(m, h) for h in forms]
    return sorted(subs, key=lambda s: (s.order, s.canonical))


class ElementBits:
    """Element bitsets over the finite group with these factors: x is bit
    x_0·N_1 + … + x_{n-1}·N_n, with N_i = d_i ⋯ d_{n-1}, so a subgroup is an
    int whose bit 0 is the zero element."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.sizes = [prod(factors[i:]) for i in range(len(factors) + 1)]
        self.full = (1 << self.sizes[0]) - 1
        self._moves: dict[tuple[int, ...], list[tuple[int, int, int, int]]] = {}

    def move(self, x: int, g: tuple[int, ...]) -> int:
        """The bitset x moved by the element g: each block of N_j bits
        rotates up by (g_j mod d_j)·N_{j+1}, its top bits wrapping."""
        steps = self._moves.get(g)
        if steps is None:
            steps = self._moves[g] = []
            for t, d, block, below in zip(g, self.factors, self.sizes, self.sizes[1:]):
                shift = t % d * below
                if shift:
                    # the bits under block - shift of each block rise; the rest wrap
                    low = ((1 << block - shift) - 1) * (self.full // ((1 << block) - 1))
                    steps.append((shift, block - shift, low, self.full ^ low))
        for shift, back, low, high in steps:
            x = (x & low) << shift | (x & high) >> back
        return x

    def span(self, x: int, gens: Iterable[tuple[int, ...]]) -> int:
        """The bitset of X + ⟨gens⟩ for a subgroup X with bitset x: each
        generator g adds the cosets X + k·g, k = 1, 2, …, until one meets
        those before, which are disjoint from it or equal."""
        for g in gens:
            cur = self.move(x, g)
            while not cur & x:
                x |= cur
                cur = self.move(cur, g)
        return x

    def masks(self, forms: Iterable[Matrix]) -> list[int]:
        """The bitset of each canonical form, built from the last row up as
        all_subgroups builds it: rows i.. span rows i+1.. and row i.  Each
        suffix of rows, shared by many forms, is built once."""
        @lru_cache(maxsize=None)
        def mask(rows: Matrix) -> int:
            return self.span(mask(rows[1:]), rows[:1]) if rows else 1
        return [mask(h) for h in forms]

    def torsion(self, q: int) -> int:
        """The bitset of M[q] = {x : q·x = 0}, spanned by the (d_i / gcd(d_i, q))·e_i."""
        return self.span(1, _diag_after(0, [d // gcd(d, q) for d in self.factors]))

    def multiples(self, q: int) -> int:
        """The bitset of qM, spanned by the q·e_i."""
        return self.span(1, _diag_after(0, [q] * len(self.factors)))

    def is_pure(self, mask: int) -> bool:
        """is_pure for the subgroup S with this bitset, by counting: x -> q·x
        maps S onto qS ⊆ S ∩ qM with kernel S ∩ M[q], so S ∩ qM = qS iff
        |S ∩ qM|·|S ∩ M[q]| = |S|, on the same layers q."""
        size = mask.bit_count()
        return all(
            (mask & self.multiples(q)).bit_count() * (mask & self.torsion(q)).bit_count() == size
            for q in _pure_layers(self.factors)
        )


# ---------------------------------------------------------------------------
# fully invariant subgroups


@lru_cache(maxsize=128)
def _end_basis(m: FgAbGroup) -> tuple[tuple[Morphism, int, int, int], ...]:
    """Additive basis of End(M) for fi_violation, built once per ambient:
    (h, i, j, step) for the basis element whose one nonzero entry is
    h.rows[i][j] = step."""
    out = []
    for h in hom_group(m, m).basis:
        i, j = next((i, j) for i, row in enumerate(h.rows) for j, x in enumerate(row) if x)
        out.append((h, i, j, h.rows[i][j]))
    return tuple(out)


def fi_violation(s: Subgroup) -> Optional[tuple[Morphism, tuple[int, ...]]]:
    """(h, x) with x in S but h(x) not in S, for some endomorphism h; None if
    S is fully invariant.  Testing the additive basis of End(M) suffices:
    subgroups are closed under sums and negation, so closure under a basis
    implies closure under every endomorphism.  A basis element h has one
    nonzero entry, so h(x) has the single coordinate step·x_j mod d_i."""
    factors = s.ambient.factors
    n = len(factors)
    for h, i, j, step in _end_basis(s.ambient):
        d = factors[i]
        for row in s.canonical:
            y = step * row[j] % d if d else step * row[j]
            if y and not row_lattice_contains(
                s.canonical, (0,) * i + (y,) + (0,) * (n - i - 1)
            ):
                return h, tuple(row)
    return None


def is_fully_invariant(s: Subgroup) -> bool:
    return fi_violation(s) is None


def require_fully_invariant(carrier: FgAbGroup, s: Subgroup) -> None:
    """Reject an S that does not live in the carrier group, or that is not
    fully invariant there (with the violating endomorphism)."""
    if s.ambient != carrier:
        raise ObjectMismatchError(f"subgroup does not live in the carrier group {carrier}")
    bad = fi_violation(s)
    if bad is not None:
        h, x = bad
        raise FullyInvariantError(
            f"subgroup is not fully invariant in {carrier}: endomorphism moves {x} to {h(x)}",
            h,
            x,
        )


# ---------------------------------------------------------------------------
# short exact sequences


class ShortExactSequence(Value):
    """0 -> dom(i) -> M -> cod(d) -> 0 with im(i) = ker(d)."""

    __slots__ = ("i", "d")

    def __init__(self, i: Morphism, d: Morphism):
        if i.cod != d.dom:
            raise ObjectMismatchError("sequence does not compose")
        super().__init__(i, d)

    @property
    def middle(self) -> FgAbGroup:
        return self.i.cod


def build_ses(i: Morphism, d: Morphism) -> ShortExactSequence:
    """Validated short exact sequence: i mono, d epi, im(i) = ker(d)."""
    if not is_mono(i):
        raise ObjectMismatchError("kernel side is not a monomorphism")
    if not is_epi(d):
        raise ObjectMismatchError("cokernel side is not an epimorphism")
    if image_subgroup(i).canonical != kernel_subgroup(d).canonical:
        raise ObjectMismatchError("im(i) differs from ker(d); sequence not exact")
    return ShortExactSequence(i, d)


def fi_ses(m: FgAbGroup, s: Subgroup) -> ShortExactSequence:
    """The fully invariant sequence 0 -> S -> M -> M/S -> 0.

    Rejected with the violating endomorphism when S is not fully invariant.
    """
    require_fully_invariant(m, s)
    inc = inclusion(s)
    cgrp, q = quotient(m, s)
    return build_ses(inc, q)


# ---------------------------------------------------------------------------
# summands


def _pure_layers(factors: tuple[int, ...]) -> list[int]:
    """The p^k for each prime p of the finite order prod(factors) and
    1 <= k < e_p, the largest exponent of p in the factors."""
    out = []
    for p in prime_factors(prod(factors)):
        e_p = max(prime_factors(d).get(p, 0) for d in factors)
        out += [p**k for k in range(1, e_p)]
    return out


def is_pure(s: Subgroup) -> bool:
    """Is S pure in its finite ambient M: S ∩ p^k M = p^k S for every prime p
    and every k >= 1?  In a finite abelian group the pure subgroups are
    exactly the direct summands (Kulikov; Fuchs, Infinite Abelian Groups I,
    §27–28), so this decides summands without solving for a retraction.
    Only k < e_p needs a test: from e_p on, p^k M is the p'-part of M and
    both sides are the p'-part of S.  One Hermite intersection a layer; a
    listed M counts elements instead (ElementBits.is_pure)."""
    m = s.ambient
    if not m.is_finite:
        raise ObjectMismatchError("purity test requires a finite ambient")
    return all(
        intersect(s, sub_from_gens(m, _diag_after(0, (q,) * m.ngens)))
        == sub_from_gens(m, [tuple(q * x for x in r) for r in s.canonical])
        for q in _pure_layers(m.factors)
    )


def summand_witness(s: Subgroup) -> Optional[Morphism]:
    """Retraction onto s when its inclusion is a section, else None."""
    return section_witness(inclusion(s))


def is_summand(s: Subgroup) -> bool:
    return summand_witness(s) is not None
