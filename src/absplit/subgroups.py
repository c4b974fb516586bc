"""Subgroup calculus: membership, intersection, sum, quotients, enumeration,
and fully-invariance decisions.

A subgroup is canonicalized as the row Hermite basis of the lattice spanned
by its generators together with the ambient relations, so two generator sets
spanning the same subgroup produce identical canonical matrices and subgroups
can be hashed and deduplicated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .intmat import (
    Matrix,
    freeze,
    hnf_rows,
    hstack,
    lattice_index,
    mat_mul,
    row_lattice_contains,
    solution_lattice,
    solve_congruences,
)
from .groups import (
    FgAbGroup,
    Morphism,
    ObjectMismatchError,
    canonical_group,
    hom_group,
    is_epi,
    is_mono,
    morphism,
    zero_hom,
    _diag_columns,
)


class SubgroupCapError(ValueError):
    """Subgroup enumeration refused: ambient order exceeds the cap."""


class FullyInvariantError(ValueError):
    """Subgroup is not fully invariant; carries a violating endomorphism."""

    def __init__(self, message: str, endo: Morphism, element: tuple[int, ...]):
        super().__init__(message)
        self.endo = endo
        self.element = element


@dataclass(frozen=True)
class Subgroup:
    ambient: FgAbGroup
    gens: Matrix = field(compare=False)  # generator columns as given
    canonical: Matrix   # canonical Hermite rows of the generated lattice

    @property
    def is_trivial_subgroup(self) -> bool:
        return self.canonical == _relation_lattice(self.ambient)

    @property
    def is_full(self) -> bool:
        return self.canonical == full_subgroup(self.ambient).canonical

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
        """Number of elements, None when infinite."""
        return _subgroup_order(self.ambient.factors, self.canonical)

    def __str__(self) -> str:
        gens = [tuple(self.ambient.reduce(r)) for r in self.canonical]
        gens = [g for g in gens if any(g)]
        return "<" + ", ".join(str(g) for g in gens) + ">" if gens else "<0>"


@lru_cache(maxsize=None)
def _relation_lattice(ambient: FgAbGroup) -> Matrix:
    rows = [
        [d if i == j else 0 for j in range(ambient.ngens)]
        for i, d in enumerate(ambient.factors)
        if d > 0
    ]
    return hnf_rows(rows, ambient.ngens)


def sub_from_gens(ambient: FgAbGroup, gens: Iterable[Sequence[int]]) -> Subgroup:
    gen_list = [tuple(v) for v in gens]
    for v in gen_list:
        if len(v) != ambient.ngens:
            raise ObjectMismatchError("generator has wrong coordinate count")
    rel = [
        [d if i == j else 0 for j in range(ambient.ngens)]
        for i, d in enumerate(ambient.factors)
        if d > 0
    ]
    canon = hnf_rows(gen_list + rel, ambient.ngens)
    cols = freeze(zip(*gen_list)) if gen_list else freeze([[] for _ in range(ambient.ngens)])
    return Subgroup(ambient, cols, canon)


def trivial_subgroup(ambient: FgAbGroup) -> Subgroup:
    return sub_from_gens(ambient, [])


def full_subgroup(ambient: FgAbGroup) -> Subgroup:
    n = ambient.ngens
    return sub_from_gens(ambient, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])


def sub_equal(s: Subgroup, t: Subgroup) -> bool:
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    return s.canonical == t.canonical


def _subgroup_order(factors: tuple[int, ...], canonical: Matrix) -> Optional[int]:
    n = len(factors)
    rel_index = 1
    for d in factors:
        if d == 0:
            rel_index = None
            break
        rel_index *= d
    idx = lattice_index(canonical, n)
    if rel_index is not None:
        # |S| = [lattice : relations] = |M| / [Z^n : lattice]
        return rel_index // idx if idx else None
    # infinite ambient: finite iff lattice/relations has no free part
    grp = subgroup_group(Subgroup(FgAbGroup(factors), (), canonical))
    return grp.order


# ---------------------------------------------------------------------------
# subgroup <-> abstract group


@lru_cache(maxsize=None)
def _inclusion_cached(ambient: FgAbGroup, canonical: Matrix) -> Morphism:
    n = ambient.ngens
    ngen = len(canonical)
    if ngen == 0:
        from .groups import TRIVIAL

        return zero_hom(TRIVIAL, ambient)
    cols = freeze(zip(*canonical))  # n × ngen
    rel = solution_lattice(cols, ambient.factors, ncols=ngen)
    pres = canonical_group(rel, ngen)
    return morphism(pres.group, ambient, mat_mul(cols, pres.from_canonical))


def inclusion(s: Subgroup) -> Morphism:
    """Monomorphism from the abstract group of s into the ambient group."""
    return _inclusion_cached(s.ambient, s.canonical)


def subgroup_group(s: Subgroup) -> FgAbGroup:
    return inclusion(s).dom


@lru_cache(maxsize=None)
def _quotient_cached(ambient: FgAbGroup, canonical: Matrix) -> Morphism:
    rel = hstack(_diag_columns(ambient.factors), freeze(zip(*canonical)) if canonical else freeze([[] for _ in range(ambient.ngens)]))
    pres = canonical_group(rel, ambient.ngens)
    return morphism(ambient, pres.group, pres.to_canonical)


def quotient(m: FgAbGroup, s: Subgroup) -> tuple[FgAbGroup, Morphism]:
    """(M/S, q) with q the canonical epimorphism; kernel of q is exactly S."""
    if s.ambient != m:
        raise ObjectMismatchError("subgroup does not live in the given group")
    q = _quotient_cached(m, s.canonical)
    return q.cod, q


def express_in_subgroup(s: Subgroup, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Coordinates of vec in the abstract group of s, or None if not a member."""
    inc = inclusion(s)
    sol = solve_congruences(
        inc.rows, list(vec), s.ambient.factors, ncols=inc.dom.ngens
    )
    if sol is None:
        return None
    return inc.dom.reduce(sol)


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


def preimage_subgroup(f: Morphism, t: Subgroup) -> Subgroup:
    """f^{-1}(T) as a subgroup of dom(f)."""
    if t.ambient != f.cod:
        raise ObjectMismatchError("subgroup does not live in cod(f)")
    m, n = f.dom.ngens, f.cod.ngens
    w = freeze(zip(*t.canonical)) if t.canonical else freeze([[] for _ in range(n)])
    r = len(t.canonical)
    sys_rows = [list(f.rows[i]) + [-w[i][k] for k in range(r)] for i in range(n)]
    lat = solution_lattice(freeze(sys_rows), f.cod.factors, ncols=m + r)
    gens = [[lat[i][j] for j in range(len(lat[0]))] for i in range(m)] if lat and lat[0] else []
    return sub_from_gens(f.dom, list(zip(*gens)) if gens else [])


def kernel_subgroup(f: Morphism) -> Subgroup:
    lat = solution_lattice(f.rows, f.cod.factors, ncols=f.dom.ngens)
    cols = list(zip(*lat)) if lat and lat[0] else []
    return sub_from_gens(f.dom, cols)


# ---------------------------------------------------------------------------
# lattice operations


def intersect(s: Subgroup, t: Subgroup) -> Subgroup:
    """S ∩ T on the canonical lattices (Zassenhaus).

    The rows (v, v) for v in S.canonical and (w, 0) for w in T.canonical
    span the pairs (a·S + b·T, a·S).  Those with first half zero are exactly
    the (0, x) with x = a·S = −b·T in S ∩ T, and a Hermite basis lists a
    basis of them last."""
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    n = s.ambient.ngens
    rows = [r + r for r in s.canonical] + [r + (0,) * n for r in t.canonical]
    gens = [r[n:] for r in hnf_rows(rows, 2 * n) if not any(r[:n])]
    return sub_from_gens(s.ambient, gens)


def sum_sub(s: Subgroup, t: Subgroup) -> Subgroup:
    """S + T via the juxtaposed generator matrix."""
    if s.ambient != t.ambient:
        raise ObjectMismatchError("ambient mismatch")
    return sub_from_gens(s.ambient, list(s.canonical) + list(t.canonical))


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
    subs = [Subgroup(m, freeze(zip(*h)), h) for h in forms]
    return sorted(subs, key=lambda s: (s.order, s.canonical))


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


def is_fully_coinvariant(d: Morphism) -> bool:
    """An epimorphism is fully coinvariant iff its kernel is fully invariant."""
    if not is_epi(d):
        raise ObjectMismatchError("fully coinvariant test requires an epimorphism")
    return is_fully_invariant(kernel_subgroup(d))


# ---------------------------------------------------------------------------
# short exact sequences


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> dom(i) -> M -> cod(d) -> 0 with im(i) = ker(d)."""

    i: Morphism
    d: Morphism

    def __post_init__(self):
        if self.i.cod != self.d.dom:
            raise ObjectMismatchError("sequence does not compose")

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
    if s.ambient != m:
        raise ObjectMismatchError("subgroup does not live in the given group")
    bad = fi_violation(s)
    if bad is not None:
        h, x = bad
        raise FullyInvariantError(
            f"subgroup is not fully invariant: endomorphism moves {x} to {h(x)}",
            h,
            x,
        )
    inc = inclusion(s)
    cgrp, q = quotient(m, s)
    return build_ses(inc, q)


# ---------------------------------------------------------------------------
# summands


def summand_witness(s: Subgroup) -> Optional[Morphism]:
    """Retraction onto s when its inclusion is a section, else None."""
    from .groups import section_witness

    return section_witness(inclusion(s))


def is_summand(s: Subgroup) -> bool:
    return summand_witness(s) is not None
