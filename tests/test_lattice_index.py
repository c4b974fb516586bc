"""The element bitsets a finite group's analysis builds when it lists the
group, for verify's lattice queries, against element sets built by closure
and against the Hermite and Smith answers they replace, and theorem mode's
reading of them against the coordinate summand test.

The reference below works on plain tuples: a group is its invariant factors
and a subgroup the closure of its generators.  Tier-1 checks every subgroup
and theorem verdict to order 32 and the SIP/SSP decisions to order 48;
ABSPLIT_INDEX_MAX_ORDER raises both bounds (CI runs them to order 64 in a
step of its own).
"""

import os
from math import prod

import pytest

from absplit import splitness, subgroups
from absplit.groups import format_group, hom_count
from absplit.harness import enumerate_groups
from absplit.splitness import (
    DEFAULT_HOM_BUDGET,
    Caps,
    analysis_for,
    self_split_profile,
    self_split_profile_theorem,
)
from absplit.subgroups import intersect, is_pure, subgroup_group, sum_sub
from oracles import summands_closed_by_hermite

_RAISED = os.environ.get("ABSPLIT_INDEX_MAX_ORDER")
MASK_MAX_ORDER = int(_RAISED or 32)
CLOSED_MAX_ORDER = int(_RAISED or 48)
CAP = Caps().subgroup_cap


# --- the reference: element sets from generator tuples ---------------------


def _add(factors, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def _closure(factors, gens):
    """The subgroup of ⊕ Z/d_i the generators span, as a set of tuples."""
    zero = (0,) * len(factors)
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _add(factors, x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def _bits(factors, elements):
    """The bitset of a set of elements: x sits at bit Σ x_i·(d_{i+1} ⋯ d_{n-1})."""
    weights = [prod(factors[i + 1:]) for i in range(len(factors))]
    return sum(1 << sum(x * w for x, w in zip(e, weights)) for e in elements)


def _multiple(factors, k, x):
    return tuple(k * a % d for a, d in zip(x, factors))


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _iso_type(factors, elements):
    """Invariant factors, ascending, of a group given by its elements: per
    prime p, the p-torsion counts n_k = #{x : p^k·x = 0} satisfy
    n_k/n_{k-1} = p^r, r the number of cyclic p-factors of order >= p^k,
    and each of the r largest invariant factors takes one p."""
    zero = (0,) * len(factors)
    out = []
    for p in _primes(len(elements)):
        below, k = 1, 1
        while True:
            n_k = sum(1 for x in elements if _multiple(factors, p**k, x) == zero)
            r, ratio = 0, n_k // below
            while ratio > 1:
                ratio //= p
                r += 1
            if r == 0:
                break
            out += [1] * (r - len(out))
            for j in range(r):
                out[j] *= p
            below, k = n_k, k + 1
    return tuple(reversed(out))


def _reference(m):
    """Each listed subgroup with its element set, on a cold analysis."""
    subs = analysis_for(m).subgroups(CAP)
    return [(s, _closure(m.factors, [r for r in s.canonical])) for s in subs]


@pytest.fixture
def cold(monkeypatch):
    monkeypatch.setattr(splitness, "_ANALYSES", {})


# --- the bitsets and the queries they answer -------------------------------


@pytest.mark.parametrize("m", list(enumerate_groups(MASK_MAX_ORDER)), ids=format_group)
def test_masks_are_the_element_sets(cold, m):
    # listing M builds every subgroup's bitset, in list order, and nothing
    # before it
    analysis = analysis_for(m)
    assert analysis.bits is None and not analysis.masks
    ref = _reference(m)
    masks = analysis.masks
    assert list(masks) == [s.canonical for s, _ in ref]
    for s, elements in ref:
        assert masks[s.canonical] == _bits(m.factors, elements), s
    # primal, the near-set of the trivial subgroup is the whole list
    near = analysis.near(ref[0][0], CAP, False)
    assert list(near.items()) == [(masks[s.canonical], s) for s, _ in ref]


@pytest.mark.parametrize("m", list(enumerate_groups(MASK_MAX_ORDER)), ids=format_group)
def test_lattice_queries_match_the_elements_and_hermite(cold, m):
    analysis = analysis_for(m)
    ref = _reference(m)
    masks = analysis.masks
    everything = {masks[s.canonical]: s for s, _ in ref}
    # each subgroup against a stride of the list, about 16 partners each
    stride = max(1, len(ref) // 16)
    for s, a_set in ref:
        a = masks[s.canonical]
        assert a.bit_count() == len(a_set) == s.order, s
        assert analysis.subgroup_props(s).iso_type == _iso_type(m.factors, a_set), s
        assert analysis.subgroup_props(s).iso_type == subgroup_group(s).factors, s
        for t, b_set in ref[::stride]:
            b = masks[t.canonical]
            assert (not a & ~b) == (a_set <= b_set) == t.contains_subgroup(s), (s, t)
            meet = splitness._join_mask(analysis.bits, everything, a, b, False)
            assert everything[meet] == intersect(s, t), (s, t)
            assert meet == _bits(m.factors, a_set & b_set), (s, t)
            total = splitness._join_mask(analysis.bits, everything, a, b, True)
            assert everything[total] == sum_sub(s, t), (s, t)
            sum_set = {_add(m.factors, x, y) for x in a_set for y in b_set}
            assert total == _bits(m.factors, sum_set), (s, t)
            complement = a.bit_count() * b.bit_count() == m.order and a & b == 1
            assert complement == (len(a_set & b_set) == 1 and len(sum_set) == m.order), (s, t)
            assert complement == (s.order * t.order == m.order and sum_sub(s, t).is_full), (s, t)


@pytest.mark.parametrize("m", list(enumerate_groups(MASK_MAX_ORDER)), ids=format_group)
def test_purity_from_bitsets_matches_hermite(cold, monkeypatch, m):
    # |S ∩ qM|·|S ∩ M[q]| = |S| for each layer q against the Hermite test
    # S ∩ qM = qS; a listed subgroup's summand test then makes no Hermite
    # intersection
    analysis = analysis_for(m)
    want = {s: is_pure(s) for s in analysis.subgroups(CAP)}
    monkeypatch.setattr(subgroups, "intersect", None)
    for s, pure in want.items():
        assert analysis.bits.is_pure(analysis.masks[s.canonical]) == pure, s
        assert analysis.subgroup_props(s).is_summand == pure, s


@pytest.mark.parametrize("m", list(enumerate_groups(MASK_MAX_ORDER)), ids=format_group)
def test_a_listed_groups_sweeps_make_no_hermite_purity_call(cold, monkeypatch, m):
    # listing M builds its bitsets, so every subgroup the sweeps reach
    # afterwards reads its summand test from them, whichever query came
    # first; each F is swept wherever the budget allows, so the patched
    # intersect and is_pure are met on every group the sweep can reach
    analysis = analysis_for(m)
    fs = analysis.fi_subgroups(CAP)

    def hermite(*args):
        raise AssertionError(f"Hermite purity on listed {format_group(m)}")

    monkeypatch.setattr(subgroups, "intersect", hermite)
    monkeypatch.setattr(splitness, "is_pure", hermite)
    swept = hom_count(m, m) <= DEFAULT_HOM_BUDGET
    for f in fs:
        for key, v in self_split_profile(m, f).items():
            assert v.is_unknown != swept, (f, key)


@pytest.mark.parametrize("m", list(enumerate_groups(CLOSED_MAX_ORDER)), ids=format_group)
def test_summands_closed_matches_the_hermite_oracle(m):
    analysis = analysis_for(m)
    for f in analysis.fi_subgroups(CAP):
        for fi_only in (False, True):
            for dual in (False, True):
                got = splitness._summands_closed(m, f, CAP, fi_only, dual)
                assert got == summands_closed_by_hermite(m, f, CAP, fi_only, dual), (f, fi_only, dual)


def test_theorem_mode_with_no_listed_lattice_matches_the_bitsets():
    # with a subgroup cap of 1 no group of order > 1 is listed, so the
    # strong summand route takes the coordinate test where it would read
    # the near-set's bitsets; every verdict and trace must be the same,
    # apart from the route's name
    verdicts = routed = 0
    for m in enumerate_groups(MASK_MAX_ORDER):
        if m.order == 1:
            continue
        for f in analysis_for(m).fi_subgroups(CAP):
            listed = self_split_profile_theorem(m, f, Caps())
            unlisted = self_split_profile_theorem(m, f, Caps(subgroup_cap=1))
            for key, v in listed.items():
                want = [line.replace("subgroup enumeration", "coordinate summands") for line in v.trace]
                assert unlisted[key].answer == v.answer, (m, f, key)
                assert list(unlisted[key].trace) == want, (m, f, key)
                routed += want != list(v.trace)
                verdicts += 1
    assert verdicts and routed
