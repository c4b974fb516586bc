"""The category of finitely generated abelian groups.

Objects are canonical invariant-factor lists (0 encodes a free factor, no
factor equals 1, each factor divides the next with the convention that every
positive integer divides 0).  Morphisms are integer matrices reduced modulo
the codomain relations.  All constructions canonicalize immediately and are
exact; section/retraction questions are decided completely by integer
congruence solving, never by search.
"""

from __future__ import annotations

import itertools
import re
from math import gcd, prod
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .intmat import (
    Matrix,
    dims,
    freeze,
    hstack,
    identity,
    is_squarefree,
    mat_mul,
    snf,
    solution_lattice,
    solve_congruences,
)


class GroupSpecError(ValueError):
    """Invalid group description; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class ObjectMismatchError(ValueError):
    """Domain/codomain or ambient-group mismatch."""


class WellDefinednessError(ValueError):
    """Matrix does not define a homomorphism between the given groups."""


def _chain_ok(factors: Sequence[int]) -> bool:
    for a, b in zip(factors, factors[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b != 0 and b % a != 0:
            return False
    return True


class Value:
    """An immutable value: its fields are its __slots__, in constructor
    order.  Two values are equal when they have the same class and equal
    fields, a value hashes over its fields, and assigning or deleting a field
    raises.  Cache keys and records are values."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        # every field in one read: their tuple, or the field itself when
        # there is one; equality and hashing are hot in cache lookups
        cls._fields = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class FgAbGroup(Value):
    """Canonical object: invariant factors (d1, ..., dk), di | di+1, 0 = Z."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        fs = tuple(map(int, factors))
        object.__setattr__(self, "factors", fs)
        if any(d < 0 for d in fs):
            raise ValueError("invariant factors must be non-negative")
        if any(d == 1 for d in fs):
            raise ValueError("factor 1 is not allowed in canonical form")
        if not _chain_ok(fs):
            raise ValueError(f"factors {fs} violate the divisibility chain")

    @property
    def ngens(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.factors if d == 0)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 0)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def is_free(self) -> bool:
        return all(d == 0 for d in self.factors)

    @property
    def order(self) -> Optional[int]:
        if not self.is_finite:
            return None
        return prod(self.factors) if self.factors else 1

    @property
    def exponent(self) -> Optional[int]:
        """Least n > 0 killing the group; None when there is a free part."""
        if not self.is_finite:
            return None
        return self.factors[-1] if self.factors else 1

    @property
    def is_semisimple(self) -> bool:
        """Finite with squarefree exponent: every subgroup is a summand."""
        exp = self.exponent
        if exp is None:
            return False
        return is_squarefree(exp) if exp > 1 else True

    def elements(self) -> Iterator[tuple[int, ...]]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*(range(d) for d in self.factors))

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical residue of a coordinate vector."""
        return tuple(
            x % d if d else x for x, d in zip(vec, self.factors)
        )

    def __str__(self) -> str:
        return format_group(self)


def group(*factors: int) -> FgAbGroup:
    """Canonical group from an arbitrary factor list (re-normalized)."""
    if any(f < 0 for f in factors):
        raise ValueError("factors must be non-negative")
    rel = _diag_columns(tuple(factors))
    return canonical_group(rel, len(factors)).group


TRIVIAL = FgAbGroup(())


def _diag_columns(factors: Sequence[int]) -> Matrix:
    """Relation matrix of a factor list: one column d_i·e_i per finite factor."""
    n = len(factors)
    cols = [i for i, d in enumerate(factors) if d > 0]
    return freeze(
        [[factors[j] if i == j else 0 for j in cols] for i in range(n)]
    )


def _reduce_rows(cod: FgAbGroup, rows: Iterable[Sequence[int]]) -> Matrix:
    return tuple(
        tuple(x % d if d else x for x in row)
        for row, d in zip(rows, cod.factors)
    )


class Morphism(Value):
    """Homomorphism dom -> cod; rows indexed by cod factors, cols by dom."""

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom: FgAbGroup, cod: FgAbGroup, rows: Matrix):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "rows", rows)

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    def __call__(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.dom.ngens:
            raise ObjectMismatchError("element has wrong coordinate count")
        return self.cod.reduce(
            tuple(sum(r * x for r, x in zip(row, vec)) for row in self.rows)
        )

    def __str__(self) -> str:
        return f"{format_group(self.dom)} -> {format_group(self.cod)} via {self.rows}"


def morphism(dom: FgAbGroup, cod: FgAbGroup, rows: Iterable[Sequence[int]]) -> Morphism:
    """Build a morphism, reducing entries and checking well-definedness."""
    mat = freeze(rows)
    if len(mat) != cod.ngens or any(len(r) != dom.ngens for r in mat):
        raise ObjectMismatchError(
            f"matrix shape {dims(mat)} does not match cod {cod.ngens} x dom {dom.ngens}"
        )
    red = _reduce_rows(cod, mat)
    for i, di in enumerate(cod.factors):
        for j, dj in enumerate(dom.factors):
            v = dj * red[i][j]
            if (v % di if di else v) != 0:
                raise WellDefinednessError(
                    f"entry ({i},{j})={red[i][j]} breaks relation {dj}·x ≡ 0 (mod {di})"
                )
    return Morphism(dom, cod, red)


def identity_hom(m: FgAbGroup) -> Morphism:
    return Morphism(m, m, identity(m.ngens))


def zero_hom(dom: FgAbGroup, cod: FgAbGroup) -> Morphism:
    return Morphism(dom, cod, tuple((0,) * dom.ngens for _ in range(cod.ngens)))


def _product(cod: FgAbGroup, left: Matrix, right: Matrix, cols: int) -> Matrix:
    """The rows of left · right reduced modulo cod's factors, for a right
    with cols columns.  Through the trivial group (no inner dimension) right
    has no row to carry its width, and the product is that many zeros a
    row; with no row in left it has none."""
    rows = mat_mul(left, right) if left and right else ((0,) * cols,) * len(left)
    return _reduce_rows(cod, rows)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f ∘ g (apply g first): entry (i, j) is Σ_t f[i][t]·g[t][j] reduced
    modulo the i-th factor of cod(f)."""
    if g.cod != f.dom:
        raise ObjectMismatchError("compose: cod(g) != dom(f)")
    return Morphism(g.dom, f.cod, _product(f.cod, f.rows, g.rows, g.dom.ngens))


def add_hom(f: Morphism, g: Morphism) -> Morphism:
    if f.dom != g.dom or f.cod != g.cod:
        raise ObjectMismatchError("add: mismatched objects")
    return Morphism(
        f.dom,
        f.cod,
        _reduce_rows(f.cod, tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(f.rows, g.rows))),
    )


def negate_hom(f: Morphism) -> Morphism:
    return Morphism(f.dom, f.cod, _reduce_rows(f.cod, tuple(tuple(-x for x in r) for r in f.rows)))


def sub_hom(f: Morphism, g: Morphism) -> Morphism:
    return add_hom(f, negate_hom(g))


# ---------------------------------------------------------------------------
# canonicalization


class CanonicalPresentation(Value):
    """Cokernel of a relation matrix in canonical form with its certificate.

    to_canonical maps old coordinates to canonical ones; from_canonical is a
    one-sided inverse (to_canonical · from_canonical = identity exactly).
    """

    __slots__ = ("group", "to_canonical", "from_canonical")


def canonical_group(relations: Matrix, generators: int) -> CanonicalPresentation:
    if len(relations) != generators:
        raise ObjectMismatchError("relation matrix must have one row per generator")
    g = generators
    ncols = len(relations[0]) if relations else 0
    if g == 0:
        return CanonicalPresentation(TRIVIAL, (), ())
    if ncols == 0:
        grp = FgAbGroup((0,) * g)
        return CanonicalPresentation(grp, identity(g), identity(g))
    dec = snf(relations)
    diag = dec.diagonal
    raw = [diag[i] if i < len(diag) else 0 for i in range(g)]
    keep = [i for i in range(g) if raw[i] != 1]
    grp = FgAbGroup(tuple(raw[i] for i in keep))
    to_can = tuple(
        tuple(x % raw[i] if raw[i] else x for x in dec.u[i]) for i in keep
    )
    from_can = tuple(tuple(dec.u_inv[r][i] for i in keep) for r in range(g))
    return CanonicalPresentation(grp, to_can, from_can)


# ---------------------------------------------------------------------------
# hom groups


class HomGroup(Value):
    """Additive basis of Hom(dom, cod); order 0 marks an infinite generator."""

    __slots__ = ("dom", "cod", "basis", "orders")


def _pair_generator(a: int, b: int) -> tuple[int, int]:
    """(step, order) of Hom(Z/a, Z/b): the entries of its maps are k·step
    for k < order, where order 0 means every integer k; (0, 1) when Hom = 0."""
    if b > 0:
        g = gcd(a, b)  # gcd(0, b) = b: Hom(Z, Z/b) is generated by 1
        return (b // g, g) if g > 1 else (0, 1)
    return (1, 0) if a == 0 else (0, 1)  # Hom(Z, Z) = Z; Hom(Z/a, Z) = 0


def _hom_table(m: FgAbGroup, n: FgAbGroup) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (step, order) of every entry of a hom matrix M -> N, one row per
    generator of N: the one description of Hom(M, N) read by every consumer."""
    return tuple(tuple(_pair_generator(a, b) for a in m.factors) for b in n.factors)


def hom_group(m: FgAbGroup, n: FgAbGroup) -> HomGroup:
    basis = []
    orders = []
    for i, row in enumerate(_hom_table(m, n)):
        for j, (step, order) in enumerate(row):
            if order != 1:
                rows = [[0] * m.ngens for _ in range(n.ngens)]
                rows[i][j] = step
                basis.append(Morphism(m, n, freeze(rows)))
                orders.append(order)
    return HomGroup(m, n, tuple(basis), tuple(orders))


def hom_count(m: FgAbGroup, n: FgAbGroup) -> Optional[int]:
    """|Hom(M, N)|, or None when it is infinite."""
    orders = [order for row in _hom_table(m, n) for _, order in row]
    return None if 0 in orders else prod(orders)


def iter_hom_rows(m: FgAbGroup, n: FgAbGroup) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All hom matrices in canonical odometer order (finite Hom only): a
    mixed-radix counter over the entries k·step of _hom_table, row by row,
    the last entry fastest.  Nothing is listed ahead, so the first matrices
    cost O(|entries|) whatever |Hom| is."""
    table = _hom_table(m, n)
    if any(order == 0 for row in table for _, order in row):
        raise ValueError("infinite Hom group cannot be enumerated")
    digits = [
        (i, j, step, step * order)
        for i, row in enumerate(table)
        for j, (step, order) in enumerate(row)
        if order > 1
    ][::-1]
    entries = [[0] * m.ngens for _ in table]
    rows = [tuple(r) for r in entries]
    while True:
        yield tuple(rows)
        for i, j, step, top in digits:
            x = entries[i][j] + step
            carry = x == top
            entries[i][j] = 0 if carry else x
            rows[i] = tuple(entries[i])
            if not carry:
                break
        else:
            return


def iter_hom(m: FgAbGroup, n: FgAbGroup) -> Iterator[Morphism]:
    for rows in iter_hom_rows(m, n):
        yield Morphism(m, n, rows)


# ---------------------------------------------------------------------------
# kernels, cokernels, biproducts, pullbacks, pushouts


def _span_mono(m: FgAbGroup, cols: Matrix) -> Morphism:
    """The monomorphism into M from the abstract group spanned by the
    columns of cols, one row per generator of M; the relations among the
    columns are the solutions y of cols·y ≡ 0."""
    ngen = len(cols[0]) if cols else 0
    if ngen == 0:
        return zero_hom(TRIVIAL, m)
    pres = canonical_group(solution_lattice(cols, m.factors, ncols=ngen), ngen)
    return morphism(pres.group, m, mat_mul(cols, pres.from_canonical))


def _quotient_epi(m: FgAbGroup, cols: Matrix) -> Morphism:
    """The epimorphism from M onto M modulo the span of the columns of cols,
    one row per generator of M."""
    pres = canonical_group(hstack(_diag_columns(m.factors), cols), m.ngens)
    return morphism(m, pres.group, pres.to_canonical)


def kernel(f: Morphism) -> tuple[FgAbGroup, Morphism]:
    """(K, k) with k: K -> dom(f) the universal monomorphism killed by f."""
    k = _span_mono(f.dom, solution_lattice(f.rows, f.cod.factors, ncols=f.dom.ngens))
    return k.dom, k


def cokernel(f: Morphism) -> tuple[FgAbGroup, Morphism]:
    """(C, q) with q: cod(f) -> C the universal epimorphism killing im(f)."""
    q = _quotient_epi(f.cod, f.rows)
    return q.cod, q


def is_mono(f: Morphism) -> bool:
    return kernel(f)[0].is_trivial


def is_epi(f: Morphism) -> bool:
    return cokernel(f)[0].is_trivial


def biproduct(
    parts: Sequence[FgAbGroup],
) -> tuple[FgAbGroup, list[Morphism], list[Morphism]]:
    """Canonical direct sum with injections and projections."""
    all_factors = tuple(d for p in parts for d in p.factors)
    n = len(all_factors)
    pres = canonical_group(_diag_columns(all_factors), n)
    g = pres.group
    injections = []
    projections = []
    offset = 0
    for p in parts:
        s = p.ngens
        inj_rows = [
            [pres.to_canonical[i][offset + t] for t in range(s)]
            for i in range(g.ngens)
        ]
        injections.append(morphism(p, g, inj_rows))
        proj_rows = [
            [pres.from_canonical[offset + t][i] for i in range(g.ngens)]
            for t in range(s)
        ]
        projections.append(morphism(g, p, proj_rows))
        offset += s
    return g, injections, projections


def pullback(f: Morphism, g: Morphism) -> tuple[FgAbGroup, Morphism, Morphism]:
    """Limit of the cospan f: A -> C <- B :g, via the kernel of [f, -g]."""
    if f.cod != g.cod:
        raise ObjectMismatchError("pullback needs a common codomain")
    d, injs, projs = biproduct([f.dom, g.dom])
    h = sub_hom(compose(f, projs[0]), compose(g, projs[1]))
    p, k = kernel(h)
    return p, compose(projs[0], k), compose(projs[1], k)


def pushout(f: Morphism, g: Morphism) -> tuple[FgAbGroup, Morphism, Morphism]:
    """Colimit of the span A <- C -> B, via the cokernel of [f; -g]."""
    if f.dom != g.dom:
        raise ObjectMismatchError("pushout needs a common domain")
    d, injs, projs = biproduct([f.cod, g.cod])
    h = sub_hom(compose(injs[0], f), compose(injs[1], g))
    q_grp, q = cokernel(h)
    return q_grp, compose(q, injs[0]), compose(q, injs[1])


def _solve_compose(a: Morphism, c: Morphism, left: bool) -> Optional[Morphism]:
    """u with a∘u = c (left) or u∘a = c (right), or None if none exists.

    The unknowns are the entries u[r][k], numbered r·ngens(dom u) + k.  The
    congruences d_k·u[r][k] ≡ 0 mod e_r, which make u well defined, come
    first; then one equation per entry (r, j) of c, modulo the r-th factor
    of cod(c)."""
    dom, cod = (c.dom, a.dom) if left else (a.cod, c.cod)
    nd = dom.ngens

    def product(r: int, j: int) -> dict[int, int]:
        # entry (r, j) of a∘u = Σ_i a[r][i]·u[i][j], or of u∘a = Σ_i u[r][i]·a[i][j]
        if left:
            return {i * nd + j: a.rows[r][i] for i in range(a.dom.ngens)}
        return {r * nd + i: a.rows[i][j] for i in range(nd)}

    eqs = [({r * nd + k: d}, 0, e) for r, e in enumerate(cod.factors) for k, d in enumerate(dom.factors)]
    eqs += [(product(r, j), c.rows[r][j], e) for r, e in enumerate(c.cod.factors) for j in range(c.dom.ngens)]
    nvars = cod.ngens * nd
    rows = freeze([[coeffs.get(v, 0) for v in range(nvars)] for coeffs, _, _ in eqs])
    sol = solve_congruences(rows, [eq[1] for eq in eqs], [eq[2] for eq in eqs], ncols=nvars)
    if sol is None:
        return None
    return morphism(dom, cod, [sol[r * nd:(r + 1) * nd] for r in range(cod.ngens)])


def solve_compose_left(a: Morphism, c: Morphism) -> Optional[Morphism]:
    """u with a∘u = c (u: dom(c) -> dom(a)), or None if no such morphism."""
    if a.cod != c.cod:
        raise ObjectMismatchError("solve_compose_left needs cod(a) = cod(c)")
    return _solve_compose(a, c, left=True)


def solve_compose_right(a: Morphism, c: Morphism) -> Optional[Morphism]:
    """u with u∘a = c (u: cod(a) -> cod(c)), or None if no such morphism."""
    if a.dom != c.dom:
        raise ObjectMismatchError("solve_compose_right needs dom(a) = dom(c)")
    return _solve_compose(a, c, left=False)


def section_witness(f: Morphism) -> Optional[Morphism]:
    """Retraction r with r·f = 1 when f is a section, else None."""
    return solve_compose_right(f, identity_hom(f.dom))


def retraction_witness(f: Morphism) -> Optional[Morphism]:
    """Section s with f·s = 1 when f is a retraction, else None."""
    return solve_compose_left(f, identity_hom(f.cod))


# ---------------------------------------------------------------------------
# group-spec grammar (shared with the CLI)

_TOKEN = re.compile(r"Z(?:/(\d+))?", re.IGNORECASE)


def parse_group_spec(text: str) -> FgAbGroup:
    """Parse `Z` | `Z/<n>` joined by `x`, or the comma form `2,4,0`."""
    stripped = text.strip()
    if not stripped:
        raise GroupSpecError("empty group description", 0)
    if "," in stripped or stripped.lstrip("-").isdigit():
        factors = []
        pos = 0
        for part in stripped.split(","):
            token = part.strip()
            if not re.fullmatch(r"\d+", token):
                raise GroupSpecError(
                    f"expected a non-negative integer, got {token!r}",
                    text.find(part, pos),
                )
            val = int(token)
            if val == 1:
                raise GroupSpecError("factor 1 is not allowed", text.find(part, pos))
            factors.append(val)
            pos = text.find(part, pos) + len(part)
        return group(*factors)
    factors = []
    pos = 0
    compact = text
    while True:
        while pos < len(compact) and compact[pos].isspace():
            pos += 1
        m = _TOKEN.match(compact, pos)
        if not m:
            raise GroupSpecError(f"expected Z or Z/<n> at position {pos}", pos)
        val = int(m.group(1)) if m.group(1) is not None else 0
        if val == 1:
            raise GroupSpecError("factor 1 is not allowed", pos)
        factors.append(val)
        pos = m.end()
        while pos < len(compact) and compact[pos].isspace():
            pos += 1
        if pos == len(compact):
            break
        if compact[pos] not in ("x", "X"):
            raise GroupSpecError(f"expected 'x' at position {pos}", pos)
        pos += 1
    return group(*factors)


def format_group(g: FgAbGroup) -> str:
    if g.is_trivial:
        return "0"
    return " x ".join("Z" if d == 0 else f"Z/{d}" for d in g.factors)
