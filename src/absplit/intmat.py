"""Exact integer matrix algebra: Hermite and Smith normal forms and congruence solving.

Matrices are tuples of tuples of Python ints (arbitrary precision, immutable,
hashable).  Everything here is pure and deterministic; no floating point
anywhere.  These routines are the computational substrate for all group and
morphism constructions in the rest of the package.  Every solve, kernel and
preimage is one Hermite pass over the graph of a matrix (_graph_basis); the
Smith form serves only groups.canonical_group, which reads the invariant
factors and the change of generators from it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

Matrix = tuple[tuple[int, ...], ...]


class DimensionError(ValueError):
    """Raised when matrix/vector shapes do not match."""


def freeze(rows: Iterable[Sequence[int]]) -> Matrix:
    return tuple(tuple(map(int, row)) for row in rows)


def dims(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise DimensionError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return b
    if not b:
        return a
    if len(a) != len(b):
        raise DimensionError("row count mismatch in hstack")
    return tuple(ra + rb for ra, rb in zip(a, b))


class SnfDecomposition:
    """u @ a @ v == s with u, v unimodular and s in Smith normal form.

    The diagonal of s is non-negative, each entry divides the next (every
    integer divides 0, so zero entries come last), and s is unique for a
    given input.  u_inv is the exact integer inverse of u.
    """

    __slots__ = ("u", "s", "v", "u_inv")

    def __init__(self, u: Matrix, s: Matrix, v: Matrix, u_inv: Matrix):
        self.u = u
        self.s = s
        self.v = v
        self.u_inv = u_inv

    @property
    def diagonal(self) -> tuple[int, ...]:
        r, c = dims(self.s)
        return tuple(self.s[i][i] for i in range(min(r, c)))


def snf(a: Matrix) -> SnfDecomposition:
    """Smith normal form with full transform bookkeeping."""
    m, n = dims(a)
    s = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    ui = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def row_swap(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def row_neg(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    def row_axpy(i: int, j: int, q: int) -> None:
        # row_i += q * row_j
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= q * r[i]

    def col_swap(i: int, j: int) -> None:
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_axpy(j: int, k: int, q: int) -> None:
        # col_j += q * col_k
        for r in s:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pick the entry of least nonzero magnitude as pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        if s[t][t] < 0:
            row_neg(t)

        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                if q:
                    row_axpy(i, t, -q)
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                if q:
                    col_axpy(j, t, -q)
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # pivot must divide every remaining entry for the divisibility chain
        d = s[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_axpy(t, bad, 1)
            continue
        t += 1

    return SnfDecomposition(freeze(u), freeze(s), freeze(v), freeze(ui))


def _diag_after(k: int, factors: Sequence[int]) -> list[tuple[int, ...]]:
    """The rows (0, d_i e_i) for d_i > 0, with k leading zeros: the relations
    of a second block, which complete a start basis for a two-block lattice."""
    n = len(factors)
    return [(0,) * (k + i) + (d,) + (0,) * (n - i - 1) for i, d in enumerate(factors) if d]


def _graph_basis(
    a: Matrix, top: Sequence[Sequence[int]], n: int, tail: Sequence[int] = ()
) -> Matrix:
    """Hermite basis of the pairs (A·x + t, x), for x in Z^n and t in the
    span of the rows top, together with the relations (0, d_i e_i) for d_i
    in tail.  The rows (h, 0) and (0, d_i e_i) are in echelon form, so the
    pass places them first and then inserts the graph rows (col_j(A), e_j).
    The basis rows with first block zero are the (0, x) with A·x in the span
    of top: a solution lattice, or a preimage."""
    r = len(a)
    start = [tuple(h) + (0,) * n for h in top] + _diag_after(r, tail)
    graph = [
        tuple(col) + tuple(int(i == j) for i in range(n))
        for j, col in enumerate(zip(*a) if a else [()] * n)
    ]
    return hnf_rows(start + graph, r + n)


def solve_congruences(
    a: Matrix, b: Sequence[int], moduli: Sequence[int], ncols: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """One solution x of A·x ≡ b (mod moduli, row-wise), or None if none exists.

    A modulus of 0 on a row means that equation holds exactly over the
    integers.  Completeness comes from exact lattice solving, not search:
    (b, 0) reduces against the graph basis over the moduli to (0, −x)
    exactly when A·x ≡ b.  ncols disambiguates systems with zero rows.
    """
    m = len(a)
    if len(b) != m:
        raise DimensionError("right-hand side length mismatch")
    if len(moduli) != m:
        raise DimensionError("one modulus required per row")
    n = dims(a)[1] if ncols is None else ncols
    v = row_lattice_reduce(_graph_basis(a, _diag_after(0, moduli), n), tuple(b) + (0,) * n)
    if any(v[:m]):
        return None
    return tuple(-x for x in v[m:])


def solution_lattice(
    a: Matrix, moduli: Sequence[int], ncols: Optional[int] = None
) -> Matrix:
    """Columns generating every solution of the homogeneous system A·x ≡ 0.

    Returned as an n×k matrix (k generators), the canonical basis of the
    solutions as columns: the second blocks of the graph basis rows whose
    first block is zero.  Every integer combination of the columns is a
    solution and conversely.  ncols disambiguates systems with zero rows.
    """
    m = len(a)
    if len(moduli) != m:
        raise DimensionError("one modulus required per row")
    n = dims(a)[1] if ncols is None else ncols
    gens = [row[m:] for row in _graph_basis(a, _diag_after(0, moduli), n) if not any(row[:m])]
    return tuple(zip(*gens)) if gens else ((),) * n


def _hermite(basis: list[Optional[list[int]]], vectors: Iterable[Sequence[int]], width: int) -> Matrix:
    """The one Hermite elimination.  basis[j] is the row whose pivot sits in
    column j, or None; each vector is eliminated left to right and becomes
    the row of the first column with no pivot row (a zero vector drops out).
    Then each pivot is made positive and the entries above it reduced into
    [0, pivot), left to right (reducing at column j only perturbs columns
    > j, which later steps clean up).  Returns the rows by pivot column."""
    for v0 in vectors:
        v = list(v0)
        for j in range(width):
            x = v[j]
            if x == 0:
                continue
            row = basis[j]
            if row is None:
                basis[j] = v
                break
            p = row[j]
            if x % p == 0:
                q = x // p
                for c in range(j, width):
                    v[c] -= q * row[c]
            else:
                g, s0, t0 = _xgcd(p, x)
                pg, xg = p // g, x // g
                for c in range(j, width):
                    rc, vc = row[c], v[c]
                    row[c] = s0 * rc + t0 * vc
                    v[c] = pg * vc - xg * rc
    done: list[list[int]] = []
    for j, row in enumerate(basis):
        if row is None:
            continue
        if row[j] < 0:
            row = [-x for x in row]
        p = row[j]
        for above in done:
            q = above[j] // p
            if q:
                for c in range(j, width):
                    above[c] -= q * row[c]
        done.append(row)
    return tuple(map(tuple, done))


def hnf_rows(vectors: Iterable[Sequence[int]], width: int) -> Matrix:
    """Canonical row Hermite basis of the lattice spanned by the given rows.

    Unique per lattice: pivots positive, strictly increasing pivot columns,
    entries above each pivot reduced into [0, pivot).  Zero rows dropped.
    Rows already in echelon form, such as relations or a basis in hand
    given first, are placed without elimination.
    """
    vectors = list(vectors)
    if any(len(v) != width for v in vectors):
        raise DimensionError("generator width mismatch")
    return _hermite([None] * width, vectors, width)


class SeededHnf:
    """Canonical HNF accumulator over a fixed full-rank diagonal lattice.

    For positive moduli (d_1, ..., d_n), canonical(extra) equals
    hnf_rows(extra + diag-rows, n): the Hermite pass starts from diag(d) in
    place, every column already holding its pivot row.  canonical(extra,
    start) begins from the given n×n upper-triangular basis with positive
    diagonal, such as a canonical form already in hand, in place of diag(d),
    and equals hnf_rows(extra + start, n).
    """

    __slots__ = ("n", "_template")

    def __init__(self, moduli: Sequence[int]):
        if any(d <= 0 for d in moduli):
            raise ValueError("SeededHnf needs positive moduli")
        self.n = len(moduli)
        self._template = [
            [moduli[i] if j == i else 0 for j in range(self.n)]
            for i in range(self.n)
        ]

    def canonical(
        self, extra: Iterable[Sequence[int]], start: Optional[Iterable[Sequence[int]]] = None
    ) -> Matrix:
        basis = [list(row) for row in (self._template if start is None else start)]
        return _hermite(basis, extra, self.n)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def row_lattice_reduce(basis: Matrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Unique representative of vec modulo the lattice spanned by canonical
    HNF rows: each pivot entry of the result lies in [0, pivot)."""
    v = list(vec)
    for row in basis:
        j = 0
        while not row[j]:
            j += 1
        q = v[j] // row[j]
        if q:
            for c in range(j, len(v)):
                v[c] -= q * row[c]
    return tuple(v)


def row_lattice_contains(basis: Matrix, vec: Sequence[int]) -> bool:
    return not any(row_lattice_reduce(basis, vec))


# trial division covers the factors below this bound; the cofactor goes to
# Miller–Rabin and Pollard rho
_TRIAL_BOUND = 50
# Miller–Rabin with the primes up to 41 as bases decides primality exactly
# below ψ₁₃ = 3317044064679887385961981 ≈ 3.3·10^24, the least strong
# pseudoprime to all of them (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for an odd n > 2, with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  Write n + 1 = d·2^s; n passes when U_d ≡ 0 or
    V_{d·2^r} ≡ 0 (mod n) for some 0 <= r < s."""
    if isqrt(n) ** 2 == n:  # no D exists
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k from k = 1 up the bits of d (P = 1)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Miller–Rabin for an odd n with no prime factor below the bases, and
    from ψ₁₃ on a strong Lucas test as well (Baillie–PSW): exact below ψ₁₃,
    and beyond it free of known counterexamples but not proven."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _is_strong_lucas_prp(n)


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Pollard rho with Brent's cycle
    search, batching 128 differences per gcd; a failed polynomial x² + c is
    retried with c + 1."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.

    Trial division removes the factors below a small bound; the cofactor is
    split by Pollard rho, and its pieces tested by Miller–Rabin, exact below
    ψ₁₃ ≈ 3.3·10^24.  Above that a strong Lucas test is added (Baillie–PSW),
    which has no known counterexample but is not proven: a piece above
    3.3·10^24 reported prime is a probable prime.  Each n is factored once
    per process (the memo is bounded); every call returns a new dict."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    return dict(_factorization(n))


@lru_cache(maxsize=1024)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """((prime, exponent), ...) of n >= 1, primes ascending."""
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        k = pending.pop()
        # every prime factor of k is at least d
        if k < d * d or _is_prime(k):
            out[k] = out.get(k, 0) + 1
        else:
            f = _rho_factor(k)
            pending += [f, k // f]
    return tuple(sorted(out.items()))


def squarefree_radical(n: int) -> int:
    """Product of the distinct primes dividing n (n >= 1)."""
    r = 1
    for p in prime_factors(n):
        r *= p
    return r


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in prime_factors(n).values())
