"""Exact linear algebra: normal forms and congruence solving."""

import bisect
import random
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absplit.intmat import (
    SeededHnf,
    _xgcd,
    freeze,
    hnf_rows,
    identity,
    mat_mul,
    prime_factors,
    row_lattice_contains,
    row_lattice_reduce,
    snf,
    solution_lattice,
    solve_congruences,
)

from oracles import det, smith_solution_lattice, smith_system


def det_by_permutation_expansion(a):
    """Independent determinant oracle (Leibniz formula)."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        total += sign * prod(a[i][perm[i]] for i in range(n))
    return total


def gcd_of_k_minors(a, k):
    """gcd of all k×k minors; d1···dk of the Smith form equals this."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    from itertools import combinations

    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            sub = [[a[i][j] for j in cs] for i in rs]
            g = gcd(g, det_by_permutation_expansion(sub))
    return abs(g)


def check_snf_invariants(a):
    dec = snf(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.s
    assert abs(det(dec.u)) == 1
    assert abs(det(dec.v)) == 1
    assert mat_mul(dec.u, dec.u_inv) == identity(rows)
    diag = dec.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert dec.s[i][j] == 0
    for d in diag:
        assert d >= 0
    for a_, b_ in zip(diag, diag[1:]):
        if a_ == 0:
            assert b_ == 0
        else:
            assert b_ % a_ == 0
    return dec


def test_snf_identity():
    dec = snf(identity(3))
    assert dec.s == identity(3)


def test_snf_zero():
    z = freeze([[0, 0], [0, 0]])
    assert snf(z).s == z


def test_snf_worked_example():
    a = freeze([[2, 4], [6, 8]])
    dec = check_snf_invariants(a)
    # oracle: d1 = gcd of entries, d1·d2 = gcd of 2x2 minors = |det|
    d1 = gcd_of_k_minors(a, 1)
    d1d2 = gcd_of_k_minors(a, 2)
    assert d1 == 2 and d1d2 == 8
    assert dec.diagonal == (d1, d1d2 // d1) == (2, 4)


def test_snf_diag_matches_minor_gcds_randomized():
    rng = random.Random(20240811)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = freeze([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        dec = check_snf_invariants(a)
        diag = dec.diagonal
        acc = 1
        for k in range(1, min(rows, cols) + 1):
            mk = gcd_of_k_minors(a, k)
            expected = 0 if mk == 0 else mk // acc if acc else 0
            if acc == 0:
                assert diag[k - 1] == 0
            else:
                assert diag[k - 1] == (0 if mk == 0 else mk // acc)
            acc = mk


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_invariants_hypothesis(rows, cols, data):
    a = freeze(
        [
            [data.draw(st.integers(-30, 30)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    check_snf_invariants(a)


def test_empty_matrix_allowed():
    dec = snf(())
    assert dec.s == ()


def brute_force_congruences(a, b, moduli, box):
    """Exhaustive residue search oracle over [0, box)^n."""
    n = len(a[0]) if a else 0
    sols = []
    for x in product(range(box), repeat=n):
        ok = True
        for row, rhs, md in zip(a, b, moduli):
            v = sum(r * xi for r, xi in zip(row, x)) - rhs
            if (v % md if md else v) != 0:
                ok = False
                break
        if ok:
            sols.append(x)
    return sols


def test_solve_congruences_examples():
    assert solve_congruences(freeze([[1]]), [1], [0]) == (1,)
    # 2x ≡ 1 (mod 4): oracle exhausts residues 0..3
    assert brute_force_congruences(freeze([[2]]), [1], [4], 4) == []
    assert solve_congruences(freeze([[2]]), [1], [4]) is None
    sol = solve_congruences(freeze([[1, 1], [1, 0]]), [1, 0], [2, 0])
    assert sol is not None
    assert sol[0] == 0 and (sol[0] + sol[1]) % 2 == 1


def test_solve_congruences_matches_exhaustive_search():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        moduli = [rng.choice([2, 3, 4, 5, 6]) for _ in range(k)]
        box = 1
        for md in moduli:
            box = box * md // gcd(box, md)
        if box**n > 10**4:
            continue
        a = freeze([[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
        b = [rng.randint(-6, 6) for _ in range(k)]
        sols = brute_force_congruences(a, b, moduli, box)
        got = solve_congruences(a, b, moduli)
        if sols:
            assert got is not None
            for row, rhs, md in zip(a, b, moduli):
                v = sum(r * xi for r, xi in zip(row, got)) - rhs
                assert v % md == 0
        else:
            assert got is None


def test_solution_lattice_examples():
    assert solution_lattice(freeze([[1]]), [0]) == ((),)
    lat = solution_lattice(freeze([[2]]), [4])
    # oracle: homogeneous solutions mod 4 are {0, 2}
    members = brute_force_congruences(freeze([[2]]), [0], [4], 4)
    assert members == [(0,), (2,)]
    assert any(col and col[0] % 4 in (2,) or col[0] % 4 == 2 for col in zip(*lat))
    lat2 = solution_lattice(freeze([[1, 1]]), [0])
    cols = list(zip(*lat2))
    assert all(c[0] + c[1] == 0 for c in cols)
    assert any(c != (0, 0) for c in cols)


def test_solution_lattice_complete_and_sound():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        moduli = [rng.choice([2, 3, 4, 6]) for _ in range(k)]
        box = 1
        for md in moduli:
            box = box * md // gcd(box, md)
        a = freeze([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        lat = solution_lattice(a, moduli)
        cols = list(zip(*lat)) if lat and lat[0] else []
        # soundness: random combinations solve the system
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in cols]
            x = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
            for row, md in zip(a, moduli):
                assert sum(r * xi for r, xi in zip(row, x)) % md == 0
        # completeness: every exhaustive solution is an integer combination
        if box**n <= 4096:
            basis_rows = [list(col) for col in cols]
            h = hnf_rows(basis_rows, n)
            for sol in brute_force_congruences(a, [0] * k, moduli, box):
                assert row_lattice_contains(h, list(sol))


def _smith_solve_congruences(a, b, moduli, n):
    if not a:
        return (0,) * n
    dec = smith_system(a, moduli)
    c = [sum(x * y for x, y in zip(row, b)) for row in dec.u]
    rows, cols = len(dec.s), len(dec.s[0])
    w = [0] * cols
    for i in range(rows):
        d = dec.s[i][i] if i < cols else 0
        if d:
            if c[i] % d:
                return None
            w[i] = c[i] // d
        elif c[i]:
            return None
    return tuple(sum(x * y for x, y in zip(row, w)) for row in dec.v[:n])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_solver_matches_the_smith_reference(data):
    # 0-4 rows (none: only ncols gives the width), 1-4 unknowns, negative
    # entries, exact rows (modulus 0) and trivial ones (modulus 1)
    k = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 4))
    a = freeze(
        [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(k)]
    )
    moduli = [data.draw(st.sampled_from([0, 0, 1, 2, 3, 4, 6, 9])) for _ in range(k)]
    if data.draw(st.booleans()):
        # b in the image: A·x0 plus multiples of the moduli
        x0 = [data.draw(st.integers(-5, 5)) for _ in range(n)]
        b = [sum(r * x for r, x in zip(row, x0)) + md * data.draw(st.integers(-2, 2))
             for row, md in zip(a, moduli)]
    else:
        b = [data.draw(st.integers(-9, 9)) for _ in range(k)]

    def solves(x, rhs):
        return len(x) == n and all(
            (sum(r * xi for r, xi in zip(row, x)) - v) % md == 0 if md
            else sum(r * xi for r, xi in zip(row, x)) == v
            for row, v, md in zip(a, rhs, moduli)
        )

    got = solve_congruences(a, b, moduli, ncols=n)
    ref = _smith_solve_congruences(a, b, moduli, n)
    assert (got is None) == (ref is None)
    assert ref is None or solves(ref, b)
    assert got is None or solves(got, b)
    lat = solution_lattice(a, moduli, ncols=n)
    assert len(lat) == n
    gens = list(zip(*lat))
    assert all(solves(g, [0] * k) for g in gens)
    ref_gens = list(zip(*smith_solution_lattice(a, moduli, n)))
    assert hnf_rows(gens, n) == hnf_rows(ref_gens, n)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hnf_rows_canonical(data):
    n = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(0, 4))
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(nrows)
    ]
    h = hnf_rows(rows, n)
    # idempotent and permutation invariant: a genuine canonical form
    assert hnf_rows([list(r) for r in h], n) == h
    perm = data.draw(st.permutations(rows))
    assert hnf_rows(perm, n) == h
    # spans the same lattice
    for r in rows:
        assert row_lattice_contains(h, r)


def _contains_by_division(basis, vec):
    """Membership by exact division on the pivots, as first written."""
    v = list(vec)
    for row in basis:
        j = next(c for c in range(len(row)) if row[c])
        if v[j]:
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            for c in range(j, len(v)):
                v[c] -= q * row[c]
    return not any(v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_lattice_reduce_is_a_coset_invariant(data):
    n = data.draw(st.integers(1, 4))
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    h = hnf_rows(rows, n)
    vec = [data.draw(st.integers(-20, 20)) for _ in range(n)]
    coeffs = [data.draw(st.integers(-4, 4)) for _ in h]
    shifted = [vec[c] + sum(k * r[c] for k, r in zip(coeffs, h)) for c in range(n)]
    red = row_lattice_reduce(h, vec)
    # one representative per coset, inside the coset, pivots reduced
    assert row_lattice_reduce(h, shifted) == red
    assert row_lattice_contains(h, [a - b for a, b in zip(vec, red)])
    for row in h:
        j = next(c for c in range(n) if row[c])
        assert 0 <= red[j] < row[j]
    assert row_lattice_contains(h, vec) == _contains_by_division(h, vec)
    assert row_lattice_contains(h, shifted) == _contains_by_division(h, shifted)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_seeded_hnf_matches_general(data):
    n = data.draw(st.integers(1, 4))
    moduli = [data.draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12])) for _ in range(n)]
    extra = [
        [data.draw(st.integers(-15, 15)) for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    rel = [[moduli[i] if j == i else 0 for j in range(n)] for i in range(n)]
    assert SeededHnf(moduli).canonical(extra) == hnf_rows(extra + rel, n)


# Test-local copies of the two Hermite eliminations that hnf_rows and
# SeededHnf.canonical used to run, before they shared one pass: a pivot list
# kept in order by bisect, and a positional basis over a full-rank start.


def _bisect_hnf_rows(vectors, width):
    basis, pivcol = [], []
    for vec0 in vectors:
        vec = list(vec0)
        j = 0
        while True:
            lead = next((c for c in range(j, width) if vec[c]), None)
            if lead is None:
                break
            j = lead
            pos = bisect.bisect_left(pivcol, j)
            if pos == len(pivcol) or pivcol[pos] != j:
                basis.insert(pos, vec)
                pivcol.insert(pos, j)
                break
            row = basis[pos]
            p, x = row[j], vec[j]
            if x % p == 0:
                for c in range(j, width):
                    vec[c] -= x // p * row[c]
            else:
                g, s0, t0 = _xgcd(p, x)
                for c in range(j, width):
                    rc, vc = row[c], vec[c]
                    row[c] = s0 * rc + t0 * vc
                    vec[c] = -(x // g) * rc + (p // g) * vc
    for idx in range(len(basis)):
        if basis[idx][pivcol[idx]] < 0:
            basis[idx] = [-x for x in basis[idx]]
    for idx in range(len(basis)):
        j = pivcol[idx]
        p = basis[idx][j]
        for k in range(idx):
            q = basis[k][j] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[idx])]
    return freeze(basis)


def _positional_hnf(start, extra):
    n = len(start)
    basis = [list(row) for row in start]
    for v0 in extra:
        v = list(v0)
        for j in range(n):
            x = v[j]
            if x == 0:
                continue
            row = basis[j]
            p = row[j]
            if x % p == 0:
                for c in range(j, n):
                    v[c] -= x // p * row[c]
            else:
                g, s0, t0 = _xgcd(p, x)
                for c in range(j, n):
                    rc, vc = row[c], v[c]
                    row[c] = s0 * rc + t0 * vc
                    v[c] = (p // g) * vc - (x // g) * rc
    for j in range(1, n):
        p = basis[j][j]
        for k in range(j):
            q = basis[k][j] // p
            if q:
                basis[k][j:] = [a - q * b for a, b in zip(basis[k][j:], basis[j][j:])]
    return freeze(basis)


def _draw_rows(data, n, lo=-9, hi=9):
    """Up to five rows of width n with negative entries, zero rows, and
    columns that no row touches."""
    free = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    rows = []
    for _ in range(data.draw(st.integers(0, 5))):
        if data.draw(st.integers(0, 5)) == 0:
            rows.append([0] * n)
        else:
            rows.append([0 if c in free else data.draw(st.integers(lo, hi)) for c in range(n)])
    return rows


def _relations(factors, lead=0):
    width = lead + len(factors)
    return [[d if c == lead + i else 0 for c in range(width)] for i, d in enumerate(factors) if d]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shared_hermite_pass_matches_the_earlier_eliminations(data):
    n = data.draw(st.integers(1, 6))
    rows = _draw_rows(data, n)
    assert hnf_rows(rows, n) == _bisect_hnf_rows(rows, n)
    # starts in echelon form, as the subgroup operations give them, with
    # free factors among the moduli: relations, a basis in hand, and the
    # doubled rows (v, v) over the relations of the second block
    factors = [data.draw(st.sampled_from([0, 2, 3, 4, 6, 9])) for _ in range(n)]
    rel = _relations(factors)
    gens = _draw_rows(data, n)
    assert hnf_rows(rel + gens, n) == _bisect_hnf_rows(rel + gens, n)
    in_hand = [list(r) for r in _bisect_hnf_rows(data.draw(st.permutations(rel + gens)), n)]
    assert hnf_rows(in_hand + rows, n) == _bisect_hnf_rows(in_hand + rows, n)
    k = min(n, 3)
    doubled = [r[:k] + r[:k] for r in _bisect_hnf_rows(rel[:k] + [g[:k] for g in gens], k)]
    doubled += _relations(factors[:k], k)
    tops = [r[:k] + [0] * k for r in rows]
    assert hnf_rows(doubled + tops, 2 * k) == _bisect_hnf_rows(doubled + tops, 2 * k)
    # positive moduli: SeededHnf from diag(d) and from a triangular basis
    moduli = [d or 1 for d in factors]
    seed = _relations(moduli)
    extra = _draw_rows(data, n, -15, 15)
    acc = SeededHnf(moduli)
    assert acc.canonical(extra) == _positional_hnf(seed, extra) == _bisect_hnf_rows(extra + seed, n)
    tri = [list(r) for r in _positional_hnf(seed, gens)]
    assert acc.canonical(extra, tri) == _positional_hnf(tri, extra)
    assert acc.canonical(extra, tri) == _bisect_hnf_rows(extra + tri, n)


def test_det_against_leibniz():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 4)
        a = freeze([[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)])
        assert det(a) == det_by_permutation_expansion(a)


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(42)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        ours = [d for d in snf(freeze(a)).diagonal if d]
        theirs = smith_normal_form(Matrix(a), domain=ZZ)
        theirs_nz = sorted(
            abs(int(theirs[i, i])) for i in range(min(r, c)) if theirs[i, i]
        )
        assert sorted(ours) == theirs_nz, a


# --- factorization ----------------------------------------------------------


def _trial_division(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_prime_factors_agree_with_trial_division():
    for n in range(1, 5001):
        got = prime_factors(n)
        assert got == _trial_division(n) and list(got) == sorted(got), n
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_of_large_numbers():
    m61, m31 = 2**61 - 1, 2**31 - 1
    assert prime_factors(m61) == {m61: 1}
    assert prime_factors(m61 * m31) == {m31: 1, m61: 1}
    assert list(prime_factors(m61 * m31)) == [m31, m61]
    # a prime square and a product of three primes above the trial bound
    assert prime_factors(1009**2 * 12) == {2: 2, 3: 1, 1009: 2}
    assert prime_factors(10007 * 10009 * 10037) == {10007: 1, 10009: 1, 10037: 1}


def test_strong_lucas_step_matches_known_pseudoprimes():
    # the odd composites below 10^5 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255); every odd prime passes it
    from absplit.intmat import _is_strong_lucas_prp

    factors = {n: _trial_division(n) for n in range(3, 100000, 2)}
    passing = [n for n, f in factors.items() if _is_strong_lucas_prp(n) and f != {n: 1}]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    assert all(_is_strong_lucas_prp(n) for n, f in factors.items() if f == {n: 1})


def test_prime_factors_beyond_the_exact_miller_rabin_range():
    # ψ₁₃ is a strong pseudoprime to every prime base up to 41, the least
    # such number; the strong Lucas step finds it composite
    p, q = 1287836182261, 2575672364521
    psi13 = p * q
    assert psi13 == 3317044064679887385961981
    assert prime_factors(psi13) == {p: 1, q: 1}
    assert prime_factors(4 * psi13) == {2: 2, p: 1, q: 1}
    # primes above ψ₁₃ still pass both steps
    m89, m107 = 2**89 - 1, 2**107 - 1
    assert prime_factors(m89) == {m89: 1}
    assert prime_factors(m107 * 3**5) == {3: 5, m107: 1}
