"""GF(p) linear algebra, checked against brute-force span enumeration and
a pure-Python Gauss-Jordan elimination on ints."""

import random

import numpy as np
import pytest

from groupgen import gfp
from groupgen.perm import GroupError


def _random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def _brute_row_span(rows, p):
    """All vectors in the row span, as tuples."""
    span = {(0,) * rows.shape[1]}
    for row in rows:
        new = set()
        for v in span:
            acc = np.array(v, dtype=np.int64)
            for c in range(1, p):
                new.add(tuple((acc + c * row) % p))
        span |= new
    # close under repeated addition until stable
    changed = True
    while changed:
        changed = False
        for v in list(span):
            for w in list(span):
                s = tuple((np.array(v) + np.array(w)) % p)
                if s not in span:
                    span.add(s)
                    changed = True
    return span


def test_rank_against_brute_span():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(10):
            m = _random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), p)
            span = _brute_row_span(m, p)
            assert p ** gfp.rank(m, p) == len(span)


def test_rref_properties():
    rng = random.Random(5)
    for p in (2, 3, 7):
        for _ in range(20):
            m = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), p)
            r, pivots = gfp.rref(m, p)
            for i, pc in enumerate(pivots):
                col = r[:, pc]
                assert col[i] == 1
                assert all(col[j] == 0 for j in range(r.shape[0]) if j != i)
            assert gfp.rank(m, p) == len(pivots)
            assert gfp.rank(r, p) == len(pivots)


def test_null_right():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(20):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = _random_matrix(rng, rows, cols, p)
            ns = gfp.null_right(m, p)
            assert ns.shape[0] == cols - gfp.rank(m, p)
            for v in ns:
                assert not np.any(np.mod(m @ v, p))
            if ns.shape[0]:
                assert gfp.rank(ns, p) == ns.shape[0]


def test_inverse():
    rng = random.Random(13)
    for p in (2, 3, 7):
        seen_invertible = 0
        for _ in range(30):
            n = rng.randrange(1, 5)
            m = _random_matrix(rng, n, n, p)
            inv = gfp.inverse(m, p)
            if inv is None:
                assert gfp.rank(m, p) < n
            else:
                seen_invertible += 1
                assert np.array_equal((m @ inv) % p, gfp.identity(n))
                assert np.array_equal((inv @ m) % p, gfp.identity(n))
        assert seen_invertible > 0
    assert not gfp.is_invertible(np.array([[2, 0], [0, 1]]), 2)


def test_spin_closure_and_minimality():
    p = 2
    # the 3-dimensional module for a cyclic rotation of coordinates
    rot = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    basis = gfp.spin([np.array([1, 0, 0])], [rot], p)
    assert basis.shape[0] == 3
    start = np.array([1, 1, 1], dtype=np.int64)
    fixed = gfp.spin([start], [rot], p)
    assert fixed.shape[0] == 1
    # brute: smallest rot-closed subspace containing start
    best = None
    for vecs in _powerset_spans(p, 3):
        if tuple(start) in vecs and _closed_under(vecs, rot, p):
            if best is None or len(vecs) < len(best):
                best = vecs
    assert len(best) == p ** fixed.shape[0]


def _powerset_spans(p, n):
    """All subspaces of GF(p)^n, each as a set of tuples (tiny n only)."""
    from itertools import combinations
    all_vs = [tuple(v) for v in gfp.all_vectors(n, p)]
    spans = set()
    out = []
    for r in range(n + 1):
        for combo in combinations(all_vs[1:], r):
            m = np.array(((0,) * n,) + combo, dtype=np.int64)
            key = frozenset(_brute_row_span(m, p))
            if key not in spans:
                spans.add(key)
                out.append(set(key))
    return out


def _closed_under(vecs, mat, p):
    return all(tuple(np.mod(np.array(v) @ mat, p)) in vecs for v in vecs)


def test_intertwiner_space():
    p = 3
    # the regular action of C2 on GF(3)^2 in two bases must be intertwined
    a = np.array([[0, 1], [1, 0]], dtype=np.int64)
    change = np.array([[1, 1], [1, 2]], dtype=np.int64)
    b = (gfp.inverse(change, p) @ a @ change) % p
    basis = gfp.intertwiner_space([a], [b], p)
    assert len(basis) > 0
    for t in basis:
        assert np.array_equal((t @ a) % p, (b @ t) % p)
    known = gfp.inverse(change, p)
    flat = np.array([t.flatten() for t in basis], dtype=np.int64)
    assert gfp.rank(flat, p) == gfp.rank(np.vstack([flat, known.flatten()]), p)
    # no nonzero intertwiner between the trivial and the sign action of C2
    triv = np.array([[1]], dtype=np.int64)
    sign = np.array([[2]], dtype=np.int64)
    assert len(gfp.intertwiner_space([triv], [sign], 3)) == 0


def test_all_vectors():
    vs = gfp.all_vectors(2, 3)
    assert len(vs) == 9
    assert [tuple(v) for v in vs[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len({tuple(v) for v in vs}) == 9


PRIMES = (2, 3, 5, 7, 31, 65537)


def _gauss_jordan(rows, p):
    """Reduced row echelon form of a list of int rows, one row operation
    at a time; returns (rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
    return m, pivots


def _reference_matrices(seed):
    """(p, matrix) pairs: every shape 0-8 x 0-8 over each prime, half of
    them of low rank so that pivots skip columns and rows swap, plus the
    tall shapes of the derivation and splitting systems."""
    rng = np.random.default_rng(seed)
    out = []
    for p in PRIMES:
        for rows in range(9):
            for cols in range(9):
                out.append((p, rng.integers(0, p, size=(rows, cols))))
                k = int(rng.integers(0, 3))
                low = rng.integers(0, p, size=(rows, k)) @ rng.integers(
                    0, p, size=(k, cols))
                out.append((p, low % p))
        for rows, cols in ((200, 3), (1000, 8)):
            k = int(rng.integers(1, cols))
            low = rng.integers(0, p, size=(rows, k)) @ rng.integers(
                0, p, size=(k, cols))
            out.append((p, low % p))
            out.append((p, rng.integers(0, p, size=(rows, cols))))
    return out


def test_rref_matches_gauss_jordan_reference():
    for p, a in _reference_matrices(11):
        r, pivots = gfp.rref(a, p)
        want, want_pivots = _gauss_jordan(a.tolist(), p)
        assert r.shape == a.shape and r.dtype == np.int64
        assert r.tolist() == want and pivots == want_pivots
        assert gfp.rank(a, p) == len(want_pivots)


def test_rref_leaves_its_input_alone():
    a = np.array([[2, 1], [1, 1]], dtype=np.int64)
    gfp.rref(a, 3)
    assert a.tolist() == [[2, 1], [1, 1]]


def test_null_right_matches_gauss_jordan_reference():
    for p, a in _reference_matrices(12):
        rows, cols = a.shape
        want, pivots = _gauss_jordan(a.tolist(), p)
        basis = []
        for fc in (c for c in range(cols) if c not in pivots):
            v = [0] * cols
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -want[i][fc] % p
            basis.append(v)
        ns = gfp.null_right(a, p)
        assert ns.shape == (len(basis), cols) and ns.tolist() == basis


def test_inverse_matches_gauss_jordan_reference():
    rng = np.random.default_rng(13)
    for p in PRIMES:
        cases = [np.zeros((1, 1), dtype=np.int64),
                 np.array([[1]]), np.array([[p - 1]])]
        for n in range(1, 9):
            cases.append(rng.integers(0, p, size=(n, n)))
            cases.append(rng.integers(0, 2, size=(n, n)))
        for a in cases:
            n = a.shape[0]
            aug = [row + [int(i == j) for j in range(n)]
                   for i, row in enumerate(a.tolist())]
            want, pivots = _gauss_jordan(aug, p)
            inv = gfp.inverse(a, p)
            if pivots[:n] != list(range(n)):
                assert inv is None and not gfp.is_invertible(a, p)
                continue
            assert inv.dtype == np.int64 and gfp.is_invertible(a, p)
            assert inv.tolist() == [row[n:] for row in want]
    assert gfp.inverse(np.array([[0]]), 5) is None
    assert gfp.inverse(np.array([[10]]), 5) is None
    assert gfp.inverse(np.array([[3]]), 5).tolist() == [[2]]


def _kron_intertwiners(reps_a, reps_b, p):
    """Intertwiners T A_i = B_i T as the null space of the Kronecker system
    vec(T A_i) - vec(B_i T) = 0, row-major."""
    n = reps_a[0].shape[0]
    eye = gfp.identity(n)
    system = np.vstack([np.kron(eye, a.T % p) - np.kron(b % p, eye)
                        for a, b in zip(reps_a, reps_b)]) % p
    return [vec.reshape(n, n) for vec in gfp.null_right(system, p)]


def test_intertwiner_space_matches_kronecker_system():
    rng = np.random.default_rng(17)
    for p in PRIMES:
        for k in (1, 2, 3):
            for n in (1, 1, 1, 2, 3):
                a = [rng.integers(0, p, size=(n, n)) for _ in range(k)]
                # b equals a, differs from it, or equals it off the
                # reduction mod p
                for b in (a, [rng.integers(0, p, size=(n, n)) for _ in a],
                          [m + p for m in a]):
                    got = gfp.intertwiner_space(a, b, p)
                    want = _kron_intertwiners(a, b, p)
                    assert [t.tolist() for t in got] == [
                        t.tolist() for t in want]
                    assert all(t.dtype == np.int64 for t in got)
    one, two = np.array([[1]]), np.array([[2]])
    assert [t.tolist() for t in gfp.intertwiner_space([one], [one], 3)] == [[[1]]]
    assert gfp.intertwiner_space([one, two], [one, one], 3) == []


def test_intertwiner_space_refuses_unmatched_lists():
    a = np.array([[1]])
    b = gfp.identity(2)
    with pytest.raises(GroupError):
        gfp.intertwiner_space([a, a], [a], 3)
    with pytest.raises(GroupError):
        gfp.intertwiner_space([a], [b], 3)
    with pytest.raises(GroupError):
        gfp.intertwiner_space([b, a], [b, b], 3)
    with pytest.raises(GroupError):
        gfp.intertwiner_space([], [], 3)
