"""GF(p) linear algebra, checked against brute-force span enumeration."""

import random

import numpy as np

from groupgen import gfp


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


def test_in_row_space():
    rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    assert gfp.in_row_space(rows, np.array([1, 1, 0]), 2)
    assert not gfp.in_row_space(rows, np.array([0, 0, 1]), 2)
    empty = gfp.zeros(0, 3)
    assert gfp.in_row_space(empty, np.array([0, 0, 0]), 2)
    assert not gfp.in_row_space(empty, np.array([1, 0, 0]), 2)


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
    assert gfp.in_row_space(flat, known.flatten(), p)
    # no nonzero intertwiner between the trivial and the sign action of C2
    triv = np.array([[1]], dtype=np.int64)
    sign = np.array([[2]], dtype=np.int64)
    assert len(gfp.intertwiner_space([triv], [sign], 3)) == 0


def test_all_vectors():
    vs = gfp.all_vectors(2, 3)
    assert len(vs) == 9
    assert [tuple(v) for v in vs[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len({tuple(v) for v in vs}) == 9
