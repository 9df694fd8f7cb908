"""Dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Vectors are
rows throughout the package: a group element g acts as v -> v @ rho(g), so
rho(g * h) = rho(g) @ rho(h) under left-to-right composition.
"""

from __future__ import annotations

import numpy as np


def normalized(a, p):
    return np.mod(np.asarray(a, dtype=np.int64), p)


def identity(n):
    return np.eye(n, dtype=np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def inv_mod(x, p):
    return pow(int(x) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = normalized(a, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if m[i, c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = (m[r] * inv_mod(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p):
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def null_right(a, p):
    """Basis (as rows) of {x : a @ x == 0 mod p}."""
    a = normalized(a, p)
    rows, cols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def inverse(a, p):
    """Matrix inverse mod p, or None if singular."""
    a = normalized(a, p)
    n = a.shape[0]
    aug = np.concatenate([a, identity(n)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]


def is_invertible(a, p):
    return inverse(a, p) is not None


def row_basis(a, p):
    """Rows of the reduced echelon form that are nonzero (a canonical basis)."""
    r, pivots = rref(a, p)
    return r[: len(pivots)]


def in_row_space(rows, v, p):
    if rows.shape[0] == 0:
        return not np.any(normalized(v, p))
    return rank(rows, p) == rank(np.vstack([rows, v]), p)


def spin(vectors, mats, p):
    """Smallest subspace containing the vectors and closed under v -> v @ M
    for every M in mats; returned as a canonical row basis."""
    n = mats[0].shape[0] if mats else len(vectors[0])
    basis = zeros(0, n)
    queue = []
    for v in vectors:
        v = normalized(v, p).reshape(-1)
        if not in_row_space(basis, v, p):
            basis = row_basis(np.vstack([basis, v.reshape(1, -1)]), p)
            queue.append(v)
    while queue:
        v = queue.pop(0)
        for m in mats:
            w = np.mod(v @ m, p)
            if not in_row_space(basis, w, p):
                basis = row_basis(np.vstack([basis, w.reshape(1, -1)]), p)
                queue.append(w)
    return basis


def intertwiner_space(reps_a, reps_b, p):
    """Basis of {T : T @ A_i == B_i @ T for all i}, flattened row-major.

    reps_a and reps_b are matched lists of n x n matrices.  The basis is
    returned as a list of n x n matrices.
    """
    n = reps_a[0].shape[0]
    eye = identity(n)
    blocks = []
    for a, b in zip(reps_a, reps_b):
        # row-major vec: vec(T A) = kron(I, A^T) vec(T), vec(B T) = kron(B, I) vec(T)
        blocks.append(np.kron(eye, a.T % p) - np.kron(b % p, eye))
    if not blocks:
        blocks = [zeros(1, n * n)]
    system = np.mod(np.vstack(blocks), p)
    return [vec.reshape(n, n) for vec in null_right(system, p)]


def all_vectors(n, p):
    """All p^n row vectors in a fixed odometer order (last coordinate fastest)."""
    out = []
    v = [0] * n
    while True:
        out.append(np.array(v, dtype=np.int64))
        i = n - 1
        while i >= 0 and v[i] == p - 1:
            v[i] = 0
            i -= 1
        if i < 0:
            return out
        v[i] += 1
