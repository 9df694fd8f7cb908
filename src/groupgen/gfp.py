"""Dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Vectors are
rows throughout the package: a group element g acts as v -> v @ rho(g), so
rho(g * h) = rho(g) @ rho(h) under left-to-right composition.

`rref` is Gauss-Jordan elimination with one array update per pivot: the
pivot row is scaled to a leading 1 and its column is cleared from every
other row at once, so a tall system costs a few numpy calls per column,
not per row.  1 x 1 matrices take closed forms: `inverse` is the inverse
of the entry, and `intertwiner_space` of 1-dim representations is the
scalars when the two agree on every generator and zero otherwise.
"""

from __future__ import annotations

import numpy as np

from .perm import GroupError


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
    m = normalized(a, p)
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = np.flatnonzero(m[r:, c])
        if not len(below):
            continue
        i = r + below[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        pivot = m[r] * inv_mod(m[r, c], p) % p
        # the pivot row clears its own row too, so it is put back after
        m -= np.outer(m[:, c], pivot)
        m[r] = pivot
        m %= p
        pivots.append(c)
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
    if a.shape == (1, 1):
        x = a[0, 0]
        return np.array([[inv_mod(x, p)]], dtype=np.int64) if x else None
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


def spin(vectors, mats, p):
    """Smallest subspace containing the vectors and closed under v -> v @ M
    for every M in mats; returned as a canonical row basis.

    Each candidate costs one echelon form, of the basis with the
    candidate stacked under it, which both tests it and gives the grown
    basis; the walk stops once the basis spans the whole space."""
    n = mats[0].shape[0] if mats else len(vectors[0])
    basis = zeros(0, n)
    queue = []

    def grow(v):
        nonlocal basis
        grown = row_basis(np.vstack([basis, v.reshape(1, -1)]), p)
        if len(grown) > len(basis):
            basis = grown
            queue.append(v)

    for v in vectors:
        grow(normalized(v, p).reshape(-1))
    while queue and len(basis) < n:
        v = queue.pop(0)
        for m in mats:
            grow(np.mod(v @ m, p))
    return basis


def intertwiner_space(reps_a, reps_b, p):
    """Basis of {T : T @ A_i == B_i @ T for all i}, flattened row-major.

    reps_a and reps_b are matched nonempty lists of n x n matrices; lists
    of unequal length or of mixed sizes raise GroupError.  The basis is
    returned as a list of n x n matrices.  For n = 1 the condition is
    t * a_i == b_i * t, so the space is the scalars, basis [[1]], exactly
    when a_i == b_i mod p for every i, and zero otherwise.
    """
    if not reps_a or len(reps_a) != len(reps_b):
        raise GroupError("intertwiners need two matched nonempty lists")
    n = reps_a[0].shape[0]
    if any(m.shape != (n, n) for m in (*reps_a, *reps_b)):
        raise GroupError("intertwiners need n x n matrices of one size n")
    if n == 1:
        if any((a[0, 0] - b[0, 0]) % p for a, b in zip(reps_a, reps_b)):
            return []
        return [identity(1)]
    eye = identity(n)
    blocks = []
    for a, b in zip(reps_a, reps_b):
        # row-major vec: vec(T A) = kron(I, A^T) vec(T), vec(B T) = kron(B, I) vec(T)
        blocks.append(np.kron(eye, a.T % p) - np.kron(b % p, eye))
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
