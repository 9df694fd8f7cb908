"""Monolithic groups, crown powers, Eulerian counts and cohomology.

The abelian side of minimal generation is driven by a handful of numbers
attached to an irreducible GF(p) module M of a group G: the dimension r
over the endomorphism field, the first-cohomology dimensions s (of G) and
t (of G modulo the kernel C of the action), the multiplicity delta of the
module among the non-Frattini chief factors, and the resulting bound
h = floor((s - 1) / r) + 2 (or h = delta when the action is trivial).
For a soluble group, d(G) is exactly the maximum of h over its chief
factor classes, which this module exposes as `soluble_d`.  A `GfpModule`
is checked exactly when it is made, by one walk over the Cayley graph of
G on element ids, and the same walk gives C.  s and t come from one more
walk of that kind that also carries the derivation coefficients: s from
its edge equations, and t from those plus delta = 0 on the ids of C, read
in G, since the derivations of G/C are the derivations of G vanishing
on C.

The non-abelian side goes through crown-based powers: `monolithic_of`
builds the primitive group L attached to a chief factor, `crown_power`
the subgroup L_k of L^k of tuples congruent modulo the socle, and
`crown_generation_check` evaluates the counting criterion for d(L_k) in
the simple-socle case, with `eulerian` and `aut_order` supplying the two
sides of the threshold.  `aut_order` searches the images of a generating
sequence on element ids: a partial assignment survives while a walk over
the Cayley graph of the subgroup its generators span extends it to a
homomorphism, with no stabilizer chain built.  The first image runs over
conjugacy class representatives only, and each representative's count is
weighted by its class size.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import gfp
from .perm import (DEFAULT_LIMITS, MAX_DEGREE, CapExceeded, GroupError,
                   Perm, PermGroup, group_from_elements, is_prime, quotient)
from .structure import (chief_series, close_ids,
                        factor_centralizer, is_simple,
                        minimal_normal_subgroups, right_rows,
                        subgroup_lattice)

AUT_CAP = 500
COHOMOLOGY_CAP = 500


class GfpModule:
    """A matrix representation of a group over GF(p), one matrix per generator.

    Row vectors transform on the right, and products compose left to right:
    rho(g * h) = rho(g) @ rho(h).  This matches the convention of the chief
    factor modules, so those convert directly via `module_of_factor`.

    Making one checks exactly that the matrices define an action, by one
    breadth-first walk (`_walk`) over the group's Cayley graph on element
    ids that sets rho(x * g_i) = rho(x) @ M_i and raises GroupError on an
    edge that disagrees; the ids acting as the identity give
    `centralizer_kernel`, and H^1 walks the same id rows again.
    Above ``perm.ELEMENT_CAP`` elements it raises CapExceeded; a prime with
    dim * (p - 1)^2 >= 2^63 is refused, as its int64 products would overflow.
    """

    def __init__(self, group, prime, matrices):
        if isinstance(prime, bool) or not isinstance(prime, int):
            raise GroupError(f"the modulus must be a prime, got {prime!r}")
        if len(matrices) != len(group.gens):
            raise GroupError("need one matrix per group generator")
        if not matrices:
            raise GroupError("the group must come with at least one generator")
        n = len(matrices[0])
        if prime > 1 and n * (prime - 1) ** 2 >= 2 ** 63:
            raise GroupError(f"GF({prime}) is too large for dimension {n}:"
                             " int64 arithmetic needs dim * (p - 1)^2 < 2^63")
        if not is_prime(prime):
            raise GroupError(f"the modulus must be a prime, got {prime!r}")
        mats = tuple(np.array(m, dtype=np.int64) % prime for m in matrices)
        for m in mats:
            if m.shape != (n, n):
                raise GroupError("matrices must be square and all of one size")
            if not gfp.is_invertible(m, prime):
                raise GroupError("a generator matrix is singular")
        self.group = group
        self.prime = prime
        self.dim = n
        self.matrices = mats
        self._steps = _id_rows(group)
        rho = _walk(self._steps, prime, mats)[0][:, -1]
        self._kernel_ids = np.flatnonzero(
            (rho == gfp.identity(n)).all(axis=(1, 2)))
        self._centralizer = None

    def is_trivial_action(self):
        eye = gfp.identity(self.dim)
        return all(np.array_equal(m, eye) for m in self.matrices)

    def is_irreducible(self):
        """No proper nonzero invariant subspace: every basis vector spins
        up to the whole space."""
        if self.dim == 1:
            return True
        mats = list(self.matrices)
        for j in range(self.dim):
            e = np.zeros(self.dim, dtype=np.int64)
            e[j] = 1
            if gfp.spin([e], mats, self.prime).shape[0] < self.dim:
                return False
        return True

    def centralizer_kernel(self):
        """C_G(M), the kernel of the representation: the elements the walk
        found acting as the identity, taken in id order as
        `structure.factor_centralizer` takes them, so the two give the same
        generators."""
        if self._centralizer is None:
            table = self.group.element_table()
            self._centralizer = group_from_elements(
                self.group.degree, table[self._kernel_ids].tolist())
        return self._centralizer


def _id_rows(group):
    """The rows ``steps[i][x] = id(x * g_i)`` of the generators of
    ``group``, read off its element table; refused above
    ``perm.ELEMENT_CAP`` elements."""
    ids = group.ids_of(np.array([g.images for g in group.gens]))
    return np.array(right_rows(group, ids.tolist(), {}))


def _walk(steps, prime, mats, cocycles=False, limits=DEFAULT_LIMITS):
    """One breadth-first walk, a level at a time, over the Cayley graph
    of a group on element ids, through the rows ``steps[i][x] = id(x *
    g_i)``, with rho(g_i) = mats[i]; returns ``(states, system)``.

    The state of x ends in rho(x).  A tree edge x -> x * g_i sets the state
    of x * g_i; every other edge must agree on rho, or GroupError is raised.
    With ``cocycles`` the state starts with the coefficient matrices of
    u_1..u_r in c(x), where c(x * g_i) = c(x) rho(g_i) + u_i, and each edge
    off the tree adds its n equations c(x * g_i) - c(x) rho(g_i) - u_i = 0
    to ``system``, one row per coordinate over the r * n unknowns; its
    solutions are the derivations, whatever tree the walk took, since the
    equations are homogeneous.  Without ``cocycles`` rho is kept in the
    smallest unsigned type that holds p - 1, so large groups stay compact.
    The time budget of ``limits`` is checked once per level.
    """
    r = len(mats) if cocycles else 0
    n = mats[0].shape[0]
    eye = gfp.identity(n)
    dtype = np.int64 if cocycles else np.min_scalar_type(prime - 1)
    states = np.zeros((steps.shape[1], r + 1, n, n), dtype=dtype)
    seen = np.zeros(len(states), dtype=bool)
    # the identity's images sort first, so its id is 0
    states[0, r], seen[0] = eye, True
    frontier = np.zeros(1, dtype=np.intp)
    diffs = []
    while len(frontier):
        limits.check()
        found = []
        here = states[frontier]
        for i, (row, mat) in enumerate(zip(steps, mats)):
            # right multiplication by g_i is a bijection, so ys are
            # distinct, and the new ones among them are first reached here
            ys = row[frontier]
            images = here @ mat
            if cocycles:
                images[:, i] += eye
            images %= prime
            new = ~seen[ys]
            fresh = ys[new]
            states[fresh], seen[fresh] = images[new], True
            found.append(fresh)
            if len(fresh) == len(ys):
                continue
            ends, images = states[ys[~new]], images[~new]
            if (ends[:, r] != images[:, r]).any():
                raise GroupError(
                    "matrices are inconsistent with the group's relations")
            if cocycles:
                diffs.append(ends[:, :r] - images[:, :r])
        frontier = np.concatenate(found)
    if not cocycles:
        return states, None
    # row (edge, c) holds coordinate c of the edge's n equations
    system = np.concatenate(diffs).transpose(0, 3, 1, 2).reshape(-1, r * n)
    return states, system % prime


def module_of_factor(factor):
    """The GfpModule carried by an abelian chief factor."""
    fm = factor.module
    return GfpModule(factor.group, fm.prime, fm.matrices)


def monolithic_of(G, F, *, limits=DEFAULT_LIMITS):
    """The monolithic primitive group attached to a non-Frattini chief factor.

    An abelian factor A gives the affine group A x| (G / C_G(A)) acting on
    the p^n points of the factor space (translations by the factor plus the
    induced matrix action); a non-abelian factor gives G / C_G(A).
    """
    if F.is_frattini:
        raise GroupError("Frattini factors have no monolithic group attached")
    if F.is_abelian:
        mod = F.module
        p, n = mod.prime, mod.dim
        points = p ** n
        if points > MAX_DEGREE:
            raise CapExceeded(f"affine degree {points} exceeds {MAX_DEGREE}")
        vecs = [tuple(int(c) for c in v) for v in gfp.all_vectors(n, p)]
        index = {v: i for i, v in enumerate(vecs)}
        gens = []
        for j in range(n):
            gens.append(Perm(tuple(
                index[v[:j] + ((v[j] + 1) % p,) + v[j + 1:]] for v in vecs)))
        arr = np.array(vecs, dtype=np.int64)
        for mat in mod.matrices:
            moved = (arr @ mat) % p
            gens.append(Perm(tuple(index[tuple(int(c) for c in row)]
                                   for row in moved)))
        return PermGroup(points, tuple(gens))
    C = factor_centralizer(G, F.above, F.below, limits=limits)
    return quotient(G, C)


def crown_power(L, A, k):
    """The subgroup L_k of L^k of tuples that agree modulo the socle A.

    Generated by the diagonal copies of L's generators together with A's
    generators planted in each of the first k - 1 coordinates, so the order
    is |A|^(k-1) * |L| (checked).
    """
    if k < 1:
        raise GroupError("crown powers need k >= 1")
    if A.degree != L.degree or not A.is_subgroup_of(L):
        raise GroupError("the socle must be a subgroup of L")
    mins = minimal_normal_subgroups(L)
    if len(mins) != 1 or not mins[0].same_group_as(A):
        raise GroupError("A is not the socle of a monolithic group L")
    deg = L.degree
    total = k * deg
    if total > MAX_DEGREE:
        raise CapExceeded(f"crown power degree {total} exceeds {MAX_DEGREE}")
    gens = []
    for g in L.gens:
        gens.append(Perm(tuple(j * deg + g.images[x]
                               for j in range(k) for x in range(deg))))
    for j in range(k - 1):
        for a in A.gens:
            gens.append(a.shifted(j * deg, total))
    out = PermGroup(total, tuple(gens))
    if out.order() != A.order() ** (k - 1) * L.order():
        raise GroupError("crown power order check failed")  # pragma: no cover
    return out


def eulerian(X, m, *, limits=DEFAULT_LIMITS):
    """The number of ordered m-tuples of elements that generate X.

    Moebius inversion over the subgroup lattice: the tuples inside a fixed
    subgroup H number |H|^m, so the generating ones number
    sum_H mu(H, X) |H|^m.
    """
    if m < 0:
        raise GroupError("tuple length must be nonnegative")
    lat = subgroup_lattice(X, limits=limits)
    mu = lat.moebius()
    return sum(mu[i] * len(lat.id_set(i)) ** m for i in range(len(lat)))


def aut_order(S, *, limits=DEFAULT_LIMITS):
    """|Aut(S)| by exhaustive search over images of a generating sequence.

    Everything runs on element ids, through the right multiplication rows
    ``rows[g][x] = id(x * g)`` of ``structure.right_rows`` and the orders of
    ``S.element_orders()``.  The generating sequence w_1, w_2, ... is chosen
    greedily in search order, an element joining it when ``close_ids``
    finds it outside the subgroup generated so far.  Candidate images must
    match the generator orders.
    A partial assignment w_j -> y_j for j <= i survives when it extends to
    a homomorphism f of H = <w_1, ..., w_i>: a breadth-first walk from
    f(1) = 1 that sets f(x * w_j) = f(x) * y_j over every edge of H's
    Cayley graph never gives one id two values.  A complete assignment
    counts when that f is injective, so an automorphism.

    The first image runs over conjugacy class representatives only, each
    count weighted by its class size: conjugation by g maps the complete
    assignments starting at r one to one onto those starting at r^g, so
    every element of a class starts equally many.  Meant for small socles;
    elementary abelian groups have automorphism groups far too large to
    count this way.
    """
    n = S.order()
    if n > AUT_CAP:
        raise CapExceeded(
            f"automorphism search needs order <= {AUT_CAP}, "
            f"group has order {n}")
    if n == 1:
        return 1
    orders = S.element_orders(limits=limits)
    rows, gens = {}, []
    # the identity's images sort first, so its id is 0
    span = frozenset([0])
    for e in sorted(range(n), key=orders.__getitem__):
        if e not in span:
            gens.append(e)
            span = close_ids(S, span, gens, rows)
            if span is None:
                break
    # candidates for the images of gens[1:]; gens[0]'s come from the classes
    pools = [[x for x in range(n) if orders[x] == orders[w]]
             for w in gens[1:]]
    classes = S.conjugacy_classes(limits=limits)
    rids = S.ids_of(np.array([rep.images for rep, _ in classes])).tolist()
    firsts = [(y, size) for y, (_, size) in zip(rids, classes)
              if orders[y] == orders[gens[0]]]
    right_rows(S, {*gens, *(y for y, _ in firsts),
                   *(y for pool in pools for y in pool)}, rows)

    def extend(imgs):
        """The homomorphism of <gens[:len(imgs)]> sending each gens[j] to
        imgs[j], as a list over ids (None off that subgroup), or None when
        the assignment extends to none."""
        edges = [(rows[w], rows[y]) for w, y in zip(gens, imgs)]
        f = [None] * n
        f[0] = 0
        walk = [0]
        for x in walk:
            fx = f[x]
            for w_row, y_row in edges:
                x_w, fx_y = w_row[x], y_row[fx]
                if f[x_w] is None:
                    f[x_w] = fx_y
                    walk.append(x_w)
                elif f[x_w] != fx_y:
                    return None
        return f

    def search(imgs, f):
        """The number of complete assignments extending imgs, whose
        homomorphism is f."""
        i = len(imgs)
        if i == len(gens):
            return int(len(set(f)) == n)
        found = 0
        for y in pools[i - 1]:
            limits.check()
            nxt = imgs + (y,)
            g = extend(nxt)
            if g is not None:
                found += search(nxt, g)
        return found

    # an image of gens[0] of the same order always extends, so the first
    # walk never returns None
    return sum(size * search((y,), extend((y,))) for y, size in firsts)


def crown_generation_check(L, A, m, k, *, limits=DEFAULT_LIMITS):
    """Predicted truth of d(L_k) <= m in the simple-socle case L = A.

    For a non-abelian simple socle the crown power A_k is the direct power
    A^k, whose generating m-tuples are k-tuples of pairwise inequivalent
    generating m-tuples of A; since Aut(A) acts freely on those, the
    criterion is k <= phi_A(m) / |Aut(A)| (evaluated without division).
    """
    if k < 1 or m < 1:
        raise GroupError("the criterion needs k >= 1 and m >= 1")
    if not L.same_group_as(A):
        raise GroupError("only the simple-socle case L = A is supported")
    if A.is_abelian() or not is_simple(A):
        raise GroupError("the socle must be non-abelian simple")
    phi = eulerian(A, m, limits=limits)
    gamma = aut_order(A, limits=limits)
    return k * gamma <= phi


def check_cohomology_order(G):
    """Refuse, with CapExceeded, a group of more than COHOMOLOGY_CAP
    elements; return its order."""
    order = G.order()
    if order > COHOMOLOGY_CAP:
        raise CapExceeded(
            f"cohomology cap: needs order <= {COHOMOLOGY_CAP}, "
            f"group has order {order}")
    return order


def _check_generators(G, M):
    """Refuse a module whose matrices sit on other generators than G's: they
    are read by position, so the same group listing its generators in
    another order would silently give another module."""
    if len(M.matrices) != len(G.gens):
        raise GroupError("need one matrix per group generator")
    if G.gens != M.group.gens:
        raise GroupError("module is inconsistent with the group: its "
                         "matrices act on other generators than G's")


def _derivations(G, M, limits):
    """The derivation system of M over G and its rows on C_G(M), from one
    `_walk` over G's Cayley graph on element ids, as ``(A, K, inner)``
    over the unknowns u_i = delta(g_i): A u = 0 says that u extends to a
    derivation delta of G, and K u = 0 that delta vanishes on the ids x
    with rho(x) = 1, so that it is inflated from G/C_G(M), as C_G(M) acts
    trivially; ``inner`` is the rank of the stacked rho(g_i) - 1, the
    dimension of the inner derivations of G and of G/C_G(M) alike.  G
    lists the generators of M's group (`_check_generators`), so it is that
    group with the same element ids, and the walk runs on M's id rows.
    """
    p, n, r = M.prime, M.dim, len(M.matrices)
    eye = gfp.identity(n)
    states, A = _walk(M._steps, p, M.matrices, cocycles=True, limits=limits)
    kernel = (states[:, r] == eye).all(axis=(1, 2))
    K = states[kernel, :r].transpose(0, 3, 1, 2).reshape(-1, r * n)
    inner = np.hstack([(m - eye) % p for m in M.matrices])
    return A[A.any(axis=1)], K[K.any(axis=1)], gfp.rank(inner, p)


def h1_dimension(G, M, *, limits=DEFAULT_LIMITS):
    """The GF(p) dimension of the first cohomology group H^1(G, M): the
    derivations of G, solved for on generator values, less the inner
    ones.  G must list the generators M's matrices act on."""
    _check_generators(G, M)
    if check_cohomology_order(G) == 1:
        return 0
    A, _, inner = _derivations(G, M, limits)
    return len(G.gens) * M.dim - gfp.rank(A, M.prime) - inner


@dataclass(frozen=True)
class ModuleInvariants:
    """Generation invariants of an irreducible module, all measured over
    the endomorphism field."""
    r: int
    s: int
    t: int
    delta: int
    h: int
    end_dim: int


def _field_check(basis, p, seed=0):
    """Every nonzero element sampled from the span must be invertible.

    A one-element span is checked by its element alone: c * B is
    invertible exactly when B is, for c != 0."""
    samples = list(basis)
    if len(basis) > 1:
        rng = random.Random(seed)
        for _ in range(8):
            mix = sum((rng.randrange(p) * b for b in basis),
                      np.zeros_like(basis[0])) % p
            samples.append(mix)
    for s in samples:
        if np.any(s) and not gfp.is_invertible(s, p):
            raise GroupError(
                "endomorphism space contains a singular nonzero element")


def module_invariants(G, M, series=None, *, limits=DEFAULT_LIMITS):
    """The invariants r, s, t, delta and h of an irreducible module M of G.

    end_dim is the GF(p) dimension of End_G(M) (a field, by Schur); r is
    the module dimension over that field; s and t are the dimensions of
    H^1(G, M) and H^1(G/C_G(M), M); delta counts the non-Frattini chief
    factors carrying an equivalent module.  h is delta for a trivial
    module and floor((s-1)/r) + 2 otherwise; identities s = t + delta and
    h <= delta + 1 hold throughout.

    End_G(M) is the intertwiner space of M with itself; for delta, a
    factor whose matrices equal M's (M's own factor among them) counts
    without solving for an intertwiner, and only the others are solved
    against M.  Over 1-dim modules `gfp.intertwiner_space` compares the
    entries directly.  G must list the generators M's matrices act on.
    """
    _check_generators(G, M)
    p, n = M.prime, M.dim
    if not M.is_irreducible():
        raise GroupError("module invariants need an irreducible module")
    basis = gfp.intertwiner_space(list(M.matrices), list(M.matrices), p)
    end_dim = len(basis)
    _field_check(basis, p)
    r, rem = divmod(n, end_dim)
    if rem:
        raise GroupError(
            "endomorphism dimension does not divide the module dimension")
    if check_cohomology_order(G) == 1:
        dims = (0, 0)
    else:
        # the derivations of G/C_G(M) are those of G that vanish on
        # C_G(M), so t's system is A's pivot rows plus K, off one walk
        A, K, inner = _derivations(G, M, limits)
        reduced, pivots = gfp.rref(A, p)
        free = len(G.gens) * n - inner
        dims = (free - len(pivots),
                free - gfp.rank(np.vstack([reduced[:len(pivots)], K]), p))
    if any(dim % end_dim for dim in dims):
        raise GroupError("H^1 dimension is not a multiple of end_dim")
    s, t = (dim // end_dim for dim in dims)
    if series is None:
        series = chief_series(G, limits=limits)
    delta = 0
    for f in series:
        if (not f.is_abelian or f.is_frattini or f.prime != p
                or f.dim != n):
            continue
        # equal matrices are the same representation, so equivalent
        mats = f.module.matrices
        if (np.array_equal(mats, M.matrices)
                or gfp.intertwiner_space(list(mats), list(M.matrices), p)):
            delta += 1
    if M.is_trivial_action():
        h = delta
    else:
        h = (s - 1) // r + 2
    return ModuleInvariants(r=r, s=s, t=t, delta=delta, h=h, end_dim=end_dim)


def factor_invariants(G, *, limits=DEFAULT_LIMITS):
    """(factor, ModuleInvariants) for every non-Frattini abelian chief factor."""
    series = chief_series(G, limits=limits)
    out = []
    for f in series:
        if not f.is_abelian or f.is_frattini:
            continue
        inv = module_invariants(G, module_of_factor(f), series, limits=limits)
        out.append((f, inv))
    return out


def soluble_d(G, *, limits=DEFAULT_LIMITS):
    """d(G) for a soluble group: the maximum of h over its chief factors.

    The factor attaining the maximum is the generating one; its h equals
    the minimal number of generators.
    """
    if not G.is_soluble():
        raise GroupError("the h-based generator count needs a soluble group")
    if G.order() == 1:
        return 0
    pairs = factor_invariants(G, limits=limits)
    return max(inv.h for _, inv in pairs)
