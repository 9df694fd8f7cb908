"""Monolithic groups, crown powers, Eulerian counts and cohomology.

The abelian side of minimal generation is driven by a handful of numbers
attached to an irreducible GF(p) module M of a group G: the dimension r
over the endomorphism field, the first-cohomology dimensions s (of G) and
t (of G modulo the kernel C of the action), the multiplicity delta of the
module among the non-Frattini chief factors, and the resulting bound
h = floor((s - 1) / r) + 2 (or h = delta when the action is trivial).
For a soluble group, d(G) is exactly the maximum of h over its chief
factor classes, which this module exposes as `soluble_d`.  Its number
of generating k-tuples is Gaschuetz's product over its complemented chief
factors, which `eulerian` takes.  Both read the invariants that
`factor_invariants` lists, computed once per group and kept on it as
plain data that refers back to no group.  A `GfpModule` is made by one
`gfp.module_walk` over the Cayley graph of G on element ids, the walk
whose affine form decides the Frattini flags: it checks the matrices,
and leaves C, the homogeneous system whose solutions give s, and the
rows that add delta = 0 on the ids of C for t, since the derivations of
G/C are the derivations of G vanishing on C.

The non-abelian side goes through crown-based powers: `monolithic_of`
builds the primitive group L attached to a chief factor, `crown_power`
the subgroup L_k of L^k of tuples congruent modulo the socle, and
`crown_generation_check` evaluates the counting criterion for d(L_k) in
the simple-socle case, with `eulerian` and `aut_order` supplying the two
sides of the threshold (a simple socle is not soluble, so `eulerian`
takes P. Hall's Moebius sum over its subgroup lattice).  `aut_order`
searches the images of a generating sequence on element ids: a partial
assignment survives while a walk over the Cayley graph of the subgroup
its generators span extends it to a homomorphism, with no stabilizer
chain built.  The first image runs over conjugacy class representatives
only, and each representative's count is weighted by its class size.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import gfp
from .perm import (DEFAULT_LIMITS, MAX_DEGREE, CapExceeded, GroupError,
                   Perm, PermGroup, group_from_elements, is_prime, quotient)
from .structure import (ChiefFactor, chief_series, close_ids,
                        factor_centralizer, gequivalent_abelian, is_simple,
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
    `gfp.module_walk` over the group's Cayley graph on element ids that
    sets rho(x * g_i) = rho(x) @ M_i and raises GroupError on an edge that
    disagrees; the ids acting as the identity give `centralizer_kernel`,
    and the walk's homogeneous system, its zero rows dropped, gives H^1.
    Above COHOMOLOGY_CAP elements it raises CapExceeded before the element
    table is built; a prime with dim * (p - 1)^2 >= 2^63 is refused, as its
    int64 products would overflow.  The time budget of ``limits`` is
    checked once per level of the walk.
    """

    def __init__(self, group, prime, matrices, *, limits=DEFAULT_LIMITS):
        check_cohomology_order(group)
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
        # over the rows steps[i][x] = id(x * g_i) of G's generators
        states, system, _, _ = gfp.module_walk(
            right_rows(group, group.ids_of_perms(group.gens), {}), mats,
            prime, limits)
        r = len(mats)
        self._kernel_ids = np.flatnonzero(
            (states[:, r] == gfp.identity(n)).all(axis=(1, 2)))
        # the rows of c(x) = 0 over the kernel, laid out as the system's
        rows = states[self._kernel_ids, :r].transpose(0, 3, 1, 2)
        rows = rows.reshape(-1, r * n)
        self._kernel_rows = rows[rows.any(axis=1)]
        self._system = system[system.any(axis=1)]
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


def module_of_factor(factor):
    """The GfpModule carried by an abelian chief factor."""
    fm = factor.module
    return GfpModule(factor.group, fm.prime, fm.matrices,
                     limits=factor.limits)


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


def eulerian(X, m, series=None, *, limits=DEFAULT_LIMITS):
    """The number of ordered m-tuples of elements that generate X.

    A soluble X of order at most COHOMOLOGY_CAP takes Gaschuetz's product
    (W. Gaschuetz, "Die Eulersche Funktion endlicher aufloesbarer
    Gruppen", 1959), with no subgroup lattice:

        phi_X(m) = |X|^m * prod_A (1 - c_A q_A^i_A / |A|^m)

    over the complemented chief factors A of one chief series, ``series``
    when the caller has it, in series order, where q_A = |End_X(A)| = p^end_dim, i_A counts the earlier
    complemented factors X-equivalent to A, and c_A is q_A^t for a trivial
    module and |A| q_A^t otherwise, t from `module_invariants`.  It is
    evaluated in integers, dividing by prod_A |A|^m once at the end.

    Every other X takes P. Hall's Moebius inversion over its subgroup
    lattice, `SubgroupLattice.eulerian`.
    """
    if m < 0:
        raise GroupError("tuple length must be nonnegative")
    if X.order() <= COHOMOLOGY_CAP and X.is_soluble():
        num, den = X.order() ** m, 1
        for rec in _factor_records(X, limits, series):
            size = rec.above.order() // rec.below.order()
            inv = rec.invariants
            q = rec.prime ** inv.end_dim
            c = q ** inv.t if rec.trivial else size * q ** inv.t
            num *= size ** m - c * q ** rec.twins
            den *= size ** m
        return num // den
    return subgroup_lattice(X, limits=limits).eulerian(m)


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
    rids = S.ids_of_perms([rep for rep, _ in classes])
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
    elements."""
    order = G.order()
    if order > COHOMOLOGY_CAP:
        raise CapExceeded(
            f"cohomology cap: needs order <= {COHOMOLOGY_CAP}, "
            f"group has order {order}")


def _check_generators(G, M):
    """Refuse a module whose matrices sit on other generators than G's: they
    are read by position, so the same group listing its generators in
    another order would silently give another module."""
    if len(M.matrices) != len(G.gens):
        raise GroupError("need one matrix per group generator")
    if G.gens != M.group.gens:
        raise GroupError("module is inconsistent with the group: its "
                         "matrices act on other generators than G's")


def _derivations(M):
    """The derivation system of M over its group G, kept by M's walk, and
    its rows on C_G(M), as ``(A, K, inner)`` over the unknowns u_i =
    delta(g_i): A u = 0 says that u extends to a derivation delta of G,
    and K u = 0 that delta vanishes on the ids x with rho(x) = 1, so that
    it is inflated from G/C_G(M), as C_G(M) acts trivially; ``inner`` is
    the rank of the stacked rho(g_i) - 1, the dimension of the inner
    derivations of G and of G/C_G(M) alike."""
    eye = gfp.identity(M.dim)
    inner = np.hstack([(m - eye) % M.prime for m in M.matrices])
    return M._system, M._kernel_rows, gfp.rank(inner, M.prime)


def h1_dimension(G, M):
    """The GF(p) dimension of the first cohomology group H^1(G, M): the
    derivations of G, solved for on generator values off the system M's
    walk kept, less the inner ones.  G must list the generators M's
    matrices act on."""
    _check_generators(G, M)
    A, _, inner = _derivations(M)
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
    # the derivations of G/C_G(M) are those of G that vanish on C_G(M),
    # so t's system is A's pivot rows plus K, both off M's walk
    A, K, inner = _derivations(M)
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


@dataclass(frozen=True)
class _FactorRecord:
    """The memo's entry for one non-Frattini abelian chief factor
    above/below of G: plain data, with no ChiefFactor or module, as those
    refer back to G."""
    below: PermGroup
    above: PermGroup
    prime: int
    invariants: ModuleInvariants
    trivial: bool
    twins: int  # earlier records whose factors are G-equivalent to this one


def _factor_records(G, limits, series=None):
    """The `_FactorRecord`s of G's non-Frattini abelian chief factors, in
    series order, memoized on G; ``series`` is G's chief series when the
    caller has it, and is made otherwise.  A factor with delta = 1 has no
    twin, so only the others are matched by `gequivalent_abelian`, against
    the first factor of each class met so far."""
    if G._factor_records is None:
        if series is None:
            series = chief_series(G, limits=limits)
        records, classes = [], []  # classes: [first factor, size]
        for f in series:
            if not f.is_abelian or f.is_frattini:
                continue
            M = module_of_factor(f)
            inv = module_invariants(G, M, series, limits=limits)
            twins = 0
            if inv.delta > 1:
                for cls in classes:
                    if gequivalent_abelian(cls[0], f):
                        twins = cls[1]
                        cls[1] += 1
                        break
                else:
                    classes.append([f, 1])
            records.append(_FactorRecord(f.below, f.above, f.prime, inv,
                                         M.is_trivial_action(), twins))
        G._factor_records = tuple(records)
    return G._factor_records


def factor_invariants(G, *, limits=DEFAULT_LIMITS):
    """(factor, ModuleInvariants) for every non-Frattini abelian chief
    factor, in series order.  The invariants are computed once per group;
    each call makes its ChiefFactors anew from the memo's subgroups."""
    out = []
    for rec in _factor_records(G, limits):
        f = ChiefFactor(G, rec.below, rec.above, limits)
        # true of every factor the memo keeps
        f.is_abelian, f.is_frattini = True, False
        out.append((f, rec.invariants))
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
    return max(rec.invariants.h for rec in _factor_records(G, limits))
