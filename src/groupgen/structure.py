"""Structural analysis: subgroup lattices, Frattini subgroups, minimal
normal subgroups, socle, chief series and the centralizers of chief
factors.

Minimal normal subgroups and chief series come from one walk: the
inclusion-minimal normal closures of a normal subgroup Y plus one
conjugacy class representative, each listed at the first representative
that gives it.  With Y trivial these are the minimal normal subgroups;
a chief series takes the least of them as its next term.  The centralizer
C_G(X/Y) of a chief factor is one sweep over G's elements.

An abelian chief factor X/Y is a GF(p) module of G itself, built once per
factor; whether it has a complement in G/Y (so whether it is Frattini) is
one linear system read off ``perm.coset_walk`` over the cosets of X in G.
No quotient group is built.

The subgroup lattice is built by closing the zuppos (cyclic subgroups of
prime power order) under joins with one another: Neubuser's cyclic
extension method.  Every subgroup is the join of the zuppos it contains,
so the closure is complete.

The closure works on element ids: an element's id is its row in
G.element_table(), whose rows are sorted by image tuple (the same order as
G.elements()), so a subgroup's sorted ids sort like its sorted image
tuples.  The zuppos are read off the table too: the powers of the
elements of prime power order, by composing rows.  A join is
``close_ids``, a breadth-first walk over ids through one right
multiplication row per generator; genset.GenOracle closes its joins with
it too when G's lattice is over the cap.

Joins are computed only for one representative H per conjugacy class of
subgroups, and only with one zuppo per orbit of N_G(H).  A new subgroup
enters with its whole class, the orbit of its id set under the generators
of G, each conjugate carrying the conjugated generators; only the
representative is queued.  The walk over the class also gives N_G(H), as
the Schreier generators of that orbit, each acting on the zuppos through
one zuppo map per generator of G.  Nothing is lost: the zuppos are closed
under conjugation, join(H^g, z) = join(H, z^(g^-1))^g, so every join of a
conjugate is the conjugate of a join that was computed, and for n in
N_G(H), join(H, z^n) = join(H, z)^n, whose class was added whole by the
join with the least zuppo of the orbit.  So the classes are found in the
same order, with the same generators, as by joining every zuppo.

Containment between subgroups is read off one boolean membership array,
subgroups by element ids, held only while it is computed; the join rows
the generation searches read are written from the id sets of each
subgroup's strict supersets.
"""

from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from . import gfp
from .perm import (
    DEFAULT_LIMITS,
    CapExceeded,
    GroupError,
    NotInGroup,
    PermGroup,
    coset_walk,
    factorint,
    group_from_elements,
    is_prime_power,
    orbit_minima,
)


class SubgroupLattice:
    """All subgroups of a group, sorted by (order, sorted element tuples).

    Subgroup i is ``subgroups[i]``, a PermGroup on a few generators, and
    ``id_set(i)``, the frozenset of its element ids; an element's id is its
    row in ``group.element_table()``.  ``join_walks`` is the number of
    joins the closure walked to find them.
    """

    def __init__(self, group, subgroups, id_sets, gen_ids, join_walks):
        self.group = group
        self.subgroups = tuple(subgroups)
        self._id_sets = tuple(id_sets)
        self._gen_ids = tuple(gen_ids)
        self.top = len(self.subgroups) - 1
        self._join_walks = join_walks
        self._supersets = None
        self._join_rows = {}

    def __len__(self):
        return len(self.subgroups)

    @property
    def join_walks(self):
        return self._join_walks

    def id_set(self, i):
        """Subgroup i as a frozenset of element ids."""
        return self._id_sets[i]

    def strict_supersets(self, i):
        """Indices of subgroups strictly containing subgroup i: those of
        larger order that hold its generators, read off one boolean
        membership array (subgroups by element ids) that is dropped once
        every row is known."""
        if self._supersets is None:
            sets = self._id_sets
            sizes = [len(s) for s in sets]
            members = np.zeros((len(sets), sizes[self.top]), dtype=bool)
            members[np.arange(len(sets)).repeat(sizes),
                    np.fromiter(itertools.chain.from_iterable(sets),
                                dtype=np.intp, count=sum(sizes))] = True
            sups = []
            for a, gens in enumerate(self._gen_ids):
                # subgroups are sorted by order, so the larger ones follow
                first = bisect.bisect_right(sizes, sizes[a])
                held = members[first:, list(gens)].all(axis=1)
                sups.append(tuple((np.flatnonzero(held) + first).tolist()))
            self._supersets = sups
        return self._supersets[i]

    def maximal_indices(self):
        return tuple(i for i in range(len(self.subgroups))
                     if self.strict_supersets(i) == (self.top,))

    def moebius(self):
        """Moebius function mu(H, G) of the lattice, indexed like subgroups."""
        mu = [0] * len(self.subgroups)
        mu[self.top] = 1
        order = sorted(range(len(self.subgroups)),
                       key=lambda i: -len(self._id_sets[i]))
        for i in order:
            if i == self.top:
                continue
            mu[i] = -sum(mu[j] for j in self.strict_supersets(i))
        return mu

    def join_row(self, i):
        """Joins of subgroup i with every single element, as a list indexed
        by element id: i itself or the first strict superset holding the
        element (the smallest, since subgroups are sorted by order).  Rows
        are built once and reused, which turns the innermost loops of the
        generation searches into array reads."""
        row = self._join_rows.get(i)
        if row is None:
            # written from the largest candidate down, so each entry ends
            # as the first candidate holding the element; entries are taken
            # from one tuple, so they share its int objects
            sets = self._id_sets
            row = self._join_rows[i] = [i] * len(sets[self.top])
            for b in reversed((i,) + self.strict_supersets(i)):
                for e in sets[b]:
                    row[e] = b
        return row


def _zuppos(G, table, elems, *, limits):
    """The zuppos of G, read off its element table: a list of (id set,
    generator id) sorted by (order, sorted ids), the generator being the
    least id that generates the zuppo, and ``zuppo_of``, the index in that
    list of the zuppo an element generates (-1 for elements of order 1 or
    not of prime power order).

    The orders of the elements come from their cycle lengths.  Only the
    elements of prime power order are powered, by composing their rows with
    their own rows again, up to the largest such order; each step keeps
    only the ids of the new powers.  The time budget of ``limits`` is
    checked before each step."""
    n = len(table)
    orders = [e.order() for e in elems]
    primes = {o: next(iter(factorint(o))) for o in set(orders)
              if o > 1 and is_prime_power(o)}
    xs = [x for x, o in enumerate(orders) if o in primes]
    order = np.array([orders[x] for x in xs], dtype=np.intp)
    prime = np.array([primes[orders[x]] for x in xs], dtype=np.intp)
    xs = np.array(xs, dtype=np.intp)
    steps = row = table[xs]
    # the identity's images sort first, so its id is 0
    powers = [np.zeros_like(xs), xs]
    for _ in range(2, max(primes, default=1)):
        limits.check()
        # x^(k+1)[p] = x^k[x[p]]
        row = np.take_along_axis(row, steps, axis=1)
        powers.append(G.ids_of(row))
    powers = np.array(powers)
    k = np.arange(len(powers))[:, None]
    # the generators of <x>, for |x| a power of p, are its powers x^k with
    # k < |x| prime to p
    gen = (k < order) & (k % prime != 0)
    least = np.where(gen, powers, n).min(axis=0)
    cols = powers.T.tolist()
    zuppo_list = sorted(((frozenset(col[:o]), x) for col, x, o, z
                         in zip(cols, xs.tolist(), order.tolist(),
                                least.tolist()) if z == x),
                        key=lambda kv: (len(kv[0]), sorted(kv[0])))
    index = np.full(n, -1)
    index[[z for _, z in zuppo_list]] = np.arange(len(zuppo_list))
    zuppo_of = np.full(n, -1)
    zuppo_of[xs] = index[least]
    return zuppo_list, zuppo_of


def close_ids(G, start, gens, rows):
    """The subgroup of G generated by the elements with ids ``gens``, as a
    frozenset of ids, or None when it is the whole group: the closure of
    ``start``, which holds the identity and lies in that subgroup, under
    right multiplication by ``gens``.  ``rows[g][x]`` is the id of x * g,
    read off ``G.element_table()`` into the caller's dict on first use.  A
    walk that passes half the group has found the whole group and stops."""
    table = G.element_table(None)
    half = len(table) // 2
    for g in gens:
        if g not in rows:
            rows[g] = G.ids_of(table[g][table]).tolist()
    grow = [rows[g] for g in gens]
    closed = set(start)
    work = list(closed)
    wi = 0
    while wi < len(work) and len(closed) <= half:
        x = work[wi]
        wi += 1
        for row in grow:
            y = row[x]
            if y not in closed:
                closed.add(y)
                work.append(y)
    return None if len(closed) > half else frozenset(closed)


def subgroup_lattice(G, *, limits=DEFAULT_LIMITS):
    """The SubgroupLattice of G, memoized on G.

    Conjugation and right multiplication act on element ids through rows
    read off ``G.element_table()``: ``G.conjugation_ids`` for the
    generators of G and one row per join generator.  Raises CapExceeded
    once the lattice has more than ``limits.lattice_cap`` subgroups, at once
    under a cap no higher than one that failed on G; the time budget of
    ``limits`` is checked per conjugate and per join."""
    cap, check = limits.lattice_cap, limits.check
    cached = G._lattice_cache
    failed = G._lattice_failed_cap
    # replay a stricter cap check, or one that failed, building nothing
    if (len(cached) > cap if cached is not None
            else failed is not None and cap <= failed):
        raise CapExceeded(f"subgroup lattice exceeds {cap} subgroups")
    if cached is not None:
        return cached
    table = G.element_table(limits=limits)
    elems = G.elements(limits=limits)
    conj_ids = G.conjugation_ids(limits=limits)
    # conj[j][x] is the id of x^g for the j-th generator g of G
    conj = [c.tolist() for c in conj_ids]
    zuppo_list, zuppo_of = _zuppos(G, table, elems, limits=limits)
    num_z = len(zuppo_list)
    z_ident = np.arange(num_z)
    # zp[j][i] is the index of (zuppo i)^g for the j-th generator g of G,
    # and moves[j] whether that map moves any zuppo
    zrep = np.array([z for _, z in zuppo_list], dtype=np.intp)
    zp = [zuppo_of[c[zrep]] for c in conj_ids]
    moves = [bool((m != z_ident).any()) for m in zp]

    sets_list = []
    gens_list = []
    found = {}
    queue = []
    orbits = {}

    def add(fs, gens):
        if len(sets_list) >= cap:
            G._lattice_failed_cap = cap
            raise CapExceeded(f"subgroup lattice exceeds {cap} subgroups")
        found[fs] = len(sets_list)
        sets_list.append(fs)
        gens_list.append(gens)

    def add_class(fs, gens):
        """Record the new subgroup fs and then its conjugates, conjugating
        the generators along; only fs itself is queued for joins, with
        whether each zuppo is the least of its orbit under N_G(fs), or
        None when that normalizer fixes every zuppo.

        Member k of the class carries trans[k], the zuppo map of an element
        t_k with fs^t_k = member k.  An edge from member k by generator g
        to a member j found before gives t_k g t_j^-1 in N_G(fs), and these
        Schreier generators generate it."""
        start = k = len(sets_list)
        add(fs, gens)
        trans, inverses, schreier = [z_ident], {start: z_ident}, {}
        while k < len(sets_list):
            h_set, h_gens = sets_list[k], gens_list[k]
            t = trans[k - start]
            k += 1
            for j, c in enumerate(conj):
                check()
                image = frozenset(map(c.__getitem__, h_set))
                other = found.get(image)
                # the zuppo map of t_k g, reusing t or zp[j] when the other
                # factor is the identity
                u = t if not moves[j] else zp[j] if t is z_ident else zp[j][t]
                if other is None:
                    add(image, tuple(map(c.__getitem__, h_gens)))
                    trans.append(u)
                elif u is not trans[other - start]:
                    inv = inverses.get(other)
                    if inv is None:
                        inv = inverses[other] = np.empty_like(z_ident)
                        inv[trans[other - start]] = z_ident
                    s = u if inv is z_ident else inv[u]
                    schreier.setdefault(s.tobytes(), s)
        schreier.pop(z_ident.tobytes(), None)
        # classes with the same Schreier generators, such as all normal
        # subgroups, share their orbits
        key = frozenset(schreier)
        if key and key not in orbits:
            least = orbit_minima(schreier.values(), num_z, limits=limits)
            orbits[key] = (least == z_ident).tolist()
        queue.append((start, orbits.get(key)))

    # the identity's images sort first, so its id is 0
    add_class(frozenset([0]), ())
    for fs, z in zuppo_list:
        if fs not in found:
            add_class(fs, (z,))
    whole = frozenset(range(G.order()))
    rows = {}
    walks = 0
    for i, least in queue:
        h_set, h_gens = sets_list[i], gens_list[i]
        for zi, (z_set, z) in enumerate(zuppo_list):
            # join(H, z^n) = join(H, z)^n for n in N_G(H): the class of a
            # join with a zuppo that is not least in its orbit was already
            # added whole by the join with the least one
            if z in h_set or (least is not None and not least[zi]):
                continue
            check()
            walks += 1
            # both factors are already closed, so the walk only has to
            # fill in the genuinely new products
            fs = close_ids(G, h_set | z_set, h_gens + (z,), rows) or whole
            if fs not in found:
                add_class(fs, h_gens + (z,))
    if whole not in found:
        raise GroupError("lattice closure never reached the whole group")

    order = sorted(range(len(sets_list)),
                   key=lambda i: (len(sets_list[i]), sorted(sets_list[i])))
    subgroups = [PermGroup(G.degree, tuple(elems[g] for g in gens_list[i]))
                 for i in order]
    lattice = SubgroupLattice(G, subgroups, [sets_list[i] for i in order],
                              [gens_list[i] for i in order], walks)
    G._lattice_cache = lattice
    return lattice


def frattini(G, *, limits=DEFAULT_LIMITS):
    """The Frattini subgroup: intersection of all maximal subgroups."""
    if G.order() == 1:
        return PermGroup(G.degree, ())
    lattice = subgroup_lattice(G, limits=limits)
    maximal_sets = [lattice.id_set(i) for i in lattice.maximal_indices()]
    inter = frozenset.intersection(*maximal_sets)
    elems = G.elements(None)
    return group_from_elements(G.degree, [elems[k] for k in sorted(inter)])


def _minimal_closures(G, Y, reps, *, limits):
    """The inclusion-minimal normal closures of Y plus one of ``reps``, each
    listed at the first representative that gives it, with the generators
    of ``G.normal_closure(Y.gens + (rep,))`` for that representative.  Y is
    normal in G and ``reps`` are in search order.

    A closure is only ever dropped for a smaller one, so a minimal one is
    never dropped.  Two kinds of representative are skipped, neither of
    which is ever the first to give a minimal closure:

    - r whose coset rY has no prime order.  If the closure of Y and r is
      minimal, it equals the closure of Y and r^q for a prime q dividing
      the order of rY, as r^q is not in Y.  r^q has a smaller element
      order than r, so its class representative comes earlier in search
      order; by induction on the element order an earlier representative
      of prime order modulo Y gives the same closure.
    - r in the coset of the identity or of an earlier representative
      already walked, whose closure r's equals.

    Each closure grows from Y's chain.  The time budget of ``limits`` is
    checked once per representative."""
    minimal = []
    keys = {Y.coset_key(G.identity())}
    for rep in reps:
        limits.check()
        key = Y.coset_key(rep)
        if key in keys or all(rep ** q not in Y
                              for q in factorint(rep.order())):
            continue
        keys.add(key)
        X = G.normal_closure((rep,), below=Y)
        if any(M.order() <= X.order() and all(g in X for g in M.gens)
               for M in minimal):
            continue
        minimal = [M for M in minimal
                   if not (X.order() < M.order()
                           and all(g in M for g in X.gens))]
        minimal.append(X)
    return minimal


def minimal_normal_subgroups(G, *, limits=DEFAULT_LIMITS):
    """All minimal normal subgroups, sorted by order (ties keep the order in
    which conjugacy class representatives produced them)."""
    if G.order() == 1:
        return ()
    reps = G.class_representatives(limits=limits)
    closures = _minimal_closures(G, PermGroup(G.degree, ()), reps,
                                 limits=limits)
    return tuple(sorted(closures, key=PermGroup.order))


def unique_minimal_normal(G):
    mins = minimal_normal_subgroups(G)
    return mins[0] if len(mins) == 1 else None


def is_simple(G):
    """Whether G is simple: its only minimal normal subgroup is G."""
    mins = minimal_normal_subgroups(G)
    return len(mins) == 1 and mins[0].order() == G.order()


def is_elementary_abelian(G):
    if not G.is_abelian():
        return False
    n = G.order()
    if n == 1:
        return False
    if not is_prime_power(n):
        return False
    (p, _), = factorint(n).items()
    return all(g.is_identity() or g.order() == p for g in G.gens)


def cocycle_system(G, N, matrices, p, coords_of=None, *,
                   limits=DEFAULT_LIMITS):
    """The linear system A u = b over GF(p) in the values u_i, on the
    generators g_i of G, of a map into the module with rho(g_i) =
    matrices[i], on which the normal subgroup N acts trivially.

    ``perm.coset_walk(N, G.gens)`` spans a tree on which c(x g_i) =
    c(x) rho(g_i) + u_i; each later edge x -> y gives n equations c(y) -
    c(x) rho(g_i) - u_i = z, in (coset, generator) order.  Without
    ``coords_of``, z = 0 and the solutions are the cocycles of G/N.  With
    ``coords_of`` (coordinates of N modulo a normal Y of G, with N/Y
    elementary abelian), z is the relator rep(y)^-1 * rep(x) * g_i, and the
    solutions are the t_i for which the g_i * t_i generate a complement of
    N/Y in G/Y.  The edges also check the matrices against the group's
    multiplication.
    """
    reps, _, rows = coset_walk(N, G.gens, limits=limits)
    if len(reps) != G.order() // N.order():
        raise GroupError("the generators do not generate the group")
    r, n = len(G.gens), matrices[0].shape[0]
    eye = gfp.identity(n)
    zero = np.zeros(n, dtype=np.int64)
    # a coset's state: the coefficient matrices of u_1..u_r in its value,
    # then rho of its representative; it comes from the tree edge
    state = np.zeros((r + 1, n, n), dtype=np.int64)
    state[r] = eye
    states = [state]
    diffs, consts = [], []
    for k, sx in enumerate(states):  # grows while it is read
        for i, row in enumerate(rows):
            sy = sx @ matrices[i]
            sy[i] += eye
            sy %= p
            c = row[k]
            if c == len(states):
                states.append(sy)
                continue
            s = states[c]
            if (s[r] != sy[r]).any():
                raise GroupError(
                    "matrices are inconsistent with the group's relations")
            diffs.append(s[:r] - sy[:r])
            consts.append(zero if coords_of is None
                          else coords_of(reps[c].inverse() * reps[k]
                                         * G.gens[i]))
    # row (edge, c) holds coordinate c of the edge's n equations
    A = np.array(diffs, dtype=np.int64).reshape(-1, r, n, n)
    A = np.mod(A.transpose(0, 3, 1, 2), p)
    A = A.reshape(-1, r * n)
    b = np.array(consts, dtype=np.int64).reshape(-1)
    keep = A.any(axis=1) | (b != 0)
    return A[keep], b[keep]


class FactorModule:
    """An abelian chief factor X/Y as a GF(p) module for G.

    The basis is the generators of X whose cosets of Y the earlier ones do
    not span, taken in order; coordinates come from the tree edges of
    ``perm.coset_walk(Y, basis)``.  Row vectors transform as v -> v @
    rho(g), with rho(g)[j] the coordinates of the conjugate (b_j)^g.
    """

    def __init__(self, group, above, below):
        self.group = group
        self.above = above
        self.below = below
        order = above.order() // below.order()
        fact = factorint(order)
        if len(fact) != 1:
            raise GroupError("factor is not of prime power order")
        (self.prime, self.dim), = fact.items()
        p, n = self.prime, self.dim
        self._key = below.coset_key
        basis = []
        _, index, rows = coset_walk(below, basis)
        for x in above.gens:
            if self._key(x) not in index:
                basis.append(x)
                _, index, rows = coset_walk(below, basis)
        if len(index) != order or len(basis) != n:
            raise GroupError("factor module construction failed")
        coords = [np.zeros(n, dtype=np.int64)]
        for k, v in enumerate(coords):  # grows while it is read
            for j, row in enumerate(rows):
                if row[k] == len(coords):
                    w = v.copy()
                    w[j] = (w[j] + 1) % p
                    coords.append(w)
        self._coords = {key: coords[k] for key, k in index.items()}
        self.basis = tuple(basis)
        self.matrices = tuple(self._action_matrix(g) for g in group.gens)

    def coords_of(self, e):
        k = self._key(e)
        if k not in self._coords:
            raise NotInGroup("element is not in the upper subgroup")
        return self._coords[k]

    def _action_matrix(self, g):
        rows = [self.coords_of(b.conj(g)) for b in self.basis]
        return np.array(rows, dtype=np.int64)

    def has_complement(self, *, limits=DEFAULT_LIMITS):
        """Whether X/Y has a complement in G/Y: whether the splitting
        system of the module over the cosets of X in G is solvable."""
        p = self.prime
        A, b = cocycle_system(self.group, self.above, self.matrices, p,
                              self.coords_of, limits=limits)
        # solvable exactly when b adds no pivot to A
        return A.shape[1] not in gfp.rref(np.column_stack([A, b]), p)[1]


def factor_centralizer(G, X, Y, *, limits=DEFAULT_LIMITS):
    """C_G(X/Y) for normal subgroups Y <= X of G: the elements g with
    [x, g] in Y for every generator x of X outside Y.  One pass over G's
    elements in their sorted order, checking the time budget of ``limits``
    once per element."""
    gens = [(x, x.inverse()) for x in X.gens if x not in Y]
    kept = []
    for g in G.elements(limits=limits):
        limits.check()
        for x, x_inv in gens:
            w = x.conj(g) * x_inv
            if not (w.is_identity() or w in Y):
                break
        else:
            kept.append(g)
    return group_from_elements(G.degree, kept)


class ChiefFactor:
    """One factor X/Y of a chief series of G; details computed on demand,
    under the limits the factor was made with."""

    def __init__(self, group, below, above, limits=DEFAULT_LIMITS):
        self.group = group
        self.below = below
        self.above = above
        self.limits = limits

    @functools.cached_property
    def order(self):
        return self.above.order() // self.below.order()

    @functools.cached_property
    def is_abelian(self):
        gens = self.above.gens
        below = self.below
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                c = a.inverse() * b.inverse() * a * b
                if not (c.is_identity() or c in below):
                    return False
        return True

    @property
    def prime(self):
        if not self.is_abelian:
            return None
        (p, _), = factorint(self.order).items()
        return p

    @property
    def dim(self):
        if not self.is_abelian:
            return None
        (_, n), = factorint(self.order).items()
        return n

    @functools.cached_property
    def is_frattini(self):
        """Whether X/Y lies inside the Frattini subgroup of G/Y: never for
        a non-abelian factor, and for an abelian one exactly when it has no
        complement in G/Y (if X/Y avoids a maximal M/Y, X meets M in Y, so
        M/Y is a complement).  No subgroup lattice is built."""
        return self.is_abelian and not self.has_complement()

    @functools.cached_property
    def module(self):
        if not self.is_abelian:
            raise GroupError("only abelian factors carry a module structure")
        return FactorModule(self.group, self.above, self.below)

    def has_complement(self):
        return self.module.has_complement(limits=self.limits)

    def __repr__(self):
        kind = "abelian" if self.is_abelian else "non-abelian"
        return f"ChiefFactor(order={self.order}, {kind})"


def chief_series(G, *, limits=DEFAULT_LIMITS):
    """An ascending chief series of G, as a tuple of ChiefFactor.

    At each step the next term is an inclusion-minimal normal closure of the
    current term plus one conjugacy class representative; ties are broken by
    order and then by sorted element tuples, so the result is deterministic.
    """
    if G.order() == 1:
        return ()
    reps = G.class_representatives(limits=limits)
    factors = []
    Y = PermGroup(G.degree, ())
    while Y.order() < G.order():
        limits.check()
        minimal = _minimal_closures(G, Y, reps, limits=limits)
        best_order = min(X.order() for X in minimal)
        pool = [X for X in minimal if X.order() == best_order]
        if len(pool) == 1:
            X = pool[0]
        else:
            X = min(pool, key=lambda H: H.element_table().tolist())
        factors.append(ChiefFactor(G, Y, X, limits))
        Y = X
    return tuple(factors)


def gequivalent_abelian(f1, f2):
    """G-equivalence of two abelian chief factors of the same group.

    Both factors are irreducible modules for G, so by Schur's lemma any
    nonzero intertwiner between them is invertible; equivalence reduces to
    the intertwiner space being nonzero (after matching prime, dimension
    and the matrices of the same generator list).  Similar representations
    have equal kernels, so matching centralizers come for free.
    """
    if f1.group is not f2.group and not f1.group.same_group_as(f2.group):
        raise GroupError("factors belong to different groups")
    if not (f1.is_abelian and f2.is_abelian):
        raise GroupError("G-equivalence is defined here for abelian factors")
    if f1.prime != f2.prime or f1.dim != f2.dim:
        return False
    m1, m2 = f1.module, f2.module
    space = gfp.intertwiner_space(list(m1.matrices), list(m2.matrices), f1.prime)
    if not space:
        return False
    t = next(s for s in space if np.any(s))
    if not gfp.is_invertible(t, f1.prime):
        raise GroupError("irreducible factors gave a singular intertwiner")
    return True


def delta(G, factor, series=None, *, limits=DEFAULT_LIMITS):
    """Number of non-Frattini chief factors of G that are G-equivalent
    to the given abelian factor.

    The count is independent of the chosen series; a precomputed one can
    be passed to avoid recomputation.
    """
    if not factor.is_abelian:
        raise GroupError("delta is defined here for abelian factors")
    if series is None:
        series = chief_series(G, limits=limits)
    count = 0
    for f in series:
        if f.is_abelian and not f.is_frattini and gequivalent_abelian(f, factor):
            count += 1
    return count
