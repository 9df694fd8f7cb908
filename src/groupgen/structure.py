"""Structural analysis: subgroup lattices, Frattini subgroups, minimal
normal subgroups, socle, chief series and the centralizers of chief
factors.

Minimal normal subgroups and chief series come from one walk: the
inclusion-minimal normal closures of a normal subgroup Y plus one
conjugacy class representative, each listed at the first representative
that gives it.  With Y trivial these are the minimal normal subgroups,
walked once per group; a chief series takes the least of them as its next
term.  The centralizer C_G(X/Y) of a chief factor is one element sweep.

Up to order ``CHIEF_IDS_ORDER`` the walk runs on element ids (``_IdWalk``):
each closure is ``close_ids`` plus G's conjugation maps, a coset of Y is
keyed by its least id (``_coset_labels``, ``orbit_minima`` over the right
rows of Y's generators), and no stabilizer chain is built for a term.
Above it each closure grows from Y's stabilizer chain and a coset is keyed
by ``PermGroup.coset_key``: there a right row of the whole group per
generator costs more than a chain.  Both routes give the same terms with
the same generators.

An abelian chief factor X/Y is a GF(p) module of G itself, built once per
factor; whether it has a complement in G/Y (so whether it is Frattini) is
one affine linear system over the cosets of X in G, read off
``gfp.module_walk``, the walk behind ``crowns.GfpModule`` too, with the
relators of its edges off the tree as the right hand side.  A factor of
the id walk does both on ids: the module's coordinates are kept by
Y-label and its matrices read off the conjugation maps, and
``_cocycle_system_ids`` numbers the cosets of X by their least ids and
walks them along the right rows of G's generators, with the relators'
ids from one batched ``ids_of``.  Other factors number the cosets by
``perm.coset_walk`` (``cocycle_system``).  Both walks take the same tree,
so both give the same system.  No quotient group is built.

The subgroup lattice is built by closing the zuppos (cyclic subgroups of
prime power order) under joins with one another: Neubuser's cyclic
extension method.  Every subgroup is the join of the zuppos it contains,
so the closure is complete.

The closure works on element ids: an element's id is its row in
G.element_table(), whose rows are sorted by image tuple, so a subgroup's
sorted ids sort like its sorted image tuples; no Perm is made per element.
The zuppos are read off the table and ``G.element_orders()``: the powers
of the elements of prime power order, by composing rows.  A join is
``close_ids``, a breadth-first walk over the right cosets of the subgroup
it starts from, through one right multiplication row per generator
(``right_rows``); genset.GenOracle closes its joins with it too when G's
lattice is over the cap, crowns.aut_order walks its homomorphisms along
the same rows, and crowns.GfpModule its module check and the derivations
behind H^1.

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
subgroups by element ids, which the lattice builds once and keeps: a join
row, the join of one subgroup with every single element, is one
``argmax`` down the rows of the subgroup and its strict supersets, kept as
an integer array, and the generation searches filter their candidates
through the same array.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import NamedTuple

import numpy as np

from . import gfp
from .perm import (
    DEFAULT_LIMITS,
    CapExceeded,
    GroupError,
    NotInGroup,
    Perm,
    PermGroup,
    coset_walk,
    factorint,
    group_from_elements,
    is_prime_power,
    orbit_minima,
)


class SubgroupLattice:
    """All subgroups of a group, sorted by (order, sorted element tuples).

    Subgroup i is ``id_set(i)``, the frozenset of its element ids, and is
    generated by the few elements with ids ``_gen_ids[i]``; an element's id
    is its row in the group's ``element_table()``.  ``join_walks`` is the
    number of joins the closure walked to find them.  ``members`` is the
    boolean membership array, subgroups by element ids, built on first use
    and kept: containment and the join rows are read off it, and so are the
    generation searches' candidate filters.  The lattice holds no reference
    to its group, which memoizes it.
    """

    def __init__(self, id_sets, gen_ids, join_walks):
        self._id_sets = tuple(id_sets)
        self._gen_ids = tuple(gen_ids)
        self.top = len(self._id_sets) - 1
        self._join_walks = join_walks
        # the smallest signed dtype that holds every subgroup index
        self._index_dtype = np.min_scalar_type(-len(self._id_sets))
        self._members = None
        self._supersets = None
        self._moebius = None
        self._join_rows = {}

    def __len__(self):
        return len(self._id_sets)

    @property
    def join_walks(self):
        return self._join_walks

    def id_set(self, i):
        """Subgroup i as a frozenset of element ids."""
        return self._id_sets[i]

    @property
    def members(self):
        """``members[i, e]``: whether subgroup i holds the element with id
        e."""
        if self._members is None:
            sets = self._id_sets
            sizes = [len(s) for s in sets]
            members = np.zeros((len(sets), sizes[self.top]), dtype=bool)
            members[np.arange(len(sets)).repeat(sizes),
                    np.fromiter(itertools.chain.from_iterable(sets),
                                dtype=np.intp, count=sum(sizes))] = True
            self._members = members
        return self._members

    def strict_supersets(self, i):
        """Indices of subgroups strictly containing subgroup i: those of
        larger order that hold its generators, read off ``members``."""
        if self._supersets is None:
            members = self.members
            sizes = [len(s) for s in self._id_sets]
            sups = []
            for a, gens in enumerate(self._gen_ids):
                # subgroups are sorted by order, so the larger ones follow
                first = bisect.bisect_right(sizes, sizes[a])
                held = members[first:, list(gens)].all(axis=1)
                sups.append(tuple((np.flatnonzero(held) + first).tolist()))
            self._supersets = sups
        return self._supersets[i]

    def maximal_indices(self):
        return tuple(i for i in range(len(self))
                     if self.strict_supersets(i) == (self.top,))

    def moebius(self):
        """Moebius function mu(H, G) of the lattice, indexed like subgroups,
        as a tuple computed once and kept.  Strict supersets have larger
        order, so they come later and are done first."""
        if self._moebius is None:
            mu = [0] * len(self)
            mu[self.top] = 1
            for i in range(self.top - 1, -1, -1):
                mu[i] = -sum(mu[j] for j in self.strict_supersets(i))
            self._moebius = tuple(mu)
        return self._moebius

    def eulerian(self, m):
        """The number of ordered m-tuples of elements that generate the
        whole group, by P. Hall's Moebius inversion ("The Eulerian
        functions of a group", 1936): the tuples inside a subgroup H number
        |H|^m, so the generating ones number sum_H mu(H, G) |H|^m."""
        return sum(mu * len(s) ** m
                   for mu, s in zip(self.moebius(), self._id_sets) if mu)

    def join_row(self, i):
        """Joins of subgroup i with every single element, as an integer
        array indexed by element id: i itself or the first strict superset
        holding the element (the smallest, since subgroups are sorted by
        order), one ``argmax`` down the candidates' ``members`` rows.
        Entries take the smallest signed dtype that holds every index.
        Rows are built once and reused, which turns the innermost loops of
        the generation searches into array reads."""
        row = self._join_rows.get(i)
        if row is None:
            candidates = np.array((i,) + self.strict_supersets(i),
                                  dtype=self._index_dtype)
            row = self._join_rows[i] = candidates[
                self.members[candidates].argmax(axis=0)]
        return row


def _zuppos(G, *, limits):
    """The zuppos of G, read off its element table: a list of (id set,
    generator id) sorted by (order, sorted ids), the generator being the
    least id that generates the zuppo, and ``zuppo_of``, the index in that
    list of the zuppo an element generates (-1 for elements of order 1 or
    not of prime power order).

    The orders of the elements are ``G.element_orders()``.  Only the
    elements of prime power order are powered, by composing their rows with
    their own rows again, up to the largest such order; each step keeps
    only the ids of the new powers.  The time budget of ``limits`` is
    checked before each step."""
    orders = G.element_orders(limits=limits)
    table, n = G.element_table(), len(orders)
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


def right_rows(G, gens, rows):
    """The right multiplication rows of the elements with ids ``gens``, in
    that order: ``rows[g][x]`` is the id of x * g, read off
    ``G.element_table()`` into the caller's dict on first use, the rows
    missing from it in one lookup."""
    new = [g for g in gens if g not in rows]
    if new:
        table = G.element_table()
        # ids_of reads only the images of the first prefix_width points
        n, k = len(table), G.prefix_width()
        ids = G.ids_of(table[new][:, table[:, :k]].reshape(len(new) * n, k))
        rows.update(zip(new, ids.reshape(len(new), n).tolist()))
    return [rows[g] for g in gens]


def close_ids(G, start, gens, rows):
    """The subgroup of G generated by the elements with ids ``gens``, as a
    frozenset of ids, or None when it is the whole group: the closure of
    ``start`` under right multiplication by ``gens``, through the
    ``right_rows`` kept in the caller's dict ``rows``.

    ``start`` must be a subgroup H that holds every generator but the last
    and lies in the result, such as the subgroup the others generate.  What
    the walk has closed so far is then a union of right cosets Hy, and Hy *
    g = H(yg), so it walks whole cosets: one row read carries a coset, and
    its first element tells whether the image coset is new.  H is closed
    under right multiplication by every generator but the last, so the walk
    takes H through the last generator's row only, and every new coset
    through all the rows.  A walk that passes half the group has found the
    whole group and stops."""
    half = G.order() // 2
    grow = right_rows(G, gens, rows)
    closed = set(start)
    work = [list(start)]
    for k, coset in enumerate(work):  # grows while it is read: breadth first
        if len(closed) > half:
            break
        for row in grow if k else grow[-1:]:
            if row[coset[0]] not in closed:
                image = list(map(row.__getitem__, coset))
                closed.update(image)
                work.append(image)
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
    conj_ids = G.conjugation_ids(limits=limits)
    # conj[j][x] is the id of x^g for the j-th generator g of G
    conj = [c.tolist() for c in conj_ids]
    zuppo_list, zuppo_of = _zuppos(G, limits=limits)
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
        for zi, (_, z) in enumerate(zuppo_list):
            # join(H, z^n) = join(H, z)^n for n in N_G(H): the class of a
            # join with a zuppo that is not least in its orbit was already
            # added whole by the join with the least one
            if z in h_set or (least is not None and not least[zi]):
                continue
            check()
            walks += 1
            # H is closed under h_gens, so the walk takes it through z's
            # row only
            fs = close_ids(G, h_set, h_gens + (z,), rows) or whole
            if fs not in found:
                add_class(fs, h_gens + (z,))
    if whole not in found:
        raise GroupError("lattice closure never reached the whole group")

    order = sorted(range(len(sets_list)),
                   key=lambda i: (len(sets_list[i]), sorted(sets_list[i])))
    lattice = SubgroupLattice([sets_list[i] for i in order],
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
    return group_from_elements(G.degree,
                               G.element_table()[sorted(inter)].tolist())


# Groups of at most this order walk their chief series and minimal normal
# subgroups on element ids, larger ones on stabilizer chains.  An id
# closure costs a right row of the whole group per generator, a chain
# closure grows with the degree and the base.  In process, a series with
# its Frattini flags ran faster on ids for every group measured up to
# order 2880 (C2000 6x, D(S5, S4) 1.3x) and slower for D(A5, A5) (3600,
# 2.6x), S7 (5x) and WREATH(1) (54x).
CHIEF_IDS_ORDER = 3000


def _prime_powers(reps, *, limits):
    """Each class representative r with its powers r^q for the primes q
    dividing its order, computed once for every step of a chief series.
    The time budget of ``limits`` is checked once per representative."""
    out = []
    for rep in reps:
        limits.check()
        out.append((rep, tuple(rep ** q for q in factorint(rep.order()))))
    return out


def _minimal_closures(G, Y, reps, *, limits):
    """The inclusion-minimal normal closures of Y plus one of ``reps``, each
    listed at the first representative that gives it, with the generators
    of ``G.normal_closure(Y.gens + (rep,))`` for that representative.  Y is
    normal in G and ``reps`` are the ``_prime_powers`` of the class
    representatives, in search order.

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

    This is the route of groups over ``CHIEF_IDS_ORDER``; ``_IdWalk.minimal``
    is the same walk on element ids.  Each closure grows from Y's chain.
    The time budget of ``limits`` is checked once per representative.
    Closures of a trivial Y stay on G."""
    if Y.is_trivial() and G._minimal_normal is not None:
        return G._minimal_normal
    minimal = []
    keys = {Y.coset_key(G.identity())}
    for rep, powers in reps:
        limits.check()
        key = Y.coset_key(rep)
        if key in keys or all(x not in Y for x in powers):
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
    if Y.is_trivial():
        G._minimal_normal = minimal = tuple(minimal)
    return minimal


def _coset_labels(G, gens, rows, *, limits):
    """The cosets of the normal subgroup N of G generated by the elements
    with ids ``gens``, as a list indexed by id: entry x is the least id of
    xN = Nx, the orbit of x under right multiplication by the generators,
    by ``orbit_minima`` over their ``right_rows`` kept in ``rows``.  x lies
    in N exactly when its label is 0, the identity's id."""
    if not gens:
        return list(range(G.order()))
    maps = np.array(right_rows(G, gens, rows), dtype=np.intp)
    return orbit_minima(maps, G.order(), limits=limits).tolist()


def _closure(G, start, gens, rows):
    """``close_ids``, with the whole group as its id set."""
    return close_ids(G, start, gens, rows) or frozenset(range(G.order()))


def normal_closure_ids(G, conj, rows, start, gens, seed):
    """The normal closure in G of the normal subgroup with ids ``start``,
    generated by the ids ``gens``, and the element with id ``seed``
    outside it: its id set and the ids of its generators, ``gens`` and then
    the new ones.

    ``PermGroup.normal_closure``'s generator rule on ids: the seed, and
    then its conjugates under ``conj``, G's conjugation maps in generator
    order, breadth first, each a generator exactly when it lies outside
    the closure so far.  So the generators are those of
    ``G.normal_closure((seed,), below)``.  Each new generator grows the
    closure by one ``close_ids`` through the ``right_rows`` in ``rows``."""
    gens = [*gens, seed]
    closed = _closure(G, start, gens, rows)
    pending = [seed]
    for x in pending:  # grows while it is read: breadth first
        for c in conj:
            y = c[x]
            if y not in closed:
                gens.append(y)
                pending.append(y)
                closed = _closure(G, closed, gens, rows)
    return closed, gens


class _Term(NamedTuple):
    """A normal subgroup of G met by the id walk: the PermGroup, its id set
    and the ids of its generators, in generator order."""
    group: PermGroup
    ids: frozenset
    gens: list


class _IdWalk:
    """The chief series walk of a group G of order at most
    ``CHIEF_IDS_ORDER`` on element ids: the ids of ``_prime_powers``'
    representatives and of their powers, read in one ``ids_of``, G's
    conjugation maps, and the ``right_rows`` its closures read.  ``bottom``
    is the trivial subgroup's _Term and ``labels`` its coset labels."""

    def __init__(self, G, reps, limits):
        self.G, self.limits = G, limits
        self.conj = [c.tolist() for c in G.conjugation_ids(limits=limits)]
        ids = G.ids_of_perms([x for rep, powers in reps
                              for x in (rep, *powers)])
        self.reps, k = [], 0
        for _, powers in reps:
            self.reps.append((ids[k], ids[k + 1:k + 1 + len(powers)]))
            k += 1 + len(powers)
        self.rows = {}
        trivial = PermGroup(G.degree, ())
        trivial._order = 1
        self.bottom = _Term(trivial, frozenset([0]), [])
        self.labels = list(range(G.order()))

    def term(self, X):
        """The normal subgroup X of G as a _Term, its id set closed one
        generator at a time."""
        G = self.G
        gens = G.ids_of_perms(X.gens)
        ids = frozenset([0])
        for k in range(len(gens)):
            ids = _closure(G, ids, gens[:k + 1], self.rows)
        return _Term(X, ids, gens)

    def minimal(self, Y, labels):
        """``_minimal_closures`` on ids: the inclusion-minimal normal
        closures of the _Term Y plus one representative, as _Terms, from
        the same representatives and with the same generators.  ``labels``
        are Y's ``_coset_labels``: a representative's coset key is its
        label, and an element lies in Y when its label is 0.  Each closure
        is one ``normal_closure_ids``; the time budget of ``limits`` is
        checked once per representative.  The walk over a trivial Y fills
        and reads ``G._minimal_normal``."""
        G, limits = self.G, self.limits
        if not Y.gens and G._minimal_normal is not None:
            return [self.term(X) for X in G._minimal_normal]
        minimal, keys = [], {0}
        for x, powers in self.reps:
            limits.check()
            key = labels[x]
            if key in keys or all(labels[q] != 0 for q in powers):
                continue
            keys.add(key)
            ids, gens = normal_closure_ids(G, self.conj, self.rows, Y.ids,
                                           Y.gens, x)
            if any(M <= ids for M, _ in minimal):
                continue
            minimal = [(M, g) for M, g in minimal if not ids < M]
            minimal.append((ids, gens))
        table, terms = G.element_table(), []
        for ids, gens in minimal:
            new = table[gens[len(Y.gens):]].tolist()
            X = PermGroup(G.degree,
                          Y.group.gens + tuple(Perm(tuple(r)) for r in new))
            X._order = len(ids)
            terms.append(_Term(X, ids, gens))
        if not Y.gens:
            G._minimal_normal = tuple(t.group for t in terms)
        return terms


def minimal_normal_subgroups(G, *, limits=DEFAULT_LIMITS):
    """All minimal normal subgroups, sorted by order (ties keep the order in
    which conjugacy class representatives produced them)."""
    if G.order() == 1:
        return ()
    closures = G._minimal_normal
    if closures is None:
        reps = _prime_powers(G.class_representatives(limits=limits),
                             limits=limits)
        if G.order() <= CHIEF_IDS_ORDER:
            walk = _IdWalk(G, reps, limits)
            closures = [t.group
                        for t in walk.minimal(walk.bottom, walk.labels)]
        else:
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


def cocycle_system(G, N, matrices, p, coords_of, *, limits=DEFAULT_LIMITS):
    """The splitting system A u = b over GF(p) of the module N/Y of G with
    rho(g_i) = matrices[i], in the values u_i on the generators g_i of G,
    where ``coords_of`` gives the coordinates of N modulo a normal Y of G,
    with N/Y elementary abelian.

    ``gfp.module_walk`` over the rows of ``perm.coset_walk(N, G.gens)``
    takes that walk's tree, on which c(x g_i) = c(x) rho(g_i) + u_i and
    rep(y) = rep(x) * g_i; each later edge x -> y gives n equations c(y) -
    c(x) rho(g_i) - u_i = z, in (coset, generator) order, where z are the
    coordinates of the relator rep(y)^-1 * rep(x) * g_i.  The solutions
    are the t_i for which the g_i * t_i generate a complement of N/Y in
    G/Y.  The walk also checks the matrices against the group's
    multiplication, and raises GroupError on an edge that disagrees.
    Rows zero in both A and b are dropped.  ``_cocycle_system_ids`` makes
    the same system on element ids.
    """
    reps, _, rows = coset_walk(N, G.gens, limits=limits)
    if len(reps) != G.order() // N.order():
        raise GroupError("the generators do not generate the group")
    _, A, edges, _ = gfp.module_walk(rows, matrices, p, limits)
    return _with_relators(A, [
        coords_of(reps[c].inverse() * reps[k] * G.gens[i])
        for c, k, i in zip(*edges)])


def _cocycle_system_ids(G, ids, matrices, p, coords, *, limits):
    """``cocycle_system`` for the factor X/Y of an id walk, its
    ``_SectionIds`` ``ids``: the cosets of X are numbered densely by their
    ``ids.above`` labels, and ``gfp.module_walk`` walks them along the
    right rows of G's generators, which also make each coset carry the id
    of its representative.  Its tree is ``coset_walk``'s, so the edges and
    the system are the same.  The relators' ids come from one ``ids_of``
    of their images, and their coordinates are ``coords`` at their
    Y-labels."""
    grow = np.array(right_rows(G, ids.group_gens, ids.rows), dtype=np.intp)
    least, node = np.unique(ids.above, return_inverse=True)
    _, A, (target, source, gen), reps = gfp.module_walk(
        node[grow[:, least]], matrices, p, limits, grow)
    # rep(c)^-1 * y, for y = rep(k) * g_i, has images y[rep(c)^-1[q]]
    table = G.element_table()
    inv = np.argsort(table[reps[target]], axis=1)
    y = table[grow[gen, reps[source]]]
    z = np.take_along_axis(y, inv[:, :G.prefix_width()], axis=1)
    return _with_relators(A, [coords[ids.below[x]]
                              for x in G.ids_of(z).tolist()])


def _with_relators(A, relators):
    """The system A u = b, b the relators' coordinates stacked edge by
    edge, less the rows zero in both A and b."""
    b = np.array(relators, dtype=np.int64).reshape(-1)
    keep = A.any(axis=1) | (b != 0)
    return A[keep], b[keep]


class _SectionIds(NamedTuple):
    """A chief factor X/Y of G on element ids, as the id walk leaves it.
    ``below`` and ``above`` label each id by the least id of its coset of
    Y and of X (``_coset_labels``), so x lies in Y exactly when
    ``below[x] == 0``; ``gens`` are the ids of X's generators and
    ``group_gens`` those of G's; ``conj`` are G's conjugation maps, in
    generator order; ``rows`` is the ``right_rows`` dict the factors of
    one series share.  It holds no group, factor or module, so the factor
    and its module refer to it without a reference cycle."""
    below: list
    above: list
    gens: list
    group_gens: list
    conj: list
    rows: dict


class FactorModule:
    """An abelian chief factor X/Y as a GF(p) module for G.

    The basis is the generators of X whose cosets of Y the earlier ones do
    not span, taken in order; each new b_j extends every known coset r by
    r * b_j^k, with r's coordinates plus k in place j.  Row vectors
    transform as v -> v @ rho(g), with rho(g)[j] the coordinates of (b_j)^g.

    A factor of the id walk passes its ``_SectionIds``: the cosets are then
    walked on ids along the right rows of X's generators, the coordinates
    are kept by Y-label, rho(g) is read off g's conjugation map, and
    ``has_complement`` numbers the cosets of X by their least ids
    (``_cocycle_system_ids``).  Without it, the cosets are keyed by
    ``below.coset_key`` and numbered by ``perm.coset_walk``
    (``cocycle_system``).  Either way ``gfp.module_walk`` makes the
    splitting system.
    """

    def __init__(self, group, above, below, ids=None):
        self.group = group
        self.above = above
        self.below = below
        self._ids = ids
        order = above.order() // below.order()
        fact = factorint(order)
        if len(fact) != 1:
            raise GroupError("factor is not of prime power order")
        (self.prime, self.dim), = fact.items()
        p, n = self.prime, self.dim
        if ids is None:
            key, elems, ident = below.coset_key, above.gens, below.identity()
            mul = operator.mul
        else:
            key, elems, ident = ids.below.__getitem__, ids.gens, 0
            rows = dict(zip(elems, right_rows(group, elems, ids.rows)))

            def mul(y, x):
                return rows[x][y]
        basis, cosets = [], [(ident, np.zeros(n, dtype=np.int64))]
        self._coords = {key(ident): cosets[0][1]}
        for j, x in enumerate(elems):
            if len(basis) == n or key(x) in self._coords:
                continue
            for y, v in cosets[:]:
                for k in range(1, p):
                    y = mul(y, x)
                    w = v.copy()
                    w[len(basis)] = k
                    cosets.append((y, w))
                    self._coords[key(y)] = w
            basis.append(j)
        if len(self._coords) != order:
            raise GroupError("factor module construction failed")
        self.basis = tuple(above.gens[j] for j in basis)
        if ids is None:
            self.matrices = tuple(self._action_matrix(g) for g in group.gens)
        else:
            b = [elems[j] for j in basis]
            self.matrices = tuple(
                np.array([self._coords[key(c[x])] for x in b], dtype=np.int64)
                for c in ids.conj)

    def _key(self, e):
        """The key of the Perm e's coset of Y: its coset key, or on ids its
        Y-label."""
        if self._ids is None:
            return self.below.coset_key(e)
        G = self.group
        x, = G.ids_of_perms([e])
        if tuple(G.element_table()[x].tolist()) != e.images:
            raise NotInGroup("element is not in the group")
        return self._ids.below[x]

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
        if self._ids is None:
            A, b = cocycle_system(self.group, self.above, self.matrices, p,
                                  self.coords_of, limits=limits)
        else:
            A, b = _cocycle_system_ids(self.group, self._ids, self.matrices,
                                       p, self._coords, limits=limits)
        # solvable exactly when b adds no pivot to A
        return A.shape[1] not in gfp.rref(np.column_stack([A, b]), p)[1]


def factor_centralizer(G, X, Y, *, limits=DEFAULT_LIMITS):
    """C_G(X/Y) for normal subgroups Y <= X of G: the elements g with
    [x, g] in Y for every generator x of X outside Y, read off G's element
    table.  For each such x, x^g * x^-1 has images x^-1[g[x[g^-1[p]]]],
    made for every row g at once on the first ``prefix_width()`` points p
    and tested against a mask of Y's ids.  The kept rows stay in id
    order.  The time budget of ``limits`` is checked while the table is
    built and once per generator."""
    table = G.element_table(limits=limits)
    in_y = np.zeros(len(table), dtype=bool)
    in_y[G.ids_of(Y.element_table())] = True
    keep = np.ones(len(table), dtype=bool)
    rows = np.arange(len(table))[:, None]
    inverses = np.argsort(table, axis=1)[:, :G.prefix_width()]
    for x in X.gens:
        if x in Y:
            continue
        limits.check()
        img, inv = np.array(x.images), np.array(x.inverse().images)
        keep &= in_y[G.ids_of(inv[table[rows, img[inverses]]])]
    return group_from_elements(G.degree, table[keep].tolist())


class ChiefFactor:
    """One factor X/Y of a chief series of G; details computed on demand,
    under the limits the factor was made with.

    A factor of the id walk carries its ``_SectionIds`` as ``ids``: then
    ``is_abelian`` compares the Y-labels of ab and ba for X's generators a
    and b, and the module and its Frattini flag run on ids too.  A factor
    made without them (``ids`` None) reads membership off Y's stabilizer
    chain."""

    def __init__(self, group, below, above, limits=DEFAULT_LIMITS,
                 ids=None):
        self.group = group
        self.below = below
        self.above = above
        self.limits = limits
        self.ids = ids

    @functools.cached_property
    def order(self):
        return self.above.order() // self.below.order()

    @functools.cached_property
    def is_abelian(self):
        if self.ids is not None:
            # ab and ba lie in one coset of Y exactly when [a, b] lies in Y
            gens, labels = self.ids.gens, self.ids.below
            rows = right_rows(self.group, gens, self.ids.rows)
            return all(labels[rows[j][gens[i]]] == labels[rows[i][gens[j]]]
                       for i, j in itertools.combinations(range(len(gens)),
                                                          2))
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
        return FactorModule(self.group, self.above, self.below, self.ids)

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
    Groups of order at most ``CHIEF_IDS_ORDER`` walk on element ids, larger
    ones on stabilizer chains; both give the same terms with the same
    generators.
    """
    if G.order() == 1:
        return ()
    reps = _prime_powers(G.class_representatives(limits=limits),
                         limits=limits)
    if G.order() > CHIEF_IDS_ORDER:
        return _chief_series_chains(G, reps, limits)
    walk = _IdWalk(G, reps, limits)
    group_gens = G.ids_of_perms(G.gens)
    Y, labels = walk.bottom, walk.labels
    rows = {}  # the rows of the terms' generators, shared by the factors
    factors = []
    while len(Y.ids) < G.order():
        limits.check()
        minimal = walk.minimal(Y, labels)
        best = min(len(t.ids) for t in minimal)
        pool = [t for t in minimal if len(t.ids) == best]
        # sorted ids sort like sorted element tuples
        X = pool[0] if len(pool) == 1 else min(pool,
                                               key=lambda t: sorted(t.ids))
        above = _coset_labels(G, X.gens, walk.rows, limits=limits)
        rows.update((g, walk.rows[g]) for g in X.gens)
        ids = _SectionIds(labels, above, X.gens, group_gens, walk.conj, rows)
        factors.append(ChiefFactor(G, Y.group, X.group, limits, ids))
        Y, labels = X, above
    return tuple(factors)


def _chief_series_chains(G, reps, limits):
    """``chief_series`` on stabilizer chains, the route of groups over
    ``CHIEF_IDS_ORDER``; ``reps`` are the ``_prime_powers`` of G's class
    representatives."""
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
    and the matrices of the same generator list: when the two groups
    come with different generators, f2's action is read on f1's).
    Similar representations have equal kernels, so matching centralizers
    come for free.
    """
    g1, g2 = f1.group, f2.group
    if g1 is not g2 and not g1.same_group_as(g2):
        raise GroupError("factors belong to different groups")
    if not (f1.is_abelian and f2.is_abelian):
        raise GroupError("G-equivalence is defined here for abelian factors")
    if f1.prime != f2.prime or f1.dim != f2.dim:
        return False
    m1, m2 = f1.module.matrices, f2.module.matrices
    if g1.gens != g2.gens:
        m2 = [f2.module._action_matrix(g) for g in g1.gens]
    space = gfp.intertwiner_space(list(m1), list(m2), f1.prime)
    if not space:
        return False
    t = next(s for s in space if np.any(s))
    if not gfp.is_invertible(t, f1.prime):
        raise GroupError("irreducible factors gave a singular intertwiner")
    return True

