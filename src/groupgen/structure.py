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
prime power order) under joins with one another.  Every subgroup is the
join of the zuppos it contains, so the closure is complete.

The closure works on element ids: an element's id is its row in
G.element_table(), whose rows are sorted by image tuple (the same order as
G.elements()), so a subgroup's sorted ids sort like its sorted image
tuples.  A join is a breadth-first walk over ids, right-multiplying by the
generators through one row per generator, row[x] = id(x * g), read off the
table the first time that generator is used.  A walk that passes half the
group has found the whole group and stops.

Joins are computed only for one representative per conjugacy class of
subgroups.  A new subgroup enters with its whole class, the orbit of its
id set under the generators of G, each conjugate carrying the conjugated
generators; only the representative is queued.  Nothing is lost: the
zuppos are closed under conjugation and join(H^g, z) = join(H, z^(g^-1))^g,
so every join of a conjugate is the conjugate of a join that was computed.
"""

from __future__ import annotations

import functools

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
)


class SubgroupLattice:
    """All subgroups of a group, sorted by (order, sorted element tuples).

    Subgroup i is ``subgroups[i]``, a PermGroup on a few generators, and
    ``id_set(i)``, the frozenset of its element ids; an element's id is its
    row in ``group.element_table()``.
    """

    def __init__(self, group, subgroups, id_sets, ids):
        self.group = group
        self.subgroups = tuple(subgroups)
        self._id_sets = tuple(id_sets)
        self.top = len(self.subgroups) - 1
        self._ids = ids
        self._supersets = None
        self._join_rows = {}

    def __len__(self):
        return len(self.subgroups)

    @functools.cached_property
    def elem_sets(self):
        """Each subgroup as a frozenset of element image tuples."""
        images = [e.images for e in self.group.elements(None)]
        return tuple(frozenset(images[k] for k in s) for s in self._id_sets)

    def element_ids(self):
        """Mapping from element image tuple to its small integer id."""
        return self._ids

    def id_set(self, i):
        """Subgroup i as a frozenset of element ids."""
        return self._id_sets[i]

    def strict_supersets(self, i):
        """Indices of subgroups strictly containing subgroup i."""
        if self._supersets is None:
            sets = self._id_sets
            sizes = [len(s) for s in sets]
            sups = []
            for a in range(len(sets)):
                row = tuple(
                    b for b in range(len(sets))
                    if sizes[a] < sizes[b] and sizes[b] % sizes[a] == 0
                    and sets[a] <= sets[b])
                sups.append(row)
            self._supersets = sups
        return self._supersets[i]

    def maximal_indices(self):
        return tuple(i for i in range(len(self.subgroups))
                     if self.strict_supersets(i) == (self.top,))

    def maximal_subgroups(self):
        return tuple(self.subgroups[i] for i in self.maximal_indices())

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
        by element id.  Rows are built once and reused, which turns the
        innermost loops of the generation searches into array reads."""
        row = self._join_rows.get(i)
        if row is None:
            sets = self._id_sets
            mine = sets[i]
            sups = self.strict_supersets(i)
            row = [i] * len(sets[self.top])
            for e in range(len(row)):
                if e in mine:
                    continue
                for b in sups:
                    if e in sets[b]:
                        row[e] = b
                        break
            self._join_rows[i] = row
        return row


def subgroup_lattice(G, *, limits=DEFAULT_LIMITS):
    """The SubgroupLattice of G, memoized on G.

    Conjugation and right multiplication act on element ids through rows
    read off ``G.element_table()``: ``G.conjugation_ids`` for the
    generators of G and one row per join generator.  Raises CapExceeded
    once the lattice has more than ``limits.lattice_cap`` subgroups; the
    time budget of ``limits`` is checked per conjugate and per join."""
    cap, check = limits.lattice_cap, limits.check
    cached = getattr(G, "_lattice_cache", None)
    if cached is not None:
        # replay the cap check so a stricter caller still gets its error
        if len(cached) > cap:
            raise CapExceeded(f"subgroup lattice exceeds {cap} subgroups")
        return cached
    n = G.order()
    table = G.element_table()
    elems = G.elements()
    ids = {e.images: k for k, e in enumerate(elems)}
    # conj[j][x] is the id of x^g for the j-th generator g of G
    conj = [c.tolist() for c in G.conjugation_ids(limits=limits)]

    zuppos = {}
    for k, e in enumerate(elems):
        o = e.order()
        if o > 1 and is_prime_power(o):
            cyc = frozenset(ids[(e ** j).images] for j in range(o))
            zuppos.setdefault(cyc, k)
    zuppo_list = sorted(zuppos.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    rows = {}

    def right_row(g):
        """row[x] is the id of x * g, for the element with id g."""
        row = rows.get(g)
        if row is None:
            row = rows[g] = G.ids_of(table[g][table]).tolist()
        return row

    sets_list = []
    gens_list = []
    found = {}
    queue = []

    def add(fs, gens):
        if len(sets_list) >= cap:
            raise CapExceeded(f"subgroup lattice exceeds {cap} subgroups")
        found[fs] = len(sets_list)
        sets_list.append(fs)
        gens_list.append(gens)

    def add_class(fs, gens):
        """Record the new subgroup fs and then its conjugates, conjugating
        the generators along; only fs itself is queued for joins."""
        k = len(sets_list)
        queue.append(k)
        add(fs, gens)
        while k < len(sets_list):
            h_set, h_gens = sets_list[k], gens_list[k]
            k += 1
            for c in conj:
                check()
                image = frozenset(map(c.__getitem__, h_set))
                if image not in found:
                    add(image, tuple(map(c.__getitem__, h_gens)))

    add_class(frozenset([ids[G.identity().images]]), ())
    for fs, z in zuppo_list:
        if fs not in found:
            add_class(fs, (z,))
    whole = frozenset(range(n))
    half = n // 2
    for i in queue:
        h_set, h_gens = sets_list[i], gens_list[i]
        h_rows = [right_row(g) for g in h_gens]
        for z_set, z in zuppo_list:
            check()
            if z in h_set:
                continue
            # both factors are already closed, so the walk only has
            # to fill in the genuinely new products; any subgroup larger
            # than half the group is the group, which ends most walks early
            join_rows = h_rows + [right_row(z)]
            closed = set(h_set)
            closed.update(z_set)
            work = list(closed)
            wi = 0
            while wi < len(work) and len(closed) <= half:
                x = work[wi]
                wi += 1
                for row in join_rows:
                    y = row[x]
                    if y not in closed:
                        closed.add(y)
                        work.append(y)
            fs = whole if len(closed) > half else frozenset(closed)
            if fs not in found:
                add_class(fs, h_gens + (z,))
    if whole not in found:
        raise GroupError("lattice closure never reached the whole group")

    order = sorted(range(len(sets_list)),
                   key=lambda i: (len(sets_list[i]), sorted(sets_list[i])))
    subgroups = [PermGroup(G.degree, tuple(elems[g] for g in gens_list[i]))
                 for i in order]
    lattice = SubgroupLattice(G, subgroups, [sets_list[i] for i in order], ids)
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


def _minimal_closures(G, Y, reps):
    """The inclusion-minimal normal closures of Y plus one of ``reps``, each
    listed at the first representative that gives it.  A closure is only
    ever dropped for a smaller one, so a minimal one is never dropped."""
    minimal = []
    for rep in reps:
        if rep in Y:
            continue
        X = G.normal_closure(tuple(Y.gens) + (rep,))
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
    closures = _minimal_closures(G, PermGroup(G.degree, ()), reps)
    return tuple(sorted(closures, key=PermGroup.order))


def socle(G):
    gens = []
    for N in minimal_normal_subgroups(G):
        gens.extend(N.gens)
    return PermGroup(G.degree, tuple(gens))


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


def monolithic_primitive(G, *, limits=DEFAULT_LIMITS):
    """True when G has a unique minimal normal subgroup not inside Frat(G).

    A non-abelian minimal normal subgroup is never in the Frattini subgroup
    (which is nilpotent), and an abelian one avoids it exactly when it has a
    complement, so no lattice is needed here.
    """
    A = unique_minimal_normal(G)
    if A is None:
        return False
    if not A.is_abelian():
        return True
    return FactorModule(G, A, PermGroup(G.degree, ())).has_complement(
        limits=limits)


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
        minimal = _minimal_closures(G, Y, reps)
        best_order = min(X.order() for X in minimal)
        pool = [X for X in minimal if X.order() == best_order]
        if len(pool) == 1:
            X = pool[0]
        else:
            X = min(pool,
                    key=lambda H: tuple(e.images for e in H.elements()))
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
