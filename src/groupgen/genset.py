"""Searches for generating sets: d(G), m(G) and the spectrum.

d(G) is the least size of a generating set; m(G) the largest size of an
independent generating set (no member lies in the subgroup generated by the
others).  By Tarski's irredundant basis theorem the sizes of independent
generating sets fill the whole integer interval [d(G), m(G)]; spectrum()
reports that interval together with one witness per size.

d tries each size k from a lower bound up: random k-sets first, then, if
they all miss, the count phi_G(k) of generating k-tuples (P. Hall's Moebius
sum over the lattice, or Gaschuetz's product for a soluble group, see
crowns.eulerian).  phi_G(k) = 0 proves that no k elements generate, so d
moves on to k + 1 without a search; otherwise, or with no count at hand,
it searches.

Every exhaustive answer comes from one search engine, _search().  Its goal
is a size range: [k, k] asks for one independent generating set of exactly
k elements (the d phase and each spectrum size), [lower, Omega(|G|)] for a
largest one of at least lower elements (m).  The walk fixes the first slot
to a conjugacy class representative (independence and generation are
invariant under conjugating the whole set) and fills the remaining slots in
search order: element ids sorted by (element order, id), which is (element
order, image tuple) as ids sort like image tuples.  It carries the span of
the prefix and the spans of the prefix with one element removed, so a
prefix that stops being independent is cut at once, and it cuts prefixes
whose span has too small an index to reach the goal.  m needs only a size,
so its walk tries in the second slot only the least element of each orbit
of C_G(r), r the first slot's representative (the isomorph rejection of
McKay, J. Algorithms 26, 1998; see m()); the d and spectrum walks print
their witnesses and keep every second slot.

Spans come from a GenOracle as integer handles with element-id membership
and join rows.  The oracle reads them off the subgroup lattice when the
group has one within the limits, or else closes each span once on element
ids (structure.close_ids) and interns it.  The walk is the same on both: a
node keeps the later candidates that leave the prefix independent, in
ascending order, and recurses into each.  Over the lattice a node with
many candidates keeps them by a numpy filter over the lattice's array join
rows and membership array; a node with few candidates, and every node over
the fallback oracle, tests them one at a time in Python.  The engine walks
ids only; a witness becomes Perms at the end, from table rows.
d(), m() and spectrum() take an Analysis, which computes what they share
once: the chief series with a and b, d with its witness, m, the oracle;
the verifiers also read its Frattini subgroup, minimal normal subgroups
and socle.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from . import crowns, structure
from .perm import (
    DEFAULT_LIMITS,
    CapExceeded,
    GroupError,
    Perm,
    PermGroup,
    factorint,
    is_prime_power,
    omega,
    orbit_minima,
    quotient,
)

SEARCH_ORDER_CAP = 2000
# a search node with fewer candidates tests them one at a time in Python
FILTER_MIN = 64
DEFAULT_RANDOM_TRIES = 400


class Analysis:
    """One group's invariants under one Limits value and one seed, each
    computed on first use and then shared.  A property that raises stays
    unset; one assigned before first use is taken as given.  Properties
    call the module functions by their global names, so a wrapper on those
    names sees the work.  The caller owns the analysis; G never refers
    to it."""

    def __init__(self, G, limits=DEFAULT_LIMITS, seed=0):
        self.G = G
        self.limits = limits
        self.seed = seed

    @functools.cached_property
    def series(self):
        return structure.chief_series(self.G, limits=self.limits)

    # a and b count the non-Frattini and the non-abelian chief factors
    @functools.cached_property
    def a(self):
        return sum(1 for f in self.series if not f.is_frattini)

    @functools.cached_property
    def b(self):
        return sum(1 for f in self.series if not f.is_abelian)

    @functools.cached_property
    def d_witness(self):
        return d_with_witness(self)

    @functools.cached_property
    def d(self):
        return d(self)

    @functools.cached_property
    def m(self):
        return m(self)

    @functools.cached_property
    def spectrum(self):
        return spectrum(self)

    @functools.cached_property
    def frattini(self):
        return structure.frattini(self.G, limits=self.limits)

    @functools.cached_property
    def minimal_normal(self):
        return structure.minimal_normal_subgroups(self.G, limits=self.limits)

    @functools.cached_property
    def socle(self):
        gens = tuple(g for N in self.minimal_normal for g in N.gens)
        return PermGroup(self.G.degree, gens)

    @functools.cached_property
    def oracle(self):
        return GenOracle(self.G, limits=self.limits)


class GenOracle:
    """Spans of element sets as integer handles, for the search engine.

    ``sets[h]`` is span ``h`` as a frozenset of element ids,
    ``join_row(h)[e]`` is the handle of the join of span ``h`` with element
    ``e``, and handle 0 is the trivial subgroup and ``top`` the whole group.
    ``lattice`` is the subgroup lattice the spans come from, or None when
    there is none within the limits and each join is instead closed on
    element ids on first use, from the join's generator ids.  Over a
    lattice ``join_row`` is a list made once from the lattice's array row,
    for the loops that read one entry at a time; its entries are shared
    int objects, one per handle.
    """

    def __init__(self, G, *, limits=DEFAULT_LIMITS):
        self.G = G
        self.n = G.order()
        self.lattice = None
        if self.n <= SEARCH_ORDER_CAP:
            try:
                self.lattice = structure.subgroup_lattice(G, limits=limits)
            except CapExceeded:
                pass
        if self.lattice is not None:
            self.sets = [self.lattice.id_set(i)
                         for i in range(len(self.lattice))]
            self.top = self.lattice.top
            self._rows = {}
            self._handle_ints = np.array(range(len(self.sets)), dtype=object)
            return
        self.sets = []
        self._gens = []
        self._rows = []
        self._handles = {}
        self._right_rows = {}
        # the identity's images sort first, so its id is 0; no join leaves
        # the whole group, so its generators are never read
        self._intern(frozenset([0]), ())
        self.top = self._intern(frozenset(range(self.n)), ())

    def _intern(self, id_set, gens):
        h = self._handles.get(id_set)
        if h is None:
            h = self._handles[id_set] = len(self.sets)
            self.sets.append(id_set)
            self._gens.append(gens)
            self._rows.append(_ChainRow(self, h))
        return h

    def _chain_join(self, h, e):
        if e in self.sets[h]:
            return h
        gens = self._gens[h] + (e,)
        span = structure.close_ids(self.G, self.sets[h], gens,
                                   self._right_rows)
        return self._intern(span or self.sets[self.top], gens)

    def join_row(self, h):
        if self.lattice is None:
            return self._rows[h]
        row = self._rows.get(h)
        if row is None:
            row = self._rows[h] = (
                self._handle_ints.take(self.lattice.join_row(h)).tolist())
        return row

    def span_of_ids(self, ids):
        """Handle of the subgroup generated by the elements with these ids."""
        h = 0
        for e in ids:
            h = self.join_row(h)[e]
        return h


class _ChainRow(dict):
    """A join row of an oracle without a lattice, filled in as it is read."""

    def __init__(self, oracle, h):
        super().__init__()
        self.oracle = oracle
        self.h = h

    def __missing__(self, e):
        got = self[e] = self.oracle._chain_join(self.h, e)
        return got


def is_independent(A, perms):
    """No member of the set lies in the subgroup the others generate; the
    members must lie in A's group."""
    G, oracle = A.G, A.oracle
    if not all(p in G for p in perms):
        raise GroupError("elements are not all inside the group")
    ids = G.ids_of_perms(perms)
    return not any(e in oracle.sets[oracle.span_of_ids(ids[:i] + ids[i + 1:])]
                   for i, e in enumerate(ids))


def _perms(G, ids):
    """The elements with these ids, as Perms read off the element table."""
    return tuple(map(Perm, G.element_table()[list(ids)].tolist()))


def lower_bound_d(G):
    """max over p of the p-rank of the abelianization, floored at basic facts."""
    n = G.order()
    if n == 1:
        return 0
    derived = G.derived_subgroup()
    if derived.order() == n:
        return 2
    if derived.order() == 1:
        Q = G
    else:
        Q = quotient(G, derived)
    rank = 0
    orders = Q.element_orders()
    for p in factorint(Q.order()):
        # the elements with x^p = 1: those of order 1 or p
        count = sum(1 for o in orders if p % o == 0)
        r = 0
        while count > 1:
            count //= p
            r += 1
        rank = max(rank, r)
    lower = max(rank, 1)
    if not G.is_abelian():
        lower = max(lower, 2)
    return lower


def _search_candidates(G, prime_power_only=False, *, limits=DEFAULT_LIMITS):
    """The ids of the candidate elements in search order, (element order,
    id), and of the first-slot class representatives, the identity left
    out of both."""
    orders = G.element_orders(limits=limits)
    keep = {o for o in set(orders)
            if o > 1 and (is_prime_power(o) or not prime_power_only)}
    reps = G.class_representatives(limits=limits)
    rids = G.ids_of_perms(reps)
    return ([e for e in sorted(range(len(orders)), key=orders.__getitem__)
             if orders[e] in keep], [r for r in rids if orders[r] in keep])


def _centralizer_orbit_minima(oracle, rid, *, limits=DEFAULT_LIMITS):
    """The least id of each element id's orbit under conjugation by C_G(r),
    r the element with id ``rid``, as an array indexed by id.

    C_G(r) is read off the element table as the elements x with x * r =
    r * x, whose images are r[x] and x[r].  Its generators are r and, in
    ascending id order, each element outside the span of those before, the
    spans read off the oracle's join rows; each gives one id map,
    ``G.conjugation_map``.  The time budget of ``limits`` is checked once,
    first."""
    limits.check()
    G, sets, join_row = oracle.G, oracle.sets, oracle.join_row
    table = G.element_table()
    r = table[rid]
    centralizer = np.flatnonzero((r[table] == table[:, r]).all(axis=1))
    gens, h = [rid], join_row(0)[rid]
    for c in centralizer.tolist():
        if c not in sets[h]:
            gens.append(c)
            h = join_row(h)[c]
    maps = [G.conjugation_map(table[c]) for c in gens]
    return orbit_minima(maps, len(table))


def _search(oracle, eids, rids, lower, upper, *, limits=DEFAULT_LIMITS,
            size_only=False):
    """The ids of the first independent generating set in walk order whose
    size is the largest in [lower, upper] that occurs, or None, walking the
    ids ``eids`` and ``rids`` of ``_search_candidates``.

    lower == upper finds one set of exactly that size; upper = Omega(|G|)
    finds a largest set of at least lower elements.  Each prefix is
    independent: a candidate is taken only when it lies outside the span of
    the prefix and no earlier member falls into the span of the others once
    it joins.  No proper subset of an independent set generates, so the walk
    stops at the whole group, and a strict chain of spans from the prefix up
    to the whole group has at most Omega(index) more steps, which bounds
    what a prefix can still reach.

    A node filters its candidates before it recurses.  On a lattice oracle
    with at least FILTER_MIN candidates the filter is a few numpy reads:
    the join row of the prefix's span at every candidate, and for each
    prefix member p_j the lattice's ``members`` bit of p_j in the join of
    the span without p_j with each candidate.  Smaller nodes, where those
    calls cost more than they save, and every node of the fallback oracle,
    whose rows are filled as they are read, test one candidate at a time
    in Python.  Both keep the survivors in ascending order, so the walk
    visits the same nodes in the same order either way.

    With ``size_only`` the second slot tries only candidates that are the
    least element of their C_G(r)-orbit, r the first slot's representative
    (see m); the set returned then has the right size but need not be the
    first in walk order.  The candidates must be closed under conjugation.
    """
    n, sets, top = oracle.n, oracle.sets, oracle.top
    join_row, check = oracle.join_row, limits.check
    lattice = oracle.lattice
    if lattice is not None:
        members, lattice_row = lattice.members, lattice.join_row
    eid_array = np.array(eids, dtype=np.intp)
    positions = np.arange(len(eids))
    # Omega of the index, by span size
    reach = {}
    best = None
    need = lower

    def filtered(pids, span, others, order):
        # the numpy filter; order is a range of indices into eids, or the
        # second slot's list
        order = (positions[order.start:] if type(order) is range
                 else np.array(order, dtype=np.intp))
        cand = eid_array[order]
        row = lattice_row(span)
        orows = [lattice_row(t) for t in others]
        dead = row[cand] == span
        for p, orow in zip(pids, orows):
            dead |= members[:, p][orow[cand]]
            # most deep nodes keep no candidate; stop as soon as none is left
            if dead.all():
                return ()
        (kept,) = (~dead).nonzero()
        cand = cand[kept]
        return zip(order[kept].tolist(), cand.tolist(), row[cand].tolist(),
                   *(orow[cand].tolist() for orow in orows))

    def extend(pids, span, others, order):
        # others[j] is the span of the prefix without its member j; order
        # lists the indices into eids this slot tries, ascending
        nonlocal best, need
        check()
        depth = len(pids)
        if span == top:
            if depth >= need:
                best, need = tuple(pids), depth + 1
            return
        size = len(sets[span])
        left = reach.get(size)
        if left is None:
            left = reach[size] = omega(n // size)
        if depth >= upper or depth + left < need:
            return
        if lattice is not None and len(order) >= FILTER_MIN:
            kept = filtered(pids, span, others, order)
            for i, e, child, *child_others in kept:
                child_others.append(span)
                extend(pids + [e], child, child_others,
                       range(i + 1, len(eids)))
                if need > upper:
                    return
            return
        span_set = sets[span]
        row = join_row(span)
        orows = [join_row(t) for t in others]
        for i in order:
            e = eids[i]
            if e in span_set:
                continue
            child_others = []
            for j, orow in enumerate(orows):
                t = orow[e]
                if pids[j] in sets[t]:
                    break
                child_others.append(t)
            else:
                child_others.append(span)
                extend(pids + [e], row[e], child_others,
                       range(i + 1, len(eids)))
                if need > upper:
                    return

    row0 = join_row(0)
    second = range(len(eids))
    for rid in rids:
        if size_only:
            least = _centralizer_orbit_minima(oracle, rid, limits=limits)
            second = np.flatnonzero(least[eid_array] == eid_array).tolist()
        extend([rid], row0[rid], [0], second)
        if need > upper:
            break
    return best


def d(A):
    return A.d_witness[0]


def _refuted(A, k):
    """Whether phi_G(k) = 0, so that no k elements generate G: P. Hall's
    Moebius sum over the oracle's lattice, or Gaschuetz's product
    (crowns.eulerian) over the analysis's chief series for a soluble G of
    order at most crowns.COHOMOLOGY_CAP.  False when neither count is at
    hand."""
    lattice = A.oracle.lattice
    if lattice is not None:
        return lattice.eulerian(k) == 0
    G = A.G
    return (G.order() <= crowns.COHOMOLOGY_CAP and G.is_soluble()
            and crowns.eulerian(G, k, A.series, limits=A.limits) == 0)


def d_with_witness(A):
    """(d(G), one generating set of that size).

    Each level k first tries DEFAULT_RANDOM_TRIES random k-sets of element
    ids.  Up to SEARCH_ORDER_CAP a try is the walk from the trivial span
    through the oracle's join rows, and it hits when it ends at the whole
    group; above the cap it is one stabilizer chain.  Both tests are exact,
    so the same try hits either way.  Up to the cap the oracle is built
    here, lattice and all, so a time budget that runs out while it is
    built stops d.

    When every try misses and ``_refuted`` counts no generating k-tuple,
    d goes on to k + 1.  Otherwise the exhaustive phase asks the engine for
    an independent generating set of exactly k elements, which loses
    nothing: no generating set exists below k, so one of size k is
    independent.  Neither the count nor the walk draws from the rng, so
    the probes and the witness are the same whichever refutes a level.
    """
    G, limits = A.G, A.limits
    n = G.order()
    if n == 1:
        return 0, ()
    lower = lower_bound_d(G)
    if lower == 1:
        # only for abelian G, whose least class representative of order n
        # is its least id of order n
        orders = G.element_orders(limits=limits)
        if n in orders:
            return 1, _perms(G, [orders.index(n)])
        lower = 2

    if n <= SEARCH_ORDER_CAP:
        def generates(picks):
            return A.oracle.span_of_ids(picks) == A.oracle.top
    else:
        def generates(picks):
            return PermGroup(G.degree, _perms(G, picks)).order() == n

    rng = random.Random(A.seed)
    candidates = None
    for k in range(lower, omega(n) + 1):
        limits.check()
        # randomized probe first; any hit is enough since k-1 was refuted
        for _ in range(DEFAULT_RANDOM_TRIES):
            picks = [rng.choice(range(n)) for _ in range(k)]
            if generates(picks):
                return k, _perms(G, picks)
        if n > SEARCH_ORDER_CAP:
            raise CapExceeded(
                f"exhaustive d search needs order <= {SEARCH_ORDER_CAP}, "
                f"group has order {n}")
        if _refuted(A, k):
            continue
        if candidates is None:
            candidates, reps = _search_candidates(G, limits=limits)
        witness = _search(A.oracle, candidates, reps, k, k, limits=limits)
        if witness is not None:
            return k, _perms(G, witness)
    raise GroupError("no generating set up to the chief length bound")


def m(A, *, force_search=False, prime_power_only=True):
    """Largest size of an independent generating set.

    For soluble groups this equals the number of non-Frattini factors in a
    chief series, which is used directly unless force_search is set.  The
    search restricts itself to elements of prime power order: splitting a
    composite-order element of a maximum independent generating set into
    coprime parts and discarding all but one never shrinks the maximum, so
    some maximum set consists of prime power elements.  Pass
    prime_power_only=False to search over every element.

    The walk tries in the second slot only the least element of each
    C_G(r)-orbit, r the first slot's representative, which loses no size
    either.  The walk fixes r and fills the later slots in ascending search
    order from the first candidate on, so it visits {r} with any independent
    set S of candidates.  Let s be the member of S whose orbit minimum comes
    first in search order; some c in C_G(r) sends s to that minimum, and {r}
    with S^c is independent, generates and has the same size.  Conjugates
    have the same element order, so an orbit's least id is also its first
    element in search order and no member of S^c comes before s^c: the
    walk visits that set with s^c in the second slot.  Deeper slots are not
    restricted: conjugating the tail by the prefix's stabilizer can move it
    below the slot before, which this walk order never visits.
    """
    G, limits = A.G, A.limits
    n = G.order()
    if n == 1:
        return 0
    if G.is_soluble() and not force_search:
        return A.a
    if n > SEARCH_ORDER_CAP:
        raise CapExceeded(
            f"m search needs order <= {SEARCH_ORDER_CAP}, group has order {n}")
    eids, rids = _search_candidates(G, prime_power_only, limits=limits)
    best = _search(A.oracle, eids, rids, A.a + A.b, omega(n), limits=limits,
                   size_only=True)
    if best is None:
        raise GroupError(
            "no independent generating set reached the lower bound a + b")
    return len(best)


def spectrum(A):
    """Witnesses for every size of independent generating set, as a dict
    size -> tuple of permutations.  The sizes always form the full interval
    [d(G), m(G)]."""
    G, limits = A.G, A.limits
    n = G.order()
    if n == 1:
        return {0: ()}
    d_val, d_wit = A.d_witness
    m_val = A.m
    if n > SEARCH_ORDER_CAP:
        raise CapExceeded(
            f"spectrum search needs order <= {SEARCH_ORDER_CAP}, "
            f"group has order {n}")
    eids, rids = _search_candidates(G, limits=limits)
    out = {}
    for k in range(d_val, m_val + 1):
        if k == d_val and is_independent(A, d_wit):
            out[k] = tuple(d_wit)
            continue
        witness = _search(A.oracle, eids, rids, k, k, limits=limits)
        if witness is None:
            raise GroupError(
                f"no independent generating set of size {k} although "
                f"{d_val} <= {k} <= {m_val}")
        out[k] = _perms(G, witness)
    return out
