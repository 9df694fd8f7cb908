"""Permutations and permutation groups with deterministic stabilizer chains.

Composition is fixed left-to-right everywhere: (a * b)(x) = b(a(x)), i.e. a
is applied first.  Points are 0-based internally; cycle notation printed or
parsed at the boundary is 1-based.

A stabilizer chain works on raw image tuples: its transversal pairs and
strong generators are tuples, a product a * b is ``tuple(map(b.__getitem__,
a))`` and the identity test compares with the degree's identity tuple, so
sifting, Schreier generators and the conjugates of ``normal_closure`` make
no Perm.  Perms enter a chain at ``add`` and leave it as ``sift``'s
residue.

A group's elements are the rows of ``element_table``, sorted by image
tuple; an element's id is its row.  The lattice, the searches and
``crowns.aut_order`` work on ids, with ``ids_of`` and the order map
``element_orders``, and make no Perm per element.  Search order is the ids
sorted by (order, id).
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field
from math import lcm

import numpy as np

ELEMENT_CAP = 200_000
MAX_DEGREE = 1 << 16
DEFAULT_LATTICE_CAP = 2000


class GroupError(Exception):
    """Base class for errors raised by this package."""


class DegreeMismatch(GroupError):
    pass


class CapExceeded(GroupError):
    """A configured size cap (element sweep, lattice size, order, ...) was hit."""


class TimeBudgetExceeded(GroupError):
    pass


class NotInGroup(GroupError):
    pass


class NotNormal(GroupError):
    pass


@dataclass(frozen=True)
class Limits:
    """The limits a caller sets on one computation: how many subgroups a
    subgroup lattice may have, and a wall clock budget in seconds (None for
    no budget) whose deadline starts when the value is made.

    Every other cap (element sweeps, search order, automorphism
    candidates, cohomology order) is a fixed module constant.
    """

    lattice_cap: int = DEFAULT_LATTICE_CAP
    seconds: float | None = None
    deadline: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "deadline", None if self.seconds is None
                           else time.monotonic() + self.seconds)

    def check(self):
        """Raise TimeBudgetExceeded once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceeded(
                f"time budget of {self.seconds:g} s exhausted")


DEFAULT_LIMITS = Limits()


def factorint(n):
    """Prime factorization as an ordered dict {p: exponent}."""
    if n < 1:
        raise ValueError("factorint needs n >= 1")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def omega(n):
    """Number of prime divisors of n counted with multiplicity."""
    return sum(factorint(n).values())


def is_prime(n):
    return n > 1 and factorint(n) == {n: 1}


def is_prime_power(n):
    return n > 1 and len(factorint(n)) == 1


@functools.cache
def _identity_images(degree):
    """The identity's image tuple, one shared tuple per degree."""
    return tuple(range(degree))


def _inverse_images(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def _cycle_order(images):
    """The order of the permutation with these images: the least common
    multiple of its cycle lengths."""
    seen, n = [False] * len(images), 1
    for start in range(len(images)):
        pt, length = start, 0
        while not seen[pt]:
            seen[pt], pt, length = True, images[pt], length + 1
        if length > 1:
            n = lcm(n, length)
    return n


class Perm:
    """A permutation of {0, ..., degree-1} stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = images if type(images) is tuple else tuple(images)

    @classmethod
    def identity(cls, degree):
        return cls(_identity_images(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 0-based disjoint cycles, e.g. from_cycles(4, [(0, 1), (2, 3)])."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} outside degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} repeated in cycles")
                seen.add(pt)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(tuple(images))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        a = self.images
        b = other.images
        if len(a) != len(b):
            raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
        return Perm(tuple(map(b.__getitem__, a)))

    def inverse(self):
        return Perm(_inverse_images(self.images))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, h):
        """Conjugate self^h = h^-1 * self * h."""
        return h.inverse() * self * h

    def is_identity(self):
        return self.images == _identity_images(len(self.images))

    def cycles(self):
        """Disjoint cycles, each starting at its smallest point, sorted."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            pt = images[start]
            while pt != start:
                cyc.append(pt)
                seen[pt] = True
                pt = images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self):
        return _cycle_order(self.images)

    def cycle_string(self):
        """1-based cycle notation, '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in cyc) + ")" for cyc in cycs)

    def extended(self, degree):
        """The same permutation acting on a larger point set."""
        if degree < len(self.images):
            raise DegreeMismatch("cannot shrink a permutation")
        return Perm(self.images + tuple(range(len(self.images), degree)))

    def shifted(self, offset, degree):
        """Embed into degree `degree` acting on points offset..offset+deg-1."""
        images = list(range(degree))
        for i, j in enumerate(self.images):
            images[offset + i] = offset + j
        return Perm(tuple(images))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm{self.cycle_string()}"


def orbit_minima(maps, size, *, limits=DEFAULT_LIMITS):
    """The least point of each point's orbit under the permutations
    ``maps`` of range(size), by min-label propagation: each point takes the
    least label of itself and its images under the maps, and then the label
    of its label (pointer jumping), until no label changes.  The maps are
    permutations, so a stable labelling is constant on their cycles and
    hence on each orbit, which ends labelled by its least point.  The time
    budget of ``limits`` is checked before each propagation step along one
    map."""
    lab = np.arange(size)
    while True:
        old = lab
        for m in maps:
            limits.check()
            lab = np.minimum(lab, lab[m])
        lab = lab[lab]
        if (lab == old).all():
            return lab


class _Stabilizer:
    """One level of a stabilizer chain (deterministic Schreier-Sims), on
    image tuples.

    Levels form a linked list via `down`.  The effective generating set of a
    level is its own generators plus all deeper ones (which fix this level's
    base point but still matter for the orbit and the Schreier closure).
    `tree` maps orbit points to (u, u_inverse) with u(base) = point; the
    pairs and the generators are image tuples.  Entries are only ever added,
    never rebuilt, so discovery order is reproducible and certified Schreier
    pairs stay certified.  The pair (p, s) that adds the entry q = s(p) has
    u_q = u_p * s, so its Schreier generator u_p * s * u_q^-1 is the
    identity: it is certified as the entry is made.
    """

    __slots__ = ("degree", "base", "gens", "tree", "down", "_done", "_woven")

    def __init__(self, degree):
        self.degree = degree
        self.base = None
        self.gens = []
        self.tree = {}
        self.down = None
        self._done = set()
        self._woven = set()

    def strong_gens(self):
        """All strong generators at or below this level."""
        out = [] if self.down is None else self.down.strong_gens()
        out.extend(self.gens)
        return out

    def order(self):
        total = 1
        lvl = self
        while lvl.base is not None:
            total *= len(lvl.tree)
            lvl = lvl.down
        return total

    def _sift(self, g):
        """The image tuple g divided by a transversal element at each level
        whose orbit holds its base image, down to the first level whose
        orbit does not."""
        lvl = self
        while lvl.base is not None:
            p = g[lvl.base]
            if p != lvl.base:
                pair = lvl.tree.get(p)
                if pair is None:
                    return g
                g = tuple(map(pair[1].__getitem__, g))
            lvl = lvl.down
        return g

    def sift(self, g):
        """The residue of the Perm g, as a Perm."""
        return Perm(self._sift(g.images))

    def contains(self, g):
        return self._sift(g.images) == _identity_images(self.degree)

    def copy(self):
        """An independent copy of this level and every level below it, which
        grows from here exactly as this chain would."""
        new = _Stabilizer(self.degree)
        new.base = self.base
        new.gens = list(self.gens)
        new.tree = dict(self.tree)
        new.down = None if self.down is None else self.down.copy()
        new._done = set(self._done)
        new._woven = set(self._woven)
        return new

    def add(self, g):
        """Close the chain under the Perm g; returns True if the group grew."""
        return self._add(g.images)

    def _add(self, g):
        residue = self._sift(g)
        if residue == _identity_images(self.degree):
            return False
        self._add_nonmember(residue)
        return True

    def _add_nonmember(self, g):
        if self.base is None:
            self.base = next(i for i, j in enumerate(g) if i != j)
            ident = _identity_images(self.degree)
            self.tree = {self.base: (ident, ident)}
            self.down = _Stabilizer(self.degree)
        if g[self.base] == self.base:
            self.down._add_nonmember(g)
        else:
            self.gens.append(g)
        self._extend_tree()
        self._close_schreier()

    def _extend_tree(self):
        # u_q = u_p * s, so u_q^-1 = s^-1 * u_p^-1, with the inverse of
        # each generator taken once per call
        tree, done, woven = self.tree, self._done, self._woven
        gens = self.strong_gens()
        invs = [None] * len(gens)
        news = [k for k, s in enumerate(gens) if s not in woven]
        woven.update(gens[k] for k in news)
        queue = []

        def reach(p, ks):
            u_p, v_p = tree[p]
            for k in ks:
                s = gens[k]
                q = s[p]
                if q not in tree:
                    if invs[k] is None:
                        invs[k] = _inverse_images(s)
                    tree[q] = (tuple(map(s.__getitem__, u_p)),
                               tuple(map(v_p.__getitem__, invs[k])))
                    done.add((p, s))
                    queue.append(q)

        for p in list(tree):
            reach(p, news)
        every = range(len(gens))
        for p in queue:  # grows while it is read: breadth first
            reach(p, every)

    def _close_schreier(self):
        # Every Schreier generator over the full strong set must sift to the
        # identity below; (point, generator) pairs already certified are
        # skipped, which is sound because lower levels only ever grow.
        # The generator u_p * s * u_q^-1, for q = s(p), is the identity
        # exactly when u_p * s equals u_q.
        tree = self.tree
        done = self._done
        for p in list(tree):
            u_p = tree[p][0]
            for s in self.strong_gens():
                key = (p, s)
                if key in done:
                    continue
                done.add(key)
                w = tuple(map(s.__getitem__, u_p))
                u_q, v_q = tree[s[p]]
                if w != u_q:
                    self.down._add(tuple(map(v_q.__getitem__, w)))


def build_chain(degree, gens):
    chain = _Stabilizer(degree)
    for g in gens:
        chain.add(g)
    return chain


class PermGroup:
    """A permutation group given by generators on {0..degree-1}.

    The generator list is kept exactly as provided (homomorphisms rely on
    positional correspondence); the stabilizer chain is built on demand.
    """

    __slots__ = ("degree", "gens", "label", "_chain", "_order", "_table",
                 "_table_keys", "_elements", "_orders", "_classes",
                 "_minimal_normal", "_fingerprint", "_lattice_cache",
                 "_lattice_failed_cap", "_soluble")

    def __init__(self, degree, gens=(), label=None, _chain=None):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        gens = tuple(g if isinstance(g, Perm) else Perm(g) for g in gens)
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.gens = gens
        self.label = label
        self._chain = _chain
        self._order = None
        self._table = None
        self._table_keys = None
        self._elements = None
        self._orders = None
        self._classes = None
        self._minimal_normal = None
        self._fingerprint = None
        self._lattice_cache = None
        self._lattice_failed_cap = None
        self._soluble = None

    @property
    def chain(self):
        if self._chain is None:
            self._chain = build_chain(self.degree, self.gens)
        return self._chain

    def order(self):
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    def is_trivial(self):
        return all(g.is_identity() for g in self.gens)

    def __contains__(self, perm):
        if perm.degree != self.degree:
            return False
        return self.chain.contains(perm)

    def identity(self):
        return Perm.identity(self.degree)

    def prefix_width(self):
        """The number k of leading images that determine an element: 1 +
        the largest base point of the stabilizer chain, 0 for the trivial
        group.  Points 0..k-1 hold a base, and an element is fixed by its
        base images."""
        k = 0
        lvl = self.chain
        while lvl.base is not None:
            k = max(k, lvl.base + 1)
            lvl = lvl.down
        return k

    def element_table(self, *, limits=DEFAULT_LIMITS):
        """All elements as one (order, degree) array of images, uint8 up to
        degree 256 and uint16 above, its rows sorted by image tuple; an
        element's id is its row.  Refuses above ``ELEMENT_CAP`` elements.

        Built from the stabilizer chain's transversals one level at a
        time, bottom up: the elements of a level are rest * u for rest
        below it and u in its transversal, whose images are u[rest].  The
        rows differ within their first ``prefix_width()`` images, so
        sorting by those columns sorts by image tuple.  The time budget of
        ``limits`` is checked before each level and before the sort."""
        if self._table is None:
            if self.order() > ELEMENT_CAP:
                raise CapExceeded(f"element sweep needs {self.order()} "
                                  f"elements, cap is {ELEMENT_CAP}")
            dtype = np.uint8 if self.degree <= 256 else np.uint16
            levels = []
            lvl = self.chain
            while lvl.base is not None:
                levels.append(lvl)
                lvl = lvl.down
            table = np.arange(self.degree, dtype=dtype)[None, :]
            for lvl in reversed(levels):
                limits.check()
                u = np.array([pair[0] for pair in lvl.tree.values()],
                             dtype=dtype)
                table = u[:, table].reshape(-1, self.degree)
            limits.check()
            k = self.prefix_width()
            if k:  # the trivial group's one row needs no sort
                table = table[np.lexsort(table.T[k - 1::-1])]
            self._table = table
        return self._table

    def _keys(self, rows):
        """The search keys of image rows: the first ``prefix_width()``
        images of each row read as a number in base ``degree``.  They are
        int64 while degree ** k < 2 ** 63, and Python ints in an object
        array above; either way they are exact, and ordered on the group's
        elements like their image tuples."""
        k, degree = self.prefix_width(), self.degree
        dtype = np.int64 if degree ** k < 2 ** 63 else object
        keys = np.zeros(len(rows), dtype=dtype)
        for col in rows[:, :k].T:
            keys *= degree
            keys += col
        return keys

    def ids_of(self, rows):
        """The ids of the elements whose images are the rows of ``rows``,
        each of which must be an element of the group.  Only the first
        ``prefix_width()`` columns are read, so rows cut down to those
        columns, or to any more, give the same ids.  The keys of the whole
        table are computed once per group."""
        if self._table_keys is None:
            self._table_keys = self._keys(self.element_table())
        return np.searchsorted(self._table_keys, self._keys(rows))

    def elements(self, *, limits=DEFAULT_LIMITS):
        """All elements as Perms, in the order of ``element_table``: sorted
        by image tuple.  Refuses above ``ELEMENT_CAP`` elements.

        The time budget of ``limits`` is checked while the table is built."""
        if self._elements is None:
            table = self.element_table(limits=limits)
            self._elements = tuple(map(Perm, map(tuple, table.tolist())))
        return self._elements

    def element_orders(self, *, limits=DEFAULT_LIMITS):
        """The order of each element, as a list indexed by id, read once
        off the element table and memoized on the group.  The time budget
        of ``limits`` is checked while the table is built and after."""
        if self._orders is None:
            table = self.element_table(limits=limits)
            limits.check()
            self._orders = list(map(_cycle_order, table.tolist()))
        return self._orders

    def conjugation_ids(self, *, limits=DEFAULT_LIMITS):
        """One id map per generator g: entry x is the id of x^g = g^-1 * x
        * g, whose images are g[x[g^-1[p]]], built for the first
        ``prefix_width()`` points p only.  The time budget of ``limits`` is
        checked while the table is built and before each map."""
        table = self.element_table(limits=limits)
        k = self.prefix_width()
        maps = []
        for g in self.gens:
            limits.check()
            gim = np.array(g.images, dtype=table.dtype)
            ginv = np.array(g.inverse().images[:k], dtype=np.intp)
            maps.append(self.ids_of(gim[table[:, ginv]]))
        return maps

    def conjugacy_classes(self, *, limits=DEFAULT_LIMITS):
        """List of (representative, class size), sorted by representative in
        search order, (element order, image tuple); each representative is
        its class's least element in search order.

        The classes are the orbits of the maps of ``conjugation_ids``, each
        labelled by its least id, its least image tuple, by
        ``orbit_minima``.  Conjugates have the same order, so that is also
        its least element in search order.  No Perm is made for elements
        other than the representatives.  The time budget of ``limits`` is
        checked while the maps are built and before each propagation step
        along one generator's map."""
        if self._classes is None:
            maps = self.conjugation_ids(limits=limits)
            lab = orbit_minima(maps, len(self._table), limits=limits)
            reps, sizes = np.unique(lab, return_counts=True)
            rows = self._table[reps].tolist()
            classes = [(Perm(tuple(row)), int(size))
                       for row, size in zip(rows, sizes)]
            classes.sort(key=lambda c: (c[0].order(), c[0].images))
            self._classes = tuple(classes)
        return self._classes

    def class_representatives(self, *, limits=DEFAULT_LIMITS):
        return tuple(rep for rep, _ in self.conjugacy_classes(limits=limits))

    def coset_key(self, g):
        """A key for the right coset self * g, the same for every element of
        the coset and different for different cosets: the images of the
        coset's element with the least base images.

        Each level of the stabilizer chain picks the orbit point q whose
        image under the current element t is least and moves on to u_q * t,
        with u_q the level's transversal element taking the base point to q;
        that fixes one more base image, so the cost is one pass over each
        basic orbit and one composition per level."""
        t = g.images
        lvl = self.chain
        while lvl.base is not None:
            tree = lvl.tree
            q = min(tree, key=t.__getitem__)
            t = tuple(map(t.__getitem__, tree[q][0]))
            lvl = lvl.down
        return t

    def is_subgroup_of(self, other):
        return all(g in other for g in self.gens)

    def same_group_as(self, other):
        return (self.degree == other.degree and self.order() == other.order()
                and self.is_subgroup_of(other))

    def normal_closure(self, seeds, below=None):
        """Smallest normal subgroup of self containing the seed permutations
        and, if given, the normal subgroup ``below``.

        Seeds are added in order, then their conjugates under the
        generators breadth first, made as image tuples from each
        generator's inverse taken once; each one that grows the stabilizer
        chain becomes a generator.  With ``below`` the walk starts from a
        copy of below's finished chain and from below's generators, and
        runs over the new seeds only.  When each of below's generators grew
        its chain in turn, as for every group this method returns, that
        copy is the chain that adding below's generators first builds, and
        below is normal, so their conjugates never grow it: the result has
        the same generators and chain as
        ``normal_closure(below.gens + seeds)``."""
        if below is None:
            chain = _Stabilizer(self.degree)
            gens = []
        else:
            chain = below.chain.copy()
            gens = list(below.gens)
        pending = []
        for s in seeds:
            if s not in self:
                raise NotInGroup("seed lies outside the group")
            if chain.add(s):
                gens.append(s)
                pending.append(s.images)
        conj = [(g.images, _inverse_images(g.images)) for g in self.gens]
        for x in pending:  # grows while it is read: breadth first
            for g, g_inv in conj:
                # x^g = g^-1 * x * g
                c = tuple(map(g.__getitem__, map(x.__getitem__, g_inv)))
                if chain._add(c):
                    gens.append(Perm(c))
                    pending.append(c)
        return PermGroup(self.degree, tuple(gens), _chain=chain)

    def derived_subgroup(self):
        gens = self.gens
        comms = []
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                c = a.inverse() * b.inverse() * a * b
                if not c.is_identity():
                    comms.append(c)
        return self.normal_closure(comms)

    def derived_series(self):
        series = [self]
        while True:
            nxt = series[-1].derived_subgroup()
            if nxt.order() == series[-1].order():
                break
            series.append(nxt)
            if nxt.is_trivial():
                break
        return series

    def is_soluble(self):
        if self._soluble is None:
            self._soluble = self.derived_series()[-1].is_trivial()
        return self._soluble

    def is_abelian(self):
        gens = self.gens
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def is_cyclic(self):
        n = self.order()
        if n == 1:
            return True
        if not self.is_abelian():
            return False
        return n in self.element_orders()

    def fingerprint(self):
        """Hash of degree plus sorted generator images (cache/report key)."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(f"{self.degree}|".encode())
            for images in sorted(g.images for g in self.gens):
                h.update(",".join(map(str, images)).encode())
                h.update(b";")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"PermGroup(degree={self.degree}, gens={len(self.gens)}{tag})"


def group_from_elements(degree, elems):
    """Group from a closed (or generating) element collection, with a small
    generator list extracted greedily in the given order."""
    chain = _Stabilizer(degree)
    gens = []
    for e in elems:
        if not isinstance(e, Perm):
            e = Perm(e)
        if chain.add(e):
            gens.append(e)
    return PermGroup(degree, tuple(gens), _chain=chain)


class Homomorphism:
    """A homomorphism given by images of the source group's generators.

    Evaluation on arbitrary elements sifts the padded pair (g, id) through
    the chain of the graph subgroup of Sym(n_source + n_target); base points
    land in the source component first, which makes that well defined.
    """

    def __init__(self, source, target, images):
        images = tuple(images)
        if len(images) != len(source.gens):
            raise ValueError("need one image per source generator")
        for im in images:
            if im.degree != target.degree:
                raise DegreeMismatch("image degree differs from target degree")
        self.source = source
        self.target = target
        self.images = images
        self._pair_chain = None

    def _pairs(self):
        if self._pair_chain is None:
            ns, nt = self.source.degree, self.target.degree
            gens = []
            for g, im in zip(self.source.gens, self.images):
                images = g.images + tuple(ns + x for x in im.images)
                gens.append(Perm(images))
            self._pair_chain = build_chain(ns + nt, gens)
        return self._pair_chain

    def is_valid(self):
        """Exact check that the generator map extends to a homomorphism."""
        return self._pairs().order() == self.source.order()

    def __call__(self, g):
        ns, nt = self.source.degree, self.target.degree
        padded = Perm(g.images + tuple(range(ns, ns + nt)))
        residue = self._pairs().sift(padded)
        if any(residue.images[i] != i for i in range(ns)):
            raise NotInGroup("element not in the source group")
        inv_image = Perm(tuple(residue.images[ns + i] - ns for i in range(nt)))
        return inv_image.inverse()

    def image_group(self):
        return PermGroup(self.target.degree, self.images)


def coset_walk(N, elems, *, limits=DEFAULT_LIMITS):
    """A breadth-first walk over the right cosets of N that N reaches by
    right multiplication with ``elems``, as ``(reps, index, rows)``.

    ``reps[k]`` is the first representative found for coset k, ``index``
    maps ``N.coset_key`` to the coset number, and ``rows[j][k]`` is the
    number of the coset that contains ``reps[k] * elems[j]``.  Cosets are
    numbered in the order they are found, so coset c > 0 is first reached
    by the first (k, j), in that order, with ``rows[j][k] == c``: the walk's
    tree edge.  The time budget of ``limits`` is checked once per coset.
    """
    coset_key = N.coset_key
    ident = N.identity()
    reps = [ident]
    index = {coset_key(ident): 0}
    rows = [[] for _ in elems]
    for rep in reps:  # grows while it is read: breadth first
        limits.check()
        for row, g in zip(rows, elems):
            x = rep * g
            k = index.setdefault(coset_key(x), len(reps))
            if k == len(reps):
                reps.append(x)
            row.append(k)
    return reps, index, rows


def quotient(G, N, *, limits=DEFAULT_LIMITS):
    """G/N as a permutation group on the right cosets of N.

    Q's generators are the rows of ``coset_walk(N, G.gens)``: the image of
    G's j-th generator sends coset k to the coset of ``reps[k] * g_j``, so
    the output is deterministic.  The time budget of ``limits`` is checked
    once per coset.
    """
    for n in N.gens:
        if n not in G:
            raise NotInGroup("N is not contained in G")
        for g in G.gens:
            if n.conj(g) not in N:
                raise NotNormal("N is not normal in G")
    index = G.order() // N.order()
    if index > MAX_DEGREE:
        raise CapExceeded(f"quotient degree {index} exceeds {MAX_DEGREE}")
    reps, _, rows = coset_walk(N, G.gens, limits=limits)
    if len(reps) != index:
        raise GroupError("coset enumeration mismatch")  # pragma: no cover
    return PermGroup(index, tuple(Perm(tuple(row)) for row in rows))
