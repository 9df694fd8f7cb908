"""Lattice, Frattini, minimal normal and chief series tests.

The lattice is checked against a brute-force enumeration of all closed
subsets for groups of order at most 16, plus classical subgroup counts.
"""

import gc
import hashlib
import pathlib
import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from groupgen.perm import (CapExceeded, GroupError, Limits, Perm, PermGroup,
                           TimeBudgetExceeded, factorint)
from groupgen import builder, genset, report, structure

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _sym(n):
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))]),
                         Perm.from_cycles(n, [(0, 1)])])


def _alt(n):
    return PermGroup(n, [Perm.from_cycles(n, [(i, i + 1, i + 2)])
                         for i in range(n - 2)])


def _cyclic(n):
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


def _klein():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                         Perm.from_cycles(4, [(0, 2), (1, 3)])])


def _dihedral4():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]),
                         Perm.from_cycles(4, [(0, 2)])])


def _c2xc4():
    return PermGroup(6, [Perm.from_cycles(6, [(0, 1)]),
                         Perm.from_cycles(6, [(2, 3, 4, 5)])])


def _elementary(p, k):
    degree = p * k
    gens = []
    for i in range(k):
        gens.append(Perm.from_cycles(degree, [tuple(range(p * i, p * i + p))]))
    return PermGroup(degree, gens)


def _product_with_c2(G):
    """G x C2 on two extra points."""
    degree = G.degree + 2
    gens = [g.extended(degree) for g in G.gens]
    gens.append(Perm.from_cycles(degree, [(G.degree, G.degree + 1)]))
    return PermGroup(degree, gens)


def _image_set(G):
    """G's elements as a frozenset of image tuples."""
    return frozenset(e.images for e in G.elements())


def _elem_sets(G):
    """Each subgroup of G's lattice as a frozenset of element image
    tuples."""
    lat = structure.subgroup_lattice(G)
    images = [e.images for e in G.elements()]
    return tuple(frozenset(images[k] for k in lat.id_set(i))
                 for i in range(len(lat)))


def _subgroups(G):
    """Each subgroup of G's lattice as a PermGroup on its generators: the
    elements with the lattice's generator ids."""
    elems = G.elements()
    return [PermGroup(G.degree, [elems[g] for g in gens])
            for gens in structure.subgroup_lattice(G)._gen_ids]


def _brute_subgroup_sets(G):
    """Every subgroup of G as a frozenset of image tuples, by enumerating
    all identity-containing subsets closed under multiplication."""
    elems = [e.images for e in G.elements()]
    n = len(elems)
    assert n <= 16
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[tuple(b[x] for x in a)] for b in elems] for a in elems]
    ident = index[G.identity().images]
    out = set()
    for mask in range(1 << n):
        if not mask & (1 << ident):
            continue
        bits = [i for i in range(n) if mask & (1 << i)]
        if n % len(bits):
            continue
        if all(mask & (1 << table[a][b]) for a in bits for b in bits):
            out.add(frozenset(elems[i] for i in bits))
    return out


def test_lattice_matches_brute_enumeration():
    for G in [_sym(3), _cyclic(6), _cyclic(8), _klein(), _dihedral4(),
              _c2xc4(), _elementary(2, 3), _alt(4), _cyclic(12)]:
        if G.order() > 16:
            continue
        assert set(_elem_sets(G)) == _brute_subgroup_sets(G)


def test_known_subgroup_counts():
    expected = {
        "S3": (_sym(3), 6),
        "C6": (_cyclic(6), 4),
        "S4": (_sym(4), 30),
        "A4": (_alt(4), 10),
        "D4": (_dihedral4(), 10),
        "C2^3": (_elementary(2, 3), 16),
        "C2^4": (_elementary(2, 4), 67),
        "K4": (_klein(), 5),
        "C12": (_cyclic(12), 6),
        # published counts of the nonsoluble groups up to order 720
        "S5": (_sym(5), 156),
        "PSL2(7)": (builder.build("PSL2(7)"), 179),
        "A6": (_alt(6), 501),
        "PSL2(11)": (builder.build("PSL2(11)"), 620),
        "S6": (_sym(6), 1455),
    }
    for name, (G, count) in expected.items():
        lat = structure.subgroup_lattice(G)
        assert len(lat) == count, name


# (size, sha256 prefix of each subgroup's sorted ids and the images of the
# elements with its generator ids, in lattice order) for every quick-corpus
# group and a few larger groups: they pin the lattice order and the
# generators the closure finds
LATTICE_DIGESTS = {
    'C2': (2, '16dc6c673967f32a'),
    'C3': (2, 'be68629571638746'),
    'C4': (3, 'bd104e3da8cb4254'),
    'C6': (4, '9d6384eae5412301'),
    'C12': (6, '2bfae012ad49e9f7'),
    'C15': (4, 'eb6255253a2caa2e'),
    'K4': (5, '60697a5d3bb6cfbb'),
    'D(C2, C2, C2)': (16, '7bbaf11bb36b458f'),
    'D(C4, C2)': (8, '0539f15cd23b8bce'),
    'D(C3, C3)': (6, 'c948dce1abc67e83'),
    'S3': (6, '0ee6e5870937e88a'),
    'Dih4': (10, '8e485c106715ca4e'),
    'Dih5': (8, 'c7e236073bd6ee7b'),
    'Dih6': (16, '550dc65ab426e312'),
    'A4': (10, '5ae2a13f4449c1e1'),
    'S4': (30, '7bf80956fbe32ebb'),
    'EX1(1)': (16, 'eb799e959a6fe2ed'),
    'EX1(2)': (54, '9268d3064555fde3'),
    'EX1(3)': (236, 'c2970f1c721e46b4'),
    'EX2B(1)': (16, 'eb799e959a6fe2ed'),
    'EX2B(2)': (78, 'd51b069bcd42aa54'),
    'D(S3, C3)': (14, 'b3828e3a0491bfa5'),
    'W(C2, 3)': (26, '23b4983c910d3289'),
    'W(C3, 2)': (14, '00cc3307becf285e'),
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': (38, '9ef37fdb854ab83f'),
    'SD(C5, C4, [g1 -> [g1*g1]])': (14, '3858593b69724166'),
    'Q(S4; g1*g2)': (2, '16dc6c673967f32a'),
    'SUB(S4; g1*g1, g2)': (10, '50b4a01fb925c4d1'),
    'CROWN(S3, 2)': (28, '06a7a95cf8b9253c'),
    'CROWN(S3, 3)': (212, '2b08f51ca8ec556d'),
    'CROWN(S4, 2)': (250, '7af38f6fe90b8f07'),
    'A5': (59, 'd02c5d2cb146e5f5'),
    'PSL2(5)': (59, 'e6537886020a2324'),
    'S5': (156, '84e4e0ebc276e9b3'),
    'PGL2(7)': (413, 'bb1729e260a0e3e7'),
    'A6': (501, '4e80b7813455773d'),
    'PSL2(11)': (620, 'c2010873853a7fff'),
    'S6': (1455, '1fe60d7afa574ab8'),
}


def _lattice_digest(G):
    lat = structure.subgroup_lattice(G)
    h = hashlib.sha256()
    for i, H in enumerate(_subgroups(G)):
        h.update(repr((sorted(lat.id_set(i)),
                       tuple(g.images for g in H.gens))).encode())
    return h.hexdigest()[:16]


def test_lattice_digests_cover_the_quick_corpus():
    texts = {text for path in report.corpus_files(CORPUS_DIR)
             for text in report.read_expressions(path)}
    assert texts <= set(LATTICE_DIGESTS)


@pytest.mark.parametrize("text", list(LATTICE_DIGESTS))
def test_lattice_digest(text):
    G = builder.build(text)
    lat = structure.subgroup_lattice(G)
    assert (len(lat), _lattice_digest(G)) == LATTICE_DIGESTS[text]


def test_lattice_subgroups_are_closed_and_sorted():
    S4 = _sym(4)
    lat = structure.subgroup_lattice(S4)
    elem_sets = _elem_sets(S4)
    sizes = [len(fs) for fs in elem_sets]
    assert sizes == sorted(sizes)
    assert elem_sets[lat.top] == _image_set(S4)
    rng = random.Random(3)
    for fs, H in zip(elem_sets, _subgroups(S4)):
        assert H.order() == len(fs)
        sample = rng.sample(sorted(fs), min(4, len(fs)))
        for a in sample:
            for b in sample:
                assert tuple(b[x] for x in a) in fs
    # only one subgroup per conjugacy class is joined; the others carry
    # conjugated generators, which must still generate exactly their set
    for G in (_sym(4), _sym(5), builder.build("CROWN(S4, 2)")):
        lat = structure.subgroup_lattice(G)
        elem_sets = _elem_sets(G)
        for H, fs in zip(_subgroups(G), elem_sets):
            assert _image_set(H) == fs
        keys = [(len(fs), sorted(fs)) for fs in elem_sets]
        assert keys == sorted(keys)
        assert len(set(elem_sets)) == len(lat)


def test_lattice_contains_all_two_generated_subgroups():
    rng = random.Random(17)
    for G in [_sym(4), _dihedral4(), _cyclic(12), _alt(4)]:
        known = set(_elem_sets(G))
        elems = G.elements()
        for _ in range(25):
            a, b = rng.choice(elems), rng.choice(elems)
            H = PermGroup(G.degree, [a, b])
            assert _image_set(H) in known


def test_lattice_closed_under_intersection():
    for G in [_sym(4), _alt(4), _cyclic(12)]:
        sets = _elem_sets(G)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert sets[i] & sets[j] in set(sets)


def test_lattice_cap():
    # S4 has 30 subgroups; every smaller cap fails, whether the count runs
    # over on a zuppo, on a join or inside a conjugacy class being added
    G = _sym(4)
    for cap in range(30):
        with pytest.raises(CapExceeded):
            structure.subgroup_lattice(G, limits=Limits(lattice_cap=cap))
        assert G._lattice_cache is None
    assert len(structure.subgroup_lattice(
        G, limits=Limits(lattice_cap=30))) == 30


def test_failed_lattice_cap_is_not_built_again(monkeypatch):
    # a build that ran over its cap is not run again under a cap no
    # higher, and the error is the one that cap gives; a higher cap builds
    # again, and a time budget that runs out is not recorded
    zuppos = []

    def counting(*args, _real=structure._zuppos, **kwargs):
        zuppos.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(structure, "_zuppos", counting)
    G = _sym(4)
    for cap in (10, 10, 4):
        with pytest.raises(CapExceeded,
                           match=f"^subgroup lattice exceeds {cap} subgroups$"):
            structure.subgroup_lattice(G, limits=Limits(lattice_cap=cap))
        assert G._lattice_cache is None
    assert len(zuppos) == 1
    assert len(structure.subgroup_lattice(
        G, limits=Limits(lattice_cap=30))) == 30
    assert len(zuppos) == 2
    H = builder.build("S5")
    with pytest.raises(TimeBudgetExceeded):
        structure.subgroup_lattice(H, limits=Limits(seconds=0.0))
    assert len(structure.subgroup_lattice(H)) == 156


def test_lattice_cap_with_orbit_skips():
    # S5 is nonabelian, so most of its joins are skipped as non-least in
    # their normalizer orbit; the cap still counts every subgroup
    G = builder.build("S5")
    for cap in range(156):
        with pytest.raises(CapExceeded):
            structure.subgroup_lattice(G, limits=Limits(lattice_cap=cap))
        assert G._lattice_cache is None
    assert len(structure.subgroup_lattice(
        G, limits=Limits(lattice_cap=156))) == 156


def test_join_walks():
    # one join per queued class representative and normalizer orbit of
    # zuppos outside it; the count is the lattice's, not the report's
    for text, walks in [("S4", 45), ("S5", 166), ("A6", 403), ("S6", 1411),
                        ("PSL2(7)", 148), ("PGL2(7)", 345)]:
        lat = structure.subgroup_lattice(builder.build(text))
        assert lat.join_walks == walks, text
    with pytest.raises(AttributeError):
        lat.join_walks = 0


def _brute_span(mult, ids):
    """The subgroup generated by the elements with ids ``ids``, as a
    frozenset of ids: the set closed under all products of its members,
    from the multiplication table ``mult``."""
    mask = np.zeros(len(mult), dtype=bool)
    mask[0] = True
    mask[list(ids)] = True
    while True:
        members = np.flatnonzero(mask)
        grown = mask.copy()
        grown[mult[np.ix_(members, members)].ravel()] = True
        if (grown == mask).all():
            return frozenset(members.tolist())
        mask = grown


@pytest.mark.parametrize("text", ["S4", "A5", "D(C4, C2)", "CROWN(S3, 2)"])
def test_close_ids_from_a_subgroup_closed_under_all_but_the_last(text):
    # close_ids walks its start through the last generator's row only, as
    # every caller starts from the subgroup H its other generators generate;
    # each (H, g) join is checked against a closure under all products
    G = builder.build(text)
    lat = structure.subgroup_lattice(G)
    elems = [e.images for e in G.elements()]
    index = {e: i for i, e in enumerate(elems)}
    mult = np.array([[index[tuple(b[x] for x in a)] for b in elems]
                     for a in elems])
    whole = frozenset(range(len(elems)))
    rows = {}
    seen = set()
    for i in range(len(lat)):
        H, gens = lat.id_set(i), lat._gen_ids[i]
        for g in range(len(elems)):
            span = _brute_span(mult, gens + (g,))
            got = structure.close_ids(G, H, gens + (g,), rows)
            assert got == (None if span == whole else span), (i, g)
            seen.add("trivial H" if len(H) == 1 else
                     "g in H" if g in H else
                     "whole" if got is None else "proper")
    assert seen == {"trivial H", "g in H", "whole", "proper"}


@pytest.mark.slow
def test_s7_subgroup_count():
    # the published count; over the default lattice cap
    G = builder.build("S7")
    assert len(structure.subgroup_lattice(
        G, limits=Limits(lattice_cap=20000))) == 11300


def test_cyclic_lattice_powers_only_prime_power_elements():
    # C1000 acts regularly on 1000 points, so it has an element of order
    # 1000; only its 131 elements of prime power order are powered, each
    # step keeping one id per element.  The elements are listed first, so
    # that their image tuples are not counted.
    G = builder.build("C1000")
    G.elements()
    tracemalloc.start()
    try:
        lat = structure.subgroup_lattice(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(lat.id_set(i)) for i in range(len(lat))] == [
        d for d in range(1, 1001) if 1000 % d == 0]
    assert peak < 32 * 2**20


def test_group_with_its_lattice_dies_without_the_cycle_collector():
    # the group memoizes its lattice and the lattice keeps no reference
    # back, so reference counting alone frees both
    G = _sym(4)
    refs = [weakref.ref(structure.subgroup_lattice(G)),
            weakref.ref(G.element_table())]
    gc.disable()
    try:
        del G
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_lattice_budget():
    G = builder.build("S5")
    with pytest.raises(TimeBudgetExceeded):
        structure.subgroup_lattice(G, limits=Limits(seconds=0.0))
    assert G._lattice_cache is None


def test_chief_series_budget_stops_the_class_sweep():
    G = builder.build("S5")
    with pytest.raises(TimeBudgetExceeded):
        structure.chief_series(G, limits=Limits(seconds=0.0))
    assert G._classes is None


def test_chief_series_budget_stops_the_element_sweep():
    G = builder.build("S5")
    with pytest.raises(TimeBudgetExceeded):
        structure.chief_series(G, limits=Limits(seconds=0.0))
    assert G._elements is None
    with pytest.raises(TimeBudgetExceeded):
        G.elements(limits=Limits(seconds=0.0))
    assert G._elements is None
    # with the elements swept, the budget still stops the order map
    G.elements()
    with pytest.raises(TimeBudgetExceeded):
        G.element_orders(limits=Limits(seconds=0.0))
    assert G._orders is None


def test_closure_walk_honours_the_budget():
    # with the classes swept, the walk powers each of C1000's thousand
    # class representatives on 1000 points, then tests each at each step
    # of its chief series and closes some on element ids; the budget is
    # checked per representative in both, and either walk takes over
    # 0.5 s, so 0.05 s runs out inside it
    G = _cyclic(1000)
    G.class_representatives()
    for walk in (structure.chief_series, structure.minimal_normal_subgroups):
        start = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded):
            walk(G, limits=Limits(seconds=0.05))
        assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("text, walk, count", [
    # one closure per representative of prime order modulo the term below,
    # one per coset of it; one closure per representative outside the term
    # below builds 58, 32 and 561
    ("WREATH(1)", structure.chief_series, 9),
    ("WREATH(1)", structure.minimal_normal_subgroups, 7),
    ("C120", structure.chief_series, 31),
])
def test_closure_walk_counts(monkeypatch, text, walk, count):
    # WREATH(1) is over CHIEF_IDS_ORDER and closes on stabilizer chains;
    # C120 closes on element ids, as many closures as the chains make
    G = builder.build(text)
    G.class_representatives()
    calls = []
    if G.order() <= structure.CHIEF_IDS_ORDER:
        owner, name = structure, "normal_closure_ids"
    else:
        owner, name = PermGroup, "normal_closure"
    closure = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    walk(G)
    assert len(calls) == count


@pytest.mark.parametrize("text", ["C120", "W(S4, 2)"])
def test_chief_series_powers_each_representative_once(monkeypatch, text):
    # the prime-order test reads r^q for each class representative r and
    # each prime q dividing its order, made once for the whole series and
    # not again at each term
    G = builder.build(text)
    reps = G.class_representatives()
    bound = sum(len(factorint(r.order())) for r in reps)
    calls = []
    power = Perm.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(Perm, "__pow__", counted)
    assert len(structure.chief_series(G)) > 2
    assert 0 < len(calls) <= bound


def test_minimal_normal_walk_is_memoized(monkeypatch):
    # the walk over the trivial subgroup runs once per group: the chief
    # series reads the minimal normal subgroups' 7 closures and builds only
    # the 2 of its later steps, and a second call builds none
    G = builder.build("WREATH(1)")
    G.class_representatives()
    calls = []
    closure = PermGroup.normal_closure

    def counted(self, *args, **kwargs):
        calls.append(args)
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "normal_closure", counted)
    mins = structure.minimal_normal_subgroups(G)
    assert len(calls) == 7
    series = structure.chief_series(G)
    assert len(calls) == 9
    assert any(series[0].above is N for N in mins)
    assert structure.minimal_normal_subgroups(G) == mins
    assert len(calls) == 9


@pytest.mark.parametrize("text", ["S4", "D(S4, S4)", "CROWN(S3, 3)",
                                  "WREATH(1)"])
def test_closure_grown_from_the_term_below(text):
    # at each step of the chief series, a closure grown from the chain of
    # the term below is the closure of its generators and the seed anew
    G = builder.build(text)
    for f in structure.chief_series(G):
        Y = f.below
        for r in G.class_representatives():
            if r in Y:
                continue
            grown = G.normal_closure((r,), below=Y)
            fresh = G.normal_closure(Y.gens + (r,))
            assert grown.gens == fresh.gens
            assert grown.order() == fresh.order()


def _chain_levels(H):
    """Each level of H's stabilizer chain: its base point, its orbit in
    the order it was found, and its generators."""
    out, lvl = [], H.chain
    while lvl.base is not None:
        out.append((lvl.base, list(lvl.tree), lvl.gens))
        lvl = lvl.down
    return out


_QUICK_TEXTS = [text for path in report.corpus_files(CORPUS_DIR)
                for text in report.read_expressions(path)]


@pytest.mark.parametrize("text", _QUICK_TEXTS + [
    "C120", "C300", "C1000", "W(S4, 2)", "D(S4, S4)", "PSL2(7)", "PGL2(7)"])
def test_id_walk_matches_the_chain_walk(text):
    # the chain walk, called directly, against chief_series on element ids:
    # the same terms with the same generators and chains, the same flags and
    # modules, and the same minimal normal subgroups
    G = builder.build(text)
    assert G.order() <= structure.CHIEF_IDS_ORDER
    reps = structure._prime_powers(G.class_representatives(),
                                   limits=Limits())
    chains = structure._chief_series_chains(G, reps, Limits())
    chain_minimal = G._minimal_normal
    G._minimal_normal = None
    ids = structure.chief_series(G)
    assert [M.gens for M in G._minimal_normal] == \
        [M.gens for M in chain_minimal]
    assert all(f.ids is not None for f in ids)
    assert all(f.ids is None for f in chains)
    assert len(ids) == len(chains)
    for a, b in zip(ids, chains):
        assert (a.order, a.above.gens) == (b.order, b.above.gens)
        assert _chain_levels(a.above) == _chain_levels(b.above)
        assert (a.is_abelian, a.is_frattini) == (b.is_abelian, b.is_frattini)
        if a.is_abelian:
            assert a.module.basis == b.module.basis
            assert np.array_equal(a.module.matrices, b.module.matrices)


def test_frattini_flag_runs_under_the_factor_limits():
    # V4/1 in S4 is abelian; its Frattini flag runs under the factor's
    # time budget, and builds no subgroup lattice whatever the lattice cap
    G = _sym(4)
    V = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                      Perm.from_cycles(4, [(0, 2), (1, 3)])])
    f = structure.ChiefFactor(G, PermGroup(4, ()), V, Limits(seconds=0.0))
    assert f.is_abelian
    with pytest.raises(TimeBudgetExceeded):
        f.is_frattini
    assert G._lattice_cache is None
    series = structure.chief_series(G, limits=Limits(lattice_cap=1))
    assert [f.is_frattini for f in series] == [False, False, False]
    assert G._lattice_cache is None


def test_frattini_flags_of_unlocked_products(monkeypatch):
    # Frat(A x B) = Frat(A) x Frat(B), and Frat(S4) = 1, so D(S4, S4) has
    # no Frattini factor; in W(S4, 2) the only one is the centre of the
    # top C2 wr C2 = D8.  Neither flag builds a subgroup lattice.
    def never(*args, **kwargs):
        raise AssertionError("a Frattini flag built a subgroup lattice")

    monkeypatch.setattr(structure, "subgroup_lattice", never)
    for text, orders, flags in [
            ("D(S4, S4)", [4, 3, 2, 4, 3, 2], [False] * 6),
            ("W(S4, 2)", [16, 9, 2, 2, 2],
             [False, False, True, False, False])]:
        G = builder.build(text)
        series = structure.chief_series(G)
        assert [f.order for f in series] == orders, text
        assert [f.is_frattini for f in series] == flags, text
        assert G._lattice_cache is None


def test_maximal_subgroups_of_s4():
    lat = structure.subgroup_lattice(_sym(4))
    orders = sorted(len(lat.id_set(i)) for i in lat.maximal_indices())
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


def test_moebius_s3():
    S3 = _sym(3)
    lat = structure.subgroup_lattice(S3)
    mu = lat.moebius()
    by_order = {}
    for i, H in enumerate(_subgroups(S3)):
        by_order.setdefault(H.order(), []).append(mu[i])
    assert by_order[1] == [3]
    assert by_order[2] == [-1, -1, -1]
    assert by_order[3] == [-1]
    assert by_order[6] == [1]


def test_moebius_sums_vanish():
    for G in [_sym(3), _sym(4), _cyclic(12), _dihedral4()]:
        lat = structure.subgroup_lattice(G)
        mu = lat.moebius()
        for i in range(len(lat)):
            total = mu[i] + sum(mu[j] for j in lat.strict_supersets(i))
            assert total == (1 if i == lat.top else 0)


def test_containment_and_join_rows_match_set_loops():
    # the membership-array supersets and join rows against subset tests
    # and first-hit scans over the id sets; a join row is an array
    for text in ["C1", "D(C3, C3)", "S4", "A5", "CROWN(S4, 2)", "EX1(3)"]:
        lat = structure.subgroup_lattice(builder.build(text))
        sets = [lat.id_set(i) for i in range(len(lat))]
        for a, mine in enumerate(sets):
            sups = tuple(b for b, theirs in enumerate(sets)
                         if len(mine) < len(theirs) and mine <= theirs)
            assert lat.strict_supersets(a) == sups, (text, a)
            row = [a if e in mine else next(b for b in sups if e in sets[b])
                   for e in range(len(sets[lat.top]))]
            got = lat.join_row(a)
            assert got.tolist() == row, (text, a)
            # the smallest signed dtype that holds every subgroup index
            assert got.dtype == np.min_scalar_type(-len(lat)), (text, a)


def test_generates():
    S4 = _sym(4)
    oracle = genset.GenOracle(S4)
    a = Perm.from_cycles(4, [(0, 1, 2, 3)])
    b = Perm.from_cycles(4, [(0, 1)])
    ids = S4.ids_of(np.array([a.images, b.images])).tolist()
    assert oracle.span_of_ids(ids) == oracle.top
    assert oracle.span_of_ids(ids[:1]) != oracle.top


def test_frattini():
    assert structure.frattini(_cyclic(4)).order() == 2
    assert structure.frattini(_sym(4)).order() == 1
    assert structure.frattini(_cyclic(9)).order() == 3
    f = structure.frattini(_c2xc4())
    assert f.order() == 2
    squares = {(g * g).images for g in _c2xc4().elements()}
    assert _image_set(f) == frozenset(squares)
    D = _dihedral4()
    z = structure.frattini(D)
    assert z.order() == 2
    centre = {g.images for g in D.elements()
              if all(g * h == h * g for h in D.gens)}
    assert _image_set(z) == centre
    assert structure.frattini(PermGroup(3, [])).order() == 1

# [generator images of each minimal normal subgroup] and is_simple, for
# every quick-corpus group and four larger groups; the generators pin the
# order in which the walk meets tied closures
MINIMAL_NORMAL = {
    'C2': ([[(1, 0)]], True),
    'C3': ([[(1, 2, 0)]], True),
    'C4': ([[(2, 3, 0, 1)]], False),
    'C6': ([[(3, 4, 5, 0, 1, 2)], [(2, 3, 4, 5, 0, 1)]], False),
    'C12': ([[(6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5)], [(4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3)]], False),
    'C15': ([[(5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 2, 3, 4)], [(3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 2)]], False),
    'K4': ([[(1, 0, 3, 2)], [(2, 3, 0, 1)], [(3, 2, 1, 0)]], False),
    'D(C2, C2, C2)': ([[(0, 1, 2, 3, 5, 4)], [(0, 1, 3, 2, 4, 5)], [(0, 1, 3, 2, 5, 4)], [(1, 0, 2, 3, 4, 5)], [(1, 0, 2, 3, 5, 4)], [(1, 0, 3, 2, 4, 5)], [(1, 0, 3, 2, 5, 4)]], False),
    'D(C4, C2)': ([[(0, 1, 2, 3, 5, 4)], [(2, 3, 0, 1, 4, 5)], [(2, 3, 0, 1, 5, 4)]], False),
    'D(C3, C3)': ([[(0, 1, 2, 4, 5, 3)], [(1, 2, 0, 3, 4, 5)], [(1, 2, 0, 4, 5, 3)], [(1, 2, 0, 5, 3, 4)]], False),
    'S3': ([[(1, 2, 0)]], False),
    'Dih4': ([[(2, 3, 0, 1)]], False),
    'Dih5': ([[(1, 2, 3, 4, 0)]], False),
    'Dih6': ([[(3, 4, 5, 0, 1, 2)], [(2, 3, 4, 5, 0, 1)]], False),
    'A4': ([[(1, 0, 3, 2), (3, 2, 1, 0)]], False),
    'S4': ([[(1, 0, 3, 2), (3, 2, 1, 0)]], False),
    'EX1(1)': ([[(0, 1, 2, 4, 3)], [(1, 2, 0, 3, 4)]], False),
    'EX1(2)': ([[(0, 1, 2, 3, 4, 6, 5)], [(0, 1, 2, 4, 3, 5, 6)], [(0, 1, 2, 4, 3, 6, 5)], [(1, 2, 0, 3, 4, 5, 6)]], False),
    'EX1(3)': ([[(0, 1, 2, 3, 4, 5, 6, 8, 7)], [(0, 1, 2, 3, 4, 6, 5, 7, 8)], [(0, 1, 2, 3, 4, 6, 5, 8, 7)], [(0, 1, 2, 4, 3, 5, 6, 7, 8)], [(0, 1, 2, 4, 3, 5, 6, 8, 7)], [(0, 1, 2, 4, 3, 6, 5, 7, 8)], [(0, 1, 2, 4, 3, 6, 5, 8, 7)], [(1, 2, 0, 3, 4, 5, 6, 7, 8)]], False),
    'EX2B(1)': ([[(0, 1, 2, 4, 3)], [(1, 2, 0, 3, 4)]], False),
    'EX2B(2)': ([[(0, 1, 2, 3, 4, 5, 7, 6)], [(0, 1, 2, 4, 5, 3, 6, 7)], [(1, 2, 0, 3, 4, 5, 6, 7)], [(1, 2, 0, 4, 5, 3, 6, 7)], [(1, 2, 0, 5, 3, 4, 6, 7)]], False),
    'D(S3, C3)': ([[(0, 1, 2, 4, 5, 3)], [(1, 2, 0, 3, 4, 5)]], False),
    'W(C2, 3)': ([[(1, 0, 3, 2, 5, 4)], [(0, 1, 3, 2, 5, 4), (1, 0, 2, 3, 5, 4)]], False),
    'W(C3, 2)': ([[(1, 2, 0, 4, 5, 3)], [(1, 2, 0, 5, 3, 4)]], False),
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': ([[(0, 1, 2, 4, 5, 3, 6, 7, 8, 9), (2, 0, 1, 3, 4, 5, 6, 7, 8, 9)]], False),
    'SD(C5, C4, [g1 -> [g1*g1]])': ([[(1, 2, 3, 4, 0, 5, 6, 7, 8)]], False),
    'Q(S4; g1*g2)': ([[(1, 0)]], True),
    'SUB(S4; g1*g1, g2)': ([[(1, 0, 3, 2)]], False),
    'CROWN(S3, 2)': ([[(0, 1, 2, 4, 5, 3)], [(1, 2, 0, 3, 4, 5)], [(1, 2, 0, 4, 5, 3)], [(1, 2, 0, 5, 3, 4)]], False),
    'CROWN(S3, 3)': ([[(0, 1, 2, 3, 4, 5, 7, 8, 6)], [(0, 1, 2, 4, 5, 3, 6, 7, 8)], [(0, 1, 2, 4, 5, 3, 7, 8, 6)], [(0, 1, 2, 4, 5, 3, 8, 6, 7)], [(1, 2, 0, 3, 4, 5, 6, 7, 8)], [(1, 2, 0, 3, 4, 5, 7, 8, 6)], [(1, 2, 0, 3, 4, 5, 8, 6, 7)], [(1, 2, 0, 4, 5, 3, 6, 7, 8)], [(1, 2, 0, 4, 5, 3, 7, 8, 6)], [(1, 2, 0, 4, 5, 3, 8, 6, 7)], [(1, 2, 0, 5, 3, 4, 6, 7, 8)], [(1, 2, 0, 5, 3, 4, 7, 8, 6)], [(1, 2, 0, 5, 3, 4, 8, 6, 7)]], False),
    'CROWN(S4, 2)': ([[(0, 1, 2, 3, 5, 4, 7, 6), (0, 1, 2, 3, 7, 6, 5, 4)], [(1, 0, 3, 2, 4, 5, 6, 7), (3, 2, 1, 0, 4, 5, 6, 7)], [(1, 0, 3, 2, 5, 4, 7, 6), (3, 2, 1, 0, 7, 6, 5, 4)]], False),
    'A5': ([[(0, 2, 1, 4, 3), (2, 1, 0, 4, 3), (0, 4, 3, 2, 1)]], True),
    'PSL2(5)': ([[(0, 1, 4, 5, 2, 3), (3, 1, 2, 0, 5, 4), (3, 2, 1, 0, 4, 5)]], True),
    'S5': ([[(0, 2, 1, 4, 3), (4, 1, 3, 2, 0), (2, 1, 0, 4, 3)]], False),
    'S6': ([[(0, 1, 3, 2, 5, 4), (5, 1, 2, 4, 3, 0), (1, 0, 2, 3, 5, 4), (0, 5, 2, 4, 3, 1)]], False),
    'A6': ([[(0, 1, 3, 2, 5, 4), (3, 1, 2, 0, 5, 4), (0, 3, 2, 1, 5, 4), (0, 1, 5, 4, 3, 2)]], True),
    'PSL2(11)': ([[(1, 0, 4, 7, 2, 9, 11, 3, 10, 5, 8, 6), (9, 2, 1, 5, 8, 3, 10, 11, 4, 0, 6, 7), (9, 4, 6, 7, 1, 8, 2, 3, 5, 0, 11, 10)]], True),
    'PGL2(11)': ([[(1, 0, 4, 7, 2, 9, 11, 3, 10, 5, 8, 6), (9, 2, 1, 5, 8, 3, 10, 11, 4, 0, 6, 7), (9, 4, 6, 7, 1, 8, 2, 3, 5, 0, 11, 10)]], False),
}


def test_minimal_normal_subgroups():
    mins = structure.minimal_normal_subgroups(_sym(4))
    assert len(mins) == 1
    assert mins[0].same_group_as(_klein())
    assert [N.order() for N in structure.minimal_normal_subgroups(_cyclic(6))] == [2, 3]
    assert len(structure.minimal_normal_subgroups(_klein())) == 3
    a5 = structure.minimal_normal_subgroups(_alt(5))
    assert len(a5) == 1 and a5[0].order() == 60
    d4 = structure.minimal_normal_subgroups(_dihedral4())
    assert len(d4) == 1 and d4[0].order() == 2
    ex1 = structure.minimal_normal_subgroups(_product_with_c2(_sym(3)))
    assert sorted(N.order() for N in ex1) == [2, 3]
    for text, (gens, simple) in MINIMAL_NORMAL.items():
        G = builder.build(text)
        mins = structure.minimal_normal_subgroups(G)
        assert [[g.images for g in N.gens] for N in mins] == gens, text
        assert structure.is_simple(G) == simple, text


def test_socle():
    def socle(G):
        return genset.Analysis(G).socle

    assert socle(_sym(4)).same_group_as(_klein())
    assert socle(_cyclic(6)).order() == 6
    assert socle(_dihedral4()).order() == 2
    assert socle(_alt(5)).order() == 60
    assert structure.unique_minimal_normal(_sym(4)) is not None
    assert structure.unique_minimal_normal(_cyclic(6)) is None


def test_chief_series_s4():
    series = structure.chief_series(_sym(4))
    assert [f.order for f in series] == [4, 3, 2]
    assert [f.is_abelian for f in series] == [True, True, True]
    assert [f.is_frattini for f in series] == [False, False, False]
    assert series[0].above.same_group_as(_klein())
    assert [(f.prime, f.dim) for f in series] == [(2, 2), (3, 1), (2, 1)]


def test_chief_series_c4():
    series = structure.chief_series(_cyclic(4))
    assert [f.order for f in series] == [2, 2]
    assert [f.is_frattini for f in series] == [True, False]


def test_chief_series_various():
    series = structure.chief_series(_alt(5))
    assert len(series) == 1
    assert not series[0].is_abelian
    assert not series[0].is_frattini
    series = structure.chief_series(_cyclic(6))
    assert [f.order for f in series] == [2, 3]
    assert structure.chief_series(PermGroup(2, [])) == ()
    series = structure.chief_series(_dihedral4())
    assert [f.order for f in series] == [2, 2, 2]
    assert [f.is_frattini for f in series] == [True, False, False]
    series = structure.chief_series(_sl23())
    assert [f.order for f in series] == [2, 4, 3]
    assert [f.is_frattini for f in series] == [True, False, False]


# (length, sha256 prefix of each factor's below order, above order and
# above generator images, in series order) for every quick-corpus group and
# five larger groups; the Frattini flags, the modules and the report's
# chief factor summaries read the series with these generators
CHIEF_DIGESTS = {
    'C2': (1, '97da0184b5b72a0b'),
    'C3': (1, 'ffe1ab83a23cf873'),
    'C4': (2, '58268895199ad881'),
    'C6': (2, 'e3a721131027ebc5'),
    'C12': (3, '2f290ae4e726e18b'),
    'C15': (2, '526797a3bfc60bee'),
    'K4': (2, '370ff56d98275849'),
    'D(C2, C2, C2)': (3, '9b6b77f292ca9761'),
    'D(C4, C2)': (3, 'e07444404ea91dd7'),
    'D(C3, C3)': (2, '87103a6326b5a75e'),
    'S3': (2, '96e0c74bc7f15189'),
    'Dih4': (3, '539a29287c10926c'),
    'Dih5': (2, '35c7b0f909f7c441'),
    'Dih6': (3, 'aed7d0b5e5500769'),
    'A4': (2, '30e0343920bf32b1'),
    'S4': (3, 'f38991f05e955a1e'),
    'EX1(1)': (3, 'aa5a817a2039ba78'),
    'EX1(2)': (4, '6a95dd5bf0903625'),
    'EX1(3)': (5, '758d2a762c41ff20'),
    'EX2B(1)': (3, 'aa5a817a2039ba78'),
    'EX2B(2)': (4, 'c1ad06277a4f8d0e'),
    'D(S3, C3)': (3, 'c0ec94c0755d514b'),
    'W(C2, 3)': (3, '9cf0a4ecc343eb6a'),
    'W(C3, 2)': (3, 'fe4971b4770f77c5'),
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': (3, 'ac740835ec4f74c0'),
    'SD(C5, C4, [g1 -> [g1*g1]])': (3, '2c524df9de15445c'),
    'Q(S4; g1*g2)': (1, '97da0184b5b72a0b'),
    'SUB(S4; g1*g1, g2)': (3, 'e2935a59e15535ed'),
    'CROWN(S3, 2)': (3, '73516f0aad0673b4'),
    'CROWN(S3, 3)': (4, 'b2c53f9b645d1e34'),
    'CROWN(S4, 2)': (4, '0407a6949acc0871'),
    'A5': (1, 'b1b0d9b1873fb620'),
    'PSL2(5)': (1, '19ce5dbd351bf5ee'),
    'S5': (2, '311217191628036e'),
    'WREATH(1)': (3, 'de95a2e4c3572f57'),
    'D(S4, S4)': (6, '1991469a23b454d1'),
    'W(S4, 2)': (5, '7fa18506d84c42d1'),
    'S6': (2, '711253be6f8204e1'),
    'C120': (5, '542d66cb58b9f94b'),
}


def _chief_digest(series):
    h = hashlib.sha256()
    for f in series:
        h.update(repr((f.below.order(), f.above.order(),
                       tuple(g.images for g in f.above.gens))).encode())
    return h.hexdigest()[:16]


def test_chief_digests_cover_the_quick_corpus():
    texts = {text for path in report.corpus_files(CORPUS_DIR)
             for text in report.read_expressions(path)}
    assert texts <= set(CHIEF_DIGESTS)


@pytest.mark.parametrize("text", list(CHIEF_DIGESTS))
def test_chief_digest(text):
    series = structure.chief_series(builder.build(text))
    assert (len(series), _chief_digest(series)) == CHIEF_DIGESTS[text]


# the splitting system (A, b) of every abelian factor of the series above,
# its Frattini flag's system, on ids or on the coset walk (WREATH(1))
FLAG_SYSTEM_DIGESTS = {
    'C2': (1, '6abfb62bb665e92d'),
    'C3': (1, 'f48fba74f18e4f67'),
    'C4': (2, '62cc5dc85d22732f'),
    'C6': (2, '893b87bc0524d6d9'),
    'C12': (3, '34e3fcaf7e817562'),
    'C15': (2, 'e5fc17133cd8f363'),
    'K4': (2, '65b852b6e1924db1'),
    'D(C2, C2, C2)': (3, 'e67321201dae144f'),
    'D(C4, C2)': (3, '3fc825b74db28e38'),
    'D(C3, C3)': (2, 'a23bd026abc7a79a'),
    'S3': (2, '81ab8e23c67a41e2'),
    'Dih4': (3, '633633f4f3e193d6'),
    'Dih5': (2, 'c6d46f4e9dad390f'),
    'Dih6': (3, '3a76aec895d627f1'),
    'A4': (2, '6c53dfa215b7881e'),
    'S4': (3, '8d3e7aa81a5d19b2'),
    'EX1(1)': (3, '66fae8c2b4f4ecc4'),
    'EX1(2)': (4, 'ac1f70b12d84e807'),
    'EX1(3)': (5, '2e6275125823e638'),
    'EX2B(1)': (3, '66fae8c2b4f4ecc4'),
    'EX2B(2)': (4, '18a1e7aa560d2a57'),
    'D(S3, C3)': (3, '7aecd186a0df2ac0'),
    'W(C2, 3)': (3, 'da818ac5bd7e5ded'),
    'W(C3, 2)': (3, 'be1cf2c9a40726f9'),
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': (3, '9cdd177175d158be'),
    'SD(C5, C4, [g1 -> [g1*g1]])': (3, 'f8dae515e2fed2b7'),
    'Q(S4; g1*g2)': (1, 'bd1b64aeb832e258'),
    'SUB(S4; g1*g1, g2)': (3, '633633f4f3e193d6'),
    'CROWN(S3, 2)': (3, '08c7f0996475ea8d'),
    'CROWN(S3, 3)': (4, '33bb5954227ec3b1'),
    'CROWN(S4, 2)': (4, '23e082f67dd0a2b2'),
    'A5': (0, 'e3b0c44298fc1c14'),
    'PSL2(5)': (0, 'e3b0c44298fc1c14'),
    'S5': (1, '0bb8cc5de609b92b'),
    'WREATH(1)': (2, '9c09d713a608058d'),
    'D(S4, S4)': (6, '6fea2976db0fd291'),
    'W(S4, 2)': (5, '37d235750f671452'),
    'S6': (1, 'bd1b64aeb832e258'),
    'C120': (5, 'b3831050b82b496b'),
}


def _flag_system(f):
    M = f.module
    if f.ids is None:
        return structure.cocycle_system(f.group, f.above, M.matrices,
                                        M.prime, M.coords_of)
    return structure._cocycle_system_ids(f.group, f.ids, M.matrices, M.prime,
                                         M._coords, limits=Limits())


def _flag_system_digest(series):
    h, count = hashlib.sha256(), 0
    for f in series:
        if not f.is_abelian:
            continue
        A, b = _flag_system(f)
        h.update(repr((A.shape, A.dtype.str, b.shape, b.dtype.str)).encode())
        h.update(A.tobytes())
        h.update(b.tobytes())
        count += 1
    return count, h.hexdigest()[:16]


def test_flag_system_digests_cover_the_chief_digests():
    assert set(FLAG_SYSTEM_DIGESTS) == set(CHIEF_DIGESTS)


@pytest.mark.parametrize("text", list(FLAG_SYSTEM_DIGESTS))
def test_flag_system_digest(text):
    series = structure.chief_series(builder.build(text))
    assert _flag_system_digest(series) == FLAG_SYSTEM_DIGESTS[text]


def test_chief_invariants_do_not_depend_on_generators():
    rng = random.Random(29)
    for G in [_sym(4), _cyclic(12), _dihedral4(), _product_with_c2(_sym(3))]:
        elems = G.elements()
        base = structure.chief_series(G)
        base_stats = sorted((f.order, f.is_abelian, f.is_frattini) for f in base)
        for _ in range(3):
            gens = list(G.gens)
            rng.shuffle(gens)
            c = rng.choice(elems)
            gens = [g.conj(c) for g in gens] + [rng.choice(elems)]
            H = PermGroup(G.degree, gens)
            assert H.order() == G.order()
            other = structure.chief_series(H)
            stats = sorted((f.order, f.is_abelian, f.is_frattini) for f in other)
            assert stats == base_stats


def test_factor_module_of_klein_in_s4():
    series = structure.chief_series(_sym(4))
    mod = series[0].module
    assert (mod.prime, mod.dim) == (2, 2)
    C = structure.factor_centralizer(_sym(4), series[0].above, series[0].below)
    assert C.same_group_as(_klein())
    for m in mod.matrices:
        assert m.shape == (2, 2)
    # the action map must be a homomorphism into GL(2, 2)
    rng = random.Random(7)
    G = _sym(4)
    lookup = {g.images: m for g, m in zip(G.gens, mod.matrices)}
    for _ in range(20):
        i = rng.randrange(len(G.gens))
        j = rng.randrange(len(G.gens))
        prod = G.gens[i] * G.gens[j]
        expected = np.mod(mod.matrices[i] @ mod.matrices[j], 2)
        got = mod._action_matrix(prod)
        assert np.array_equal(got, expected)


def test_factor_module_trivial_action():
    series = structure.chief_series(_cyclic(4))
    mod = series[0].module
    assert mod.prime == 2 and mod.dim == 1
    C = structure.factor_centralizer(_cyclic(4), series[0].above,
                                     series[0].below)
    assert C.order() == 4
    assert all(np.array_equal(m, np.eye(1, dtype=np.int64)) for m in mod.matrices)


def test_factor_centralizer_checks_the_budget():
    with pytest.raises(TimeBudgetExceeded):
        structure.factor_centralizer(_sym(4), _klein(), PermGroup(4, ()),
                                     limits=Limits(seconds=0.0))


def _sl23():
    """SL(2, 3) acting on the 8 nonzero vectors of GF(3)^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def perm(m):
        return Perm(tuple(index[((a * m[0][0] + b * m[1][0]) % 3,
                                 (a * m[0][1] + b * m[1][1]) % 3)]
                          for a, b in vectors))

    return PermGroup(8, [perm([[1, 1], [0, 1]]), perm([[1, 0], [1, 1]])])


def _corpus_groups():
    """Every group of the quick corpus."""
    for path in report.corpus_files(CORPUS_DIR):
        for text in report.read_expressions(path):
            yield builder.build(text)


def test_lattice_oracle_and_frattini_make_no_perm_per_element(monkeypatch):
    # all three read the element table and its ids, with or without the
    # lattice behind the oracle
    def elements(self, *args, **kwargs):
        raise AssertionError("elements swept into Perms")

    monkeypatch.setattr(PermGroup, "elements", elements)
    for G in _corpus_groups():
        assert structure.frattini(G).order() >= 1
        assert genset.GenOracle(G).lattice is not None
        fallback = genset.GenOracle(G, limits=Limits(lattice_cap=1))
        assert fallback.lattice is None


def test_has_complement_matches_frattini_flag():
    # the lattice oracle on G itself: X/Y lies in Frat(G/Y) exactly when
    # every maximal subgroup of G that contains Y also contains X
    groups = [_sym(4), _cyclic(4), _cyclic(6), _dihedral4(), _c2xc4(),
              _alt(4), _cyclic(12), _product_with_c2(_sym(3)), _sl23()]
    checked = 0
    for G in groups + list(_corpus_groups()):
        lattice = structure.subgroup_lattice(G)
        ids = {e.images: k for k, e in enumerate(G.elements())}
        maximal = [lattice.id_set(i) for i in lattice.maximal_indices()]
        for f in structure.chief_series(G):
            if not f.is_abelian:
                continue
            below = {ids[y.images] for y in f.below.gens}
            above = {ids[x.images] for x in f.above.gens}
            oracle = all(above <= M for M in maximal if below <= M)
            assert f.is_frattini == oracle, (G, f)
            assert f.has_complement() == (not oracle), (G, f)
            checked += 1
    assert checked >= 90


def test_abelian_factors_are_decided_in_g(monkeypatch):
    # the Frattini flag and the module of an abelian factor build no
    # quotient group and sweep no elements of X
    def no_quotient(*args, **kwargs):
        raise AssertionError("an abelian chief factor built a quotient")

    swept = []
    real_elements = PermGroup.elements

    def elements(self, *args, **kwargs):
        swept.append(self)
        return real_elements(self, *args, **kwargs)

    monkeypatch.setattr(structure, "quotient", no_quotient, raising=False)
    for text in ("S4", "EX1(2)", "WREATH(1)"):
        G = builder.build(text)
        abelian = [f for f in structure.chief_series(G) if f.is_abelian]
        assert abelian, text
        # the series may sweep a candidate X to break a tie; only sweeps
        # made by the flag and the module count here
        monkeypatch.setattr(PermGroup, "elements", elements)
        for f in abelian:
            assert f.is_frattini in (True, False)
            assert f.module.dim == f.dim, (text, f)
            assert not any(H is f.above for H in swept), (text, f)
        monkeypatch.setattr(PermGroup, "elements", real_elements)


def test_cocycle_system_checks_the_matrices():
    # a C2 generator cannot act with multiplicative order four; the edge
    # check raises before any relator needs coordinates
    with pytest.raises(GroupError):
        structure.cocycle_system(_cyclic(2), PermGroup(2, ()),
                                 [np.array([[2]])], 5,
                                 lambda e: np.zeros(1, dtype=np.int64))


def test_gequivalent(delta):
    # central factors of an elementary abelian group are all equivalent
    E = _elementary(2, 3)
    series = structure.chief_series(E)
    assert len(series) == 3
    assert structure.gequivalent_abelian(series[0], series[1])
    assert delta(E, series[0], series) == 3
    # different primes are never equivalent
    c6 = structure.chief_series(_cyclic(6))
    assert not structure.gequivalent_abelian(c6[0], c6[1])
    # same prime and dimension, different centralizers: the natural and the
    # central C3 inside S3 x C3
    G = PermGroup(6, [Perm.from_cycles(6, [(0, 1, 2)]),
                     Perm.from_cycles(6, [(0, 1)]),
                     Perm.from_cycles(6, [(3, 4, 5)])])
    series = structure.chief_series(G)
    threes = [f for f in series if f.order == 3]
    assert len(threes) == 2
    assert not structure.gequivalent_abelian(threes[0], threes[1])
    assert delta(G, threes[0], series) == 1


def test_gequivalent_across_generator_lists():
    # the same S3 given by its generators in the opposite order: each
    # factor is the same module, whatever generators the groups list
    G1 = builder.build("S3")
    G2 = PermGroup(3, tuple(reversed(G1.gens)))
    s1, s2 = structure.chief_series(G1), structure.chief_series(G2)
    for order in (2, 3):
        f1, = [f for f in s1 if f.order == order]
        f2, = [f for f in s2 if f.order == order]
        assert structure.gequivalent_abelian(f1, f2)
        assert structure.gequivalent_abelian(f2, f1)
    three, = [f for f in s1 if f.order == 3]
    two, = [f for f in s2 if f.order == 2]
    assert not structure.gequivalent_abelian(three, two)
    # S3 x C3 with its generators in two orders: the natural C3 is not the
    # central one in either
    gens = [Perm.from_cycles(6, [(0, 1, 2)]), Perm.from_cycles(6, [(0, 1)]),
            Perm.from_cycles(6, [(3, 4, 5)])]
    H1, H2 = PermGroup(6, gens), PermGroup(6, gens[::-1])
    t1 = [f for f in structure.chief_series(H1) if f.order == 3]
    t2 = [f for f in structure.chief_series(H2) if f.order == 3]
    matches = [[structure.gequivalent_abelian(a, b) for b in t2] for a in t1]
    assert sorted(map(sorted, matches)) == [[False, True], [False, True]]


def test_delta_skips_frattini_factors(delta):
    # both factors of C4 carry the trivial GF(2) module, but the bottom
    # one lies in the Frattini subgroup and must not be counted
    C4 = _cyclic(4)
    series = structure.chief_series(C4)
    assert [f.is_frattini for f in series] == [True, False]
    assert structure.gequivalent_abelian(series[0], series[1])
    for f in series:
        assert delta(C4, f, series) == 1
    # series argument is optional
    assert delta(C4, series[1]) == 1


def test_gequivalence_is_reflexive_and_symmetric():
    for G in [_sym(4), _cyclic(12), _elementary(3, 2)]:
        series = structure.chief_series(G)
        abelian = [f for f in series if f.is_abelian]
        for f in abelian:
            assert structure.gequivalent_abelian(f, f)
        for f1 in abelian:
            for f2 in abelian:
                assert (structure.gequivalent_abelian(f1, f2)
                        == structure.gequivalent_abelian(f2, f1))


def test_is_elementary_abelian():
    assert structure.is_elementary_abelian(_klein())
    assert structure.is_elementary_abelian(_elementary(3, 2))
    assert structure.is_elementary_abelian(_cyclic(5))
    assert not structure.is_elementary_abelian(_cyclic(4))
    assert not structure.is_elementary_abelian(_sym(3))


def test_is_simple():
    assert structure.is_simple(_alt(5))
    assert structure.is_simple(_cyclic(5))
    assert structure.is_simple(_cyclic(2))
    assert not structure.is_simple(_sym(3))
    assert not structure.is_simple(_cyclic(4))
    assert not structure.is_simple(_alt(4))
    assert not structure.is_simple(PermGroup(3, ()))
    assert not structure.is_elementary_abelian(PermGroup(2, []))
