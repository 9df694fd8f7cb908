"""Lattice, Frattini, minimal normal and chief series tests.

The lattice is checked against a brute-force enumeration of all closed
subsets for groups of order at most 16, plus classical subgroup counts.
"""

import pathlib
import random

import numpy as np
import pytest

from groupgen.perm import (CapExceeded, GroupError, Limits, Perm, PermGroup,
                           TimeBudgetExceeded)
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
        lat = structure.subgroup_lattice(G)
        assert set(lat.elem_sets) == _brute_subgroup_sets(G)


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


def test_lattice_subgroups_are_closed_and_sorted():
    lat = structure.subgroup_lattice(_sym(4))
    sizes = [len(fs) for fs in lat.elem_sets]
    assert sizes == sorted(sizes)
    assert lat.elem_sets[lat.top] == _sym(4).element_set()
    rng = random.Random(3)
    for fs, H in zip(lat.elem_sets, lat.subgroups):
        assert H.order() == len(fs)
        sample = rng.sample(sorted(fs), min(4, len(fs)))
        for a in sample:
            for b in sample:
                assert tuple(b[x] for x in a) in fs
    # only one subgroup per conjugacy class is joined; the others carry
    # conjugated generators, which must still generate exactly their set
    for G in (_sym(4), _sym(5), builder.build("CROWN(S4, 2)")):
        lat = structure.subgroup_lattice(G)
        for H, fs in zip(lat.subgroups, lat.elem_sets):
            assert H.element_set() == fs
        keys = [(len(fs), sorted(fs)) for fs in lat.elem_sets]
        assert keys == sorted(keys)
        assert len(set(lat.elem_sets)) == len(lat)


def test_lattice_contains_all_two_generated_subgroups():
    rng = random.Random(17)
    for G in [_sym(4), _dihedral4(), _cyclic(12), _alt(4)]:
        lat = structure.subgroup_lattice(G)
        known = set(lat.elem_sets)
        elems = G.elements()
        for _ in range(25):
            a, b = rng.choice(elems), rng.choice(elems)
            H = PermGroup(G.degree, [a, b])
            assert H.element_set() in known


def test_lattice_closed_under_intersection():
    for G in [_sym(4), _alt(4), _cyclic(12)]:
        lat = structure.subgroup_lattice(G)
        sets = lat.elem_sets
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
    # with the elements swept, the budget still stops the search-order sort
    G.elements()
    with pytest.raises(TimeBudgetExceeded):
        G.sorted_by_search_order(limits=Limits(seconds=0.0))


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
    maxs = lat.maximal_subgroups()
    orders = sorted(M.order() for M in maxs)
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


def test_moebius_s3():
    S3 = _sym(3)
    lat = structure.subgroup_lattice(S3)
    mu = lat.moebius()
    by_order = {}
    for i, H in enumerate(lat.subgroups):
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


def test_generates():
    oracle = genset.GenOracle(_sym(4))
    a = Perm.from_cycles(4, [(0, 1, 2, 3)])
    b = Perm.from_cycles(4, [(0, 1)])
    assert oracle.generates([a.images, b.images])
    assert not oracle.generates([a.images])


def test_frattini():
    assert structure.frattini(_cyclic(4)).order() == 2
    assert structure.frattini(_sym(4)).order() == 1
    assert structure.frattini(_cyclic(9)).order() == 3
    f = structure.frattini(_c2xc4())
    assert f.order() == 2
    squares = {(g * g).images for g in _c2xc4().elements()}
    assert f.element_set() == frozenset(squares)
    z = structure.frattini(_dihedral4())
    assert z.order() == 2
    assert z.element_set() == _dihedral4().centralizer_of_subgroup(_dihedral4()).element_set()
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
    assert structure.socle(_sym(4)).same_group_as(_klein())
    assert structure.socle(_cyclic(6)).order() == 6
    assert structure.socle(_dihedral4()).order() == 2
    assert structure.socle(_alt(5)).order() == 60
    assert structure.unique_minimal_normal(_sym(4)) is not None
    assert structure.unique_minimal_normal(_cyclic(6)) is None


def test_monolithic_primitive():
    assert structure.monolithic_primitive(_sym(4))
    assert structure.monolithic_primitive(_alt(5))
    assert structure.monolithic_primitive(_cyclic(3))
    assert not structure.monolithic_primitive(_dihedral4())
    assert not structure.monolithic_primitive(_cyclic(6))
    assert not structure.monolithic_primitive(_cyclic(4))
    # the centre of SL(2, 3) is its unique minimal normal subgroup, and
    # it has no complement
    assert not structure.monolithic_primitive(_sl23())


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


def test_chief_invariants_do_not_depend_on_generators():
    rng = random.Random(29)
    for G in [_sym(4), _cyclic(12), _dihedral4(), _product_with_c2(_sym(3))]:
        base = structure.chief_series(G)
        base_stats = sorted((f.order, f.is_abelian, f.is_frattini) for f in base)
        for _ in range(3):
            gens = list(G.gens)
            rng.shuffle(gens)
            c = G.random_element(rng)
            gens = [g.conj(c) for g in gens] + [G.random_element(rng)]
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


def test_has_complement_matches_frattini_flag():
    # the lattice oracle on G itself: X/Y lies in Frat(G/Y) exactly when
    # every maximal subgroup of G that contains Y also contains X
    groups = [_sym(4), _cyclic(4), _cyclic(6), _dihedral4(), _c2xc4(),
              _alt(4), _cyclic(12), _product_with_c2(_sym(3)), _sl23()]
    checked = 0
    for G in groups + list(_corpus_groups()):
        lattice = structure.subgroup_lattice(G)
        ids = lattice.element_ids()
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
    # a C2 generator cannot act with multiplicative order four
    with pytest.raises(GroupError):
        structure.cocycle_system(_cyclic(2), PermGroup(2, ()),
                                 [np.array([[2]])], 5)


def test_gequivalent():
    # central factors of an elementary abelian group are all equivalent
    E = _elementary(2, 3)
    series = structure.chief_series(E)
    assert len(series) == 3
    assert structure.gequivalent_abelian(series[0], series[1])
    assert structure.delta(E, series[0], series) == 3
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
    assert structure.delta(G, threes[0], series) == 1


def test_delta_skips_frattini_factors():
    # both factors of C4 carry the trivial GF(2) module, but the bottom
    # one lies in the Frattini subgroup and must not be counted
    C4 = _cyclic(4)
    series = structure.chief_series(C4)
    assert [f.is_frattini for f in series] == [True, False]
    assert structure.gequivalent_abelian(series[0], series[1])
    for f in series:
        assert structure.delta(C4, f, series) == 1
    # series argument is optional
    assert structure.delta(C4, series[1]) == 1


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
