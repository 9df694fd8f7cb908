"""Crown power, Eulerian, automorphism and cohomology tests.

Each computed quantity is checked against an independent oracle: Eulerian
counts against brute-force tuple enumeration and, for soluble groups,
Gaschuetz's product against P. Hall's Moebius sum over the lattice,
automorphism counts against full multiplication-table verification of
candidate maps, and H^1 dimensions against complement counting in an
explicitly built semidirect product.
"""

import gc
import hashlib
import itertools
import pathlib
import random
import weakref

import numpy as np
import pytest

from groupgen import builder, crowns, genset, gfp, perm, report, structure
from groupgen.perm import (CapExceeded, GroupError, Limits, Perm, PermGroup,
                           TimeBudgetExceeded, quotient)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# sha256 prefix of [(r, s, t, delta, h, end_dim), ...] over the factors
# `factor_invariants` lists for each quick-corpus group, as the walk over
# the cosets of C_G(M) gave them
INVARIANT_DIGESTS = {
    'C2': 'f6b63f6ba5a04271',
    'C3': 'f6b63f6ba5a04271',
    'C4': 'f6b63f6ba5a04271',
    'C6': '1f6f48de4663695c',
    'C12': '1f6f48de4663695c',
    'C15': '1f6f48de4663695c',
    'K4': '9e350cf3128ca997',
    'D(C2, C2, C2)': 'f51d168fe2ecb63c',
    'D(C4, C2)': '9e350cf3128ca997',
    'D(C3, C3)': '9e350cf3128ca997',
    'S3': '315f161ad222cb46',
    'Dih4': '9e350cf3128ca997',
    'Dih5': '315f161ad222cb46',
    'Dih6': '27d0908167a3a2ee',
    'A4': '796bb0bbe346ba41',
    'S4': '2045c20394dc931a',
    'EX1(1)': '27d0908167a3a2ee',
    'EX1(2)': 'ce57678de04ccd46',
    'EX1(3)': 'd5d9d25f24a1fe3a',
    'EX2B(1)': '27d0908167a3a2ee',
    'EX2B(2)': '15420baecd1e520f',
    'D(S3, C3)': '30c90c34bd1facb4',
    'W(C2, 3)': 'c9b084cb1360f1da',
    'W(C3, 2)': '30c90c34bd1facb4',
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': '796bb0bbe346ba41',
    'SD(C5, C4, [g1 -> [g1*g1]])': '315f161ad222cb46',
    'Q(S4; g1*g2)': 'f6b63f6ba5a04271',
    'SUB(S4; g1*g1, g2)': '9e350cf3128ca997',
    'CROWN(S3, 2)': '3650f1f6530454f3',
    'CROWN(S3, 3)': 'f936a2788dbf4d44',
    'CROWN(S4, 2)': 'a974458c787db938',
    'A5': '4f53cda18c2baa0c',
    'PSL2(5)': '4f53cda18c2baa0c',
    'S5': 'f6b63f6ba5a04271',
}


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


def _trivial_module(G, p, dim=1):
    """The module GF(p)^dim with every generator acting as the identity."""
    return crowns.GfpModule(G, p, [gfp.identity(dim) for _ in G.gens])


def _product_with_c2(G):
    degree = G.degree + 2
    gens = [g.extended(degree) for g in G.gens]
    gens.append(Perm.from_cycles(degree, [(G.degree, G.degree + 1)]))
    return PermGroup(degree, gens)


# ---------------------------------------------------------------- oracles


def _brute_eulerian(G, m):
    """Count generating m-tuples by trying every one of them."""
    elems = G.elements()
    n = G.order()
    count = 0
    for tup in itertools.product(elems, repeat=m):
        if PermGroup(G.degree, tup).order() == n:
            count += 1
    return count


def _moebius_eulerian(G, m, limits=perm.DEFAULT_LIMITS):
    """P. Hall's sum over the subgroup lattice, whatever G is."""
    lat = structure.subgroup_lattice(G, limits=limits)
    mu = lat.moebius()
    return sum(mu[i] * len(lat.id_set(i)) ** m for i in range(len(lat)))


def _soluble_quick_groups():
    groups = [builder.build(text)
              for path in report.corpus_files(str(CORPUS_DIR))
              for text in report.read_expressions(path)]
    return [G for G in groups if G.is_soluble()]


def _counting(calls, name, real):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapped


def _greedy_word(G):
    """A short generating sequence, first-fit over the elements in search
    order, (element order, image tuple)."""
    n = G.order()
    word = []
    current = PermGroup(G.degree, ())
    for e in sorted(G.elements(), key=lambda e: (e.order(), e.images)):
        if e.is_identity() or e in current:
            continue
        word.append(e)
        current = PermGroup(G.degree, tuple(word))
        if current.order() == n:
            return word
    raise AssertionError("group not generated by its elements")


def _brute_aut_count(G):
    """Count automorphisms by expanding candidate generator images over
    the whole group and verifying every product in the table."""
    elems = G.elements()
    n = len(elems)
    word = _greedy_word(G)
    # express each element as a word in the generating sequence
    expr = {G.identity(): ()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for i, w in enumerate(word):
                y = x * w
                if y not in expr:
                    expr[y] = expr[x] + (i,)
                    nxt.append(y)
        frontier = nxt
    assert len(expr) == n
    pools = [[x for x in elems if x.order() == w.order()] for w in word]
    prod = {(a, b): a * b for a in elems for b in elems}
    count = 0
    for images in itertools.product(*pools):
        f = {}
        for e, w in expr.items():
            val = G.identity()
            for i in w:
                val = val * images[i]
            f[e] = val
        if len(set(f.values())) != n:
            continue
        if all(f[prod[a, b]] == f[a] * f[b] for a in elems for b in elems):
            count += 1
    return count


def _semidirect(G, mats, p):
    """M x| G as a permutation group on p^n module points plus G's points,
    together with the translation subgroup."""
    n = mats[0].shape[0]
    vecs = [tuple(int(c) for c in v) for v in gfp.all_vectors(n, p)]
    index = {v: i for i, v in enumerate(vecs)}
    points = len(vecs)
    total = points + G.degree
    gens = []
    trans = []
    for j in range(n):
        images = tuple(index[v[:j] + ((v[j] + 1) % p,) + v[j + 1:]]
                       for v in vecs)
        t = Perm(images + tuple(range(points, total)))
        gens.append(t)
        trans.append(t)
    arr = np.array(vecs, dtype=np.int64)
    for g, mat in zip(G.gens, mats):
        moved = (arr @ mat) % p
        images = tuple(index[tuple(int(c) for c in row)] for row in moved)
        gens.append(Perm(images + tuple(points + x for x in g.images)))
    S = PermGroup(total, tuple(gens))
    assert S.order() == p ** n * G.order()
    return S, PermGroup(total, tuple(trans))


def _brute_h1(G, mats, p):
    """dim H^1 from the subgroup lattice of the semidirect product: the
    complements of the module correspond to the cocycles, and the inner
    ones are a coset space of size |M| / |fixed points|."""
    n = mats[0].shape[0]
    S, M = _semidirect(G, mats, p)
    lat = structure.subgroup_lattice(S)
    ids = {e.images: k for k, e in enumerate(S.elements())}
    m_ids = frozenset(ids[e.images] for e in M.elements())
    ident = ids[S.identity().images]
    comp = sum(1 for i in range(len(lat))
               if len(lat.id_set(i)) == G.order()
               and lat.id_set(i) & m_ids == {ident})
    z_dim = 0
    while p ** z_dim < comp:
        z_dim += 1
    assert p ** z_dim == comp, "complement count is not a power of p"
    fixed = sum(1 for v in gfp.all_vectors(n, p)
                if all(np.array_equal((v @ mat) % p, v) for mat in mats))
    f_dim = 0
    while p ** f_dim < fixed:
        f_dim += 1
    assert p ** f_dim == fixed
    return z_dim - (n - f_dim)


def _module(G, mats, p):
    return crowns.GfpModule(G, p, [np.array(m, dtype=np.int64) for m in mats])


def _s3_natural():
    """S3 with its one-dimensional GF(3) module: rotations fix, flips invert."""
    S3 = _sym(3)
    return S3, crowns.GfpModule(S3, 3, [[[1]], [[2]]])


# ----------------------------------------------------------------- tests


def test_eulerian_matches_brute_force():
    zoo = [_cyclic(2), _cyclic(3), _cyclic(4), _cyclic(6), _klein(),
           _sym(3), _dihedral4(), _c2xc4(), _alt(4), _sym(4)]
    for G in zoo:
        for m in (1, 2):
            assert crowns.eulerian(G, m) == _brute_eulerian(G, m), G


def test_eulerian_pinned_values():
    for m in range(6):
        assert crowns.eulerian(_cyclic(2), m) == 2 ** m - 1
    assert crowns.eulerian(_sym(3), 2) == 18
    assert crowns.eulerian(_alt(5), 2) == 2280
    assert crowns.eulerian(_alt(5), 2) == _brute_eulerian(_alt(5), 2)
    # the trivial group is generated by every tuple, including the empty one
    assert crowns.eulerian(PermGroup(2, ()), 0) == 1
    assert crowns.eulerian(_cyclic(3), 0) == 0


def test_gaschuetz_product_matches_the_moebius_sum():
    groups = _soluble_quick_groups() + [PermGroup(2, ())]
    assert len(groups) == 32
    for G in groups:
        for k in range(4):
            assert crowns.eulerian(G, k) == _moebius_eulerian(G, k), (G, k)


@pytest.mark.slow
@pytest.mark.parametrize("text", ["D(C2, K4, S4)", "D(Dih4, Dih4, C4)"])
def test_gaschuetz_product_matches_the_moebius_sum_over_the_lattice_cap(text):
    G = builder.build(text)
    limits = Limits(lattice_cap=20000)
    for k in range(5):
        assert crowns.eulerian(G, k) == _moebius_eulerian(G, k, limits), k


def test_gaschuetz_product_pins_both_module_kinds():
    # S3's C3 factor is a nontrivial module, so c_A carries |A| = 3; C2^3
    # has three equivalent trivial factors, with i_A = 0, 1 and 2
    S3, E = _sym(3), _elementary(2, 3)
    assert [rec.trivial for rec in crowns._factor_records(S3, Limits())] \
        == [False, True]
    assert [rec.twins for rec in crowns._factor_records(E, Limits())] \
        == [0, 1, 2]
    for k in range(6):
        assert crowns.eulerian(S3, k) == (3 ** k - 3) * (2 ** k - 1)
        assert crowns.eulerian(E, k) == \
            (2 ** k - 1) * (2 ** k - 2) * (2 ** k - 4)


def test_soluble_eulerian_builds_no_lattice(monkeypatch):
    calls = []
    for module in (structure, crowns):
        monkeypatch.setattr(module, "subgroup_lattice",
                            _counting(calls, "lattice",
                                      structure.subgroup_lattice))
    for text in ("S4", "CROWN(S3, 3)", "D(C2, K4, S4)"):
        assert crowns.eulerian(builder.build(text), 2) >= 0
    assert calls == []
    # the counter does see the Moebius route
    crowns.eulerian(_alt(5), 2)
    assert calls


def test_factor_invariants_are_computed_once_per_group(monkeypatch):
    G = _sym(4)
    first = crowns.factor_invariants(G)
    calls = []
    monkeypatch.setattr(crowns, "chief_series",
                        _counting(calls, "chief_series",
                                  structure.chief_series))
    again = crowns.factor_invariants(G)
    assert crowns.soluble_d(G) == 2
    crowns.eulerian(G, 2)
    assert calls == []
    assert [inv for _, inv in again] == [inv for _, inv in first]
    assert [(f.below, f.above, f.group) for f, _ in again] == \
        [(f.below, f.above, G) for f, _ in first]


def test_factor_memo_dies_with_its_group_without_the_cycle_collector():
    # the memo keeps subgroups and invariants, no ChiefFactor or module
    # referring back to G, so reference counting alone frees the group
    G = _sym(4)
    crowns.eulerian(G, 2)
    pairs = crowns.factor_invariants(G)
    ref = weakref.ref(G.element_table())
    gc.disable()
    try:
        del G, pairs
        assert ref() is None
    finally:
        gc.enable()


def test_least_k_with_generating_tuples_is_d():
    for G in _soluble_quick_groups():
        k = 0
        while crowns.eulerian(G, k) == 0:
            k += 1
        assert k == genset.d(genset.Analysis(G)), G


def test_aut_order_matches_table_oracle():
    # the first image of Dih5 runs over one class of five reflections, and
    # that of C3 x C3 over eight one-element classes of order 3.  C2^3 and
    # C2 x C4 take three-element words: every map of C2^3's extends, so
    # only the injectivity test rejects there, while C2 x C4's walk rejects
    # the maps of its third element, whose square lies in the span of the
    # first two, that break that relation
    for G in [_cyclic(2), _cyclic(3), _cyclic(6), _klein(), _sym(3),
              _dihedral4(), _alt(4), _sym(4), builder.build("Dih5"),
              builder.build("D(C3, C3)"), _elementary(2, 3),
              builder.build("D(C2, C4)")]:
        assert crowns.aut_order(G) == _brute_aut_count(G), G


def test_aut_order_pinned_values():
    assert crowns.aut_order(_cyclic(2)) == 1
    assert crowns.aut_order(_sym(3)) == 6
    assert crowns.aut_order(_klein()) == 6
    assert crowns.aut_order(_elementary(2, 3)) == 168
    assert crowns.aut_order(_alt(5)) == 120
    assert crowns.aut_order(_sym(4)) == 24
    assert crowns.aut_order(builder.build("D(C3, C3)")) == 48  # GL(2, 3)
    assert crowns.aut_order(builder.build("PSL2(7)")) == 336   # PGL(2, 7)
    assert crowns.aut_order(builder.build("PGL2(7)")) == 336   # complete
    assert crowns.aut_order(builder.build("A6")) == 1440       # PGammaL(2, 9)
    assert crowns.aut_order(builder.build("D(S3, S3)")) == 72  # S3 wr C2


def test_aut_order_of_s5():
    assert crowns.aut_order(_sym(5)) == 120


def test_aut_order_builds_no_chain(monkeypatch):
    # the generating word, the extension test and the generation test all
    # walk element-id rows: with A5's chain, table, order map and classes
    # in place, counting |Aut(A5)| builds no stabilizer chain
    built = []

    def counting(degree, gens, _real=perm.build_chain):
        built.append(degree)
        return _real(degree, gens)

    A5 = _alt(5)
    A5.element_orders()
    A5.conjugacy_classes()
    monkeypatch.setattr(perm, "build_chain", counting)
    assert crowns.aut_order(A5) == 120
    assert built == []
    assert "build_chain" not in vars(crowns)


def test_aut_order_checks_the_budget():
    with pytest.raises(TimeBudgetExceeded):
        crowns.aut_order(_alt(5), limits=Limits(seconds=0.0))
    calls = []

    class CountingLimits(Limits):
        def check(self):
            calls.append(None)
            super().check()

    # with the order map and the classes memoized, every check comes from
    # the candidate loop that follows the class sweep
    A5 = _alt(5)
    A5.element_orders()
    classes = A5.conjugacy_classes()
    assert crowns.aut_order(A5, limits=CountingLimits()) == 120
    assert len(classes) == 5
    assert len(calls) > len(classes)


def test_aut_order_a5_against_s5_conjugation():
    # every automorphism of A5 comes from conjugation inside S5, so the
    # distinct images of a fixed generating pair under S5 must number 120
    A5 = _alt(5)
    S5 = _sym(5)
    a, b = A5.gens[0], A5.gens[1]
    seen = {(a.conj(s).images, b.conj(s).images) for s in S5.elements()}
    assert len(seen) == 120
    assert crowns.aut_order(A5) == len(seen)


def test_aut_order_cap():
    with pytest.raises(CapExceeded):
        crowns.aut_order(_elementary(2, 12))


def test_crown_power_orders():
    S3 = _sym(3)
    C3 = PermGroup(3, (Perm.from_cycles(3, [(0, 1, 2)]),))
    one = crowns.crown_power(S3, C3, 1)
    assert one.order() == 6 and one.degree == 3
    two = crowns.crown_power(S3, C3, 2)
    assert two.order() == 18 and two.degree == 6
    for k in (3, 4):
        assert crowns.crown_power(S3, C3, k).order() == 3 ** (k - 1) * 6
    A5 = _alt(5)
    sq = crowns.crown_power(A5, A5, 2)
    assert sq.order() == 3600 and sq.degree == 10


def test_crown_power_congruence():
    # every element of the crown power must have all coordinates in one
    # socle coset, and every (socle, diagonal) combination must occur
    S3 = _sym(3)
    C3 = PermGroup(3, (Perm.from_cycles(3, [(0, 1, 2)]),))
    two = crowns.crown_power(S3, C3, 2)
    c3_set = frozenset(e.images for e in C3.elements())
    for e in two.elements():
        left = Perm(e.images[:3])
        right = Perm(tuple(x - 3 for x in e.images[3:]))
        assert (left * right.inverse()).images in c3_set
    assert len({e.images for e in two.elements()}) == 18


def test_crown_power_rejects_bad_socle():
    S3 = _sym(3)
    C6 = _cyclic(6)
    with pytest.raises(GroupError):
        crowns.crown_power(S3, S3, 2)  # the socle of S3 is C3, not S3
    with pytest.raises(GroupError):
        crowns.crown_power(C6, PermGroup(6, (Perm.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),)), 2)
    with pytest.raises(GroupError):
        crowns.crown_power(S3, PermGroup(3, (Perm.from_cycles(3, [(0, 1, 2)]),)), 0)


def test_crown_generation_threshold_a5():
    A5 = _alt(5)
    # 2280 generating pairs, 120 automorphisms: threshold 19
    for k in (1, 2, 19):
        assert crowns.crown_generation_check(A5, A5, 2, k)
    assert not crowns.crown_generation_check(A5, A5, 2, 20)
    # one generator never suffices for a non-abelian group
    assert not crowns.crown_generation_check(A5, A5, 1, 1)
    # three generators push the threshold far beyond small k
    assert crowns.crown_generation_check(A5, A5, 3, 100)


def test_crown_generation_check_rejects_unsupported():
    S3 = _sym(3)
    C3 = PermGroup(3, (Perm.from_cycles(3, [(0, 1, 2)]),))
    with pytest.raises(GroupError):
        crowns.crown_generation_check(S3, C3, 2, 1)  # L != A
    with pytest.raises(GroupError):
        crowns.crown_generation_check(C3, C3, 2, 1)  # abelian socle
    with pytest.raises(GroupError):
        crowns.crown_generation_check(_sym(4), _sym(4), 2, 1)  # not simple


def test_monolithic_of_s4_klein():
    S4 = _sym(4)
    series = structure.chief_series(S4)
    klein = next(f for f in series if f.order == 4)
    L = crowns.monolithic_of(S4, klein)
    assert L.degree == 4 and L.order() == 24
    # monolithic primitive: the unique minimal normal subgroup lies
    # outside the Frattini subgroup, which is normal, so that is trivial
    assert structure.unique_minimal_normal(L) is not None
    assert structure.frattini(L).order() == 1
    assert genset.Analysis(L).socle.order() == 4


def test_monolithic_of_trivial_action_collapses():
    C6 = _cyclic(6)
    series = structure.chief_series(C6)
    two = next(f for f in series if f.order == 2)
    L = crowns.monolithic_of(C6, two)
    assert L.order() == 2 and L.degree == 2


def test_monolithic_of_s3_natural():
    S3 = _sym(3)
    series = structure.chief_series(S3)
    L = crowns.monolithic_of(S3, series[0])
    assert L.degree == 3 and L.order() == 6
    assert not L.is_abelian()


def test_monolithic_of_nonabelian_factor():
    G = _product_with_c2(_alt(5))
    series = structure.chief_series(G)
    big = next(f for f in series if not f.is_abelian)
    L = crowns.monolithic_of(G, big)
    assert L.order() == 60
    assert structure.is_simple(L)


def test_monolithic_of_rejects_frattini_factor():
    C4 = _cyclic(4)
    series = structure.chief_series(C4)
    assert series[0].is_frattini
    with pytest.raises(GroupError):
        crowns.monolithic_of(C4, series[0])


def test_h1_matches_complement_oracle():
    A4 = _alt(4)
    klein_module = crowns.module_of_factor(structure.chief_series(A4)[0])
    cases = [
        (_cyclic(2), _module(_cyclic(2), [[[2]]], 3)),
        (_cyclic(2), _module(_cyclic(2), [[[1]]], 2)),
        (_cyclic(3), _module(_cyclic(3), [[[1]]], 2)),
        (_cyclic(4), _module(_cyclic(4), [[[1]]], 2)),
        (_klein(), _module(_klein(), [[[1]], [[1]]], 2)),
        (_sym(3), _module(_sym(3), [[[1]], [[2]]], 3)),
        (_sym(3), _module(_sym(3), [[[1]], [[1]]], 2)),
        (_dihedral4(), _module(_dihedral4(), [[[1]], [[1]]], 2)),
        (A4, klein_module),
    ]
    for G, M in cases:
        assert crowns.h1_dimension(G, M) == _brute_h1(G, M.matrices, M.prime), G


def test_h1_pinned_values():
    G, M = _s3_natural()
    assert crowns.h1_dimension(G, M) == 1
    assert crowns.h1_dimension(_cyclic(2), _module(_cyclic(2), [[[2]]], 3)) == 0
    assert crowns.h1_dimension(_cyclic(2), _module(_cyclic(2), [[[1]]], 2)) == 1
    assert crowns.h1_dimension(_cyclic(3), _module(_cyclic(3), [[[1]]], 2)) == 0


def test_h1_trivial_module_counts_abelianization():
    # with trivial action H^1 is Hom(G, GF(p)), whose dimension is the
    # p-rank of the abelianization
    cases = [(_sym(4), 2, 1), (_sym(4), 3, 0), (_alt(4), 3, 1),
             (_elementary(2, 3), 2, 3), (_cyclic(12), 2, 1),
             (_cyclic(12), 3, 1), (_klein(), 2, 2), (_alt(5), 2, 0)]
    for G, p, expected in cases:
        assert crowns.h1_dimension(G, _trivial_module(G, p)) == expected


def test_h1_checks_the_module_against_the_group():
    # the natural GF(2) module of S3 handed to h1 with D(C3, C2): its
    # matrices sit on S3's generators, so _check_generators refuses it
    # before any walk
    S3 = builder.build("S3")
    M = _module(S3, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]], 2)
    G = builder.build("D(C3, C2)")
    with pytest.raises(GroupError, match="act on other generators"):
        crowns.h1_dimension(G, M)


def test_module_walk_checks_the_matrices_against_the_relations():
    # D(C3, C2)'s two generators commute while the 3-cycle's and the
    # transposition's matrices of S3's natural GF(2) module do not, so the
    # walk over D(C3, C2)'s Cayley graph refuses them
    G = builder.build("D(C3, C2)")
    assert len(G.gens) == 2 and G.gens[0] * G.gens[1] == G.gens[1] * G.gens[0]
    with pytest.raises(GroupError,
                       match="inconsistent with the group's relations"):
        _module(G, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]], 2)


def test_h1_refuses_a_module_with_another_generator_count():
    # a module of C2, one matrix, for S3's two generators
    with pytest.raises(GroupError, match="one matrix per group generator"):
        crowns.h1_dimension(_sym(3), _module(_cyclic(2), [[[1]]], 2))


def test_module_on_other_generators_is_refused():
    # the GF(3) sign module of S3 x C2 on (t, r, s); on the same group
    # listing (s, r, t) the matrices would be read as the sign of the C2
    # factor, so both calls refuse it rather than answer for that module
    t, r, s = (Perm.from_cycles(5, [c]) for c in [(0, 1), (0, 1, 2), (3, 4)])
    G1, G2 = PermGroup(5, (t, r, s)), PermGroup(5, (s, r, t))
    assert G1.same_group_as(G2)
    M = _module(G1, [[[2]], [[1]], [[1]]], 3)
    inv = crowns.module_invariants(G1, M)
    assert (inv.s, inv.delta, inv.h) == (1, 1, 2)
    assert crowns.h1_dimension(G1, M) == 1
    # another object listing the same generators is the same group
    assert crowns.h1_dimension(PermGroup(5, (t, r, s)), M) == 1
    for call in (crowns.module_invariants, crowns.h1_dimension):
        with pytest.raises(GroupError, match="other generators"):
            call(G2, M)


def test_h1_cap():
    big = _elementary(2, 12)
    with pytest.raises(CapExceeded):
        crowns.h1_dimension(big, _trivial_module(big, 2))


def test_gfp_module_rejects_inconsistent_matrices():
    # 2 has multiplicative order four mod 5, so it cannot act for a
    # generator of order 2 or 31, nor for the trivial group's identity
    for G in (_cyclic(2), _cyclic(31), PermGroup(1, (Perm.identity(1),))):
        with pytest.raises(GroupError, match="inconsistent"):
            _module(G, [[[2]]], 5)


def test_gfp_module_rejects_a_modulus_that_is_not_a_prime():
    G = _cyclic(2)
    for bad in (4, 1, 0, -3, 3.5, 3.0, "3", True, None):
        with pytest.raises(GroupError, match="prime"):
            crowns.GfpModule(G, bad, [[[1]]])


def test_gfp_module_refuses_a_prime_that_overflows_int64():
    # S3's sign module: entries below p, so one product of two of them
    # passes 2^63 from p = 4294967311 on, and the walk would see garbage
    S3 = _sym(3)
    p = 4294967311
    with pytest.raises(GroupError, match=r"dim \* \(p - 1\)\^2 < 2\^63"):
        crowns.GfpModule(S3, p, [[[1]], [[p - 1]]])
    with pytest.raises(GroupError, match=r"2\^63"):
        crowns.GfpModule(S3, 2 ** 61 - 1, [[[1]], [[1]]])
    # the largest prime with (p - 1)^2 < 2^63 still works
    p = 3037000493
    M = crowns.GfpModule(S3, p, [[[1]], [[p - 1]]])
    assert M.centralizer_kernel().order() == 3
    assert crowns.h1_dimension(S3, M) == 0


def test_gfp_module_refuses_a_group_above_the_element_cap():
    S9 = _sym(9)
    assert S9.order() > perm.ELEMENT_CAP
    with pytest.raises(CapExceeded):
        _module(S9, [[[1]], [[1]]], 2)


def test_gfp_module_refuses_a_group_above_the_cohomology_cap_before_its_table(
        monkeypatch):
    tables = []
    real = PermGroup.element_table

    def counting(self, *args, **kwargs):
        tables.append(self.order())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "element_table", counting)
    with pytest.raises(CapExceeded, match="cohomology cap"):
        _trivial_module(_cyclic(1000), 2)
    assert tables == []


def test_gfp_module_checks_the_budget():
    with pytest.raises(TimeBudgetExceeded):
        crowns.GfpModule(_sym(3), 3, [[[1]], [[2]]],
                         limits=Limits(seconds=0.0))


def test_each_module_walks_once(monkeypatch):
    # the module's one walk checks it and keeps the derivation system, so
    # module_invariants and h1_dimension walk nothing more
    walks, modules = [], []
    real_walk, real_init = crowns._walk, crowns.GfpModule.__init__

    def walk(*args, **kwargs):
        walks.append(1)
        return real_walk(*args, **kwargs)

    def init(self, *args, **kwargs):
        modules.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(crowns, "_walk", walk)
    monkeypatch.setattr(crowns.GfpModule, "__init__", init)
    assert crowns.factor_invariants(builder.build("EX1(2)"))
    assert len(walks) == len(modules) == 4
    G, M = _s3_natural()
    assert len(walks) == 5
    assert crowns.h1_dimension(G, M) == 1
    assert crowns.module_invariants(G, M).s == 1
    assert len(walks) == 5


def test_gfp_module_kernel():
    G, M = _s3_natural()
    K = M.centralizer_kernel()
    assert K.order() == 3  # the rotations act trivially
    triv = _module(G, [[[1]], [[1]]], 5)
    assert triv.centralizer_kernel().order() == 6


def test_gfp_module_irreducibility():
    G, M = _s3_natural()
    assert M.is_irreducible()
    S4 = _sym(4)
    series = structure.chief_series(S4)
    klein = next(f for f in series if f.order == 4)
    assert crowns.module_of_factor(klein).is_irreducible()
    # a diagonal 2-dimensional trivial action is reducible
    red = crowns.GfpModule(_cyclic(2), 2, [np.eye(2, dtype=np.int64)])
    assert not red.is_irreducible()


def test_module_invariants_s3_natural():
    G, M = _s3_natural()
    inv = crowns.module_invariants(G, M)
    assert (inv.r, inv.s, inv.t, inv.delta, inv.h) == (1, 1, 0, 1, 2)
    assert inv.end_dim == 1
    assert crowns.soluble_d(G) == 2 == genset.d(genset.Analysis(G))


def test_module_invariants_crown_of_s3():
    S3 = _sym(3)
    C3 = PermGroup(3, (Perm.from_cycles(3, [(0, 1, 2)]),))
    G = crowns.crown_power(S3, C3, 2)
    pairs = crowns.factor_invariants(G)
    threes = [inv for f, inv in pairs if f.order == 3]
    assert len(threes) == 2
    for inv in threes:
        assert (inv.r, inv.s, inv.t, inv.delta, inv.h) == (1, 2, 0, 2, 3)
    assert crowns.soluble_d(G) == 3 == genset.d(genset.Analysis(G))


def test_module_invariants_trivial_modules():
    E = _elementary(2, 3)
    pairs = crowns.factor_invariants(E)
    assert len(pairs) == 3
    for _, inv in pairs:
        assert inv.delta == 3 and inv.h == 3 and inv.t == 0 and inv.s == 3
    C4 = _cyclic(4)
    pairs = crowns.factor_invariants(C4)
    assert len(pairs) == 1  # the bottom factor is Frattini
    (_, inv), = pairs
    assert inv.delta == 1 and inv.h == 1 and inv.s == 1


def test_module_invariant_identities(delta):
    zoo = [_cyclic(4), _cyclic(6), _cyclic(8), _cyclic(12), _sym(3),
           _sym(4), _klein(), _dihedral4(), _c2xc4(), _alt(4),
           _elementary(3, 2), _product_with_c2(_sym(3))]
    for G in zoo:
        series = structure.chief_series(G)
        for f, inv in crowns.factor_invariants(G):
            assert inv.s == inv.t + inv.delta, (G, f)
            assert inv.t < inv.r, (G, f)
            assert inv.h <= inv.delta + 1, (G, f)
            assert inv.r * inv.end_dim == f.dim, (G, f)
            assert inv.delta == delta(G, f, series), (G, f)


def test_t_matches_h1_of_the_quotient_by_the_kernel():
    # t on a route that builds Q = G/C_G(M) and M as a module of Q
    checked = 0
    for path in report.corpus_files(str(CORPUS_DIR), slow=False):
        for text in report.read_expressions(path):
            G = builder.build(text)
            for f, inv in crowns.factor_invariants(G):
                M = crowns.module_of_factor(f)
                Q = quotient(G, M.centralizer_kernel())
                MQ = crowns.GfpModule(Q, M.prime, M.matrices)
                # M is a faithful module of G/C_G(M)
                assert MQ.centralizer_kernel().order() == 1, (text, f)
                assert inv.t * inv.end_dim == crowns.h1_dimension(Q, MQ), \
                    (text, f)
                checked += 1
    assert checked >= 50


def test_invariant_digests_cover_the_quick_corpus():
    texts = [text for path in report.corpus_files(str(CORPUS_DIR))
             for text in report.read_expressions(path)]
    assert texts == list(INVARIANT_DIGESTS)


@pytest.mark.parametrize("text", list(INVARIANT_DIGESTS))
def test_invariant_digest(text):
    invs = [(inv.r, inv.s, inv.t, inv.delta, inv.h, inv.end_dim)
            for _, inv in crowns.factor_invariants(builder.build(text))]
    digest = hashlib.sha256(repr(invs).encode()).hexdigest()[:16]
    assert digest == INVARIANT_DIGESTS[text]


def test_field_check_refuses_a_singular_nonzero_element():
    p = 3
    eye = gfp.identity(2)
    idempotent = np.array([[1, 0], [0, 0]], dtype=np.int64)
    with pytest.raises(GroupError):
        crowns._field_check([idempotent], p)
    with pytest.raises(GroupError):
        crowns._field_check([eye, idempotent], p)
    # both basis elements are invertible, but I + X and I - X are not
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(GroupError):
        crowns._field_check([eye, swap], p)
    # GF(9) as GF(3)[J] with J^2 = -1, and the scalars, are fields
    crowns._field_check([eye, np.array([[0, 2], [1, 0]], dtype=np.int64)], p)
    crowns._field_check([2 * eye], p)


def test_field_check_tests_a_one_element_basis_once(monkeypatch):
    # c * B is invertible exactly when B is, for c != 0
    calls = []
    real = gfp.is_invertible
    monkeypatch.setattr(gfp, "is_invertible",
                        lambda a, p: calls.append(a) or real(a, p))
    crowns._field_check([2 * gfp.identity(2)], 3)
    assert len(calls) == 1


def test_module_invariants_counts_equal_factors_without_solving(monkeypatch):
    # S4's Klein factor is its only 2-dim GF(2) factor: End_G(M) is the
    # one intertwiner space solved, and delta counts M's own factor by
    # its equal matrices
    G = _sym(4)
    series = structure.chief_series(G)
    klein, = [f for f in series if f.order == 4]
    M = crowns.module_of_factor(klein)
    calls = []
    real = gfp.intertwiner_space
    monkeypatch.setattr(gfp, "intertwiner_space",
                        lambda a, b, p: calls.append((a, b)) or real(a, b, p))
    inv = crowns.module_invariants(G, M, series)
    assert (inv.r, inv.delta, inv.end_dim) == (2, 1, 1)
    assert len(calls) == 1


def test_module_invariants_walks_no_cosets(monkeypatch):
    # s and t come from one walk on element ids: no coset walk, and no
    # C_G(M) built as a group
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for text in ("EX1(2)", "CROWN(S3, 2)"):
        G = builder.build(text)
        series = structure.chief_series(G)
        modules = [crowns.module_of_factor(f) for f in series
                   if f.is_abelian and not f.is_frattini]
        assert modules, text
        with monkeypatch.context() as mp:
            for module in (perm, structure):
                mp.setattr(module, "coset_walk",
                           counting(module, "coset_walk"))
            for module in (perm, structure, crowns):
                mp.setattr(module, "group_from_elements",
                           counting(module, "group_from_elements"))
            for M in modules:
                crowns.module_invariants(G, M, series)
        assert calls == [], text


def test_soluble_d_matches_search():
    zoo = [_cyclic(2), _cyclic(4), _cyclic(6), _cyclic(8), _cyclic(12),
           _sym(3), _sym(4), _klein(), _dihedral4(), _c2xc4(), _alt(4),
           _elementary(2, 3), _elementary(3, 2), _product_with_c2(_sym(3)),
           _product_with_c2(_cyclic(4))]
    for G in zoo:
        assert crowns.soluble_d(G) == genset.d(genset.Analysis(G)), G
    assert crowns.soluble_d(PermGroup(2, ())) == 0
    with pytest.raises(GroupError):
        crowns.soluble_d(_alt(5))


def test_walk_kernel_matches_factor_centralizer():
    # the Perm-level sweep over G's elements is the oracle for the kernel
    # the module's walk reads off the element ids
    checked = 0
    for path in report.corpus_files(str(CORPUS_DIR), slow=False):
        for text in report.read_expressions(path):
            G = builder.build(text)
            for f in structure.chief_series(G):
                if not f.is_abelian:
                    continue
                K = crowns.module_of_factor(f).centralizer_kernel()
                C = structure.factor_centralizer(G, f.above, f.below)
                assert K.gens == C.gens, (text, f)
                assert K.order() == C.order(), (text, f)
                checked += 1
    assert checked >= 80


def test_module_of_factor_round_trip():
    S4 = _sym(4)
    series = structure.chief_series(S4)
    klein = next(f for f in series if f.order == 4)
    M = crowns.module_of_factor(klein)
    assert M.prime == 2 and M.dim == 2
    assert M.centralizer_kernel().order() == 4
    assert not M.is_trivial_action()
