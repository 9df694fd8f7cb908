"""Core permutation and stabilizer-chain tests.

Orders and memberships are checked against a brute-force closure oracle
that never touches the chain code.
"""

import hashlib
import pathlib
import random

import numpy as np
import pytest

from groupgen import builder, genset, perm, report, structure
from groupgen.perm import (
    CapExceeded,
    DegreeMismatch,
    Homomorphism,
    Limits,
    NotInGroup,
    NotNormal,
    Perm,
    PermGroup,
    TimeBudgetExceeded,
    coset_walk,
    factorint,
    group_from_elements,
    is_prime_power,
    omega,
    quotient,
)


def _compose(a, b):
    return tuple(b[x] for x in a)


def _brute_closure(degree, gens):
    """All elements of <gens> as a set of image tuples, by plain BFS."""
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    gen_images = [g.images for g in gens]
    while queue:
        x = queue.pop(0)
        for g in gen_images:
            y = _compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _sym(n):
    cyc = Perm.from_cycles(n, [tuple(range(n))])
    swap = Perm.from_cycles(n, [(0, 1)])
    return PermGroup(n, [cyc, swap])


def _alt(n):
    gens = [Perm.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return PermGroup(n, gens)


def _cyclic(n):
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


def _dihedral(n):
    """The dihedral group of order 2n on n points."""
    rot = Perm.from_cycles(n, [tuple(range(n))])
    ref = Perm(tuple((-i) % n for i in range(n)))
    return PermGroup(n, [rot, ref])


def _klein():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                         Perm.from_cycles(4, [(0, 2), (1, 3)])])


def _dihedral4():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]),
                         Perm.from_cycles(4, [(0, 2)])])


def test_composition_is_left_to_right():
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(1, 2)])
    ab = a * b
    assert ab.images == (2, 0, 1)
    for x in range(3):
        assert ab(x) == b(a(x))


def test_product_matches_pointwise_on_random_perms():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 9)
        pa = list(range(n))
        pb = list(range(n))
        rng.shuffle(pa)
        rng.shuffle(pb)
        a, b = Perm(pa), Perm(pb)
        assert (a * b).images == tuple(pb[x] for x in pa)
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


def test_pow_and_order():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 9)
        imgs = list(range(n))
        rng.shuffle(imgs)
        p = Perm(imgs)
        acc = Perm.identity(n)
        for k in range(1, 30):
            acc = acc * p
            assert p ** k == acc
        k = 1
        q = p
        while not q.is_identity():
            q = q * p
            k += 1
        assert p.order() == k
    assert Perm.identity(5).order() == 1


def test_cycles_and_cycle_string():
    p = Perm.from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert p.cycle_string() == "(1,2)(3,4,5)"
    assert Perm.identity(4).cycle_string() == "()"
    assert Perm.from_cycles(5, [(4, 2, 3)]).cycles() == [(2, 3, 4)]
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(0, 1), (1, 2)])


def test_conj_is_right_action():
    rng = random.Random(3)
    for _ in range(20):
        imgs = list(range(6))
        rng.shuffle(imgs)
        x = Perm(imgs)
        rng.shuffle(imgs)
        g = Perm(imgs)
        rng.shuffle(imgs)
        h = Perm(imgs)
        assert x.conj(g * h) == x.conj(g).conj(h)
        assert x.conj(g) == g.inverse() * x * g


def test_order_against_brute_closure():
    cases = [
        _sym(3), _sym(4), _sym(5), _alt(4), _alt(5),
        _cyclic(6), _cyclic(8), _klein(), _dihedral4(),
        PermGroup(3, []),
    ]
    rng = random.Random(19)
    for _ in range(10):
        n = 6
        imgs = list(range(n))
        rng.shuffle(imgs)
        a = Perm(tuple(imgs))
        rng.shuffle(imgs)
        b = Perm(tuple(imgs))
        cases.append(PermGroup(n, [a, b]))
    for G in cases:
        assert G.order() == len(_brute_closure(G.degree, G.gens))


def test_membership_agrees_with_brute_closure():
    rng = random.Random(23)
    elems = _sym(5).elements()
    for _ in range(6):
        a = rng.choice(elems)
        b = rng.choice(elems)
        H = PermGroup(5, [a, b])
        brute = _brute_closure(5, H.gens)
        for images in brute:
            assert Perm(images) in H
        for _ in range(50):
            p = rng.choice(elems)
            assert (p in H) == (p.images in brute)


def test_elements_listing():
    G = _sym(4)
    elems = G.elements()
    assert len(elems) == 24
    assert list(elems) == sorted(elems)
    assert len(set(elems)) == 24
    assert all(e in G for e in elems)
    members = set(elems)
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.choice(elems), rng.choice(elems)
        assert a * b in members


CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _table_groups():
    """(name, group) for every corpus expression, the slow ones included."""
    texts = [t for path in report.corpus_files(str(CORPUS_DIR), slow=True)
             for t in report.read_expressions(str(path))]
    assert len(texts) == 42
    return [(t, builder.build(t)) for t in texts]


def test_element_table_contract():
    # rows are the elements in the order of elements(): sorted by image
    # tuple, checked against the brute closure where that is quick and,
    # for the order 112896 wreath, by strict order and sampled membership
    for name, G in _table_groups():
        table = G.element_table()
        assert table.dtype == np.uint8, name
        assert table.shape == (G.order(), G.degree), name
        rows = table.tolist()
        assert rows == [list(e.images) for e in G.elements()], name
        if G.order() <= 5000:
            brute = sorted(_brute_closure(G.degree, G.gens))
            assert [tuple(r) for r in rows] == brute, name
        else:
            assert all(a < b for a, b in zip(rows, rows[1:])), name
            assert all(Perm(r) in G for r in rows[::997]), name
        assert G.ids_of(table).tolist() == list(range(G.order())), name


def test_element_table_above_degree_256():
    # two-byte images: the sort and the id lookup must still follow the
    # image tuples; C300's one-image prefix runs past one byte
    C = _cyclic(300)
    table = C.element_table()
    assert table.dtype == np.uint16
    assert [tuple(r) for r in table.tolist()] == sorted(
        _brute_closure(300, C.gens))
    assert C.ids_of(table[::-1]).tolist() == list(range(299, -1, -1))
    D = _dihedral(300)
    classes = D.conjugacy_classes()
    # D_2n with n even: the identity, the central rotation, (n - 2) / 2
    # pairs of rotations and two classes of n / 2 reflections
    sizes = sorted(size for _, size in classes)
    assert sizes == [1, 1] + [2] * 149 + [150] * 2
    conjugators = [(_inverse_of(g), g) for g in _brute_closure(300, D.gens)]
    for rep, size in classes[::10]:
        cls = {_compose(_compose(ginv, rep.images), g)
               for ginv, g in conjugators}
        assert len(cls) == size
        assert min(cls, key=lambda x: (_order_of(x), x)) == rep.images


def test_ids_of_beyond_int64_keys():
    # C2^11 swapping the pairs (2i, 2i+1) of 22 points has base 0, 2, ...,
    # 20, so its keys read 21 images in base 22, past an int64
    G = PermGroup(22, [Perm.from_cycles(22, [(2 * i, 2 * i + 1)])
                       for i in range(11)])
    assert G.prefix_width() == 21 and 22 ** 21 > 2 ** 63
    table = G.element_table()
    assert G.ids_of(table).tolist() == list(range(2048))
    assert G.ids_of(table[::-1]).tolist() == list(range(2047, -1, -1))
    classes = G.conjugacy_classes()
    assert len(classes) == 2048 and {size for _, size in classes} == {1}
    # the trivial group's prefix is empty: every key is 0
    C1 = builder.build("C1")
    assert C1.prefix_width() == 0
    assert C1.ids_of(C1.element_table()).tolist() == [0]
    assert C1.conjugacy_classes() == ((C1.identity(), 1),)


def test_ids_of_reads_only_the_prefix():
    # every row of the small tables; every 97th of WREATH(1)'s 112896,
    # backwards so that the ids are not ascending
    for text in ("S4", "PGL2(7)", "CROWN(S3, 3)", "C300", "WREATH(1)"):
        G = builder.build(text)
        table = G.element_table()
        step = 1 if len(table) <= 5000 else 97
        rows = table[::-step]
        ids = G.ids_of(rows).tolist()
        assert ids == list(range(len(table)))[::-step], text
        for w in range(G.prefix_width(), G.degree + 1):
            assert G.ids_of(rows[:, :w]).tolist() == ids, (text, w)


def test_spent_budget_leaves_no_memo():
    for sweep in (PermGroup.elements, PermGroup.conjugacy_classes):
        G = _sym(5)
        with pytest.raises(TimeBudgetExceeded):
            sweep(G, limits=Limits(seconds=0.0))
        assert (G._table, G._elements, G._classes) == (None, None, None)


def test_element_orders_match_powering():
    # the order map against the least k with e ** k the identity, in id
    # order, and memoized on the group
    for G in (_sym(4), _alt(5), _cyclic(12), builder.build("PGL2(7)")):
        orders = G.element_orders()
        expected = []
        for e in G.elements():
            k, x = 1, e
            while not x.is_identity():
                k, x = k + 1, x * e
            expected.append(k)
        assert orders == expected
        assert G.element_orders() is orders


def test_element_table_is_keyed_once_per_group(monkeypatch):
    # ids_of keys only its argument: the keys of the whole table are
    # computed once per group and shared with conjugation_ids
    keyed = []
    real = PermGroup._keys

    def counting(self, rows):
        keyed.append(rows is self._table)
        return real(self, rows)

    monkeypatch.setattr(PermGroup, "_keys", counting)
    for text in ("S4", "A5", "PGL2(7)"):
        G = builder.build(text)
        keyed.clear()
        G.conjugacy_classes()
        structure.subgroup_lattice(G)
        for ids in ([5], [3, 0, 2]):
            assert G.ids_of(G.element_table()[ids]).tolist() == ids, text
        assert keyed.count(True) == 1, text


def test_element_cap(monkeypatch):
    monkeypatch.setattr(perm, "ELEMENT_CAP", 100)
    G = _sym(6)
    with pytest.raises(CapExceeded, match="cap is 100"):
        G.elements()
    assert G._table is None


def test_conjugacy_classes():
    for G, expected in [(_sym(3), 3), (_sym(4), 5), (_alt(5), 5)]:
        classes = G.conjugacy_classes()
        assert len(classes) == expected
        assert sum(size for _, size in classes) == G.order()
        elems = G.elements()
        for rep, size in classes:
            orbit = {rep.images}
            for e in elems:
                orbit.add(rep.conj(e).images)
            assert len(orbit) == size


def test_normal_closure():
    S4 = _sym(4)
    assert S4.normal_closure([Perm.from_cycles(4, [(0, 1)])]).order() == 24
    assert S4.normal_closure([Perm.from_cycles(4, [(0, 1), (2, 3)])]).order() == 4
    assert S4.normal_closure([Perm.from_cycles(4, [(0, 1, 2)])]).order() == 12
    A5 = _alt(5)
    assert A5.normal_closure([Perm.from_cycles(5, [(0, 1, 2)])]).order() == 60
    with pytest.raises(NotInGroup):
        _alt(4).normal_closure([Perm.from_cycles(4, [(0, 1)])])


def test_derived_series_and_solubility():
    S4 = _sym(4)
    assert [H.order() for H in S4.derived_series()] == [24, 12, 4, 1]
    assert S4.is_soluble()
    assert not _alt(5).is_soluble()
    assert [H.order() for H in _alt(5).derived_series()] == [60]
    assert _cyclic(6).is_soluble()


def test_basic_predicates():
    assert _cyclic(6).is_cyclic()
    assert not _sym(3).is_cyclic()
    assert not _klein().is_cyclic()
    assert _klein().is_abelian()
    assert not _sym(3).is_abelian()
    assert PermGroup(4, [Perm.identity(4)]).is_trivial()


def _centralizer(G, targets):
    """C_G(A) for A given by generators, by a sweep over G's elements: the
    oracle of the class-size identity below."""
    kept = [g for g in G.elements() if all(g * t == t * g for t in targets)]
    return group_from_elements(G.degree, kept)


def test_centralizer():
    S4 = _sym(4)
    K = _klein()
    C = _centralizer(S4, K.gens)
    assert C.order() == 4
    assert C.same_group_as(K)
    assert _centralizer(S4, S4.gens).order() == 1
    C3 = _centralizer(_sym(3), [Perm.from_cycles(3, [(0, 1, 2)])])
    assert C3.order() == 3


def test_group_from_elements():
    S4 = _sym(4)
    G = group_from_elements(4, S4.elements())
    assert G.order() == 24
    assert len(G.gens) <= 5


def test_quotient_s4_by_klein():
    S4 = _sym(4)
    Q = quotient(S4, _klein())
    assert Q.order() == 6
    assert not Q.is_abelian()
    # Q's generators are the images of S4's under the projection
    proj = Homomorphism(S4, Q, Q.gens)
    assert proj.is_valid()
    rng = random.Random(31)
    elems = S4.elements()
    for _ in range(25):
        a = rng.choice(elems)
        b = rng.choice(elems)
        assert proj(a * b) == proj(a) * proj(b)
    for images in _brute_closure(4, _klein().gens):
        assert proj(Perm(images)).is_identity()


def test_coset_walk_contract():
    S4 = _sym(4)
    N = _klein()
    reps, index, rows = coset_walk(N, S4.gens)
    assert len(reps) == len(index) == 6
    assert sorted(index.values()) == list(range(6))
    for k, rep in enumerate(reps):
        assert index[N.coset_key(rep)] == k
        for row, g in zip(rows, S4.gens):
            assert index[N.coset_key(rep * g)] == row[k]
    # coset c is first found at the first (k, j) with rows[j][k] == c
    found = 1
    for k in range(6):
        for j, row in enumerate(rows):
            if row[k] == found:
                assert reps[found] == reps[k] * S4.gens[j]
                found += 1
            else:
                assert row[k] < found
    assert found == 6
    # a walk with fewer elements stays in the subgroup they reach
    reps, index, rows = coset_walk(PermGroup(4, ()), S4.gens[:1])
    assert len(reps) == 4 and len(rows) == 1


def test_quotient_errors():
    S4 = _sym(4)
    with pytest.raises(NotNormal):
        quotient(S4, PermGroup(4, [Perm.from_cycles(4, [(0, 1)])]))
    with pytest.raises(NotInGroup):
        quotient(_alt(4), PermGroup(4, [Perm.from_cycles(4, [(0, 1)])]))


def test_quotient_checks_the_time_budget():
    with pytest.raises(TimeBudgetExceeded):
        quotient(_sym(4), _klein(), limits=Limits(seconds=0.0))
    Q = quotient(_sym(4), _klein(), limits=Limits(seconds=60.0))
    assert Q.order() == 6


def test_quotient_order_law():
    rng = random.Random(41)
    S4 = _sym(4)
    normals = [_klein(), _alt(4), S4, PermGroup(4, [])]
    for N in normals:
        Q = quotient(S4, N)
        assert Q.order() * N.order() == 24
        proj = Homomorphism(S4, Q, Q.gens)
        g = rng.choice(S4.elements())
        assert (proj(g).is_identity()) == (g in N)


def test_class_sweep_checks_the_budget_inside_each_class():
    calls = []

    class CountingLimits(Limits):
        def check(self):
            calls.append(None)
            super().check()

    A8 = _alt(8)
    A8.elements()
    classes = A8.conjugacy_classes(limits=CountingLimits())
    assert len(classes) == 14
    assert len(calls) > len(classes)


def _coset_pairs():
    """(name, G, N) with N normal in G, for the coset key and quotient pins."""
    S4 = _sym(4)
    crown = builder.build("CROWN(S4, 2)")
    d = builder.build("D(A5, C2)")
    return [("S4/V4", S4, _klein()),
            ("S4/A4", S4, S4.derived_subgroup()),
            ("CROWN(S4, 2)/socle", crown, genset.Analysis(crown).socle),
            ("D(A5, C2)/A5", d, d.derived_subgroup())]


def test_coset_key_is_canonical():
    for name, G, N in _coset_pairs():
        n_elems = _brute_closure(G.degree, N.gens)
        keys_of = {}
        for g in _brute_closure(G.degree, G.gens):
            coset = frozenset(_compose(n, g) for n in n_elems)
            key = N.coset_key(Perm(g))
            assert key in coset, name
            keys_of.setdefault(coset, set()).add(key)
        assert len(keys_of) * N.order() == G.order(), name
        assert all(len(keys) == 1 for keys in keys_of.values()), name
        assert len(set.union(*keys_of.values())) == len(keys_of), name


# [q.images for q in Q.gens] of quotient(G, N), pinned to values captured
# from a minimum over all of N as the coset key: cosets are numbered in
# discovery order, so no choice of canonical key may change them.
_WREATH_QUOTIENT_GENS = [(0, 1, 2, 3)] * 4 + [(1, 2, 3, 0)]
QUOTIENT_GENS = {
    "S4/V4": [(1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4)],
    "S4/A4": [(1, 0), (1, 0)],
    "CROWN(S4, 2)/socle": [(1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4),
                           (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)],
    "D(A5, C2)/A5": [(0, 1), (0, 1), (0, 1), (1, 0)],
    "WREATH(1)/N": _WREATH_QUOTIENT_GENS,
    "WREATH(1)/G'": _WREATH_QUOTIENT_GENS,
}


def test_quotient_generators_pinned():
    W = builder.build("WREATH(1)")
    pairs = _coset_pairs() + [
        ("WREATH(1)/N", W, W.normal_closure(W.gens[:4])),
        ("WREATH(1)/G'", W, W.derived_subgroup())]
    for name, G, N in pairs:
        Q = quotient(G, N)
        assert len(Q.gens) == len(G.gens), name
        assert [q.images for q in Q.gens] == QUOTIENT_GENS[name], name


def _order_of(x):
    ident = tuple(range(len(x)))
    y, k = x, 1
    while y != ident:
        y = _compose(y, x)
        k += 1
    return k


def _inverse_of(x):
    inv = [0] * len(x)
    for i, j in enumerate(x):
        inv[j] = i
    return tuple(inv)


def test_conjugacy_classes_against_brute_force():
    # the classes are recomputed by conjugating with every element, in
    # plain tuple arithmetic, and the class equation checked through
    # centralizers
    for G in (_sym(4), _sym(5), builder.build("CROWN(S4, 2)")):
        n = G.order()
        elems = _brute_closure(G.degree, G.gens)
        conjugators = [(_inverse_of(g), g) for g in elems]
        classes = G.conjugacy_classes()
        assert sum(size for _, size in classes) == n
        covered = set()
        for rep, size in classes:
            assert size * _centralizer(G, [rep]).order() == n
            cls = {_compose(_compose(ginv, rep.images), g)
                   for ginv, g in conjugators}
            assert len(cls) == size
            assert min(cls, key=lambda x: (_order_of(x), x)) == rep.images
            covered |= cls
        assert len(covered) == n


# conjugacy_classes() as (representative images, class size), pinned to
# values captured from a sweep in search order through Perm.conj.
CLASSES = {
    "S5": [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 4, 3), 10), ((0, 2, 1, 4, 3), 15),
           ((0, 1, 3, 4, 2), 20), ((0, 2, 3, 4, 1), 30), ((1, 2, 3, 4, 0), 24),
           ((1, 0, 3, 4, 2), 20)],
    "PSL2(7)": [((0, 1, 2, 3, 4, 5, 6, 7), 1), ((1, 0, 3, 2, 6, 7, 4, 5), 21),
                ((0, 1, 6, 5, 3, 4, 7, 2), 56), ((1, 2, 7, 5, 6, 4, 3, 0), 42),
                ((0, 2, 7, 1, 3, 6, 4, 5), 24), ((0, 3, 1, 4, 6, 7, 5, 2), 24)],
}


def test_conjugacy_classes_pinned():
    for name, expected in CLASSES.items():
        classes = builder.build(name).conjugacy_classes()
        assert [(rep.images, size) for rep, size in classes] == expected


def test_wreath_conjugacy_classes_pinned():
    # WREATH(1) has order 112896 and 33 classes: pinned by count, sorted
    # sizes and a sha256 prefix of the (representative images, size) list
    classes = builder.build("WREATH(1)").conjugacy_classes()
    pairs = [(rep.images, size) for rep, size in classes]
    assert len(pairs) == 33
    assert sorted(size for _, size in pairs) == [
        1, 42, 84, 96, 112, 441, 784, 1764, 1764, 1764, 1764, 2016, 2304,
        2352, 2352, 2352, 3136, 3136, 3136, 3528, 4032, 4704, 4704, 4704,
        4704, 4704, 5376, 7056, 7056, 7056, 7056, 9408, 9408]
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest[:16] == "48cb76dd120634ab"


def test_conjugacy_classes_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for text in ("S4", "S5", "A6", "PSL2(7)", "PGL2(7)", "CROWN(S4, 2)",
                 "D(A5, C2)"):
        G = builder.build(text)
        theirs = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in G.gens])
        expected = sorted(len(c) for c in theirs.conjugacy_classes())
        assert sorted(size for _, size in G.conjugacy_classes()) == expected


def test_homomorphism_sign_map():
    S3 = _sym(3)
    C2 = _cyclic(2)
    phi = Homomorphism(S3, C2, [C2.identity(), C2.gens[0]])
    assert phi.is_valid()
    assert phi(Perm.from_cycles(3, [(0, 1, 2)])).is_identity()
    assert phi(Perm.from_cycles(3, [(0, 2)])) == C2.gens[0]
    rng = random.Random(13)
    for _ in range(40):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 12))]
        src = S3.identity()
        tgt = C2.identity()
        for i in word:
            src = src * S3.gens[i]
            tgt = tgt * phi.images[i]
        assert phi(src) == tgt


def test_homomorphism_invalid_map_detected():
    S3 = _sym(3)
    C3 = _cyclic(3)
    bad = Homomorphism(S3, C3, [C3.gens[0], C3.identity()])
    assert not bad.is_valid()


def test_fingerprint():
    a = _sym(4)
    b = PermGroup(4, list(reversed(_sym(4).gens)))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != _alt(4).fingerprint()
    assert a.fingerprint() == _sym(4).fingerprint()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Perm.identity(3) * Perm.identity(4)
    with pytest.raises(DegreeMismatch):
        PermGroup(4, [Perm.identity(3)])


def test_perm_embeddings():
    p = Perm.from_cycles(3, [(0, 1, 2)])
    assert p.extended(5).images == (1, 2, 0, 3, 4)
    assert p.shifted(2, 5).images == (0, 1, 3, 4, 2)


def test_integer_helpers():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(1) == {}
    assert omega(12) == 3
    assert omega(1) == 0
    assert is_prime_power(8)
    assert is_prime_power(7)
    assert not is_prime_power(12)
    assert not is_prime_power(1)


# (levels, chief series terms, sha256 prefix of every level's base, its
# tree points in insertion order with u and u^-1, and its generators) of
# G's stabilizer chain and then of the chain of each chief series term of
# G, for the groups of order <= 2000: they pin the chains Schreier-Sims and
# normal_closure build, not only the orders they give
CHAIN_DIGESTS = {
    'C2': (1, 1, 'f7f47ff80357af9a'),
    'C3': (1, 1, '853d590427adecac'),
    'C4': (1, 2, 'e0b35409cffb5db9'),
    'C6': (1, 2, '588cc0ba6a4c1d39'),
    'C12': (1, 3, '2e57e84f4d0b0a0f'),
    'C15': (1, 2, '313adfc79a39c056'),
    'K4': (1, 2, 'ceb4339f46b87aad'),
    'D(C2, C2, C2)': (3, 3, 'd191a4d9390ff36c'),
    'D(C4, C2)': (2, 3, '19fb22170be204ac'),
    'D(C3, C3)': (2, 2, '50fd21e8d7c8b4fd'),
    'S3': (2, 2, 'd0ffd2fd6527b95b'),
    'Dih4': (2, 3, 'f53b89d2e0601193'),
    'Dih5': (2, 2, '0025ec07acf7b7b9'),
    'Dih6': (2, 3, '445896d5339a3f0c'),
    'A4': (2, 2, '1c23aea4e0375c44'),
    'S4': (3, 3, 'fa68de1926c1ddd1'),
    'EX1(1)': (3, 3, '2d643327a5d8c264'),
    'EX1(2)': (4, 4, '145731ef81485902'),
    'EX1(3)': (5, 5, '762e57a876258c60'),
    'EX2B(1)': (3, 3, '2d643327a5d8c264'),
    'EX2B(2)': (4, 4, '18cbd71e357705d5'),
    'D(S3, C3)': (3, 3, '86b9c0025c95db51'),
    'W(C2, 3)': (3, 3, 'ebc17a165653abca'),
    'W(C3, 2)': (2, 3, '3aff90921efada19'),
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': (3, 3, 'a85f2d5bb95a2c8e'),
    'SD(C5, C4, [g1 -> [g1*g1]])': (2, 3, '6bd77573038f5c80'),
    'Q(S4; g1*g2)': (1, 1, 'f7f47ff80357af9a'),
    'SUB(S4; g1*g1, g2)': (2, 3, '2f7a4ba535820c5b'),
    'CROWN(S3, 2)': (3, 3, 'ce72b3c11cd6a35b'),
    'CROWN(S3, 3)': (4, 4, 'ab6ef40837142cb7'),
    'CROWN(S4, 2)': (4, 4, '3e27b6d3366ea3b8'),
    'A5': (3, 1, 'a2c5de41681acfec'),
    'PSL2(5)': (3, 1, 'fece26d049c08d49'),
    'S5': (4, 2, 'a57f35f79b7990bd'),
    'D(A5, C2)': (4, 2, '681ccfcdf64a3f9a'),
    'PSL2(7)': (3, 1, '5161a17c84c04459'),
    'PGL2(7)': (3, 2, '26a14a66e5cea219'),
    'S6': (5, 2, 'e594733d63bbcbaf'),
    'A6': (4, 1, '8f030429be142e02'),
    'PSL2(11)': (3, 1, '46d8feb325a0fa71'),
    'PGL2(11)': (3, 2, 'c009153fb312f1f6'),
    'WREATH(1)': (6, 0, '77cd6cf9880a02a5'),
    'C300': (1, 5, '4292baf69e59b38c'),
    'D(S4, S4)': (6, 6, '40ef922eef8a0888'),
    'W(S4, 2)': (6, 5, '8964f2565b23e354'),
}


def _images(x):
    # a chain holds image tuples; a Perm gives its own
    return getattr(x, "images", x)


def _chain_record(chain):
    levels = []
    lvl = chain
    while lvl.base is not None:
        levels.append((lvl.base,
                       tuple((p, _images(u), _images(v))
                             for p, (u, v) in lvl.tree.items()),
                       tuple(_images(s) for s in lvl.gens)))
        lvl = lvl.down
    return levels


def test_chain_digests_cover_both_corpora():
    texts = {t for path in report.corpus_files(str(CORPUS_DIR), slow=True)
             for t in report.read_expressions(str(path))}
    assert texts <= set(CHAIN_DIGESTS)


@pytest.mark.parametrize("text", list(CHAIN_DIGESTS))
def test_chain_digest(text):
    G = builder.build(text)
    levels = _chain_record(G.chain)
    h = hashlib.sha256(repr(levels).encode())
    terms = 0
    if G.order() <= 2000:
        for f in structure.chief_series(G):
            h.update(repr(_chain_record(f.above.chain)).encode())
            terms += 1
    assert (len(levels), terms, h.hexdigest()[:16]) == CHAIN_DIGESTS[text]
