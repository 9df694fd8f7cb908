"""Generating set searches: d, m, spectrum, bounds, independence."""

import hashlib
import pathlib
import random

import numpy as np
import pytest

from groupgen.perm import (CapExceeded, GroupError, Limits, Perm, PermGroup,
                           TimeBudgetExceeded, omega)
from groupgen import builder, genset, perm, report, structure, verify
from groupgen.genset import Analysis

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


def _elementary(p, k):
    return PermGroup(p * k, [
        Perm.from_cycles(p * k, [tuple(range(p * i, p * i + p))])
        for i in range(k)])


def _s3xc2():
    return PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]),
                         Perm.from_cycles(5, [(0, 1)]),
                         Perm.from_cycles(5, [(3, 4)])])


def _brute_d(G):
    """Smallest generating set size by exhaustive subsets."""
    from itertools import combinations
    n = G.order()
    if n == 1:
        return 0
    elems = G.elements()
    for k in range(1, 6):
        for combo in combinations(elems, k):
            if PermGroup(G.degree, combo).order() == n:
                return k
    raise AssertionError


def _brute_m(G):
    """Largest independent generating set size by exhaustive subsets."""
    from itertools import combinations
    n = G.order()
    elems = [e for e in G.elements() if not e.is_identity()]
    best = 0
    for k in range(1, 7):
        found = False
        for combo in combinations(elems, k):
            if PermGroup(G.degree, combo).order() != n:
                continue
            if all(PermGroup(G.degree, combo[:i] + combo[i + 1:]).order() < n
                   or combo[i] not in
                   PermGroup(G.degree, combo[:i] + combo[i + 1:]).elements()
                   for i in range(k)):
                # independent: no member inside the span of the others
                ok = True
                for i in range(k):
                    rest = PermGroup(G.degree, combo[:i] + combo[i + 1:])
                    if combo[i] in rest:
                        ok = False
                        break
                if ok:
                    best = max(best, k)
                    found = True
                    break
        if not found and best and k > best:
            break
    return best


def test_d_known_values():
    assert genset.d(Analysis(PermGroup(2, []))) == 0
    assert genset.d(Analysis(_cyclic(6))) == 1
    assert genset.d(Analysis(_cyclic(12))) == 1
    assert genset.d(Analysis(_klein())) == 2
    assert genset.d(Analysis(_sym(3))) == 2
    assert genset.d(Analysis(_sym(4))) == 2
    assert genset.d(Analysis(_alt(4))) == 2
    assert genset.d(Analysis(_alt(5))) == 2
    assert genset.d(Analysis(_dihedral4())) == 2
    assert genset.d(Analysis(_elementary(2, 3))) == 3
    assert genset.d(Analysis(_s3xc2())) == 2


def test_d_matches_brute_force():
    rng = random.Random(11)
    cases = [_sym(3), _cyclic(6), _klein(), _dihedral4(), _alt(4), _cyclic(8)]
    for _ in range(6):
        a = Perm(tuple(rng.sample(range(5), 5)))
        b = Perm(tuple(rng.sample(range(5), 5)))
        cases.append(PermGroup(5, [a, b]))
    for G in cases:
        if G.order() <= 60:
            assert genset.d(Analysis(G)) == _brute_d(G)


def test_d_witness_generates():
    for G in [_sym(4), _elementary(2, 3), _cyclic(12), _alt(5)]:
        k, witness = genset.d_with_witness(Analysis(G))
        assert len(witness) == k
        assert PermGroup(G.degree, witness).order() == G.order()


D_WITNESSES = {
    # expression: (witness as d_with_witness returns it, the first one the
    # exhaustive phase finds)
    "EX2B(2)": (["(1,3)(4,5)(7,8)", "(1,3)(4,6)(7,8)", "(1,3,2)(4,5,6)(7,8)"],
                ["(2,3)(5,6)", "(2,3)(4,5)", "(1,2)(5,6)(7,8)"]),
    "CROWN(S3, 2)": (["(1,3)(4,5)", "(1,3)(4,6)", "(1,3,2)(4,5,6)"],
                     ["(2,3)(5,6)", "(2,3)(4,5)", "(1,2)(5,6)"]),
    "CROWN(S3, 3)": (["(1,3,2)(4,5,6)", "(1,3)(4,5)(8,9)", "(2,3)(4,6)(7,8)",
                      "(1,3,2)(4,6,5)(7,8,9)"],
                     ["(2,3)(5,6)(8,9)", "(2,3)(5,6)(7,8)", "(2,3)(4,5)(8,9)",
                      "(1,2)(5,6)(8,9)"]),
    "A4": (None, ["(1,2)(3,4)", "(2,3,4)"]),
    "W(C2, 3)": (None, ["(5,6)", "(1,3,5)(2,4,6)"]),
}


def test_d_witnesses_pinned(monkeypatch):
    # the three with a default witness settle d only once the exhaustive
    # phase refutes d - 1; with the random probes off, every witness comes
    # from the exhaustive phase
    def shown(expr):
        k, witness = genset.d_with_witness(Analysis(builder.build(expr)))
        assert k == len(witness)
        return [p.cycle_string() for p in witness]

    for expr, (default, _) in D_WITNESSES.items():
        if default is not None:
            assert shown(expr) == default, expr
    monkeypatch.setattr(genset, "DEFAULT_RANDOM_TRIES", 0)
    for expr, (_, exhaustive) in D_WITNESSES.items():
        assert shown(expr) == exhaustive, expr


# d_with_witness witnesses as image tuples for seeds 0, 1 and 2, all found
# by the random probe; captured when the probe drew from G.elements()
D_PROBE_WITNESSES = {
    "WREATH(1)": [
        [(15, 12, 13, 11, 10, 8, 9, 14, 6, 3, 4, 0, 7, 2, 5, 1),
         (7, 1, 0, 2, 3, 5, 4, 6, 12, 11, 13, 14, 9, 8, 15, 10)],
        [(2, 4, 3, 7, 0, 6, 1, 5, 14, 12, 10, 8, 13, 11, 9, 15),
         (10, 13, 8, 15, 14, 9, 12, 11, 0, 5, 7, 6, 4, 1, 3, 2)],
        [(15, 13, 10, 9, 12, 11, 8, 14, 3, 2, 7, 6, 5, 0, 1, 4),
         (1, 0, 4, 7, 2, 6, 5, 3, 8, 15, 14, 9, 12, 10, 13, 11)],
    ],
    "S4": [
        [(2, 0, 1, 3), (2, 0, 3, 1)],
        [(0, 3, 1, 2), (3, 0, 1, 2)],
        [(0, 2, 1, 3), (1, 3, 2, 0)],
    ],
    "A5": [
        [(4, 2, 0, 1, 3), (2, 0, 1, 3, 4)],
        [(4, 2, 0, 1, 3), (4, 1, 0, 3, 2)],
        [(4, 2, 1, 3, 0), (4, 2, 0, 1, 3)],
    ],
    "D(C4, C2)": [
        [(3, 0, 1, 2, 5, 4), (3, 0, 1, 2, 4, 5)],
        [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)],
        [(2, 3, 0, 1, 5, 4), (3, 0, 1, 2, 5, 4)],
    ],
    "SD(C5, C4, [g1 -> [g1*g1]])": [
        [(3, 0, 2, 4, 1, 6, 7, 8, 5), (3, 1, 4, 2, 0, 8, 5, 6, 7)],
        [(0, 3, 1, 4, 2, 8, 5, 6, 7), (2, 0, 3, 1, 4, 8, 5, 6, 7)],
        [(0, 3, 1, 4, 2, 8, 5, 6, 7), (2, 4, 1, 3, 0, 6, 7, 8, 5)],
    ],
}


def test_d_probe_witnesses_pinned():
    for expr, by_seed in D_PROBE_WITNESSES.items():
        G = builder.build(expr)
        for seed, expected in enumerate(by_seed):
            k, witness = genset.d_with_witness(Analysis(G, seed=seed))
            assert k == 2
            assert [p.images for p in witness] == expected, (expr, seed)


def test_cyclic_d_reads_the_order_map(monkeypatch):
    # an abelian group's cyclic test reads element_orders, not the order
    # of each class representative; the witness is its least id of order n
    calls = []
    real = Perm.order

    def counting(self):
        calls.append(self)
        return real(self)

    G = _cyclic(12)
    G.conjugacy_classes()
    monkeypatch.setattr(Perm, "order", counting)
    k, witness = genset.d_with_witness(Analysis(G))
    assert calls == []
    orders = G.element_orders()
    assert (k, witness) == (1, (Perm(G.element_table()[orders.index(12)].tolist()),))
    assert G.class_representatives()[-4] == witness[0]


def test_d_honours_lattice_cap():
    # EX2B(2) needs the exhaustive phase; over the cap it runs on
    # stabilizer-chain spans and builds no lattice
    G = builder.build("EX2B(2)")
    assert genset.d(Analysis(G, Limits(lattice_cap=3))) == 3
    assert G._lattice_cache is None


def test_d_probe_walks_join_rows(monkeypatch):
    # up to SEARCH_ORDER_CAP a probe try walks the oracle's join rows, so
    # CROWN(S3, 3), whose 800 tries at d - 1 all miss, builds no chain per
    # try (804 chains when each try built one); above the cap each try
    # builds one chain and no oracle is made, as that would list G
    built = []

    def counting(degree, gens, _real=perm.build_chain):
        built.append(degree)
        return _real(degree, gens)

    crown = Analysis(builder.build("CROWN(S3, 3)"))
    wreath = Analysis(builder.build("WREATH(1)"))
    monkeypatch.setattr(perm, "build_chain", counting)
    assert genset.d_with_witness(crown)[0] == 4
    assert len(built) <= 2
    assert wreath.d == 2
    assert "oracle" not in vars(wreath)


def test_limits_are_keyword_only():
    # a positional Limits could land in another parameter's slot; the
    # searches and the verdicts take theirs from the analysis
    G = _sym(3)
    for fn in (structure.chief_series, structure.subgroup_lattice):
        with pytest.raises(TypeError):
            fn(G, Limits())
    for fn in (genset.d, genset.m, genset.spectrum, verify.verify_all):
        with pytest.raises(TypeError):
            fn(Analysis(G), Limits())


def test_analysis_raises_a_spent_budget_on_every_access():
    # a failure is never stored, so a later access cannot read a stale None
    an = Analysis(_sym(4), Limits(seconds=0.0))
    for _ in range(2):
        with pytest.raises(TimeBudgetExceeded):
            an.series
        with pytest.raises(TimeBudgetExceeded):
            an.m
    assert "series" not in vars(an) and "m" not in vars(an)


def test_analyses_under_different_limits_share_no_factor():
    G = _sym(4)
    loose, tight = Limits(), Limits(lattice_cap=5)
    first, second = Analysis(G, loose), Analysis(G, tight)
    assert first.series is not second.series
    assert all(f.limits is loose for f in first.series)
    assert all(f.limits is tight for f in second.series)
    assert (first.m, second.m) == (3, 3)


def test_analysis_computes_through_the_module_functions(monkeypatch):
    # a wrapper installed on a module name, as the benchmark's tracer
    # installs one, sees the computation the property makes
    seen = []
    for name in ("d", "d_with_witness", "m", "spectrum"):
        def wrapped(an, *args, _real=getattr(genset, name), _name=name,
                    **kwargs):
            seen.append(_name)
            return _real(an, *args, **kwargs)
        monkeypatch.setattr(genset, name, wrapped)
    an = Analysis(_sym(4))
    assert sorted(an.spectrum) == [2, 3]
    assert an.d == 2
    assert seen == ["spectrum", "d_with_witness", "m", "d"]
    assert an.spectrum is an.spectrum and len(seen) == 4


def _p_groups():
    """Quick-corpus p-groups, the p-group quotients of quick-corpus groups
    by abelian minimal normal subgroups, and a few more p-groups."""
    groups = [builder.build(text) for text in
              ("Dih4", "C8", "D(C2, C2, C2)", "D(C4, C4)", "W(C2, 2)",
               "W(C3, 3)")]
    for path in report.corpus_files(CORPUS_DIR):
        for text in report.read_expressions(path):
            G = builder.build(text)
            groups.append(G)
            groups.extend(perm.quotient(G, V) for V in
                          structure.minimal_normal_subgroups(G)
                          if V.is_abelian())
    return [G for G in groups
            if G.order() > 1 and perm.is_prime_power(G.order())]


def test_lower_bound_d():
    assert genset.lower_bound_d(_elementary(2, 3)) == 3
    assert genset.lower_bound_d(_cyclic(6)) == 1
    assert genset.lower_bound_d(_sym(4)) == 2
    assert genset.lower_bound_d(_alt(5)) == 2
    assert genset.lower_bound_d(_klein()) == 2
    # Burnside's basis theorem: d of a p-group is the p-rank of G/G'
    groups = _p_groups()
    assert len(groups) >= 40
    for G in groups:
        assert genset.lower_bound_d(G) == Analysis(G).d, G


def test_m_known_values():
    assert genset.m(Analysis(PermGroup(2, []))) == 0
    assert genset.m(Analysis(_cyclic(6))) == 2
    assert genset.m(Analysis(_sym(3))) == 2
    assert genset.m(Analysis(_sym(4))) == 3
    assert genset.m(Analysis(_alt(4))) == 2
    assert genset.m(Analysis(_dihedral4())) == 2
    assert genset.m(Analysis(_elementary(2, 3))) == 3
    assert genset.m(Analysis(_cyclic(8))) == 1
    assert genset.m(Analysis(_s3xc2())) == 3
    assert genset.m(Analysis(_alt(5))) == 3


def test_m_of_s6():
    # m(S_n) = n - 1 (Whiston 2000)
    assert genset.m(Analysis(_sym(6))) == 5


def test_m_soluble_fast_path_matches_search():
    for G in [_sym(3), _sym(4), _cyclic(6), _cyclic(12), _dihedral4(),
              _klein(), _elementary(2, 3), _alt(4), _s3xc2(), _cyclic(8)]:
        fast = genset.m(Analysis(G))
        searched = genset.m(Analysis(G), force_search=True)
        assert fast == searched, G


def test_m_matches_brute_force():
    for G in [_sym(3), _cyclic(6), _klein(), _cyclic(8), _alt(4)]:
        assert genset.m(Analysis(G), force_search=True) == _brute_m(G)


class _CountingLimits(Limits):
    """Limits that count their checks: the engine makes one per node."""

    calls = 0

    def check(self):
        self.calls += 1
        super().check()


def test_m_second_slot_symmetry():
    # m's walk tries in its second slot only the least element of each
    # C_G(r)-orbit, r the first slot; it finds the size the unrestricted
    # engine finds on the same oracle, candidates and bounds, in fewer nodes
    for name in ["A5", "S5", "PSL2(7)", "PGL2(7)", "D(A5, C2)", "A6",
                 "PSL2(11)"]:
        G = builder.build(name)
        an = Analysis(G)
        elems, reps = genset._search_candidates(G, prime_power_only=True)
        walked = _CountingLimits()
        full = genset._search(an.oracle, elems, reps, an.a + an.b,
                              omega(G.order()), limits=walked)
        restricted = _CountingLimits()
        counted = Analysis(G, restricted)
        counted.a, counted.b, counted.oracle = an.a, an.b, an.oracle
        assert genset.m(counted, force_search=True) == len(full), name
        assert restricted.calls < walked.calls, name


# Limits.check calls of one call each, the analysis given the oracle, a, b
# (and for the spectrum d and m) of an analysis that counted nothing: one
# check per search node and one per C_G(r)-orbit step, taken before the
# numpy candidate filter; the filter visits the same nodes
NODE_CHECKS = [
    ("PGL2(7)", "m", 1922),
    ("D(A5, C2)", "m", 1389),
    ("PSL2(7)", "m", 325),
    ("CROWN(S3, 3)", "d_with_witness", 18153),
    ("S5", "spectrum", 16),
]


@pytest.mark.parametrize("filter_min", [genset.FILTER_MIN, 10 ** 9])
@pytest.mark.parametrize("text,call,checks", NODE_CHECKS)
def test_search_visits_the_same_nodes(monkeypatch, text, call, checks,
                                      filter_min):
    # a filter_min above every node's candidate count walks every node
    # with the one-at-a-time loop
    G = builder.build(text)
    warm = Analysis(G)
    shared = ["oracle", "a", "b"]
    if call == "spectrum":
        shared += ["d_witness", "m"]
    for name in shared:
        getattr(warm, name)
    counting = _CountingLimits()
    counted = Analysis(G, counting)
    for name in shared:
        setattr(counted, name, getattr(warm, name))
    monkeypatch.setattr(genset, "FILTER_MIN", filter_min)
    getattr(genset, call)(counted)
    assert counting.calls == checks


class _BudgetAfter(Limits):
    """Limits whose time budget runs out after ``allowed`` checks."""

    allowed = 200

    def check(self):
        self.allowed -= 1
        if self.allowed < 0:
            raise TimeBudgetExceeded("budget spent")


@pytest.mark.parametrize("lattice_cap", [Limits().lattice_cap, 1])
def test_budget_stops_the_search_on_both_oracles(lattice_cap):
    # PGL2(11)'s m walks thousands of nodes, the lattice oracle's through
    # the numpy filter and the fallback oracle's one candidate at a time;
    # either way a budget that runs out mid-walk stops it at a node
    G = builder.build("PGL2(11)")
    warm = Analysis(G, Limits(lattice_cap=lattice_cap))
    assert (warm.oracle.lattice is None) == (lattice_cap == 1)
    spent = Analysis(G, _BudgetAfter(lattice_cap=lattice_cap))
    spent.a, spent.b, spent.oracle = warm.a, warm.b, warm.oracle
    with pytest.raises(TimeBudgetExceeded) as raised:
        genset.m(spent)
    assert raised.traceback[-2].name == "extend"


def test_m_orbit_step_stops_on_a_spent_budget(monkeypatch):
    # the candidates are made before the deadline, so the first check
    # under the spent budget is the orbit step's, before it builds anything
    G = builder.build("A6")
    an = Analysis(G)
    candidates = genset._search_candidates(G, prime_power_only=True)
    spent = Analysis(G, Limits(seconds=0.0))
    spent.a, spent.b, spent.oracle = an.a, an.b, an.oracle
    built = []
    monkeypatch.setattr(genset, "_search_candidates",
                        lambda *args, **kwargs: candidates)
    monkeypatch.setattr(genset, "orbit_minima",
                        lambda *args, **kwargs: built.append(args))
    monkeypatch.setattr(PermGroup, "ids_of",
                        lambda self, rows: built.append(rows))
    monkeypatch.setattr(PermGroup, "conjugation_map",
                        lambda self, g, **kwargs: built.append(g))
    with pytest.raises(TimeBudgetExceeded) as raised:
        genset.m(spent, force_search=True)
    assert raised.traceback[-2].name in ("_centralizer_orbit_minima",
                                         "extend")
    assert built == []


def test_element_orders_are_computed_once_per_group(monkeypatch):
    # the lattice's zuppos, m's prime power filter and the search order of
    # m and the spectrum all read G's one order map: with the classes and
    # the chief series done first, each element's order is computed once
    G = builder.build("A5")
    G.conjugacy_classes()
    an = Analysis(G)
    assert (an.a, an.b) == (1, 1)
    computed = []

    def counting(images, _real=perm._cycle_order):
        computed.append(images)
        return _real(images)

    monkeypatch.setattr(perm, "_cycle_order", counting)
    structure.subgroup_lattice(G)
    assert genset.m(an) == 3
    assert sorted(genset.spectrum(an)) == [2, 3]
    assert len(computed) == G.order()
    assert sorted(computed) == G.element_table().tolist()


def test_m_order_cap():
    big = _elementary(2, 12)
    with pytest.raises(CapExceeded):
        genset.m(Analysis(big), force_search=True)


def test_spectrum():
    spec = genset.spectrum(Analysis(_sym(4)))
    assert sorted(spec) == [2, 3]
    spec = genset.spectrum(Analysis(_elementary(2, 3)))
    assert sorted(spec) == [3]
    spec = genset.spectrum(Analysis(_cyclic(6)))
    assert sorted(spec) == [1, 2]
    spec = genset.spectrum(Analysis(_alt(5)))
    assert sorted(spec) == [2, 3]
    spec = genset.spectrum(Analysis(PermGroup(3, [])))
    assert sorted(spec) == [0]


def _ids(G, perms):
    """The element ids of the perms in G."""
    return G.ids_of(np.array([p.images for p in perms])
                    .reshape(-1, G.degree)).tolist()


def _is_independent_generating_set(A, perms):
    """The perms generate A's group and none lies in the span of the
    others, read off A's generation oracle."""
    return (A.oracle.span_of_ids(_ids(A.G, perms)) == A.oracle.top
            and genset.is_independent(A, perms))


def test_spectrum_witnesses_validate():
    for G in [_sym(4), _cyclic(6), _alt(5), _dihedral4(), _s3xc2()]:
        check = Analysis(G)
        for k, witness in genset.spectrum(Analysis(G)).items():
            assert len(witness) == k
            assert _is_independent_generating_set(check, witness)


def test_spectrum_is_an_interval():
    for G in [_sym(4), _cyclic(12), _alt(4), _alt(5), _s3xc2(),
              _elementary(3, 2)]:
        sizes = sorted(genset.spectrum(Analysis(G)))
        assert sizes == list(range(sizes[0], sizes[-1] + 1))
        assert sizes[0] == genset.d(Analysis(G))


# sha256 prefix of each spectrum's witnesses, as cycle strings by size, for
# every quick-corpus group and five larger groups, the last two over the
# lattice cap; the d witness is the spectrum's entry at d whenever it is
# independent
SPECTRUM_DIGESTS = {
    'C2': '233eb9d273ff03cc',
    'C3': 'b37f336fdb026678',
    'C4': '56c41ca48d8926c5',
    'C6': '9283514db439b216',
    'C12': '534731fac3ce2e32',
    'C15': 'd4467dce3106748d',
    'K4': '29838bce9401437e',
    'D(C2, C2, C2)': '420309d9a7933995',
    'D(C4, C2)': '18f097e46b613434',
    'D(C3, C3)': 'e472ef27158142a8',
    'S3': '0696bae7b5281464',
    'Dih4': '173d6428d0810761',
    'Dih5': '5ac1cd40ca7a538c',
    'Dih6': 'a621e45f719c76e1',
    'A4': 'c08d6338608d34bc',
    'S4': '2614bf29f7929af2',
    'EX1(1)': '9ae614b2a2f0fa73',
    'EX1(2)': '9e328d703d92ae33',
    'EX1(3)': '296f028fc4bf8eb7',
    'EX2B(1)': '9ae614b2a2f0fa73',
    'EX2B(2)': 'b4e7eeede58a2644',
    'D(S3, C3)': 'a4946eb7cbd8dbcf',
    'W(C2, 3)': 'e00e7ec12ea6772f',
    'W(C3, 2)': 'ead3cdcd1a4de6fa',
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': '792c64196f013bbe',
    'SD(C5, C4, [g1 -> [g1*g1]])': '6ef53714670d4938',
    'Q(S4; g1*g2)': '233eb9d273ff03cc',
    'SUB(S4; g1*g1, g2)': 'f4d815b334ac4258',
    'CROWN(S3, 2)': 'ecba1e6a58f7630a',
    'CROWN(S3, 3)': 'b9f145d6eda067cc',
    'CROWN(S4, 2)': '98188e2b4a68e2a3',
    'A5': '063fa05d139506a2',
    'PSL2(5)': '6d6f80639e4cff64',
    'S5': '854153fcf4d674cc',
    'D(A5, C2)': 'b1d2e2312ca0ccbf',
    'PSL2(7)': '2926b2d6fe92f17a',
    'PGL2(7)': '64423beeffd9c4eb',
    'D(S4, S4)': 'e45a3610dfd5bc2c',
    'W(S4, 2)': 'ba3eb1ab7dcdc4be',
}


def _spectrum_digest(spec):
    shown = sorted((k, [p.cycle_string() for p in w]) for k, w in spec.items())
    return hashlib.sha256(repr(shown).encode()).hexdigest()[:16]


def test_spectrum_digests_cover_the_quick_corpus():
    texts = {text for path in report.corpus_files(CORPUS_DIR)
             for text in report.read_expressions(path)}
    assert texts <= set(SPECTRUM_DIGESTS)


@pytest.mark.parametrize("text", list(SPECTRUM_DIGESTS))
def test_spectrum_digest(text):
    spec = genset.spectrum(Analysis(builder.build(text)))
    assert _spectrum_digest(spec) == SPECTRUM_DIGESTS[text]


@pytest.mark.slow
def test_spectrum_digest_of_a_large_walk():
    # D(A4, Dih5, C4), order 480: its size-5 walk makes about 95,000
    # search nodes, most of them through the numpy candidate filter
    spec = genset.spectrum(Analysis(builder.build("D(A4, Dih5, C4)")))
    assert sorted(spec) == [2, 3, 4, 5]
    assert _spectrum_digest(spec) == "d8a0a03007f69a73"


def test_is_independent():
    S4 = Analysis(_sym(4))
    a = Perm.from_cycles(4, [(0, 1, 2, 3)])
    b = Perm.from_cycles(4, [(0, 1)])
    assert genset.is_independent(S4, [a, b])
    assert _is_independent_generating_set(S4, [a, b])
    assert not genset.is_independent(S4, [a, b, a * a])
    assert not genset.is_independent(S4, [S4.G.identity()])
    assert genset.is_independent(S4, [a])
    assert not _is_independent_generating_set(S4, [a])


def test_is_independent_refuses_elements_outside_the_group():
    # the odd (4 5) has A5's degree and fixes A5's three base points, so it
    # agrees with the identity on the images that key an element id
    A5 = Analysis(_alt(5))
    outside = Perm.from_cycles(5, [(3, 4)])
    assert A5.G.prefix_width() == 3
    for perms in ([outside], [A5.G.gens[0], outside], [_sym(6).gens[0]]):
        with pytest.raises(GroupError, match="not all inside the group"):
            genset.is_independent(A5, perms)


def test_independence_is_hereditary():
    rng = random.Random(3)
    for G in [_sym(4), _alt(5), _cyclic(12)]:
        check = Analysis(G)
        for k, witness in genset.spectrum(Analysis(G)).items():
            if k < 2:
                continue
            drop = rng.randrange(k)
            subset = witness[:drop] + witness[drop + 1:]
            assert genset.is_independent(check, subset)


def test_prime_power_restriction_cross_validation():
    # the default search runs over prime power elements only; the
    # unrestricted search must agree
    for G in [_sym(4), _cyclic(6), _cyclic(12), _alt(4), _alt(5), _s3xc2()]:
        an = Analysis(G)
        assert (genset.m(an, force_search=True, prime_power_only=False)
                == genset.m(an, force_search=True))


def _engine_results(G, oracle):
    """The engine's maximum and its witness for every spectrum size, as
    Perms."""
    eids, rids = genset._search_candidates(G)
    top = omega(G.order())
    out = {"max": genset._search(oracle, eids, rids, 1, top)}
    for k in genset.spectrum(Analysis(G)):
        out[k] = genset._search(oracle, eids, rids, k, k)
    return {k: genset._perms(G, ids) for k, ids in out.items()}


def test_search_fallback_without_lattice():
    # a lattice cap of one leaves the oracle on stabilizer chains; the
    # engine must then find exactly what it finds over the lattice
    for G in [_sym(4), _alt(4), _cyclic(12), _alt(5)]:
        chains = genset.GenOracle(G, limits=Limits(lattice_cap=1))
        assert chains.lattice is None
        lattice = genset.GenOracle(G)
        assert lattice.lattice is not None
        got = _engine_results(G, chains)
        assert got == _engine_results(G, lattice)
        assert len(got["max"]) == genset.m(Analysis(G), force_search=True,
                                           prime_power_only=False)
        check = Analysis(G)
        for k, witness in got.items():
            assert _is_independent_generating_set(check, witness)
            if k != "max":
                assert len(witness) == k


def test_fallback_oracle_builds_no_chain_per_join(monkeypatch):
    # over the cap each join is closed on element ids, as the lattice's
    # joins are, so once G's own chain exists the engine builds no more
    # chains on the fallback oracle than on the lattice: none per join.
    # Both counts are the one chain of the trivial subgroup that starts
    # the chief series behind the spectrum's sizes.
    G = _alt(5)
    G.order()
    counts = []
    for oracle in (genset.GenOracle(G, limits=Limits(lattice_cap=1)),
                   genset.GenOracle(G)):
        built = []

        def counting(degree, gens, _real=perm.build_chain):
            built.append(degree)
            return _real(degree, gens)

        monkeypatch.setattr(perm, "build_chain", counting)
        _engine_results(G, oracle)
        monkeypatch.undo()
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_oracle_fallback_matches_lattice():
    for G in [_sym(4), _alt(5)]:
        with_lat = genset.GenOracle(G)
        assert with_lat.lattice is not None
        without = genset.GenOracle(G, limits=Limits(lattice_cap=1))
        assert without.lattice is None
        rng = random.Random(9)
        n = G.order()
        for _ in range(20):
            picks = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
            a, b = with_lat.span_of_ids(picks), without.span_of_ids(picks)
            assert with_lat.sets[a] == without.sets[b]
            assert (a == with_lat.top) == (b == without.top)


def test_d_random_phase_on_large_group():
    # direct square of the degree-5 alternating group: order 3600, too big
    # for the exhaustive phase, but random pairs generate it quickly
    a5 = _alt(5)
    gens = [g.extended(10) for g in a5.gens]
    gens += [Perm(tuple(list(range(5, 10)) + list(range(5))))]
    G = PermGroup(10, gens)
    sq = G.normal_closure([gens[0]])
    assert sq.order() == 3600
    assert genset.d(Analysis(sq)) == 2
