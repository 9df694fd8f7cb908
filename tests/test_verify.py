"""Tests for the classification verdicts."""

import hashlib
import pathlib

import pytest

from groupgen import builder, genset, report, structure, verify
from groupgen.builder import build, paper_family
from groupgen.genset import Analysis
from groupgen.perm import PermGroup, quotient
from groupgen.verify import (MD_EQUAL, NONSOLUBLE_MONOLITHIC, SOLUBLE_CASES,
                             TheoremVerdict, verify_all, verify_md_equal,
                             verify_nonsoluble, verify_soluble_cases)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_md_equal_elementary_abelian():
    for text in ("C2", "C3", "D(C2,C2,C2)", "K4"):
        v = verify_md_equal(Analysis(build(text)))
        assert v.theorem == MD_EQUAL
        assert v.applicable and v.ok
        assert v.case == 1

    v = verify_md_equal(Analysis(PermGroup(1, ())))
    assert v.applicable and v.ok and v.case == 1


def test_md_equal_module_shape():
    v = verify_md_equal(Analysis(build("S3")))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["prime"] == 3
    assert v.evidence["quotient_prime"] == 2
    assert v.evidence["copies"] == 1

    v = verify_md_equal(Analysis(build("A4")))
    assert v.case == 2
    assert v.evidence["copies"] == 1
    assert v.evidence["module_dim"] == 2

    v = verify_md_equal(Analysis(build("CROWN(S3, 2)")))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["copies"] == 2
    assert v.evidence["socle_order"] == 9

    # C3^2 : C4 with the order-four rotation acting irreducibly
    G = build("SD(D(C3,C3), C4, [g1 -> [g2, g1*g1]])")
    v = verify_md_equal(Analysis(G))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["copies"] == 1
    assert v.evidence["module_dim"] == 2
    assert v.evidence["quotient_order"] == 4


def test_md_equal_not_applicable():
    v = verify_md_equal(Analysis(build("S4")))
    assert not v.applicable and v.ok
    assert "m - d = 1" in v.evidence["reason"]

    v = verify_md_equal(Analysis(build("Dih4")))
    assert not v.applicable
    assert "Frattini" in v.evidence["reason"]

    v = verify_md_equal(Analysis(build("C6")))
    assert not v.applicable


def test_md_equal_red_flag_on_forged_input():
    # pretending A5 had d = m must trip the solubility check, exercising
    # the red-flag path that no genuine group can reach
    an = Analysis(build("A5"))
    an.d, an.m = 2, 2
    v = verify_md_equal(an)
    assert v.applicable and not v.ok
    assert "not soluble" in v.evidence["reason"]


def test_nonsoluble_alternating():
    v = verify_nonsoluble(Analysis(build("A5")))
    assert v.theorem == NONSOLUBLE_MONOLITHIC
    assert v.applicable and v.ok
    assert v.evidence["d"] == 2
    assert v.evidence["socle_order"] == 60
    assert v.evidence["quotient_order"] == 1


def test_nonsoluble_not_applicable():
    v = verify_nonsoluble(Analysis(build("S4")))
    assert not v.applicable and "soluble" in v.evidence["reason"]

    an = Analysis(build("A5"))
    an.d, an.m = 2, 5
    v = verify_nonsoluble(an)
    assert not v.applicable and "m - d" in v.evidence["reason"]


def test_nonsoluble_red_flag_on_forged_input():
    an = Analysis(build("A5"))
    an.d, an.m = 3, 4
    v = verify_nonsoluble(an)
    assert v.applicable and not v.ok
    assert "d = 3" in v.evidence["reason"]


def test_soluble_case2_symmetric():
    v = verify_soluble_cases(Analysis(build("S4")))
    assert v.theorem == SOLUBLE_CASES
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["t"] == 1
    assert v.evidence["complement_order"] == 6
    assert not v.evidence["complement_abelian"]


@pytest.mark.parametrize("t", [1, 2])
def test_soluble_case2_inverted_blocks(t):
    v = verify_soluble_cases(Analysis(paper_family("EX2B", t)))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["t"] == t
    assert v.evidence["complement_abelian"]
    assert v.evidence["complement_order"] == 4
    assert v.evidence["d"] == t + 1


@pytest.mark.parametrize("t", [2, 3])
def test_soluble_case1_products(t):
    v = verify_soluble_cases(Analysis(paper_family("EX1", t)))
    assert v.applicable and v.ok and v.case == 1
    assert v.evidence["module_prime"] == 3
    assert v.evidence["p_group_order"] == 2 ** (t + 1)
    assert v.evidence["d_of_p_group"] == t + 1


def test_soluble_case2_takes_precedence_for_smallest_family_member():
    # S3 x C2 decomposes both as C3 : C2^2 (case 1) and as V : H with
    # H of order four (case 2); the verifier prefers case 2
    v = verify_soluble_cases(Analysis(paper_family("EX1", 1)))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["complement_abelian"]


def test_soluble_case3_cyclic_squarefree():
    for text, quotient_orders in [("C6", {2, 3}), ("D(C3,C5)", {3, 5})]:
        v = verify_soluble_cases(Analysis(build(text)))
        assert v.applicable and v.ok and v.case == 3, text
        assert v.evidence["t"] == 0
        assert v.evidence["complement_order"] in quotient_orders
        assert v.evidence["d"] == 1


def test_soluble_case2_with_central_module():
    # S3 x C3: the central C3 is a trivial but irreducible module with
    # complement S3, matching case 2 ahead of case 3
    v = verify_soluble_cases(Analysis(build("D(S3, C3)")))
    assert v.applicable and v.ok and v.case == 2
    assert v.evidence["t"] == 1
    assert v.evidence["complement_order"] == 6


def test_soluble_not_applicable():
    v = verify_soluble_cases(Analysis(build("Dih4")))
    assert not v.applicable and "Frattini" in v.evidence["reason"]

    v = verify_soluble_cases(Analysis(build("A5")))
    assert not v.applicable and "not soluble" in v.evidence["reason"]

    v = verify_soluble_cases(Analysis(build("K4")))
    assert not v.applicable and "m - d = 0" in v.evidence["reason"]


def test_verify_all_returns_exactly_one_applicable():
    gap_groups = ["C2", "S3", "A4", "S4", "C6", "A5", "EX2B(1)",
                  "D(C2,C2,C2)", "EX1(2)", "CROWN(S3, 2)"]
    for text in gap_groups:
        verdicts = verify_all(Analysis(build(text)))
        applicable = [v for v in verdicts if v.applicable]
        assert len(applicable) == 1, text
        assert applicable[0].ok, text


def test_verify_all_shares_dm():
    an = Analysis(build("S4"))
    an.d, an.m = 2, 3
    md, ns, sc = verify_all(an)
    assert not md.applicable
    assert not ns.applicable
    assert sc.applicable and sc.case == 2


def test_verdict_is_a_small_value_object():
    v = TheoremVerdict(MD_EQUAL, False, True, None, {"reason": "x"})
    assert v.theorem == MD_EQUAL
    assert not v.applicable
    assert v.ok and v.case is None


@pytest.mark.parametrize("text", ["C6", "EX1(2)"])
def test_verify_all_finds_minimal_normal_subgroups_once(monkeypatch, text):
    G = build(text)
    calls = []
    real = structure.minimal_normal_subgroups

    def counting(H, **kwargs):
        if H is G:
            calls.append(H)
        return real(H, **kwargs)

    monkeypatch.setattr(structure, "minimal_normal_subgroups", counting)
    verify_all(Analysis(G))
    assert len(calls) == 1


# sha256 prefix of the three verdicts of every quick-corpus group: theorem,
# applicable, ok, case and sorted evidence.  canonical_json keeps only the
# first four, so these pin the evidence ``groupgen verify`` prints
VERDICT_DIGESTS = {
    'C2': 'c44ae9e47b615e5b',
    'C3': '4cd55fa1118d8ebd',
    'C4': '7a0a07ee7a137a66',
    'C6': '9369c5726f91e079',
    'C12': '7a0a07ee7a137a66',
    'C15': '47d1ccb5539aaef5',
    'K4': '9029eb76bff4ae67',
    'D(C2, C2, C2)': '4f9bb27ebc882edd',
    'D(C4, C2)': '7a0a07ee7a137a66',
    'D(C3, C3)': '3170a088e4c18646',
    'S3': '22e502cb647ffed0',
    'Dih4': '7a0a07ee7a137a66',
    'Dih5': 'd08eabb04e4ec60d',
    'Dih6': '83ad71824d7f14ef',
    'A4': '4c368e0a8e061f08',
    'S4': '0bfdaf0f3922c676',
    'EX1(1)': '83ad71824d7f14ef',
    'EX1(2)': '07f31d76a5c7ddef',
    'EX1(3)': 'b63ced5a15db6240',
    'EX2B(1)': '83ad71824d7f14ef',
    'EX2B(2)': '1f0f750f489e30f1',
    'D(S3, C3)': 'd400af97173c308f',
    'W(C2, 3)': '4e15a60f7e99cb7e',
    'W(C3, 2)': 'd400af97173c308f',
    'SD(D(C3, C3), C4, [g1 -> [g2, g1*g1]])': '69305e5e30e0eec6',
    'SD(C5, C4, [g1 -> [g1*g1]])': '0c09118819fe8849',
    'Q(S4; g1*g2)': 'c44ae9e47b615e5b',
    'SUB(S4; g1*g1, g2)': '7a0a07ee7a137a66',
    'CROWN(S3, 2)': 'ba3dbe8f632ba56f',
    'CROWN(S3, 3)': '2f2a7c34404a620e',
    'CROWN(S4, 2)': '7ff8d3e64b7d6046',
    'A5': 'bdec7f19a3097269',
    'PSL2(5)': 'bdec7f19a3097269',
    'S5': 'fd759fa8268629d9',
}


def _verdict_digest(verdicts):
    h = hashlib.sha256()
    for v in verdicts:
        h.update(repr((v.theorem, v.applicable, v.ok, v.case,
                       sorted(v.evidence.items()))).encode())
    return h.hexdigest()[:16]


def test_verdict_digests_cover_the_quick_corpus():
    texts = [text for path in report.corpus_files(CORPUS_DIR)
             for text in report.read_expressions(path)]
    assert texts == list(VERDICT_DIGESTS)


@pytest.mark.parametrize("text", list(VERDICT_DIGESTS))
def test_verdict_digest(text):
    verdicts = verify_all(Analysis(build(text)))
    assert _verdict_digest(verdicts) == VERDICT_DIGESTS[text]


def _lattice_complement(G, W):
    """A subgroup of G of order |G|/|W| meeting W trivially, read off G's
    subgroup lattice, or None: a complement found by scanning."""
    target = G.order() // W.order()
    lattice = structure.subgroup_lattice(G)
    w_ids = frozenset(G.ids_of(W.element_table()).tolist())
    elems = G.elements()
    for i in range(len(lattice)):
        fs = lattice.id_set(i)
        if len(fs) == target and len(fs & w_ids) == 1:
            return PermGroup(G.degree,
                             [elems[g] for g in lattice._gen_ids[i]])
    return None


def _splits(G, W):
    """Whether the splitting system of W as a GF(p) module for G is
    solvable: the one way the package asks whether W has a complement."""
    module = structure.FactorModule(G, W, PermGroup(G.degree, ()))
    return module.has_complement()


@pytest.mark.parametrize("text", list(VERDICT_DIGESTS))
def test_complement_check_matches_a_lattice_scan(text):
    # the splitting system finds a complement exactly when the lattice has
    # one, and the complement has the order, abelianness and cyclicity of
    # the quotient it is isomorphic to
    G = build(text)
    A = Analysis(G)
    pieces = [N for N in A.minimal_normal if N.is_abelian()]
    pieces += [W for W, _, _ in verify._socle_components(A)]
    for W in pieces:
        H = _lattice_complement(G, W)
        assert _splits(G, W) == (H is not None)
        if H is not None:
            Q = quotient(G, W)
            assert ((H.order(), H.is_abelian(), H.is_cyclic())
                    == (Q.order(), Q.is_abelian(), Q.is_cyclic()))


def test_complement_check_without_a_complement():
    # the centre of Dih4 and the C2 in C4 are each the only minimal normal
    # subgroup, and neither has a complement
    for text in ("Dih4", "C4"):
        G = build(text)
        N, = Analysis(G).minimal_normal
        assert N.order() == 2
        assert _lattice_complement(G, N) is None
        assert not _splits(G, N)


def test_frattini_free_socle_splits():
    # what the soluble matchers take as given once Frat(G) = 1: an abelian
    # normal subgroup meeting Frat(G) trivially has a complement
    # (Gaschuetz), and then a(G/W) = a(G) - t, so m(G/W) = (d + 1) - (d - 1)
    # = 2 for every case-2 candidate W of a gap-one group
    candidates = 0
    for text in VERDICT_DIGESTS:
        G = build(text)
        A = Analysis(G)
        if A.frattini.order() != 1 or not G.is_soluble():
            continue
        components = verify._socle_components(A)
        pieces = [N for N in A.minimal_normal if N.is_abelian()]
        for W in pieces + [W for W, _, _ in components]:
            assert _splits(G, W), (text, W.order())
        if A.m - A.d != 1:
            continue
        for W, _, t in components:
            H = quotient(G, W)
            if t == A.d - 1 and (t == 1 or H.is_abelian()):
                assert Analysis(H).m == 2, (text, W.order())
                candidates += 1
    assert candidates == 14  # so the loop above is not vacuous


def test_soluble_matchers_make_no_complement_solve(monkeypatch):
    # with Frat(G) = 1 known, cases 2 and 1 need no splitting system and no
    # analysis of G/W: Gaschuetz settles both
    solves, analyses = [], []
    real_solve = structure.FactorModule.has_complement

    def counting_solve(self, **kwargs):
        solves.append(self)
        return real_solve(self, **kwargs)

    class CountingAnalysis(genset.Analysis):
        def __init__(self, G, *args, **kwargs):
            analyses.append(G)
            super().__init__(G, *args, **kwargs)

    for text, case in (("EX2B(1)", 2), ("EX1(2)", 1)):
        A = Analysis(build(text))
        # d, m and the chief series with its Frattini flags come first
        assert A.m == A.d + 1 == A.a and A.frattini.order() == 1
        with monkeypatch.context() as mp:
            mp.setattr(structure.FactorModule, "has_complement",
                       counting_solve)
            mp.setattr(genset, "Analysis", CountingAnalysis)
            v = verify_soluble_cases(A)
        assert v.applicable and v.ok and v.case == case, text
        assert (solves, analyses) == ([], []), text
