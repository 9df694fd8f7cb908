"""Tests for the classification verdicts."""

import pytest

from groupgen import builder, structure, verify
from groupgen.builder import build, paper_family
from groupgen.genset import Analysis
from groupgen.perm import PermGroup
from groupgen.verify import (MD_EQUAL, NONSOLUBLE_MONOLITHIC, SOLUBLE_CASES,
                             TheoremVerdict, verify_all, verify_md_equal,
                             verify_nonsoluble, verify_soluble_cases)


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
