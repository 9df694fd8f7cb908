"""Tests for the construction language: parsing, evaluation, families."""

import pytest

from groupgen import builder, structure
from groupgen.builder import (Atom, CrownPower, DirectProduct, PaperFamily,
                              ParseError, Quotient, Semidirect, Subgroup,
                              WreathCyclic, build, evaluate, paper_family,
                              parse)
from groupgen.perm import CapExceeded, GroupError, PermGroup, quotient


def test_parse_shapes():
    e = parse("D(S3, C2, C2)")
    assert isinstance(e, DirectProduct)
    assert e.parts == (Atom("S", 3), Atom("C", 2), Atom("C", 2))

    e = parse("W(PGL2(7), 2)")
    assert e == WreathCyclic(Atom("PGL2", 7), 2)

    e = parse("CROWN(D(S3, C2), 4)")
    assert isinstance(e, CrownPower) and e.k == 4
    assert isinstance(e.expr, DirectProduct)

    e = parse("EX2B(3)")
    assert e == PaperFamily("EX2B", 3)

    e = parse("K4")
    assert e == Atom("K4", 0)


def test_parse_words_and_action():
    e = parse("Q(S4; (1,2)(3,4), g1*g2)")
    assert isinstance(e, Quotient)
    assert e.words == ((("perm", ((0, 1), (2, 3))),),
                       (("gen", 0), ("gen", 1)))

    e = parse("SUB(S4; (1,2), (1,2,3))")
    assert isinstance(e, Subgroup) and len(e.words) == 2

    e = parse("SD(D(C3,C3), C2, [g1 -> [g1*g1, g2*g2]])")
    assert isinstance(e, Semidirect)
    assert e.action == ((0, ((("gen", 0), ("gen", 0)),
                             (("gen", 1), ("gen", 1)))),)

    e = parse("SD(C3, D(C2,C2), [g1 -> [g1]; g2 -> [g1*g1]])")
    assert [idx for idx, _ in e.action] == [0, 1]


def test_parse_is_whitespace_insensitive():
    flat = parse("SD(D(C3,C3),C2,[g1->[g1*g1,g2*g2]])")
    spaced = parse("""SD( D( C3, C3 ),
                          C2,
                          [ g1 -> [ g1*g1, g2*g2 ] ] )""")
    assert flat == spaced


@pytest.mark.parametrize("text,fragment", [
    ("Foo(3)", "unknown atom"),
    ("D(S3)", "at least two factors"),
    ("D(S3, C2", "expected ')'"),
    ("W(C2, x)", "number of copies"),
    ("S4 junk", "trailing input"),
    ("Q(S4; (0,1))", "1-based"),
    ("SD(C3, C2, [h1 -> [g1]])", "generator name"),
    ("", "expected a group expression"),
    ("C3 @", "unexpected character"),
    ("CROWN(S3,)", "crown exponent"),
])
def test_parse_errors_carry_positions(text, fragment):
    with pytest.raises(ParseError) as info:
        parse(text)
    err = info.value
    assert fragment in str(err)
    assert err.line >= 1 and err.col >= 1
    assert f"line {err.line}, column {err.col}" in str(err)


def test_parse_error_points_at_the_right_spot():
    with pytest.raises(ParseError) as info:
        parse("D(S3,\n    Foo)")
    assert info.value.line == 2
    assert info.value.col == 5


@pytest.mark.parametrize("text,order,degree", [
    ("C1", 1, 1),
    ("C6", 6, 6),
    ("S1", 1, 1),
    ("S4", 24, 4),
    ("A4", 12, 4),
    ("A5", 60, 5),
    ("Dih4", 8, 4),
    ("Dih5", 10, 5),
    ("K4", 4, 4),
    ("PSL2(2)", 6, 3),
    ("PSL2(3)", 12, 4),
    ("PSL2(5)", 60, 6),
    ("PSL2(7)", 168, 8),
    ("PGL2(3)", 24, 4),
    ("PGL2(5)", 120, 6),
    ("PGL2(7)", 336, 8),
])
def test_atom_orders(text, order, degree):
    G = build(text)
    assert G.order() == order
    assert G.degree == degree


def test_projective_atoms_need_small_primes():
    for text in ("PSL2(4)", "PSL2(9)", "PGL2(29)", "PSL2(1)"):
        with pytest.raises(GroupError):
            build(text)
    assert build("PGL2(23)").order() == 23 * (23 * 23 - 1)


def test_atom_bounds():
    for text in ("C0", "Dih2"):
        with pytest.raises(GroupError):
            build(text)


def test_direct_product_order_multiplies():
    parts = ["S3", "C2", "C4", "A4", "Dih5"]
    for a in parts:
        for b in parts:
            G = build(f"D({a}, {b})")
            A, B = build(a), build(b)
            assert G.order() == A.order() * B.order()
            assert G.degree == A.degree + B.degree
    G = build("D(S3, C2, C2)")
    assert G.order() == 24


def test_wreath_orders():
    assert build("W(C2, 3)").order() == 2 ** 3 * 3
    assert build("W(S3, 2)").order() == 6 ** 2 * 2
    assert build("W(C2, 1)").order() == 2
    G = build("W(PGL2(7), 2)")
    assert G.order() == 336 ** 2 * 2 == 225792
    assert G.degree == 16


def test_wreath_base_subgroup():
    for text, x_order, n in [("W(C2, 3)", 2, 3), ("W(S3, 2)", 6, 2)]:
        W = build(text)
        base = W.normal_closure(W.gens[:-1])
        assert base.order() == x_order ** n


def test_semidirect_keeps_points_when_possible():
    G = build("SD(D(C3,C3), C2, [g1 -> [g1*g1, g2*g2]])")
    assert G.order() == 18
    assert G.degree == 8
    n1, n2, h = G.gens
    assert n1.conj(h) == n1 * n1
    assert n2.conj(h) == n2 * n2

    G = build("SD(D(C3,C3), C2, [g1 -> [g2, g1]])")
    assert G.order() == 18 and G.degree == 8


def test_semidirect_falls_back_to_regular_representation():
    # g1 -> g1*g2^2 changes cycle type, so no permutation of the eight
    # points of C2 x C4 induces it; the normal part is rebuilt on its
    # regular representation instead
    G = build("SD(D(C2,C4), C2, [g1 -> [g1*g2*g2, g2]])")
    assert G.order() == 16
    assert G.degree == 8 + 2
    n1, n2, h = G.gens
    assert n1.conj(h) == n1 * n2 * n2
    assert n2.conj(h) == n2


def test_semidirect_trivial_action_is_direct_product():
    G = build("SD(C3, C2, [g1 -> [g1]])")
    assert G.order() == 6
    assert G.is_abelian()


def test_semidirect_rejects_bad_actions():
    cases = [
        "SD(C4, C2, [g1 -> [g1*g1]])",     # squaring is not injective
        "SD(C3, C3, [g1 -> [g1*g1]])",     # inversion has order 2, not 3
        "SD(C3, C2, [g1 -> [g1, g1]])",    # wrong image count
        "SD(C3, C2, [g2 -> [g1]])",        # names a missing generator
        "SD(C3, D(C2,C2), [g1 -> [g1]])",  # second acting generator unmapped
        "SD(C3, C2, [g1 -> [g1]; g1 -> [g1]])",  # duplicate entry
    ]
    for text in cases:
        with pytest.raises(GroupError):
            build(text)


def test_quotient_expressions():
    G = build("Q(S4; (1,2)(3,4))")
    assert G.order() == 6
    assert not G.is_abelian()

    assert build("Q(C6; g1*g1)").order() == 2
    assert build("Q(S4; g2)").order() == 1

    with pytest.raises(GroupError):
        build("Q(C6; g2)")


def test_subgroup_expressions():
    G = build("SUB(S4; (1,2), (1,2,3))")
    assert G.order() == 6
    assert G.degree == 4

    with pytest.raises(GroupError):
        build("SUB(A4; (1,2))")


def test_crown_expressions():
    assert build("CROWN(S3, 2)").order() == 3 * 6
    assert build("CROWN(S3, 1)").order() == 6
    assert build("CROWN(S4, 3)").order() == 4 ** 2 * 24
    with pytest.raises(GroupError):
        build("CROWN(C6, 2)")  # two minimal normal subgroups


def test_word_evaluation_errors():
    with pytest.raises(GroupError):
        build("SUB(S4; (1,5))")  # beyond the degree
    with pytest.raises(GroupError):
        build("SUB(S4; (1,2)(2,3))")  # repeated point


def test_family_ex1():
    for t in (1, 2, 3):
        G = paper_family("EX1", t)
        assert G.order() == 6 * 2 ** t
    assert build("EX1(1)").order() == build("D(S3, C2)").order()


def test_family_ex2a():
    assert paper_family("EX2A", 1).order() == 24
    with pytest.raises(GroupError):
        paper_family("EX2A", 2)


def test_family_ex2b():
    for t in (1, 2, 3):
        G = paper_family("EX2B", t)
        assert G.order() == 4 * 3 ** t
        assert G.is_soluble()
    # the inverting generator really inverts every block
    G = paper_family("EX2B", 2)
    b1, b2, inv, _ = G.gens
    assert b1.conj(inv) == b1 * b1
    assert b2.conj(inv) == b2 * b2


def test_family_ex3():
    # the family's action plants a transposition that fails to commute
    # with the diagonal S3, so for t >= 2 the closure is the index-two
    # subdirect part of S4 x S3 x C2^(t-1), of order 72 * 2^(t-1)
    for t, order in {1: 24, 2: 144, 3: 288}.items():
        assert paper_family("EX3", t).order() == order, t
    # with the extra C2s acting trivially the group is a direct product
    for text, order in {"EX3(1)": 24, "D(EX3(1), C2)": 48,
                        "D(EX3(1), C2, C2)": 96}.items():
        assert builder.build(text).order() == order, text


def test_family_ex3_base_case_looks_like_s4():
    G = paper_family("EX3", 1)
    assert G.order() == 24
    A = structure.unique_minimal_normal(G)
    assert A is not None and A.order() == 4
    assert not G.is_abelian() and G.is_soluble()


def test_family_wreath():
    G = paper_family("WREATH", 1)
    assert G.order() == 168 ** 2 * 4 == 112896
    assert G.degree == 16
    N = PermGroup(16, G.gens[:4])
    assert N.order() == 168 ** 2
    gamma = G.gens[4]
    assert gamma not in N
    assert gamma * gamma not in N
    Q = quotient(G, N)
    assert Q.order() == 4
    assert Q.is_cyclic()
    with pytest.raises(CapExceeded):
        paper_family("WREATH", 2)


def test_family_parameter_bounds():
    with pytest.raises(GroupError):
        paper_family("EX1", 0)
    with pytest.raises(GroupError):
        paper_family("NOPE", 1)


def test_order_caps():
    with pytest.raises(CapExceeded):
        build("S4", order_cap=10)
    with pytest.raises(CapExceeded):
        build("S11")
    with pytest.raises(CapExceeded):
        build("W(C10, 8)")
    with pytest.raises(CapExceeded):
        build("D(S10, C4)")


def test_build_is_deterministic_and_labelled():
    a = build("D(S3,   C2)")
    b = build("D(S3, C2)")
    assert [g.images for g in a.gens] == [g.images for g in b.gens]
    assert a.label == "D(S3, C2)"


def test_evaluate_accepts_parsed_nodes():
    G = evaluate(parse("D(S3, C2)"))
    assert G.order() == 12
    assert G.degree == 5
