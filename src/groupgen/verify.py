"""Structural checks of the classification of finite groups whose
independent generating sets take at most two distinct sizes.

Three statements are covered, keyed by the gap m(G) - d(G) and solubility:

* MD_EQUAL (gap 0): the group is soluble and is either elementary abelian
  or an elementary abelian p-group extended by a cyclic q-group acting
  with homogeneous module structure.
* NONSOLUBLE_MONOLITHIC (gap 1, not soluble): d = 2, the group is
  monolithic primitive and the quotient by the socle is cyclic of prime
  power order.
* SOLUBLE_CASES (gap 1, soluble): one of three shapes matches, checked
  structurally (orders, normality, complements, module equivalences),
  never by general isomorphism testing.

Each verifier reads d, m, Frat(G), the chief series, the minimal normal
subgroups and the socle from one genset.Analysis and reports a
TheoremVerdict.  Failed hypotheses make a
verdict inapplicable; a structural mismatch on an applicable group is an
explicit red flag (ok=False), never silently reconciled.  The statements
are treated as oracles under test.

The SOLUBLE_CASES matcher tries case 2, then case 1, then case 3, so a
group admitting several decompositions gets a deterministic answer.  Case
2 matches a homogeneous component of the socle rather than the full socle
and does not insist that the complement acts faithfully: the motivating
example (C3^t : C2) x C2 has a central factor in every complement, yet is
the intended witness for case 2 with an abelian complement.  Cases 1 and 2
run once Frat(G) = 1, and an abelian normal W meeting Frat(G) trivially has
a complement (Gaschuetz, 1952): W splits, and a(G/W) = a(G) - t gives
m(G/W) = 2 for each case-2 candidate, so neither is computed.  Case 3's
quotient may have Frat != 1, so there W's splitting system is solved
(structure.FactorModule.has_complement).  A complement's properties are
read off G/W.
"""

from dataclasses import dataclass, field

from . import genset, structure
from .perm import PermGroup, factorint, is_prime_power, quotient

MD_EQUAL = "MD_EQUAL"
NONSOLUBLE_MONOLITHIC = "NONSOLUBLE_MONOLITHIC"
SOLUBLE_CASES = "SOLUBLE_CASES"


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one classification check.

    ok is True unless the group satisfied the hypotheses but failed the
    structural conclusion (a red flag).  Inapplicable verdicts carry the
    failed hypothesis in evidence["reason"].
    """

    theorem: str
    applicable: bool
    ok: bool
    case: int = None
    evidence: dict = field(default_factory=dict)


def _not_applicable(theorem, reason, **extra):
    evidence = {"reason": reason}
    evidence.update(extra)
    return TheoremVerdict(theorem, False, True, None, evidence)


def _red_flag(theorem, reason, **extra):
    evidence = {"reason": reason}
    evidence.update(extra)
    return TheoremVerdict(theorem, True, False, None, evidence)


def _trivial(G):
    return PermGroup(G.degree, ())


def _socle_components(A):
    """Homogeneous pieces of the abelian part of the socle of A.G.

    Minimal normal abelian subgroups are grouped by module equivalence;
    each group yields (W, factor, t) with W the product of the class, a
    representative chief factor, and t the number of copies inside W.
    """
    G = A.G
    triv = _trivial(G)
    classes = []
    for N in A.minimal_normal:
        if not N.is_abelian():
            continue
        f = structure.ChiefFactor(G, triv, N, A.limits)
        for cls in classes:
            if structure.gequivalent_abelian(cls[0], f):
                cls[1].append(N)
                break
        else:
            classes.append((f, [N]))
    out = []
    for factor, members in classes:
        gens = tuple(g for N in members for g in N.gens)
        W = PermGroup(G.degree, gens)
        dim_w = factorint(W.order())[factor.prime]
        out.append((W, factor, dim_w // factor.dim))
    return out


# ------------------------------------------------------------- gap zero


def verify_md_equal(A):
    """Check the classification of groups with d(G) = m(G)."""
    G = A.G
    fo = A.frattini.order()
    if fo != 1:
        return _not_applicable(MD_EQUAL, f"Frattini subgroup has order {fo}")
    d, m = A.d, A.m
    if m != d:
        return _not_applicable(MD_EQUAL, f"m - d = {m - d}, not 0", d=d, m=m)
    evidence = {"d": d, "m": m}
    if not G.is_soluble():
        return _red_flag(MD_EQUAL, "group is not soluble", **evidence)
    if G.order() == 1:
        evidence["shape"] = "trivial group"
        return TheoremVerdict(MD_EQUAL, True, True, 1, evidence)
    if structure.is_elementary_abelian(G):
        (p, _), = factorint(G.order()).items()
        evidence.update(shape="elementary abelian", prime=p)
        return TheoremVerdict(MD_EQUAL, True, True, 1, evidence)

    P = A.socle
    if not structure.is_elementary_abelian(P):
        return _red_flag(MD_EQUAL, "socle is not elementary abelian",
                         **evidence)
    (p, _), = factorint(P.order()).items()
    Q = quotient(G, P)
    qo = Q.order()
    if qo == 1 or not is_prime_power(qo) or not Q.is_cyclic():
        return _red_flag(MD_EQUAL,
                         "quotient by the socle is not a non-trivial cyclic"
                         " group of prime power order", **evidence)
    (q, _), = factorint(qo).items()
    if q == p:
        return _red_flag(MD_EQUAL, "socle and quotient share a prime",
                         **evidence)
    C = structure.factor_centralizer(G, P, _trivial(G), limits=A.limits)
    if not C.same_group_as(P):
        return _red_flag(MD_EQUAL, "the cyclic quotient does not act"
                         " faithfully on the socle", **evidence)
    copies = [f for f in A.series if f.is_abelian and f.prime == p]
    sizes = 1
    for f in copies:
        sizes *= f.order
    if sizes != P.order():
        return _red_flag(MD_EQUAL, "socle is not filled by the p-chief"
                         " factors", **evidence)
    for f in copies[1:]:
        if not structure.gequivalent_abelian(copies[0], f):
            return _red_flag(MD_EQUAL, "socle factors are not pairwise"
                             " equivalent", **evidence)
    if len(copies) != m - 1:
        return _red_flag(MD_EQUAL,
                         f"socle splits into {len(copies)} isomorphic"
                         f" modules, expected m - 1 = {m - 1}", **evidence)
    evidence.update(shape="elementary abelian by cyclic", prime=p,
                    quotient_prime=q, quotient_order=qo,
                    socle_order=P.order(), copies=len(copies),
                    module_dim=copies[0].dim)
    return TheoremVerdict(MD_EQUAL, True, True, 2, evidence)


# ------------------------------------------------------ gap one, not soluble


def verify_nonsoluble(A):
    """Check the monolithic classification of non-soluble gap-one groups."""
    G = A.G
    fo = A.frattini.order()
    if fo != 1:
        return _not_applicable(NONSOLUBLE_MONOLITHIC,
                               f"Frattini subgroup has order {fo}")
    if G.is_soluble():
        return _not_applicable(NONSOLUBLE_MONOLITHIC, "group is soluble")
    d, m = A.d, A.m
    if m - d != 1:
        return _not_applicable(NONSOLUBLE_MONOLITHIC,
                               f"m - d = {m - d}, not 1", d=d, m=m)
    evidence = {"d": d, "m": m}
    if d != 2:
        return _red_flag(NONSOLUBLE_MONOLITHIC, f"d = {d}, not 2", **evidence)
    # Frat(G) = 1, so a unique minimal normal subgroup avoids it
    if len(A.minimal_normal) != 1:
        return _red_flag(NONSOLUBLE_MONOLITHIC,
                         "group is not monolithic primitive", **evidence)
    S = A.socle
    Q = quotient(G, S)
    qo = Q.order()
    evidence.update(socle_order=S.order(), quotient_order=qo)
    if qo > 1 and not (Q.is_cyclic() and is_prime_power(qo)):
        return _red_flag(NONSOLUBLE_MONOLITHIC,
                         "quotient by the socle is not cyclic of prime"
                         " power order", **evidence)
    return TheoremVerdict(NONSOLUBLE_MONOLITHIC, True, True, None, evidence)


# -------------------------------------------------------- gap one, soluble


def _match_case2(A):
    """G = V^t : H with m(H) = 2 and t = 1 or H abelian; d = t + 1."""
    G, d = A.G, A.d
    candidates = []
    for W, factor, t in _socle_components(A):
        if t != d - 1:
            continue
        H = quotient(G, W)
        if not (t == 1 or H.is_abelian()):
            continue
        # Frat(G) = 1: W splits (Gaschuetz), and m(H) = a(G) - t = 2
        candidates.append((W, factor, t, H))
    if not candidates:
        return None
    # candidates tying on this key have the same |W|, so the same evidence
    candidates.sort(key=lambda c: (not c[3].is_abelian(), -c[2], c[3].order()))
    W, factor, t, H = candidates[0]
    return {"t": t, "module_order": factor.order,
            "module_prime": factor.prime, "module_dim": factor.dim,
            "component_order": W.order(), "complement_order": H.order(),
            "complement_abelian": H.is_abelian(), "m_of_complement": 2}


def _match_case1(A):
    """G = V : P with P a non-cyclic p-group, V of different prime
    characteristic; d = d(P), the p-rank of P/P' (Burnside's basis
    theorem), so P needs no search."""
    G, d = A.G, A.d
    for V in A.minimal_normal:
        if not V.is_abelian():
            continue
        Q = quotient(G, V)
        qo = Q.order()
        if qo == 1 or not is_prime_power(qo) or Q.is_cyclic():
            continue
        (p, _), = factorint(qo).items()
        (r, _), = factorint(V.order()).items()
        if p == r:
            continue
        if genset.lower_bound_d(Q) != d:
            continue
        # Frat(G) = 1, so V has a complement (Gaschuetz)
        return {"module_order": V.order(), "module_prime": r,
                "p_group_order": qo, "p_group_prime": p, "d_of_p_group": d}
    return None


def _match_quotient_shape(Q, d, limits):
    """Q = V^t : H with H non-trivial cyclic of prime power order and
    t = d - 1 (t = 0 when d = 1 and Q itself is such an H)."""
    qo = Q.order()
    if d == 1:
        if qo > 1 and is_prime_power(qo) and Q.is_cyclic():
            return {"t": 0, "complement_order": qo}
        return None
    for W, factor, t in _socle_components(genset.Analysis(Q, limits)):
        if t != d - 1:
            continue
        H = quotient(Q, W)
        ho = H.order()
        if ho == 1 or not is_prime_power(ho) or not H.is_cyclic():
            continue
        # Q = Q1 may have Frat(Q) != 1, so W need not split there
        module = structure.FactorModule(Q, W, _trivial(Q))
        if not module.has_complement(limits=limits):
            continue
        return {"t": t, "module_order": factor.order,
                "module_prime": factor.prime, "complement_order": ho}
    return None


def _match_case3(A):
    """Normal 1 < N1 <= N2 with N1 abelian minimal normal, N2/N1 inside
    Frat(G/N1) and G/N2 of the cyclic-complement shape; d = t + 1."""
    G, d, limits = A.G, A.d, A.limits
    for N1 in A.minimal_normal:
        if not N1.is_abelian():
            continue
        Q1 = quotient(G, N1)
        frat1 = structure.frattini(Q1, limits=limits)
        tops = [frat1]
        if frat1.order() > 1:
            tops.append(_trivial(Q1))
        for F in tops:
            if F.order() == 1:
                Q = Q1
            else:
                Q = quotient(Q1, F)
            info = _match_quotient_shape(Q, d, limits)
            if info is not None:
                info.update(n1_order=N1.order(),
                            n2_order=N1.order() * F.order(),
                            quotient_order=Q.order())
                return info
    return None


def verify_soluble_cases(A):
    """Check the three-shape classification of soluble gap-one groups."""
    G = A.G
    fo = A.frattini.order()
    if fo != 1:
        return _not_applicable(SOLUBLE_CASES,
                               f"Frattini subgroup has order {fo}")
    if not G.is_soluble():
        return _not_applicable(SOLUBLE_CASES, "group is not soluble")
    d, m = A.d, A.m
    if m - d != 1:
        return _not_applicable(SOLUBLE_CASES, f"m - d = {m - d}, not 1",
                               d=d, m=m)
    base = {"d": d, "m": m}
    info = _match_case2(A)
    if info is not None:
        return TheoremVerdict(SOLUBLE_CASES, True, True, 2, {**base, **info})
    info = _match_case1(A)
    if info is not None:
        return TheoremVerdict(SOLUBLE_CASES, True, True, 1, {**base, **info})
    info = _match_case3(A)
    if info is not None:
        return TheoremVerdict(SOLUBLE_CASES, True, True, 3, {**base, **info})
    return _red_flag(SOLUBLE_CASES, "no case matched", **base)


def verify_all(A):
    """All three verdicts on one Analysis, which computes d, m and the
    Frattini subgroup once for the three."""
    return verify_md_equal(A), verify_nonsoluble(A), verify_soluble_cases(A)
