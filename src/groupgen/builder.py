"""A small construction language for permutation groups.

Grammar (whitespace-insensitive, one expression per string):

    expr   := ATOM | "D(" expr {"," expr} ")" | "W(" expr "," INT ")"
            | "SD(" expr "," expr "," action ")"
            | "Q(" expr ";" words ")" | "SUB(" expr ";" words ")"
            | "CROWN(" expr "," INT ")" | FAMILY "(" INT ")"
    ATOM   := "C"INT | "S"INT | "A"INT | "Dih"INT | "K4"
            | "PSL2(" INT ")" | "PGL2(" INT ")"
    FAMILY := "EX1" | "EX2A" | "EX2B" | "EX3" | "WREATH"
    words  := word {"," word}
    word   := factor {"*" factor}       factor := "g"INT | cycles
    cycles := "(" INT {"," INT} ")" { "(" INT {"," INT} ")" }   (1-based)
    action := "[" entry {";" entry} "]"
    entry  := "g"INT "->" "[" word {"," word} "]"

Evaluation is deterministic: the same text always produces the same
generator list.  Direct products act on the disjoint union of the factors'
points, wreath products W(X, n) = X wr C_n on n copies of X's points, and
semidirect products SD(N, H, action) either reuse N's points (when every
action automorphism is induced by a permutation of them) or fall back to
the regular representation of N; in both cases H keeps its own points, so
the result is faithful.  Constructed orders are capped.
"""

import math
import re
from dataclasses import dataclass

from . import crowns, structure
from .perm import (MAX_DEGREE, CapExceeded, GroupError, Homomorphism, Perm,
                   PermGroup, is_prime, quotient)

DEFAULT_ORDER_CAP = 10_000_000

FAMILY_NAMES = ("EX1", "EX2A", "EX2B", "EX3", "WREATH")


class ParseError(GroupError):
    """A syntax problem, annotated with its 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ----------------------------------------------------------------- AST


@dataclass(frozen=True)
class Atom:
    name: str
    param: int


@dataclass(frozen=True)
class DirectProduct:
    parts: tuple


@dataclass(frozen=True)
class WreathCyclic:
    base: object
    n: int


@dataclass(frozen=True)
class Semidirect:
    normal: object
    acting: object
    action: tuple  # ((acting gen index, (word, ...)), ...)


@dataclass(frozen=True)
class Quotient:
    expr: object
    words: tuple


@dataclass(frozen=True)
class Subgroup:
    expr: object
    words: tuple


@dataclass(frozen=True)
class CrownPower:
    expr: object
    k: int


@dataclass(frozen=True)
class PaperFamily:
    name: str
    t: int


# ------------------------------------------------------------ tokenizer

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|->|[(),;\[\]*]")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tok = m.group()
        kind = ("NAME" if tok[0].isalpha()
                else "INT" if tok[0].isdigit() else tok)
        tokens.append((kind, tok, line, col))
        col += len(tok)
        i = m.end()
    tokens.append(("END", "", line, col))
    return tokens


class _Parser:
    _ATOM_RE = re.compile(r"(C|S|A|Dih)(\d+)$")

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message):
        _, value, line, col = self._peek()
        shown = f", found {value!r}" if value else ", found end of input"
        raise ParseError(message + shown, line, col)

    def _expect(self, kind, what=None):
        if self._peek()[0] != kind:
            self._fail(f"expected {what if what else repr(kind)}")
        return self._next()

    def _int(self, what="an integer"):
        tok = self._expect("INT", what)
        return int(tok[1])

    def parse(self):
        expr = self.expr()
        if self._peek()[0] != "END":
            self._fail("unexpected trailing input")
        return expr

    def expr(self):
        if self._peek()[0] != "NAME":
            self._fail("expected a group expression")
        kind, name, line, col = self._next()
        if name == "D":
            self._expect("(")
            parts = [self.expr()]
            while self._peek()[0] == ",":
                self._next()
                parts.append(self.expr())
            self._expect(")")
            if len(parts) < 2:
                raise ParseError("D needs at least two factors", line, col)
            return DirectProduct(tuple(parts))
        if name == "W":
            self._expect("(")
            base = self.expr()
            self._expect(",")
            n = self._int("the number of copies")
            self._expect(")")
            return WreathCyclic(base, n)
        if name == "SD":
            self._expect("(")
            normal = self.expr()
            self._expect(",")
            acting = self.expr()
            self._expect(",")
            action = self.action()
            self._expect(")")
            return Semidirect(normal, acting, action)
        if name in ("Q", "SUB"):
            self._expect("(")
            inner = self.expr()
            self._expect(";")
            words = self.words()
            self._expect(")")
            node = Quotient if name == "Q" else Subgroup
            return node(inner, words)
        if name == "CROWN":
            self._expect("(")
            inner = self.expr()
            self._expect(",")
            k = self._int("the crown exponent")
            self._expect(")")
            return CrownPower(inner, k)
        if name in FAMILY_NAMES:
            self._expect("(")
            t = self._int("the family parameter")
            self._expect(")")
            return PaperFamily(name, t)
        if name in ("PSL2", "PGL2"):
            self._expect("(")
            q = self._int("the field size")
            self._expect(")")
            return Atom(name, q)
        if name == "K4":
            return Atom("K4", 0)
        m = self._ATOM_RE.match(name)
        if m:
            return Atom(m.group(1), int(m.group(2)))
        raise ParseError(f"unknown atom or constructor {name!r}", line, col)

    def words(self):
        out = [self.word()]
        while self._peek()[0] == ",":
            self._next()
            out.append(self.word())
        return tuple(out)

    def word(self):
        factors = [self.factor()]
        while self._peek()[0] == "*":
            self._next()
            factors.append(self.factor())
        return tuple(factors)

    def factor(self):
        if self._peek()[0] == "(":
            cycles = []
            while self._peek()[0] == "(":
                self._next()
                points = [self._cycle_point()]
                while self._peek()[0] == ",":
                    self._next()
                    points.append(self._cycle_point())
                self._expect(")")
                cycles.append(tuple(points))
            return ("perm", tuple(cycles))
        tok = self._expect("NAME", "a generator name or a cycle literal")
        m = re.fullmatch(r"g(\d+)", tok[1])
        if m is None or int(m.group(1)) < 1:
            raise ParseError(f"expected a generator name like 'g1', found"
                             f" {tok[1]!r}", tok[2], tok[3])
        return ("gen", int(m.group(1)) - 1)

    def _cycle_point(self):
        tok = self._expect("INT", "a 1-based point")
        value = int(tok[1])
        if value < 1:
            raise ParseError("cycle points are 1-based", tok[2], tok[3])
        return value - 1

    def action(self):
        self._expect("[")
        entries = [self._action_entry()]
        while self._peek()[0] == ";":
            self._next()
            entries.append(self._action_entry())
        self._expect("]")
        return tuple(entries)

    def _action_entry(self):
        tok = self._expect("NAME", "an acting generator name")
        m = re.fullmatch(r"g(\d+)", tok[1])
        if m is None or int(m.group(1)) < 1:
            raise ParseError(f"expected a generator name like 'g1', found"
                             f" {tok[1]!r}", tok[2], tok[3])
        self._expect("->")
        self._expect("[")
        images = [self.word()]
        while self._peek()[0] == ",":
            self._next()
            images.append(self.word())
        self._expect("]")
        return (int(m.group(1)) - 1, tuple(images))


def parse(text):
    """Parse an expression, raising ParseError with position on bad input."""
    return _Parser(text).parse()


# ------------------------------------------------------------ atom groups


def _cyclic(n):
    return PermGroup(n, (Perm.from_cycles(n, [tuple(range(n))]),))


def _symmetric(n):
    if n == 1:
        return PermGroup(1, ())
    gens = (Perm.from_cycles(n, [tuple(range(n))]),
            Perm.from_cycles(n, [(0, 1)]))
    return PermGroup(n, gens)


def _alternating(n):
    gens = tuple(Perm.from_cycles(n, [(i, i + 1, i + 2)])
                 for i in range(n - 2))
    return PermGroup(max(n, 1), gens)


def _dihedral(n):
    gens = (Perm.from_cycles(n, [tuple(range(n))]),
            Perm(tuple((n - i) % n for i in range(n))))
    return PermGroup(n, gens)


def _klein():
    return PermGroup(4, (Perm.from_cycles(4, [(0, 1), (2, 3)]),
                         Perm.from_cycles(4, [(0, 2), (1, 3)])))


def _projective(q, full):
    """PSL2(q) or PGL2(q) on the q+1 points of the projective line,
    generated by x -> x+1, x -> -1/x and (for PGL2, q odd) x -> lambda x
    with lambda the least non-residue."""
    if not is_prime(q) or q > 23:
        raise GroupError(f"projective atoms need a prime field size"
                         f" at most 23, got {q}")
    inf = q

    def mobius(f):
        return Perm(tuple(f(x) for x in range(q + 1)))

    shift = mobius(lambda x: inf if x == inf else (x + 1) % q)
    flip = mobius(lambda x: inf if x == 0 else
                  0 if x == inf else (-pow(x, q - 2, q)) % q)
    gens = [shift, flip]
    expected = q * (q * q - 1)
    if not full and q > 2:
        expected //= 2
    if full and q > 2:
        residues = {x * x % q for x in range(1, q)}
        lam = min(set(range(1, q)) - residues)
        gens.append(mobius(lambda x: inf if x == inf else x * lam % q))
    G = PermGroup(q + 1, tuple(gens))
    if G.order() != expected:
        raise GroupError("projective group closure check failed")
    return G


# ------------------------------------------------------------- evaluation


def _eval_word(word, G, role):
    out = G.identity()
    for kind, value in word:
        if kind == "gen":
            if value >= len(G.gens):
                raise GroupError(
                    f"{role} word uses g{value + 1} but the group has only"
                    f" {len(G.gens)} generator(s)")
            out = out * G.gens[value]
        else:
            top = max(p for cycle in value for p in cycle)
            if top >= G.degree:
                raise GroupError(
                    f"{role} cycle literal moves point {top + 1} beyond"
                    f" degree {G.degree}")
            try:
                out = out * Perm.from_cycles(G.degree, value)
            except ValueError as exc:
                raise GroupError(f"{role} cycle literal: {exc}") from None
    return out


def _shifted_gens(groups):
    """Generators of each group acting on the disjoint union of their points."""
    total = sum(G.degree for G in groups)
    out = []
    offset = 0
    for G in groups:
        out.append(tuple(g.shifted(offset, total) for g in G.gens))
        offset += G.degree
    return total, out


def _direct_product(groups, order_cap):
    order = math.prod(G.order() for G in groups)
    if order > order_cap:
        raise CapExceeded(f"direct product order {order} exceeds {order_cap}")
    total, blocks = _shifted_gens(groups)
    if total > MAX_DEGREE:
        raise CapExceeded(f"direct product degree {total} exceeds {MAX_DEGREE}")
    gens = tuple(g for block in blocks for g in block)
    G = PermGroup(total, gens)
    if G.order() != order:
        raise GroupError("direct product order check failed")  # pragma: no cover
    return G


def _wreath_cyclic(X, n, order_cap):
    if n < 1:
        raise GroupError("wreath products need at least one copy")
    order = X.order() ** n * n
    if order > order_cap:
        raise CapExceeded(f"wreath order {order} exceeds {order_cap}")
    deg = X.degree
    total = n * deg
    if total > MAX_DEGREE:
        raise CapExceeded(f"wreath degree {total} exceeds {MAX_DEGREE}")
    gens = [g.shifted(0, total) for g in X.gens]
    gens.append(Perm(tuple((i + deg) % total for i in range(total))))
    W = PermGroup(total, tuple(gens))
    if W.order() != order:
        raise GroupError("wreath order check failed")  # pragma: no cover
    return W


def _automorphism_images(N, words, role):
    images = tuple(_eval_word(w, N, role) for w in words)
    hom = Homomorphism(N, N, images)
    if not hom.is_valid() or hom.image_group().order() != N.order():
        raise GroupError(f"{role} does not define an automorphism of the"
                         " normal part")
    return images


def _point_conjugator(N, images):
    """A permutation pi of N's points with g^pi = phi(g) for every
    generator, or None when the automorphism is not point-induced."""
    deg = N.degree
    pairs = list(zip(N.gens, images))
    pi = [None] * deg
    used = [False] * deg

    def undo(assigned):
        for y in assigned:
            used[pi[y]] = False
            pi[y] = None

    def propagate(point, value):
        """Force pi along the generator graph; returns the assignments
        made, or None on conflict (with any partial work undone)."""
        assigned = []
        stack = [(point, value)]
        while stack:
            y, v = stack.pop()
            if pi[y] is not None:
                if pi[y] == v:
                    continue
                undo(assigned)
                return None
            if used[v]:
                undo(assigned)
                return None
            pi[y] = v
            used[v] = True
            assigned.append(y)
            for g, f in pairs:
                stack.append((g.images[y], f.images[v]))
        return assigned

    def search(start):
        point = next((y for y in range(start, deg) if pi[y] is None), None)
        if point is None:
            return True
        for value in range(deg):
            if used[value]:
                continue
            assigned = propagate(point, value)
            if assigned is None:
                continue
            if search(point + 1):
                return True
            undo(assigned)
        return False

    if search(0):
        return Perm(tuple(pi))
    return None


def _semidirect(N, H, action, order_cap):
    by_index = {}
    for idx, words in action:
        if idx >= len(H.gens):
            raise GroupError(f"action names g{idx + 1} but the acting group"
                             f" has only {len(H.gens)} generator(s)")
        if idx in by_index:
            raise GroupError(f"action maps g{idx + 1} twice")
        if len(words) != len(N.gens):
            raise GroupError(
                f"action for g{idx + 1} needs one image per normal"
                f" generator ({len(N.gens)}), got {len(words)}")
        by_index[idx] = words
    missing = [i for i in range(len(H.gens)) if i not in by_index]
    if missing:
        raise GroupError(f"action gives no image list for g{missing[0] + 1}")
    auts = [_automorphism_images(N, by_index[i], f"action for g{i + 1}")
            for i in range(len(H.gens))]
    order = N.order() * H.order()
    if order > order_cap:
        raise CapExceeded(f"semidirect order {order} exceeds {order_cap}")

    conjugators = [_point_conjugator(N, images) for images in auts]
    if all(c is not None for c in conjugators):
        total = N.degree + H.degree
        gens = [g.extended(total) for g in N.gens]
        for pi, h in zip(conjugators, H.gens):
            gens.append(Perm(pi.images + tuple(N.degree + x
                                               for x in h.images)))
        G = PermGroup(total, tuple(gens))
        if G.order() == order:
            return G
        # the conjugators exist pointwise but break the acting group's
        # relations; fall through to the regular representation

    if N.order() + H.degree > MAX_DEGREE:
        raise CapExceeded("semidirect regular representation degree exceeds"
                          f" {MAX_DEGREE}")
    elems = N.elements()
    index = {e: i for i, e in enumerate(elems)}
    points = len(elems)
    total = points + H.degree
    gens = []
    for n in N.gens:
        gens.append(Perm(tuple(index[e * n] for e in elems)
                         + tuple(range(points, total))))
    for images, h in zip(auts, H.gens):
        hom = Homomorphism(N, N, images)
        gens.append(Perm(tuple(index[hom(e)] for e in elems)
                         + tuple(points + x for x in h.images)))
    G = PermGroup(total, tuple(gens))
    if G.order() != order:
        raise GroupError("the action is not a homomorphism into the"
                         " automorphism group")
    return G


def _atom(node, order_cap):
    name, p = node.name, node.param
    if name == "C":
        if p < 1:
            raise GroupError("cyclic groups need n >= 1")
        if p > order_cap:
            raise CapExceeded(f"order {p} exceeds {order_cap}")
        return _cyclic(p)
    if name == "S":
        if p < 1:
            raise GroupError("symmetric groups need n >= 1")
        if math.factorial(p) > order_cap:
            raise CapExceeded(f"order {p}! exceeds {order_cap}")
        return _symmetric(p)
    if name == "A":
        if p < 1:
            raise GroupError("alternating groups need n >= 1")
        if math.factorial(p) // 2 > order_cap:
            raise CapExceeded(f"order {p}!/2 exceeds {order_cap}")
        return _alternating(p)
    if name == "Dih":
        if p < 3:
            raise GroupError("dihedral groups need n >= 3")
        if 2 * p > order_cap:
            raise CapExceeded(f"order {2 * p} exceeds {order_cap}")
        return _dihedral(p)
    if name == "K4":
        return _klein()
    if name in ("PSL2", "PGL2"):
        return _projective(p, full=(name == "PGL2"))
    raise GroupError(f"unknown atom {name!r}")  # pragma: no cover


def evaluate(node, order_cap=DEFAULT_ORDER_CAP):
    """Evaluate a parsed expression to a permutation group."""
    if isinstance(node, Atom):
        return _atom(node, order_cap)
    if isinstance(node, DirectProduct):
        parts = [evaluate(p, order_cap) for p in node.parts]
        return _direct_product(parts, order_cap)
    if isinstance(node, WreathCyclic):
        X = evaluate(node.base, order_cap)
        return _wreath_cyclic(X, node.n, order_cap)
    if isinstance(node, Semidirect):
        N = evaluate(node.normal, order_cap)
        H = evaluate(node.acting, order_cap)
        return _semidirect(N, H, node.action, order_cap)
    if isinstance(node, Quotient):
        G = evaluate(node.expr, order_cap)
        seeds = tuple(_eval_word(w, G, "quotient") for w in node.words)
        N = G.normal_closure(seeds)
        Q = quotient(G, N)
        return Q
    if isinstance(node, Subgroup):
        G = evaluate(node.expr, order_cap)
        gens = tuple(_eval_word(w, G, "subgroup") for w in node.words)
        for g in gens:
            if g not in G:
                raise GroupError("subgroup word is not an element of the group")
        return PermGroup(G.degree, gens)
    if isinstance(node, CrownPower):
        L = evaluate(node.expr, order_cap)
        A = structure.unique_minimal_normal(L)
        if A is None:
            raise GroupError("crown powers need a unique minimal normal"
                             " subgroup")
        order = A.order() ** (node.k - 1) * L.order() if node.k >= 1 else 0
        if order > order_cap:
            raise CapExceeded(f"crown power order {order} exceeds {order_cap}")
        return crowns.crown_power(L, A, node.k)
    if isinstance(node, PaperFamily):
        return paper_family(node.name, node.t, order_cap)
    raise GroupError(f"cannot evaluate {node!r}")  # pragma: no cover


def build(text, order_cap=DEFAULT_ORDER_CAP):
    """Parse and evaluate, labelling the result with the source text."""
    G = evaluate(parse(text), order_cap)
    G.label = " ".join(text.split())
    return G


# ---------------------------------------------------------- paper families


def _family_ex1(t):
    """S3 x C2^t."""
    total = 3 + 2 * t
    gens = [Perm.from_cycles(total, [(0, 1, 2)]),
            Perm.from_cycles(total, [(0, 1)])]
    for i in range(t):
        gens.append(Perm.from_cycles(total, [(3 + 2 * i, 4 + 2 * i)]))
    return PermGroup(total, tuple(gens))


def _family_ex2b(t):
    """(C3^t : C2) x C2, the C2 inverting every C3 block."""
    total = 3 * t + 2
    gens = [Perm.from_cycles(total, [tuple(range(3 * i, 3 * i + 3))])
            for i in range(t)]
    gens.append(Perm.from_cycles(total,
                                 [(3 * i + 1, 3 * i + 2) for i in range(t)]))
    gens.append(Perm.from_cycles(total, [(3 * t, 3 * t + 1)]))
    return PermGroup(total, tuple(gens))


def _family_ex3(t):
    """K : (S3 x C2^(t-1)) from its literal generators.

    K is the Klein group inside S4 on the first four points; S3 sits
    diagonally on those points and on three of its own; each extra C2
    generator combines its own swap with the K-automorphism induced by
    the transposition (1 2).  The closure is wider than
    |K|*|S3|*2^(t-1) for t >= 2 because the planted transposition does
    not commute with the diagonal S3.  With the extra C2s acting
    trivially instead, the group is D(EX3(1), C2, ..., C2).
    """
    total = 7 + 2 * (t - 1)
    gens = [Perm.from_cycles(total, [(0, 1), (2, 3)]),
            Perm.from_cycles(total, [(0, 2), (1, 3)]),
            Perm.from_cycles(total, [(0, 1, 2), (4, 5, 6)]),
            Perm.from_cycles(total, [(0, 1), (4, 5)])]
    for i in range(t - 1):
        gens.append(Perm.from_cycles(total, [(0, 1), (7 + 2 * i, 8 + 2 * i)]))
    return PermGroup(total, tuple(gens))


def _family_wreath(t, order_cap):
    """<soc(W), gamma> inside Aut(PSL2(7)) wr C_n with n = 2^t and
    gamma = sigma (a, 1, ..., 1), a a fixed element outside PSL2(7).

    The socle is PSL2(7)^n; gamma cycles the blocks and feeds one factor
    of a through per round, so gamma^n = (a, ..., a) lies outside the
    socle and the quotient is cyclic of order 2^(t+1).
    """
    n = 2 ** t
    order = 168 ** n * 2 * n
    if order > order_cap:
        raise CapExceeded(f"order {order} exceeds {order_cap}")
    S = _projective(7, full=False)
    A = _projective(7, full=True)
    a = next(g for g in A.gens if g not in S)
    deg = S.degree
    total = n * deg
    gens = [g.shifted(i * deg, total) for i in range(n) for g in S.gens]
    gamma = [None] * total
    for i in range(n):
        for x in range(deg):
            if i < n - 1:
                gamma[i * deg + x] = (i + 1) * deg + x
            else:
                gamma[i * deg + x] = a.images[x]
    gens.append(Perm(tuple(gamma)))
    G = PermGroup(total, tuple(gens))
    if G.order() != order:
        raise GroupError("wreath family order check failed")  # pragma: no cover
    return G


def paper_family(name, t, order_cap=DEFAULT_ORDER_CAP):
    """One of the named example families, at parameter t >= 1."""
    if t < 1:
        raise GroupError("family parameter must be at least 1")
    if name == "EX1":
        order = 6 * 2 ** t
        if order > order_cap:
            raise CapExceeded(f"order {order} exceeds {order_cap}")
        return _family_ex1(t)
    if name == "EX2A":
        if t != 1:
            raise GroupError("EX2A is a single group; its parameter must be 1")
        return _symmetric(4)
    if name == "EX2B":
        order = 4 * 3 ** t
        if order > order_cap:
            raise CapExceeded(f"order {order} exceeds {order_cap}")
        return _family_ex2b(t)
    if name == "EX3":
        bound = 288 * 2 ** t  # above the closure order
        if bound > order_cap:
            raise CapExceeded(f"order may reach {bound}, exceeding {order_cap}")
        return _family_ex3(t)
    if name == "WREATH":
        return _family_wreath(t, order_cap)
    raise GroupError(f"unknown family {name!r}")
