"""ATL formulas: syntax tree, concrete grammar, the checkable fragment,
and linear-time path evaluation over lassos.

Grammar (one formula per string)::

    formula  := or
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary | primary
    primary  := 'true' | <place> | '(' formula ')' | coalition
    coalition:= '<<' id (',' id)* '>>' temporal
    temporal := ('G' | 'F' | 'X') unary | 'U' '(' formula ',' formula ')'

``F phi`` is stored as ``U(true, phi)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputError
from .nets import NetSystem

TEMPORAL_OPS = ("X", "G", "U", "F")

#: Deepest nesting of '!', parentheses, coalitions and '&'/'|' chain
#: operands (each after the first is one level) that parses; the parser
#: and every walk over the syntax tree recurse once per level.
MAX_NESTING = 100


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class TrueConst:
    pass


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Coalition:
    users: tuple
    op: str                  # "X", "G" or "U" (F is desugared)
    args: tuple              # one formula for X/G, two for U


Formula = object  # union of the node classes above


_TOKEN = re.compile(r"\s*(<<|>>|[(),|&!]|[A-Za-z_][A-Za-z0-9_]*)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise InputError(f"syntax error at column {col}: "
                                 f"unexpected character {stripped[0]!r}")
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def column(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text) + 2

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            want = f"{expected!r}" if expected else "a token"
            raise InputError(f"syntax error at column {self.column()}: "
                             f"expected {want}, found {tok!r}")
        self.i += 1
        return tok

    def enter(self) -> None:
        """Open a nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError(f"syntax error at column {self.column()}: "
                             f"formula nested deeper than {MAX_NESTING} levels")

    # -- grammar ---------------------------------------------------------

    def formula(self) -> Formula:
        # a chain builds a left-deep tree: each operand after the first
        # nests one level, released once the chain ends
        depth, node = self.depth, self.conjunction()
        while self.peek() == "|":
            self.enter()
            self.take()
            node = Or(node, self.conjunction())
        self.depth = depth
        return node

    def conjunction(self) -> Formula:
        depth, node = self.depth, self.unary()
        while self.peek() == "&":
            self.enter()
            self.take()
            node = And(node, self.unary())
        self.depth = depth
        return node

    def unary(self) -> Formula:
        if self.peek() == "!":
            self.enter()
            self.take()
            node = Not(self.unary())
            self.depth -= 1
            return node
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise InputError(f"syntax error at column {self.column()}: "
                             "unexpected end of formula")
        if tok in ("(", "<<"):
            self.enter()
            if tok == "(":
                self.take()
                node = self.formula()
                self.take(")")
            else:
                node = self.coalition()
            self.depth -= 1
            return node
        if tok == "true":
            self.take()
            return TrueConst()
        if tok in TEMPORAL_OPS or tok in {")", ",", ">>", "|", "&"}:
            raise InputError(f"syntax error at column {self.column()}: "
                             f"unexpected {tok!r}")
        self.take()
        return Prop(tok)

    def coalition(self) -> Formula:
        self.take("<<")
        users = [self.take()]
        while self.peek() == ",":
            self.take()
            users.append(self.take())
        self.take(">>")
        op = self.take()
        if op not in TEMPORAL_OPS:
            raise InputError(f"syntax error at column {self.column()}: "
                             f"expected a temporal operator, found {op!r}")
        users_t = tuple(sorted(set(users)))
        if op == "U":
            self.take("(")
            left = self.formula()
            self.take(",")
            right = self.formula()
            self.take(")")
            return Coalition(users_t, "U", (left, right))
        sub = self.unary()
        if op == "F":
            return Coalition(users_t, "U", (TrueConst(), sub))
        return Coalition(users_t, op, (sub,))


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    if parser.peek() is not None:
        raise InputError(f"syntax error at column {parser.column()}: "
                         f"trailing input {parser.peek()!r}")
    return node


def format_formula(f: Formula) -> str:
    """Canonical print; parse(format(f)) == f."""
    def rank(node: Formula) -> int:
        if isinstance(node, Or):
            return 0
        return 1 if isinstance(node, And) else 2

    def fmt(node: Formula, min_rank: int, strict: bool) -> str:
        # parenthesise when binding would change on re-parsing; binary
        # operators are left-associative, so a same-rank right child needs
        # explicit parentheses
        text = format_formula(node)
        r = rank(node)
        if r < min_rank or (strict and r == min_rank and r < 2):
            return f"({text})"
        return text

    if isinstance(f, Prop):
        return f.name
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, Not):
        return "!" + fmt(f.sub, 2, False)
    if isinstance(f, Or):
        return f"{fmt(f.left, 0, False)} | {fmt(f.right, 0, True)}"
    if isinstance(f, And):
        return f"{fmt(f.left, 1, False)} & {fmt(f.right, 1, True)}"
    if isinstance(f, Coalition):
        head = "<<" + ",".join(f.users) + ">>"
        if f.op == "U":
            return f"{head} U({format_formula(f.args[0])}, {format_formula(f.args[1])})"
        return f"{head} {f.op} {fmt(f.args[0], 2, False)}"
    raise InputError(f"not a formula node: {f!r}")


def operands(f: Formula) -> tuple:
    """The direct subformulas of ``f``, in order."""
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, (Or, And)):
        return f.left, f.right
    return f.args if isinstance(f, Coalition) else ()


def subformulas(f: Formula):
    """``f`` and its subformulas in pre-order: each before its operands."""
    yield f
    for arg in operands(f):
        yield from subformulas(arg)


def check_fragment(f: Formula, net: NetSystem) -> list[str]:
    """The checkable fragment: no X under a quantifier, every coalition is
    the grand coalition of all users, every proposition names a place."""
    violations: list[str] = []
    all_users = frozenset(net.users)
    for node in subformulas(f):
        if isinstance(node, Coalition):
            if node.op == "X":
                violations.append("X operator")
            if frozenset(node.users) != all_users:
                violations.append("sub-coalition {" + ",".join(node.users) + "}")
        elif isinstance(node, Prop) and node.name not in net.places:
            violations.append(f"unknown proposition {node.name}")
    return violations


def state_props(state, bp=None) -> frozenset:
    """Propositions holding in a marking (itself) or in a B-cut (its labels)."""
    if bp is not None:
        return frozenset(bp.conditions[c].label for c in state)
    return frozenset(state)


def holds_in(f: Formula, props: frozenset) -> bool:
    """Evaluate a boolean (coalition-free) formula over a proposition set."""
    if isinstance(f, Prop):
        return f.name in props
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, Not):
        return not holds_in(f.sub, props)
    if isinstance(f, Or):
        return holds_in(f.left, props) or holds_in(f.right, props)
    if isinstance(f, And):
        return holds_in(f.left, props) and holds_in(f.right, props)
    raise InputError("path evaluation needs a boolean formula, "
                     f"found {type(f).__name__}")


@dataclass(frozen=True)
class PathFormula:
    """Outermost temporal operator over boolean state predicates."""
    op: str                       # "G" or "U"
    left: Formula
    right: Optional[Formula] = None

    @staticmethod
    def from_coalition(f: Coalition) -> "PathFormula":
        if f.op == "G":
            return PathFormula("G", f.args[0])
        if f.op == "U":
            return PathFormula("U", f.args[0], f.args[1])
        raise InputError(f"unsupported temporal operator {f.op!r} in path formula")

    def __str__(self) -> str:
        if self.op == "G":
            return f"G {format_formula(self.left)}"
        return f"U({format_formula(self.left)}, {format_formula(self.right)})"


def path_satisfies(prefix: Sequence[frozenset], cycle: Sequence[frozenset],
                   pf: PathFormula) -> bool:
    """Evaluate a path formula on a lasso of proposition sets.

    The cycle repeats forever; an empty cycle means the last prefix
    position repeats forever.  One pass over prefix plus cycle decides
    both operators exactly.
    """
    prefix = list(prefix)
    cycle = list(cycle)
    if not prefix and not cycle:
        raise InputError("empty lasso")
    if not cycle:
        cycle = [prefix[-1]]
    word = prefix + cycle
    if pf.op == "G":
        return all(holds_in(pf.left, props) for props in word)
    if pf.op == "U":
        for props in word:
            if holds_in(pf.right, props):
                return True
            if not holds_in(pf.left, props):
                return False
        return False
    raise InputError(f"unknown path operator {pf.op!r}")


def canonical_lasso(prefix: Sequence, cycle: Sequence) -> tuple[tuple, tuple]:
    """Canonical form of the eventually periodic word ``prefix . cycle^w``
    after removing stutter: shortest prefix, primitive cycle.

    An all-equal cycle yields an empty canonical cycle: the word is
    finite up to the trailing repetition of its last symbol.
    """
    prefix = list(prefix)
    cycle = list(cycle)
    if not prefix and not cycle:
        return (), ()

    def collapse(seq):
        out = []
        for sym in seq:
            if not out or out[-1] != sym:
                out.append(sym)
        return out

    if not cycle or len(set(cycle)) == 1:
        tail = [cycle[0]] if cycle else []
        return tuple(collapse(prefix + tail)), ()

    # primitive period of the collapsed cycle, read circularly
    core = collapse(cycle)
    if len(core) > 1 and core[0] == core[-1]:
        core = core[:-1]
    for span in range(1, len(core)):
        if len(core) % span == 0 and core == core[: span] * (len(core) // span):
            core = core[: span]
            break
    period = len(core)

    # three unrolled passes put the tail safely inside the periodic regime
    word = collapse(prefix + cycle * 3)
    phase = word[-period:]
    head = word[: -period]
    while len(head) >= period and head[-period:] == phase:
        head = head[: -period]
    # pull shared symbols from the head into the cycle (unique shortest head)
    while head and head[-1] == phase[-1]:
        phase = [phase[-1]] + phase[:-1]
        head = head[:-1]
    return tuple(head), tuple(phase)
