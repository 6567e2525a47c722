"""Protocol construction and the online trace monitor.

Protocols are ordinary transducers whose language delimits what the
environment may do.  Asynchronous protocols are written as regular
expressions over single moves; the compiled transducer's language is the
prefix closure of the regex's path language (there are no accepting states
anywhere in this library, matching the game-style reading of plays).
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Optional, Tuple

from .errors import ParseError, UnknownLabel
from .kernel import Record, Round, Signature, Trace, Transducer, render_round, round_key


# -- protocol regular expressions -------------------------------------------


class Lit(Record):
    __slots__ = _fields = ("label",)

    label: str


class Cat(Record):
    __slots__ = _fields = ("items",)

    items: Tuple


class Alt(Record):
    __slots__ = _fields = ("items",)

    items: Tuple


class Star(Record):
    __slots__ = _fields = ("item",)

    item: object


ProtocolRegex = object

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()+*]))")

# Deepest parenthesis nesting accepted, so that the parser and the walkers
# over the tree (``_glushkov``, ``regex_labels``) stay far from the
# interpreter's recursion limit.
MAX_DEPTH = 100


def parse_regex(text: str, line: int = 1, column: int = 1) -> ProtocolRegex:
    """Parse ``a (b c + d)* e`` style protocol expressions.

    Juxtaposition is concatenation, ``+`` alternation, ``*`` iteration;
    repeated stars fold, since ``(x*)* = x*``.  Parentheses nested deeper
    than :data:`MAX_DEPTH` are a :class:`ParseError`, placed, as every
    error is, by the ``line`` and ``column`` at which ``text`` starts.
    """
    tokens = []
    pos = 0
    line_start = 1 - column
    while pos < len(text):
        if text[pos] == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos].isspace():
                pos += 1
                continue
            raise ParseError(line, pos - line_start + 1,
                             f"unexpected character {text[pos]!r}")
        tokens.append((m.group("ident") or m.group("sym"),
                       line, m.start(m.lastgroup) - line_start + 1))
        pos = m.end()

    state = {"i": 0, "depth": 0}

    def peek():
        return tokens[state["i"]][0] if state["i"] < len(tokens) else None

    def where():
        if state["i"] < len(tokens):
            _, ln, col = tokens[state["i"]]
            return ln, col
        return line, len(text) - line_start + 1

    def advance():
        state["i"] += 1

    def parse_alt():
        arms = [parse_cat()]
        while peek() == "+":
            advance()
            arms.append(parse_cat())
        return arms[0] if len(arms) == 1 else Alt(tuple(arms))

    def parse_cat():
        items = []
        while peek() is not None and peek() not in (")", "+"):
            items.append(parse_rep())
        if not items:
            ln, col = where()
            raise ParseError(ln, col, "expected an event or a group")
        return items[0] if len(items) == 1 else Cat(tuple(items))

    def parse_rep():
        node = parse_atom()
        while peek() == "*":
            advance()
            if not isinstance(node, Star):
                node = Star(node)
        return node

    def parse_atom():
        tok = peek()
        ln, col = where()
        if tok is None:
            raise ParseError(ln, col, "unexpected end of expression")
        if tok == "(":
            if state["depth"] == MAX_DEPTH:
                raise ParseError(ln, col, f"parentheses nested deeper than {MAX_DEPTH}")
            state["depth"] += 1
            advance()
            inner = parse_alt()
            state["depth"] -= 1
            if peek() != ")":
                ln, col = where()
                raise ParseError(ln, col, "expected ')'")
            advance()
            return inner
        if tok in (")", "+", "*"):
            raise ParseError(ln, col, f"unexpected {tok!r}")
        advance()
        return Lit(tok)

    out = parse_alt()
    if peek() is not None:
        ln, col = where()
        raise ParseError(ln, col, f"trailing input {peek()!r}")
    return out


def regex_labels(r: ProtocolRegex) -> FrozenSet[str]:
    if isinstance(r, Lit):
        return frozenset({r.label})
    if isinstance(r, Star):
        return regex_labels(r.item)
    if isinstance(r, (Cat, Alt)):
        out = frozenset()
        for item in r.items:
            out |= regex_labels(item)
        return out
    raise TypeError(f"not a protocol regex: {r!r}")


def _glushkov(r: ProtocolRegex):
    """Position automaton data: (positions, nullable, first, last, follow)."""
    positions: List[str] = []
    follow = {}

    def walk(node):
        # returns (nullable, first, last) over position ids
        if isinstance(node, Lit):
            p = len(positions)
            positions.append(node.label)
            follow.setdefault(p, set())
            return False, {p}, {p}
        if isinstance(node, Star):
            nullable, first, last = walk(node.item)
            for p in last:
                follow[p] |= first
            return True, first, last
        if isinstance(node, Alt):
            nullable, first, last = False, set(), set()
            for item in node.items:
                n, f, l = walk(item)
                nullable |= n
                first |= f
                last |= l
            return nullable, first, last
        if isinstance(node, Cat):
            nullable, first, last = True, set(), set()
            for item in node.items:
                n, f, l = walk(item)
                if nullable:
                    first |= f
                for p in last:
                    follow[p] |= f
                if n:
                    last |= l
                else:
                    last = l
                nullable &= n
            return nullable, first, last
        raise TypeError(f"not a protocol regex: {node!r}")

    nullable, first, last = walk(r)
    return positions, nullable, first, last, follow


def compile_regex(r, sig: Signature) -> Transducer:
    """Compile a protocol regex (text or AST) to a deterministic transducer.

    The position automaton is trimmed to the positions from which an
    accepting position is reachable, keeping its start as the initial
    state, and then determinised by :func:`algebra.determinize`.  Every
    path of the result spells a prefix of a word of the regex, so its
    language is exactly the prefix closure of the regex's language (just
    the empty trace when that language is empty).  Every literal becomes a
    singleton round.
    """
    if isinstance(r, str):
        r = parse_regex(r)
    for label in regex_labels(r):
        if label not in sig.universe:
            raise UnknownLabel(label)
    positions, nullable, first, last, follow = _glushkov(r)
    succ = {-1: first, **follow}  # -1 is the start; entering q reads positions[q]
    pred = {}
    for p, qs in succ.items():
        for q in qs:
            pred.setdefault(q, []).append(p)
    live = set(last) | ({-1} if nullable else set())
    todo = list(live)
    while todo:
        for p in pred.get(todo.pop(), ()):
            if p not in live:
                live.add(p)
                todo.append(p)
    delta = [(str(p), frozenset({positions[q]}), str(q))
             for p in live for q in succ[p] if q in live]
    from . import algebra  # the monitor alone does not need it

    return algebra.determinize(
        Transducer(sig, {str(p) for p in live | {-1}}, "-1", delta))


# -- the online monitor ------------------------------------------------------


class Verdict(Record):
    """Monitor outcome: acceptance, or the first offending round."""

    __slots__ = _fields = ("status", "index", "offending", "expected")
    _defaults = {"index": None, "offending": None, "expected": None}

    status: str  # "OK" | "VIOLATION"
    index: Optional[int]
    offending: Optional[Round]
    expected: Optional[FrozenSet[Round]]

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def render(self) -> str:
        if self.ok:
            return "OK"
        expected = ",".join(
            render_round(v) for v in sorted(self.expected, key=round_key)
        )
        return (
            f"VIOLATION index={self.index} "
            f"round={render_round(self.offending)} expected={{{expected}}}"
        )


def monitor(P: Transducer, t: Trace) -> Verdict:
    """Online membership check: consume rounds left to right and flag the
    first round the protocol does not enable.  The state is the subset of
    ``P``'s states the prefix reaches, so a nondeterministic ``P`` is not
    determinised up front: the moves of each subset (``Transducer.moves``)
    are built once, the first time the trace reaches it."""
    state, succ = frozenset({P.initial}), {}
    for i, v in enumerate(t):
        moves = succ.get(state)
        if moves is None:
            moves = succ[state] = P.moves(state)
        v = frozenset(v)  # the same object when ``v`` already is one
        state = moves.get(v)
        if state is None:
            return Verdict("VIOLATION", i, v, frozenset(moves))
    return Verdict("OK")

