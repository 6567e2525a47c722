"""Protocol compilation and the online trace monitor.

Protocols are ordinary transducers whose language delimits what the
environment may do.  Asynchronous protocols are written as regular
expressions over single moves; this module holds their trees and compiles
them, and ``frontend.parse_regex`` reads them from text.  The compiled
transducer's language is the prefix closure of the regex's path language
(there are no accepting states anywhere in this library, matching the
game-style reading of plays).
"""

from __future__ import annotations

from itertools import islice
from operator import length_hint
from typing import FrozenSet, List, Optional, Tuple

from .errors import UnknownLabel
from .kernel import Record, Round, Signature, Transducer, _reach, render_round, round_key


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


def compile_regex(r: ProtocolRegex, sig: Signature) -> Transducer:
    """Compile a protocol regex tree (``frontend.parse_regex`` reads one
    from text) to its trimmed position automaton, which may be
    nondeterministic: the start ``P0`` and, for each position ``i``
    (literals from 0, left to right) from which an accepting position is
    reachable, a state ``P<i+1>`` entered by reading that literal as a
    singleton round.  Every path spells a prefix of a word of the regex,
    so the language is exactly the prefix closure of the regex's language
    (just the empty trace when that language is empty)."""
    for label in regex_labels(r):
        if label not in sig.universe:
            raise UnknownLabel(label)
    positions, nullable, first, last, follow = _glushkov(r)
    succ = {-1: first, **follow}  # -1 is the start; entering q reads positions[q]
    pred = {"end": [*last, *([-1] if nullable else [])]}   # "end" follows each accepting one
    for p, qs in succ.items():
        for q in qs:
            pred.setdefault(q, []).append(p)
    live = _reach("end", lambda q: pred.get(q, ())) - {"end"}
    delta = [(f"P{p + 1}", frozenset({positions[q]}), f"P{q + 1}")
             for p in live for q in succ[p] if q in live]
    return Transducer(sig, {f"P{p + 1}" for p in live | {-1}}, "P0", delta)


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


# Rows (protocol subsets) the monitor keeps at once.
MONITOR_ROWS = 1024


def monitor(P: Transducer, t) -> Verdict:
    """Online membership check: consume rounds left to right and flag the
    first round the protocol does not enable, reading no further.

    ``t`` is an iterable of rounds, or a source of keyed items such as
    ``frontend.trace.TraceReader``: an object whose ``pieces()``
    yields lists of hashable items (the reader's raw lines) and whose
    ``round_of(item)`` gives the round of an item of the last piece, or
    ``None`` for an item that is no round (a blank or comment line, which
    ``index`` does not count).

    The state is the subset of ``P``'s states the prefix reaches, so a
    nondeterministic ``P`` is not determinised up front.  Each subset
    reached gets a row that maps every item met there to its successor's
    row: an item met before in that subset costs one dict lookup, and
    ``round_of`` and ``P.moves`` run only when a row first meets an item,
    so their cost is per distinct (subset, item), not per round.  Past
    :data:`MONITOR_ROWS` subsets the table starts afresh from the subset
    being entered, so memory stays within that many rows."""
    if hasattr(t, "round_of"):
        pieces, round_of = t.pieces(), t.round_of
    else:
        rounds = iter(t)
        pieces = iter(lambda: [frozenset(v) for v in islice(rounds, 4096)], [])
        round_of = frozenset
    start = frozenset({P.initial})
    cur = {None: P.moves(start)}   # a row; under None, its subset's moves
    rows = {start: cur}
    skips, index = set(), 0   # items that are no round; rounds before the piece
    for items in pieces:
        it = iter(items)
        for item in it:
            nxt = cur.get(item)
            if nxt is None:   # the row's first meeting with ``item``
                v = round_of(item)
                if v is None:
                    skips.add(item)
                    cur[item] = cur
                    continue
                moves = cur[None]
                nxt = moves.get(v)
                if nxt is None:
                    before = items[:len(items) - length_hint(it) - 1]
                    index += len(before) - sum(map(skips.__contains__, before))
                    return Verdict("VIOLATION", index, v, frozenset(moves))
                if nxt.__class__ is not dict:   # a subset, replaced by its row
                    if nxt not in rows and len(rows) >= MONITOR_ROWS:   # start afresh,
                        for row in rows.values():   # and let no cycle outlive the table
                            row.clear()
                        rows = {}
                    nxt = moves[v] = rows.get(nxt) or rows.setdefault(nxt, {None: P.moves(nxt)})
                cur[item] = nxt
            cur = nxt
        index += len(items) - (sum(map(skips.__contains__, items)) if skips else 0)
        del items   # before the next piece is split
    return Verdict("OK")
