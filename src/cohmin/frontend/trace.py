"""Trace files: plain traces, read a piece at a time as ``monitor`` checks
them, and valued traces.  Only the callers that read traces load this
module, so the other commands compile less of the frontend."""

from __future__ import annotations

import re

from ..errors import ParseError
from ..kernel import mkround
from .fileformat import _parse_round_text, parse_int

# Least characters of trace text split into lines at once; a piece ends after a "\n".
_TRACE_PIECE = 1 << 16


class TraceReader:
    """The rounds of a trace text, one per line; blank and ``#`` lines are
    no round.  The text is split into lines a piece at a time, each piece at
    least ``_TRACE_PIECE`` characters and cut just after a ``"\n"``, so the
    lines and their numbers are exactly those of ``text.splitlines()``.

    ``protocol.monitor`` reads it as keyed items: ``pieces()`` yields the
    raw lines and ``round_of`` parses one.  The monitor remembers each line
    per state, so a line is parsed only the first time a state meets it,
    and a repeated line costs the monitor one dict lookup.  Lines that
    differ only in comment or outer padding share one parse.  Iterating
    yields the rounds, parsing each distinct line once; ``len`` reads the
    text once more to count them."""

    def __init__(self, text: str):
        self.text, self._rounds = text, {}   # stripped round text -> its round
        # the piece read last: its lines, its offset, and the lines before it
        self._lines, self._start, self._before = [], 0, 0

    def pieces(self, resume: bool = False):
        """The text's lines, one list per piece: from the start, or with
        ``resume`` from the piece read last."""
        text, start = self.text, self._start if resume else 0
        self._lines, self._before = [], self._before if resume else 0
        while start < len(text):
            cut = text.find("\n", start + _TRACE_PIECE - 1) + 1 or len(text)
            self._before += len(self._lines)
            self._lines = ()   # one piece's lines alive at a time
            self._lines, self._start = text[start:cut].splitlines(), start
            yield self._lines
            start = cut

    def round_of(self, raw: str):
        """The round of ``raw``, a line of the piece ``pieces()`` yielded
        last, or ``None`` for a blank or comment line.  A bad line is a
        :class:`ParseError` at its first place in that piece."""
        text = raw.split("#", 1)[0].strip()
        if text is raw:   # a bare line, which the monitor remembers itself
            return self._parse(text, raw)
        v = self._rounds.get(text, self)   # ``self``: not parsed yet
        if v is self:
            v = self._rounds[text] = self._parse(text, raw)
        return v

    def _parse(self, text: str, raw: str):
        try:
            return mkround(_parse_round_text(text, 0)) if text else None
        except ParseError as e:   # a bad line is read nowhere before its first place
            line = self._before + self._lines.index(raw) + 1
            raise ParseError(line, e.column, e.message) from None

    def check(self) -> None:
        """Parse each distinct line from the piece read last on, once and
        in order, so that a bad line there is a :class:`ParseError` at its
        line.  ``cohmin monitor`` calls it after a violation, when every
        line before that piece has been read."""
        checked = set()
        for lines in self.pieces(resume=True):
            if not checked.issuperset(lines):
                for raw in dict.fromkeys(lines):
                    if raw not in checked:
                        self.round_of(raw)
                        checked.add(raw)

    def __iter__(self):
        seen = {}
        for lines in self.pieces():
            for raw in lines:
                v = seen.get(raw, seen)
                if v is seen:
                    v = seen[raw] = self.round_of(raw)
                if v is not None:
                    yield v

    def __len__(self):
        return sum(1 for _ in self)


def parse_valued_trace(text: str):
    from ..expansion import ValuedRound

    # compiled on first use (``re`` caches it): ``monitor`` never needs it
    event = re.compile(r"(?P<label>[A-Za-z_][A-Za-z0-9_]*)\s*(?:=\s*(?P<value>-?[0-9]+))?\Z")
    rounds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise ParseError(lineno, 1, f"expected a round in braces, got {line!r}")
        inner = line[1:-1].strip()
        events = {}
        if inner:
            for part in inner.split(","):
                m = event.match(part.strip())
                if not m:
                    raise ParseError(lineno, 1, f"bad event {part.strip()!r}")
                label, value = m.group("label"), m.group("value")
                value = parse_int(value, lineno, 1) if value is not None else None
                if events.setdefault(label, value) != value:
                    raise ParseError(lineno, 1, f"two values for port {label!r}")
        rounds.append(ValuedRound.of(events))
    return tuple(rounds)
