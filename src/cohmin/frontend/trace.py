"""Trace files: plain traces, read a piece at a time as ``monitor`` checks
them, and valued traces.  Only the callers that read traces load this
module, so the other commands compile less of the frontend."""

from __future__ import annotations

import codecs
import contextlib
import re

from ..errors import CohminError, ParseError
from ..kernel import mkround
from .fileformat import _parse_round_text, parse_int

# Least characters (of a file: bytes) read at once; an unfinished line waits for the next read.
_TRACE_PIECE = 1 << 16
# Every line break ``str.splitlines`` knows.
_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


class Utf8File:
    """A binary file read as UTF-8 text: ``read(n)`` decodes ``n`` bytes or
    more, and returns ``""`` only at the end; ``seek(0)`` starts again.  A
    failed read, and bad UTF-8 at its byte in the file, are a
    :class:`CohminError`, as ``fileformat`` reports them for a file read
    whole."""

    def __init__(self, raw):
        self._raw = raw
        self._decoder, self._read = codecs.getincrementaldecoder("utf-8")(), 0

    def read(self, n: int) -> str:
        while True:
            try:
                data = self._raw.read(n)
            except OSError as e:
                raise CohminError(f"cannot read {self._raw.name}: {e.strerror}") from e
            self._read += len(data)
            try:
                text = self._decoder.decode(data, not data)
            except UnicodeDecodeError as e:   # ``e.object``: the bytes held back, then ``data``
                at = self._read - len(e.object) + e.start
                raise CohminError(f"cannot read {self._raw.name}: not UTF-8 text "
                                  f"({e.reason} at byte {at})") from e
            if text or not data:   # ``data`` may end inside a character
                return text

    def seek(self, offset: int) -> None:
        self._raw.seek(offset)
        self._decoder.reset()
        self._read = offset


@contextlib.contextmanager
def open_trace(path):
    """A :class:`TraceReader` of the trace file at ``path``, closed on leaving."""
    try:
        raw = open(path, "rb")
    except OSError as e:
        raise CohminError(f"cannot read {path}: {e.strerror}") from e
    with raw:
        yield TraceReader(Utf8File(raw))


class TraceReader:
    """The rounds of a trace, one per line; blank and ``#`` lines are no
    round.  ``stream`` is a text stream at its start: :class:`Utf8File` of
    the trace file (see :func:`open_trace`), or ``io.StringIO`` of a text.
    Each pass reads it from the start (the first seeks nothing, so a pipe is
    read once).  A pass reads ``_TRACE_PIECE`` characters at a time, or
    bytes of a file (more while one line outgrows that), and splits them
    into lines; the unfinished last line moves into the next piece.  So the
    lines and their numbers are exactly those of ``splitlines()`` on the
    whole text, and a pass holds one piece however long the trace is.

    ``protocol.monitor`` reads it as keyed items: ``pieces()`` yields the
    raw lines and ``round_of`` parses one.  The monitor remembers each line
    per state, so a line is parsed only the first time a state meets it,
    and a repeated line costs the monitor one dict lookup.  Lines that
    differ only in comment or outer padding share one parse.  Iterating
    yields the rounds, parsing each distinct line once; ``len`` reads the
    trace once more to count them."""

    def __init__(self, stream):
        self._stream, self._rounds = stream, {}   # stripped round text -> its round
        # whether a pass began, and its unfinished line; the piece read
        # last: its lines and the lines before it
        self._begun, self._carry = False, ""
        self._lines, self._before = [], 0

    def pieces(self, resume: bool = False):
        """The trace's lines, one list per piece: from the start, or with
        ``resume`` from the piece read last, which comes again."""
        if not resume:
            if self._begun:
                self._stream.seek(0)
            self._begun, self._carry = True, ""
            self._lines, self._before = [], 0
        elif self._lines:
            yield self._lines
        more = True
        while more:
            text = self._stream.read(max(_TRACE_PIECE, len(self._carry)))   # a long line: linear
            more, end = bool(text), text[-1:]
            text, self._carry = self._carry + text, ""
            self._before += len(self._lines)
            self._lines = ()   # one piece's lines alive at a time
            self._lines = text.splitlines()
            if more and end not in _BREAKS:   # the line goes on in the next read
                self._carry = self._lines.pop()
            elif more and end == "\r":   # maybe the first half of a "\r\n"
                self._carry = self._lines.pop() + end
            if self._lines:
                yield self._lines

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
            while self._stream.read(_TRACE_PIECE):   # bad UTF-8 anywhere in the trace comes first
                pass
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
            del lines   # before the next piece is split

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
