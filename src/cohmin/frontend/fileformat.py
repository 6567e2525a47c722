"""The reader of the text formats: transducers, symbolic transducers and
protocols; the trace formats are read by ``frontend.trace``.

One model per file, line oriented, ``#`` starts a comment.  One parser
serves plain and symbolic models; ``load_model`` and ``load_protocol``
read them from files.  The writer is ``frontend.writer``, and the regex
grammar with its token cursor is ``frontend.grammar``: a command loads
each only when it writes a model or reads a regex or an expression, and
this module serves their names on first use (PEP 562).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import CohminError, MissingInitial, ParseError
from ..kernel import Signature, Trace, Transducer, mkround

_GRAMMAR = ("Cursor", "MAX_DEPTH", "parse_regex")
_WRITER = ("canonical_rows", "canonical_transitions", "write_model", "serialize_model",
           "serialize_trace")


def __getattr__(name):
    if name in _GRAMMAR:
        from . import grammar
        return getattr(grammar, name)
    if name in _WRITER:
        from . import writer
        return getattr(writer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- statement scanner -------------------------------------------------------


# The line breaks of ``str.splitlines`` other than ``\n``.
_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _statements(text: str):
    """Yield (line, column, statement-text) with comments stripped; ';'
    terminates, and the lines of one statement stay apart by newlines.
    Lines break where ``str.splitlines`` breaks them.  The text is split
    once; a statement's place is read off the offset of its first
    character, counting line breaks from the statement before."""
    if any(b in text for b in _BREAKS):
        text = "\n".join(text.splitlines())
    if "#" in text:   # a comment ends at its line break, so no column moves
        text = re.sub(r"#[^\n]*", "", text)
    count, rfind, end = text.count, text.rfind, len(text)
    line, counted, pos = 1, 0, 0   # ``line`` holds offset ``counted``
    for part in text.split(";"):
        stmt = part.strip()
        if stmt:
            at = pos + part.find(stmt[0])
            line += count("\n", counted, at)
            counted = at
            if pos + len(part) == end:   # no ';' ends it
                raise ParseError(line, 1, "missing ';' at end of statement")
            yield line, at - rfind("\n", 0, at), stmt
        pos += len(part) + 1


def parse_int(text: str, line: int, column: int) -> int:
    """The integer ``text`` (an optional ``-`` and digits) at ``line``:``column``,
    if it fits 64 bits; its digits, leading zeros aside, are counted first."""
    from ..symbolic import INT64_MAX, INT64_MIN   # every caller has loaded it
    digits = text.lstrip("-").lstrip("0")
    if len(digits) <= 19:   # so ``int`` never reaches its limit on digits
        value = -int(digits or 0) if text[0] == "-" else int(digits or 0)
        if INT64_MIN <= value <= INT64_MAX:
            return value
    raise ParseError(line, column, f"integer outside [{INT64_MIN}..{INT64_MAX}]")


def _split_names(text: str, line: int) -> List[str]:
    names = [n for n in map(str.strip, text.split(",")) if n]
    for n in names:
        if not (n.isascii() and n.isidentifier()):   # [A-Za-z_][A-Za-z0-9_]*
            raise ParseError(line, 1, f"bad identifier {n!r}")
    return names


def _split_state_names(text: str, line: int) -> List[str]:
    """States split on top-level commas; names like (a,b) and A[y=0,z=0]
    survive.  A name's parentheses, and its brackets, must balance and
    never close more than they opened, so that a product's name splits
    back into its parts.  The text is split at every comma, and a piece
    joins the next while its brackets are open; only a piece that may
    close more than is open is read one character at a time."""
    if not ("(" in text or ")" in text or "[" in text or "]" in text):
        names = [n for n in map(str.strip, text.split(",")) if n]
    else:   # rejoin the pieces a comma inside a name split apart
        names, held, parens, brackets = [], [], 0, 0
        for piece in text.split(","):
            closed, square_closed = piece.count(")"), piece.count("]")
            if closed > parens or square_closed > brackets:
                for ch in piece:   # it may close more than is open: read it in order
                    parens += (ch == "(") - (ch == ")")
                    brackets += (ch == "[") - (ch == "]")
                    if parens < 0 or brackets < 0:
                        break
                if parens < 0 or brackets < 0:
                    break
            else:
                parens += piece.count("(") - closed
                brackets += piece.count("[") - square_closed
            if parens or brackets:
                held.append(piece)
                continue
            if held:
                held.append(piece)
                piece, held = ",".join(held), []
            name = piece.strip()
            if name:
                names.append(name)
        if parens or brackets:
            kind = "parentheses" if parens else "brackets"
            raise ParseError(line, 1, f"unbalanced {kind} in state list")
    joined = " ".join(names)   # a space inside a name splits it here
    if len(joined.split()) != len(names) or "{" in joined or "}" in joined or ";" in joined:
        for n in names:
            if any(c.isspace() for c in n) or any(c in ";{}" for c in n):
                raise ParseError(line, 1, f"bad state name {n!r}")
    return names


def _parse_round_text(text: str, line: int) -> List[str]:
    """The labels of a round, ``text`` being stripped of outer whitespace."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(line, 1, f"expected a round in braces, got {text!r}")
    return _split_names(text[1:-1], line)


_TRANS_RE = re.compile(
    r"trans\s+(?P<src>\S+)\s*->\s*(?P<tgt>\S+)\s*:\s*(?P<round>\{[^}]*\})"
    r"(?:\s+when\s+(?P<guard>.*?))?(?:\s+do\s+(?P<updates>.*))?\Z",
    re.S,
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER_WORDS = ("signature", "states", "registers", "initial")


def _keyword(stmt: str) -> Tuple[str, str]:
    """The statement's leading word and the rest: a keyword counts only as
    a whole word, so ``statess0`` is not ``states s0``."""
    m = _WORD.match(stmt)
    return (m.group(), stmt[m.end():]) if m else ("", stmt)


def _parse_header(statements, line_hint):
    """signature / states / initial / registers statements, in any order,
    each at most once.

    ``signature in a, b; out c;`` spans two ';'-terminated segments, so an
    ``out`` segment is read as the continuation of the signature.  A
    statement that glues a header keyword to more of a name is an error.
    """
    header = {}
    body = []
    signature_line = None   # while the signature waits for its ``out`` part
    for line, column, stmt in statements:
        if stmt.startswith("trans") and not signature_line:   # as no header word starts so
            body.append((line, column, stmt))
            continue
        word, rest = _keyword(stmt)
        if signature_line:
            if word != "out":
                raise ParseError(line, 1, "expected: out <labels>;")
            header["outputs"] = _split_names(rest, line)
            signature_line = None
        elif word in _HEADER_WORDS and word in header:
            raise ParseError(line, 1, f"duplicate {word!r} declaration")
        elif word == "signature":
            m = re.match(r"\s+in\b(?P<ins>.*)\Z", rest, re.S)
            if not m:
                raise ParseError(line, 1, "expected: signature in ...; out ...;")
            header["signature"] = _split_names(m.group("ins"), line)
            signature_line = line
        elif word == "states":
            header["states"] = _split_state_names(rest, line)
            if not header["states"]:
                raise ParseError(line, 1, "expected at least one state")
        elif word == "registers":
            header["registers"] = _split_names(rest, line)
        elif word == "initial":
            names = _split_state_names(rest, line)
            if len(names) != 1:
                raise ParseError(line, 1, "exactly one initial state expected")
            header["initial"] = names[0]
            header["initial_line"] = line
        elif word.startswith(_HEADER_WORDS):
            raise ParseError(line, 1, f"bad statement: {stmt!r}")
        else:
            body.append((line, column, stmt))
    if signature_line:
        raise ParseError(signature_line, 1, "expected: out <labels>;")
    for word in ("signature", "states", "initial"):
        if word not in header:
            raise ParseError(line_hint, 1, f"missing {word!r} declaration")
    return header, body


def looks_like_regex_protocol(text: str) -> bool:
    """Whether the first statement is ``alphabet`` or ``regex``: a regex
    protocol takes the two in either order."""
    return _keyword(re.sub(r"#[^\n]*", "", text).lstrip())[0] in ("alphabet", "regex")


def _place(stmt: str, line: int, column: int, offset: int):
    """The file line and column of ``stmt[offset]``, in a statement that
    starts at ``line``:``column``."""
    breaks = stmt.count("\n", 0, offset)
    if not breaks:
        return line, column + offset
    return line + breaks, offset - stmt.rindex("\n", 0, offset)


def _parse_updates(stmt: str, start: int, registers, inputs, line: int, column: int):
    """The updates of ``stmt`` from ``stmt[start]`` on, after its ``do``."""
    from ..symbolic import Update
    from .expr import parse_expr

    updates = []
    for part in stmt[start:].split(","):
        um = re.match(r"\s*(?P<target>[A-Za-z_][A-Za-z0-9_]*)\s*:=\s*(?P<expr>.+)\Z",
                      part, re.S)
        if not um:
            raise ParseError(line, 1, f"bad update {part.strip()!r}")
        at = _place(stmt, line, column, start + um.start("expr"))
        updates.append(Update(um.group("target"),
                              parse_expr(um.group("expr"), registers, inputs, *at)))
        start += len(part) + 1
    return updates


def parse_model(text: str):
    """A Transducer, or an SFST when the file has a ``registers`` statement
    or a transition with a guard or updates."""
    header, body = _parse_header(_statements(text), 1)
    sig = Signature(frozenset(header["signature"]), frozenset(header["outputs"]))
    symbolic = "registers" in header
    registers = frozenset(header.get("registers", ()))
    states = frozenset(header["states"])
    names = {n: n for n in states}   # so that each state name is one object
    if header["initial"] not in states:
        raise ParseError(header["initial_line"], 1, str(MissingInitial(header["initial"])))
    adj, delta = {}, set()   # the plain transitions' index, the guarded transitions
    rounds = {}   # round text -> round, and round -> itself: equal rounds are one object
    match = _TRANS_RE.match
    for line, column, stmt in body:
        m = match(stmt)
        if not m:
            raise ParseError(line, 1, f"bad statement: {stmt!r}")
        source, target, round_text, guard_text, updates_text = m.groups()
        v = rounds.get(round_text)
        if v is None:
            labels = _parse_round_text(round_text, line)
            for lab in labels:
                if lab not in sig.universe:
                    raise ParseError(line, 1, f"unknown label {lab!r} in round")
            v = mkround(labels)
            v = rounds[round_text] = rounds.setdefault(v, v)
        try:
            src, tgt = names[source], names[target]
        except KeyError as e:
            raise ParseError(line, 1, f"unknown state {e.args[0]!r}") from None
        if not (guard_text or updates_text):   # a repeated one collapses
            adj.setdefault(src, {}).setdefault(v, {})[tgt] = None
            continue
        symbolic = True
        from ..symbolic import STransition, TRUE, check_transition
        from .expr import parse_expr

        inputs = v & sig.inputs
        guard = TRUE
        if guard_text:
            guard = parse_expr(guard_text, registers, inputs,
                               *_place(stmt, line, column, m.start("guard")))
        updates = []
        if updates_text:
            updates = _parse_updates(stmt, m.start("updates"), registers, inputs,
                                     line, column)
        tr = STransition(src, v, guard, updates, tgt)
        try:
            check_transition(tr, sig, states, registers)
        except CohminError as e:
            raise ParseError(line, 1, str(e)) from None
        if len(tr.updates) < len(updates):   # equal updates collapsed in the set
            doubled = min(u.target for u in updates if updates.count(u) > 1)
            raise ParseError(line, 1, f"two updates for target {doubled!r}")
        delta.add(tr)
    if not symbolic:   # the index the constructor would build, checked as it was read
        for row in adj.values():
            for v, targets in row.items():
                row[v] = tuple(targets)
        return Transducer._trusted(sig, states, header["initial"], adj)
    from ..symbolic import SFST, STransition, TRUE

    delta.update(STransition(s, v, TRUE, frozenset(), t) for s, row in adj.items()
                 for v, targets in row.items() for t in targets)
    return SFST(sig, states, registers, header["initial"], frozenset(delta))


# -- traces ------------------------------------------------------------------


def parse_trace(text: str) -> Trace:
    """The rounds of ``text``, as :class:`frontend.trace.TraceReader` reads
    them."""
    import io

    from .trace import TraceReader   # only callers that read traces load it

    return tuple(iter(TraceReader(io.StringIO(text))))   # ``tuple`` would read ``len`` first


# -- regex protocol files ----------------------------------------------------

def parse_regex_protocol(text: str) -> Tuple[List[str], object]:
    """``alphabet a, b; regex (a b)*;`` -> (labels, regex AST).  The two
    statements come in either order, each once."""
    from ..protocol import regex_labels  # only protocol files need it
    from .grammar import parse_regex

    alphabet = None
    regex = None
    for line, column, stmt in _statements(text):
        word, rest = _keyword(stmt)
        if word == "alphabet" and alphabet is None:
            alphabet = _split_names(rest, line)
        elif word == "regex" and regex is None:
            regex, regex_line = parse_regex(rest, line, column + len(word)), line
        elif word in ("alphabet", "regex"):
            raise ParseError(line, 1, f"duplicate {word!r} declaration")
        else:
            raise ParseError(line, 1, f"bad statement: {stmt!r}")
    if alphabet is None:
        raise ParseError(1, 1, "missing 'alphabet' declaration")
    if regex is None:
        raise ParseError(1, 1, "missing 'regex' declaration")
    for label in sorted(regex_labels(regex)):
        if label not in alphabet:
            raise ParseError(regex_line, 1, f"unknown label {label!r} in regex")
    return alphabet, regex


# -- reading files -----------------------------------------------------------


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CohminError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise CohminError(
            f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from e


def load_model(path):
    """The model in the file at ``path``, as :func:`parse_model` reads it."""
    return parse_model(_read(path))


def load_protocol(path, subject=None) -> Transducer:
    """A protocol file is either a regex protocol or a transducer, and a
    symbolic protocol is read as its control skeleton.  The result is
    rebound to the subject's signature; with no subject (``None``) it is
    left as read, and a regex protocol takes every label as an input."""
    text = _read(path)
    if looks_like_regex_protocol(text):
        from .. import protocol

        alphabet, regex = parse_regex_protocol(text)
        sig = (Signature(frozenset(alphabet), frozenset()) if subject is None
               else subject.signature)
        if frozenset(alphabet) != sig.universe:
            raise CohminError(
                "protocol alphabet does not match the subject's labels"
            )
        return protocol.compile_regex(regex, sig)
    model = parse_model(text)
    if not isinstance(model, Transducer):
        from .. import symbolic

        model = symbolic.protocol_skeleton(model)
    return model if subject is None else model.relabel_signature(subject.signature)
