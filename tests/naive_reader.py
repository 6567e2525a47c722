"""Frozen differential oracle: the original statement reader.

``_statements``, ``_parse_header`` and ``_split_state_names`` are kept
verbatim from the reader that split every line with ``re.split`` and
every state list one character at a time; ``_keyword`` and
``_split_names``, which ``_parse_header`` calls, are kept with them.  Do
not optimise this file.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from cohmin.errors import ParseError


def _statements(text: str):
    """Yield (line, column, statement-text) with comments stripped; ';'
    terminates, and the lines of one statement stay apart by newlines."""
    buf, start = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        column = 1
        for piece in re.split(r"(;)", raw.split("#", 1)[0]):
            if piece == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield (*start, stmt)
                buf, start = [], None
            else:
                if start is None and piece.strip():
                    start = lineno, column + len(piece) - len(piece.lstrip())
                buf.append(piece)
            column += len(piece)
        buf.append("\n")
    if "".join(buf).strip():
        raise ParseError(start[0], 1, "missing ';' at end of statement")


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
    back into its parts."""
    names, buf, parens, brackets = [], [], 0, 0
    for ch in text + ",":
        if ch == "," and parens == brackets == 0:
            name = "".join(buf).strip()
            if name:
                names.append(name)
            buf = []
            continue
        parens += (ch == "(") - (ch == ")")
        brackets += (ch == "[") - (ch == "]")
        if parens < 0 or brackets < 0:
            break
        buf.append(ch)
    if parens or brackets:
        kind = "parentheses" if parens else "brackets"
        raise ParseError(line, 1, f"unbalanced {kind} in state list")
    for n in names:
        if any(c.isspace() for c in n) or any(c in ";{}" for c in n):
            raise ParseError(line, 1, f"bad state name {n!r}")
    return names


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
