"""Text formats: transducers, symbolic transducers and protocols; the
trace formats are read by ``frontend.trace``.

One model per file, line oriented, ``#`` starts a comment.  One parser
and one serialiser serve plain and symbolic models; ``load_model`` and
``load_protocol`` read them from files.  Serialisation is
canonical (states sorted, transitions in the order of
``canonical_rows``) so equal models produce byte-identical output.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import List, Tuple

from ..errors import CohminError, MissingInitial, ParseError
from ..kernel import Signature, Trace, Transducer, mkround, render_round, round_key


# -- the token cursor of the regex and expression grammars -------------------

# Deepest parenthesis nesting, and deepest expression tree, either grammar
# accepts, so that the parsers and the walkers over their trees
# (``_glushkov``, ``regex_labels``, ``type_of``, ``eval_expr``,
# ``normal_form``, ``render_expr``) stay far from the recursion limit.
MAX_DEPTH = 100


class Cursor:
    """The tokens of ``text`` as the regular expression ``pattern`` matches
    them, its named groups the kinds, each placed at its file line and
    column: ``text`` starts at ``line``:``column``, and whitespace and line
    breaks between tokens are skipped.  A character that starts no token is
    a :class:`ParseError` with the message ``bad``, formatted with that
    character.  The patterns are compiled here, through the cache of
    :mod:`re`, so that a process that parses no regex or expression never
    compiles them."""

    def __init__(self, pattern: str, text: str, line: int, column: int, bad: str):
        self.tokens, self.i, self.depth = [], 0, 0   # (text, kind, line, column)
        pattern, space_re = re.compile(pattern), re.compile(r"\s*")
        pos, origin = 0, -column   # a column is an offset less ``origin``
        while True:
            space = space_re.match(text, pos).end()
            breaks = text.count("\n", pos, space)
            if breaks:
                line, origin = line + breaks, text.rindex("\n", pos, space)
            pos = space
            if pos == len(text):
                self.tokens.append((None, None, line, pos - origin))   # the end
                return
            m = pattern.match(text, pos)
            if m is None:
                raise ParseError(line, pos - origin, bad.format(text[pos]))
            self.tokens.append((m.group(), m.lastgroup, line, pos - origin))
            pos = m.end()

    def peek(self):
        """The next token's text, or ``None`` past the last token."""
        return self.tokens[self.i][0]

    def kind(self):
        """The next token's kind, or ``None`` past the last token."""
        return self.tokens[self.i][1]

    def take(self):
        """The next token, as (text, kind, line, column), and step past it."""
        self.i += 1
        return self.tokens[self.i - 1]

    def fail(self, message: str):
        """A :class:`ParseError` at the next token, or just past the text."""
        raise ParseError(*self.tokens[self.i][2:], message)

    def group(self, inner):
        """``inner()`` between the parentheses at the cursor, nested at
        most :data:`MAX_DEPTH` deep."""
        if self.depth == MAX_DEPTH:
            self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
        self.depth += 1
        self.take()
        out = inner()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.take()
        self.depth -= 1
        return out

    def finish(self, out, where: str = ""):
        """``out``, once every token is read."""
        if self.peek() is not None:
            self.fail(f"trailing input {self.peek()!r}{where}")
        return out


# -- statement scanner -------------------------------------------------------


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
    delta = set()
    rounds = {}   # round text -> round, and round -> itself: equal rounds are one object
    for line, column, stmt in body:
        m = _TRANS_RE.match(stmt)
        if not m:
            raise ParseError(line, 1, f"bad statement: {stmt!r}")
        v = rounds.get(m.group("round"))
        if v is None:
            labels = _parse_round_text(m.group("round"), line)
            for lab in labels:
                if lab not in sig.universe:
                    raise ParseError(line, 1, f"unknown label {lab!r} in round")
            v = mkround(labels)
            v = rounds[m.group("round")] = rounds.setdefault(v, v)
        try:
            src, tgt = names[m.group("src")], names[m.group("tgt")]
        except KeyError as e:
            raise ParseError(line, 1, f"unknown state {e.args[0]!r}") from None
        if not (m.group("guard") or m.group("updates")):
            delta.add((src, v, tgt))
            continue
        symbolic = True
        from ..symbolic import STransition, TRUE, check_transition
        from .expr import parse_expr

        inputs = v & sig.inputs
        guard = TRUE
        if m.group("guard"):
            guard = parse_expr(m.group("guard"), registers, inputs,
                               *_place(stmt, line, column, m.start("guard")))
        updates = []
        if m.group("updates"):
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
    if not symbolic:
        return Transducer(sig, states, header["initial"], frozenset(delta))
    from ..symbolic import SFST, STransition, TRUE

    delta = {STransition(t[0], t[1], TRUE, frozenset(), t[2])
             if isinstance(t, tuple) else t for t in delta}
    return SFST(sig, states, registers, header["initial"], frozenset(delta))


# -- traces ------------------------------------------------------------------


def parse_trace(text: str) -> Trace:
    """The rounds of ``text``, as :class:`frontend.trace.TraceReader` reads
    them."""
    from .trace import TraceReader   # only callers that read traces load it

    return tuple(iter(TraceReader(text)))   # ``tuple`` would read ``len`` first


# -- regex protocol files ----------------------------------------------------

_REGEX_TOKEN = r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()+*])"


def parse_regex(text: str, line: int = 1, column: int = 1):
    """Parse ``a (b c + d)* e`` style protocol expressions into the tree
    of :mod:`cohmin.protocol` that ``compile_regex`` reads.

    Juxtaposition is concatenation, ``+`` alternation, ``*`` iteration;
    repeated stars fold, since ``(x*)* = x*``.  Parentheses nested deeper
    than :data:`MAX_DEPTH` are a :class:`ParseError`, placed, as every
    error is, at its file line and column: ``text`` starts at
    ``line``:``column``.
    """
    from ..protocol import Alt, Cat, Lit, Star  # only protocol files need them

    cur = Cursor(_REGEX_TOKEN, text, line, column, "unexpected character {!r}")

    def alt():
        arms = [cat()]
        while cur.peek() == "+":
            cur.take()
            arms.append(cat())
        return arms[0] if len(arms) == 1 else Alt(tuple(arms))

    def cat():
        items = []
        while cur.peek() not in (None, ")", "+"):
            items.append(rep())
        if not items:
            cur.fail("expected an event or a group")
        return items[0] if len(items) == 1 else Cat(tuple(items))

    def rep():
        if cur.peek() == "*":
            cur.fail("unexpected '*'")
        node = cur.group(alt) if cur.peek() == "(" else Lit(cur.take()[0])
        while cur.peek() == "*":
            cur.take()
            if not isinstance(node, Star):
                node = Star(node)
        return node

    return cur.finish(alt())


def parse_regex_protocol(text: str) -> Tuple[List[str], object]:
    """``alphabet a, b; regex (a b)*;`` -> (labels, regex AST).  The two
    statements come in either order, each once."""
    from ..protocol import regex_labels  # only protocol files need it

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


# -- serialisation -----------------------------------------------------------


def canonical_rows(model, wrap=str):
    """Yield ``(source, [(target, text), ...])`` for each state of a
    Transducer or SFST with transitions, sources in sorted order and each
    source's transitions in the canonical order: by round (``round_key``),
    target, then the rendered guard and updates.  A transition's label is
    its round, then any ``when`` guard and ``do`` updates, as the file
    writes them, and ``text`` is ``wrap(label)``: for a Transducer each
    distinct round is rendered and wrapped once."""
    if isinstance(model, Transducer):
        # walking the index in this order sorts by (source, round_key,
        # target), as sorting the whole set would; only rows of more than
        # one round or target are sorted, rounds by their place in the
        # sorted list of distinct rounds
        order = sorted({v for row in model._adj.values() for v in row}, key=round_key)
        rank = {v: i for i, v in enumerate(order)}
        texts = {v: wrap(render_round(v)) for v in order}
        for s in sorted(model._adj):
            out = model._adj[s]
            if out:
                yield s, [(t, texts[v])
                          for v in (sorted(out, key=rank.__getitem__) if len(out) > 1 else out)
                          for t in (sorted(out[v]) if len(out[v]) > 1 else out[v])]
        return
    from .expr import render_expr
    rounds = {v: (round_key(v), render_round(v)) for v in {t.round for t in model.delta}}
    rows = []
    for tr in model.delta:
        updates = sorted(tr.updates, key=lambda u: u.target)
        rows.append((tr.source, rounds[tr.round], tr.target, render_expr(tr.guard),
                     tuple(u.target for u in updates),
                     tuple(render_expr(u.expr) for u in updates)))
    rows.sort()
    for s, group in groupby(rows, itemgetter(0)):
        row = []
        for _, (_, label), t, guard, targets, exprs in group:
            if guard != "true":
                label += f" when {guard}"
            if targets:
                label += " do " + ", ".join(f"{x} := {e}" for x, e in zip(targets, exprs))
            row.append((t, wrap(label)))
        yield s, row


def canonical_transitions(model):
    """Yield ``(source, target, label)`` for every transition of a
    Transducer or SFST, in the order of :func:`canonical_rows`."""
    for s, row in canonical_rows(model):
        for t, label in row:
            yield s, t, label


def write_model(model, write) -> None:
    """Pass the model's text to ``write``: the header, then one piece per
    source state's transitions, so the whole text is never held at once.
    ``trans <source> -> `` is rendered once per source and `` : <label>;``
    once per distinct round (per transition of an SFST), so each line costs
    one string build."""
    header = [f"signature {model.signature.render()};",
              f"states {', '.join(sorted(model.states))};"]
    if not isinstance(model, Transducer):
        header.append(f"registers {', '.join(sorted(model.registers))};")
    header.append(f"initial {model.initial};")
    write("\n".join(header) + "\n")
    for s, row in canonical_rows(model, lambda label: f" : {label};\n"):
        head = f"trans {s} -> "
        write("".join([f"{head}{t}{tail}" for t, tail in row]))


def serialize_model(model) -> str:
    """The model's text: :func:`write_model` gathered into one string."""
    parts = []
    write_model(model, parts.append)
    return "".join(parts)


def serialize_trace(t: Trace) -> str:
    return "".join(render_round(v) + "\n" for v in t)
