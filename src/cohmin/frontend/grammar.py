"""The token cursor of the regex and expression grammars, and the regex
grammar of protocol files.  Only a process that reads a regex protocol,
or reads or writes an expression (``frontend.expr`` reads this cursor),
loads this module: ``fileformat`` reads plain models without it."""

from __future__ import annotations

import re

from ..errors import ParseError

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
