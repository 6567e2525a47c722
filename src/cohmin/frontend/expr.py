"""Expression text of symbolic files (guards after ``when``, updates after
``do``), loaded only for models that have it: plain ones never compile it."""

import re

from ..errors import ParseError

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|[+\-*=<>()]))"
)


# Deepest expression accepted: parentheses may nest, and an expression tree
# may grow, at most this many levels, so that the parser and the walkers
# over the tree (``type_of``, ``eval_expr``, ``normal_form``,
# ``render_expr``) stay far from the interpreter's recursion limit.
MAX_DEPTH = 100


class _ExprParser:
    """Recursive descent; each ``parse_*`` method returns the expression
    and the depth of its tree."""

    def __init__(self, text: str, registers, inputs, line: int):
        self.text = text
        self.registers = frozenset(registers)
        self.inputs = frozenset(inputs)
        self.line = line
        self.tokens = []   # (kind, text, column)
        pos = 0
        while pos < len(self.text):
            if self.text[pos].isspace():
                pos += 1
                continue
            m = _EXPR_TOKEN.match(self.text, pos)
            if not m:
                raise ParseError(line, pos + 1,
                                 f"bad character {self.text[pos]!r} in expression")
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0
        self.parens = 0
        from .. import symbolic  # expressions exist only in symbolic files

        self.ast = symbolic

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text) + 1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, message):
        _, _, col = self.peek()
        raise ParseError(self.line, col, message)

    def grow(self, e, depth: int):
        """``e`` as a node over subtrees at most ``depth`` levels deep."""
        if depth >= MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        return e, depth + 1

    def parse(self):
        e, _ = self.parse_or()
        if self.peek()[0] is not None:
            self.fail(f"trailing input {self.peek()[1]!r} in expression")
        return e

    def parse_or(self):
        e, d = self.parse_and()
        while self.peek()[1] == "or":
            self.take()
            right, rd = self.parse_and()
            e, d = self.grow(self.ast.Bin("or", e, right), max(d, rd))
        return e, d

    def parse_and(self):
        e, d = self.parse_not()
        while self.peek()[1] == "and":
            self.take()
            right, rd = self.parse_not()
            e, d = self.grow(self.ast.Bin("and", e, right), max(d, rd))
        return e, d

    def parse_not(self):
        nots = 0
        while self.peek()[1] == "not":
            self.take()
            nots += 1
        e, d = self.parse_cmp()
        for _ in range(nots):
            e, d = self.grow(self.ast.Not(e), d)
        return e, d

    def parse_cmp(self):
        e, d = self.parse_add()
        if self.peek()[1] in ("=", "<", "<=", ">", ">="):
            op = self.take()[1]
            right, rd = self.parse_add()
            return self.grow(self.ast.Bin(op, e, right), max(d, rd))
        return e, d

    def parse_add(self):
        e, d = self.parse_mul()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            right, rd = self.parse_mul()
            e, d = self.grow(self.ast.Bin(op, e, right), max(d, rd))
        return e, d

    def parse_mul(self):
        e, d = self.parse_unary()
        while self.peek()[1] == "*":
            self.take()
            right, rd = self.parse_unary()
            e, d = self.grow(self.ast.Bin("*", e, right), max(d, rd))
        return e, d

    def parse_unary(self):
        negs = 0
        while self.peek()[1] == "-":
            self.take()
            negs += 1
        kind, value, col = self.peek()
        if kind == "num":
            self.take()
            e, d = self.ast.IntLit(int(value)), 1
        elif value == "(":
            if self.parens == MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
            self.parens += 1
            self.take()
            e, d = self.parse_or()
            if self.peek()[1] != ")":
                self.fail("expected ')'")
            self.take()
            self.parens -= 1
        elif kind == "ident":
            self.take()
            e, d = self.name(value, col), 1
        else:
            self.fail("expected an expression")
        for _ in range(negs):
            e, d = self.grow(self.ast.Neg(e), d)
        return e, d

    def name(self, value: str, col: int):
        if value == "true":
            return self.ast.BoolLit(True)
        if value == "false":
            return self.ast.BoolLit(False)
        if value in self.registers:
            return self.ast.Reg(value)
        if value in self.inputs:
            return self.ast.Port(value)
        raise ParseError(self.line, col,
                         f"unknown name {value!r} (not a register or input port)")


def parse_expr(text: str, registers, inputs, line: int = 1):
    return _ExprParser(text, registers, inputs, line).parse()


_LEVEL = {"or": 1, "and": 2, "=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
          "+": 5, "-": 5, "*": 6}


def render_expr(e, parent_level: int = 0) -> str:
    from ..symbolic import Bin, BoolLit, IntLit, Neg, Not, Port, Reg

    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, (Reg, Port)):
        return e.name
    if isinstance(e, Neg):
        return _wrap("-" + render_expr(e.arg, 7), 7, parent_level)
    if isinstance(e, Not):
        return _wrap("not " + render_expr(e.arg, 3), 3, parent_level)
    if isinstance(e, Bin):
        lvl = _LEVEL[e.op]
        text = (
            f"{render_expr(e.left, lvl)} {e.op} {render_expr(e.right, lvl + 1)}"
        )
        return _wrap(text, lvl, parent_level)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text
