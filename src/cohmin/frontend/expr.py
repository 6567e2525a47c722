"""Expression text of symbolic files (guards after ``when``, updates after
``do``), loaded only for models that have it: plain ones never compile it.
The parser reads the tokens of ``grammar.Cursor``, so its errors name
the file line and column, and the one table ``_LEVEL`` gives both the
parser and ``render_expr`` the binding of each binary operator."""

from ..errors import ParseError
from .fileformat import parse_int
from .grammar import MAX_DEPTH, Cursor

_EXPR_TOKEN = r"(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|>=|[+\-*=<>()])"

# How tightly each binary operator binds; ``not`` binds at 3, over one
# comparison, and unary minus at 7.
_LEVEL = {"or": 1, "and": 2, "=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
          "+": 5, "-": 5, "*": 6}


class _ExprParser:
    """Precedence climbing over ``_LEVEL``; ``expr`` and ``unary`` return
    the expression and the depth of its tree, which may be at most
    :data:`MAX_DEPTH` levels."""

    def __init__(self, text: str, registers, inputs, line: int, column: int):
        self.cur = Cursor(_EXPR_TOKEN, text, line, column,
                          "bad character {!r} in expression")
        self.registers = frozenset(registers)
        self.inputs = frozenset(inputs)
        from .. import symbolic  # expressions exist only in symbolic files

        self.ast = symbolic

    def grow(self, e, depth: int):
        """``e`` as a node over subtrees at most ``depth`` levels deep."""
        if depth >= MAX_DEPTH:
            self.cur.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        return e, depth + 1

    def expr(self, low: int = 1):
        """The expression at the cursor whose binary operators bind at
        level ``low`` or tighter.  Operators of one level associate to the
        left, and a comparison does not chain."""
        cur, nots = self.cur, 0
        while low <= 3 and cur.peek() == "not":
            cur.take()
            nots += 1
        e, d = self.expr(4) if nots else self.unary()
        for _ in range(nots):
            e, d = self.grow(self.ast.Not(e), d)
        high = 2 if nots else 7   # the tightest level that may come next
        while low <= _LEVEL.get(cur.peek(), 0) <= high:
            op = cur.take()[0]
            level = _LEVEL[op]
            right, rd = self.expr(level + 1)
            e, d = self.grow(self.ast.Bin(op, e, right), max(d, rd))
            high = 3 if level == 4 else level
        return e, d

    def unary(self):
        cur, negs = self.cur, 0
        while cur.peek() == "-":
            cur.take()
            negs += 1
        if cur.peek() == "(":
            e, d = cur.group(self.expr)
        elif cur.kind() in (None, "op"):
            cur.fail("expected an expression")
        else:
            e, d = self.atom(*cur.take()), 1
        for _ in range(negs):
            e, d = self.grow(self.ast.Neg(e), d)
        return e, d

    def atom(self, value: str, kind: str, line: int, column: int):
        if kind == "num":
            return self.ast.IntLit(parse_int(value, line, column))
        if value == "true":
            return self.ast.BoolLit(True)
        if value == "false":
            return self.ast.BoolLit(False)
        if value in self.registers:
            return self.ast.Reg(value)
        if value in self.inputs:
            return self.ast.Port(value)
        raise ParseError(line, column,
                         f"unknown name {value!r} (not a register or input port)")


def parse_expr(text: str, registers, inputs, line: int = 1, column: int = 1):
    """The expression in ``text``, which starts at ``line``:``column`` of
    its file; a syntax error names the file line and column it is at."""
    parser = _ExprParser(text, registers, inputs, line, column)
    return parser.cur.finish(parser.expr()[0], " in expression")


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
