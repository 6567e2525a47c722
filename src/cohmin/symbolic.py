"""Symbolic transducers: guarded, register-updating transitions over a
small integer/boolean expression language.

Guards and updates live in a closed grammar with two equivalence modes
(structural normal forms, or agreement on a bounded test domain) instead of
an external solver.  No constant fold in a normal form makes a value that
64-bit checked evaluation refuses, though reassociating operands that hold
registers or ports can still hide an overflow from the structural mode.
Match keys (``_key_index``) put coherence of control states on the
``coherence`` engine: one integer index whose transitions carry keys, each
key with its round, which condition 1 matches and condition 2 reads.
Valued runs and explicit expansion live in ``expansion``; the names in
``_EXPANSION`` load it on first read here, so no minimisation compiles it.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Tuple

from . import kernel
from .errors import (
    CohminError,
    MissingInitial,
    NotAProtocol,
    Overflow,
    ResourceLimit,
    SignatureMismatch,
    TypeMismatch,
    UnboundReference,
    UnknownState,
)
from .kernel import Record, Round, Signature, Transducer

if TYPE_CHECKING:
    from .coherence import CoherenceRelation, EquivalencePairs

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

SEMANTIC_DOMAIN = (-4, 4)   # default per-variable test domain
SEMANTIC_CAP = 10**6        # assignment cap for bounded-semantic checks


# -- expression syntax ------------------------------------------------------


class IntLit(Record):
    __slots__ = _fields = ("value",)

    value: int


class BoolLit(Record):
    __slots__ = _fields = ("value",)

    value: bool


class Reg(Record):
    __slots__ = _fields = ("name",)

    name: str


class Port(Record):
    """The value carried on an input port present in the current round."""

    __slots__ = _fields = ("name",)

    name: str


class Neg(Record):
    __slots__ = _fields = ("arg",)

    arg: "Expr"


class Not(Record):
    __slots__ = _fields = ("arg",)

    arg: "Expr"


class Bin(Record):
    __slots__ = _fields = ("op", "left", "right")

    op: str  # + - * = < <= > >= and or
    left: "Expr"
    right: "Expr"


Expr = object  # union of the node classes above

TRUE = BoolLit(True)
FALSE = BoolLit(False)

_INT_OPS = {"+", "-", "*"}
_CMP_OPS = {"=", "<", "<=", ">", ">="}
_BOOL_OPS = {"and", "or"}


def type_of(e: Expr, registers=None, ports=None) -> str:
    """'int' or 'bool'; checks declared references when sets are given."""
    if isinstance(e, IntLit):
        return "int"
    if isinstance(e, BoolLit):
        return "bool"
    if isinstance(e, Reg):
        if registers is not None and e.name not in registers:
            raise UnboundReference(e.name)
        return "int"
    if isinstance(e, Port):
        if ports is not None and e.name not in ports:
            raise UnboundReference(e.name)
        return "int"
    if isinstance(e, Neg):
        if type_of(e.arg, registers, ports) != "int":
            raise TypeMismatch("unary minus needs an integer operand")
        return "int"
    if isinstance(e, Not):
        if type_of(e.arg, registers, ports) != "bool":
            raise TypeMismatch("'not' needs a boolean operand")
        return "bool"
    if isinstance(e, Bin):
        lt = type_of(e.left, registers, ports)
        rt = type_of(e.right, registers, ports)
        if e.op in _INT_OPS or e.op in _CMP_OPS:
            if lt != "int" or rt != "int":
                raise TypeMismatch(f"operator {e.op!r} needs integer operands")
            return "int" if e.op in _INT_OPS else "bool"
        if e.op in _BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise TypeMismatch(f"operator {e.op!r} needs boolean operands")
            return "bool"
        raise TypeMismatch(f"unknown operator {e.op!r}")
    raise TypeMismatch(f"not an expression: {e!r}")


def _check64(v: int) -> int:
    if v < INT64_MIN or v > INT64_MAX:
        raise Overflow(f"arithmetic overflow: {v}")
    return v


_BIN_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "=": operator.eq,
            "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _raise(error: Exception):
    raise error


def _unbound(name: str):
    return lambda regs, ports: _raise(UnboundReference(name))


def compile_expr(e: Expr, registers: Mapping[str, object], ports: Mapping[str, object]):
    """``e`` as a closure ``f(regs, ports)`` that evaluates it strictly:
    64-bit checked arithmetic (overflow is an error), both operands of
    every operator, left first.  Faults are raised by ``f``, not here.
    ``registers`` and ``ports`` map each name to the key of its value in
    ``regs`` or ``ports``: a position in a tuple of values, or the name in
    a dict; a name missing from its map is unbound."""
    if isinstance(e, (IntLit, BoolLit)):
        value = e.value
        return lambda regs, ports: value
    if isinstance(e, Reg):
        i = registers.get(e.name)
        return (lambda regs, ports: regs[i]) if i is not None else _unbound(e.name)
    if isinstance(e, Port):
        i = ports.get(e.name)
        return (lambda regs, ports: ports[i]) if i is not None else _unbound(e.name)
    if isinstance(e, Neg):
        arg = compile_expr(e.arg, registers, ports)
        return lambda regs, ports: _check64(-arg(regs, ports))
    if isinstance(e, Not):
        arg = compile_expr(e.arg, registers, ports)

        def not_(regs, ports):
            v = arg(regs, ports)
            if v.__class__ is not bool:
                raise TypeMismatch("'not' applied to an integer")
            return not v
        return not_
    if not isinstance(e, Bin):
        return lambda regs, ports: _raise(TypeMismatch(f"not an expression: {e!r}"))
    op, fn = e.op, _BIN_FNS.get(e.op)
    left, right = compile_expr(e.left, registers, ports), compile_expr(e.right, registers, ports)
    # a comparison's result needs no bound check; bool() leaves it as is
    check = _check64 if op in _INT_OPS else bool

    def binary(regs, ports):
        a, b = left(regs, ports), right(regs, ports)
        if fn is None:  # a boolean operator
            if a.__class__ is not bool or b.__class__ is not bool:
                raise TypeMismatch(f"operator {op!r} applied to an integer")
            return (a and b) if op == "and" else (a or b)
        if a.__class__ is bool or b.__class__ is bool:
            raise TypeMismatch(f"operator {op!r} applied to a boolean")
        return check(fn(a, b))
    return binary


def eval_expr(e: Expr, regs: Mapping[str, int], ports: Mapping[str, int] = None):
    """:func:`compile_expr` on name-keyed values; a port mapped to None is unbound."""
    ports = ports or {}
    return compile_expr(e, {r: r for r in regs},
                        {p: p for p, v in ports.items() if v is not None})(regs, ports)


def _subexpressions(e: Expr):
    """``e`` and every expression inside it, in no fixed order."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, (Neg, Not)):
            stack.append(x.arg)
        elif isinstance(x, Bin):
            stack.extend((x.left, x.right))


def free_refs(e: Expr):
    """(register names, port names) referenced by an expression."""
    regs, ports = set(), set()
    for x in _subexpressions(e):
        if isinstance(x, Reg):
            regs.add(x.name)
        elif isinstance(x, Port):
            ports.add(x.name)
    return regs, ports


def int_literals(e: Expr):
    return {x.value for x in _subexpressions(e) if isinstance(x, IntLit)}


# -- structural normal forms ------------------------------------------------


def _nf_key(nf) -> str:
    return repr(nf)


class _Refused:
    """Part of the normal form of an expression that checked evaluation
    refuses: equal only to itself, so two such normal forms never match."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "refused"


def _refused():
    return ("refused", _Refused())


def _int(v: int):
    """The normal form of the constant ``v``, unless checked arithmetic
    would refuse to make it."""
    return ("int", v) if INT64_MIN <= v <= INT64_MAX else _refused()


def normal_form(e: Expr):
    """Hashable normal form: constant-fold, flatten associative operators,
    sort commutative operands.

    No fold makes a value that checked evaluation (``_check64``) refuses.
    A closed subexpression that overflows, and a sum or product whose
    constants add up past 64 bits, get a normal form equal only to itself,
    and so does every expression around the first: strict evaluation
    reaches every operand, so it overflows too.  Reassociation can still
    hide an overflow that depends on a register or port (``x + 1 + -1``
    normalises to ``x``)."""
    if isinstance(e, IntLit):
        return ("int", e.value)
    if isinstance(e, BoolLit):
        return ("bool", e.value)
    if isinstance(e, Reg):
        return ("reg", e.name)
    if isinstance(e, Port):
        return ("port", e.name)
    if isinstance(e, Neg):
        nf = normal_form(e.arg)
        if nf[0] == "int":
            return _int(-nf[1])
        if nf[0] == "neg":
            return nf[1]
        return _refused() if nf[0] == "refused" else ("neg", nf)
    if isinstance(e, Not):
        nf = normal_form(e.arg)
        if nf[0] == "bool":
            return ("bool", not nf[1])
        if nf[0] == "not":
            return nf[1]
        return _refused() if nf[0] == "refused" else ("not", nf)
    if isinstance(e, Bin):
        if e.op in _BOOL_OPS:
            return _nf_and_or(e)
        a, b = normal_form(e.left), normal_form(e.right)
        if a[0] == "refused" or b[0] == "refused":
            return _refused()
        if e.op in ("+", "*"):
            return _nf_sum_prod(e.op, a, b)
        if e.op == "-":
            if a[0] == "int" and b[0] == "int":
                return _int(a[1] - b[1])
            if b[0] == "int" and b[1] == 0:
                return a
            return ("sub", a, b)
        if e.op in _CMP_OPS:
            if a[0] == "int" and b[0] == "int":
                return ("bool", eval_expr(Bin(e.op, IntLit(a[1]), IntLit(b[1])), {}))
            if e.op == "=" and _nf_key(b) < _nf_key(a):
                a, b = b, a
            return ("cmp", e.op, a, b)
    raise TypeMismatch(f"not an expression: {e!r}")


def _nf_sum_prod(op: str, a, b):
    """The normal form of ``a op b`` from the normal forms of its operands:
    their constants folded into one, their other operands flattened."""
    kind = "sum" if op == "+" else "prod"
    const = 0 if op == "+" else 1
    operands: List = []
    for nf in (a, b):
        if nf[0] == kind:  # flatten an already-normalised operand
            const = const + nf[1] if op == "+" else const * nf[1]
            operands.extend(nf[2])
        elif nf[0] == "int":
            const = const + nf[1] if op == "+" else const * nf[1]
        else:
            operands.append(nf)
    if not INT64_MIN <= const <= INT64_MAX:
        return _refused()
    if op == "*" and const == 0:
        return ("int", 0)
    if not operands:
        return ("int", const)
    operands.sort(key=_nf_key)
    neutral = 0 if op == "+" else 1
    if const == neutral and len(operands) == 1:
        return operands[0]
    return (kind, const, tuple(operands))


def _nf_and_or(e: Bin):
    op = e.op
    absorbing = op == "or"
    operands = set()
    stack = [e.left, e.right]
    while stack:
        x = stack.pop()
        if isinstance(x, Bin) and x.op == op:
            stack.extend((x.left, x.right))
            continue
        nf = normal_form(x)
        if nf[0] == op:
            operands.update(nf[1])
        else:
            operands.add(nf)
    if any(nf[0] == "refused" for nf in operands):
        return _refused()
    if ("bool", absorbing) in operands:
        return ("bool", absorbing)
    operands.discard(("bool", not absorbing))
    if not operands:
        return ("bool", not absorbing)
    items = tuple(sorted(operands, key=_nf_key))
    if len(items) == 1:
        return items[0]
    return (op, items)


def guard_equiv(g1: Expr, g2: Expr, mode: str = "structural",
                domain: Tuple[int, int] = SEMANTIC_DOMAIN) -> bool:
    """Equivalence of two expressions of the same type.

    ``structural``: equality of normal forms (sound but incomplete for
    semantic equivalence).  ``bounded-semantic``: equal value on every
    assignment over the finite test domain.
    """
    t1, t2 = type_of(g1), type_of(g2)
    if t1 != t2:
        raise TypeMismatch(f"comparing a {t1} expression with a {t2} one")
    if mode == "structural":
        return normal_form(g1) == normal_form(g2)
    if mode != "bounded-semantic":
        raise ValueError(f"unknown guard equivalence mode: {mode!r}")
    r1, p1 = free_refs(g1)
    r2, p2 = free_refs(g2)
    regs, ports = sorted(r1 | r2), sorted(p1 | p2)
    lo, hi = domain
    width = hi - lo + 1
    if width ** (len(regs) + len(ports)) > SEMANTIC_CAP:
        raise ResourceLimit("bounded-semantic domain too large")
    at_reg = {r: i for i, r in enumerate(regs)}
    at_port = {p: i for i, p in enumerate(ports, len(regs))}   # in one tuple of values
    f1, f2 = compile_expr(g1, at_reg, at_port), compile_expr(g2, at_reg, at_port)
    for values in itertools.product(range(lo, hi + 1), repeat=len(regs) + len(ports)):
        if f1(values, values) != f2(values, values):
            return False
    return True


# -- updates and transitions ------------------------------------------------


class Update(Record):
    """Assignment of an integer expression to a register or an output port."""

    __slots__ = _fields = ("target", "expr")

    target: str
    expr: Expr


class STransition(Record):
    __slots__ = _fields = ("source", "round", "guard", "updates", "target")

    source: str
    round: Round
    guard: Expr
    updates: FrozenSet[Update]
    target: str

    def __post_init__(self):
        object.__setattr__(self, "round", frozenset(self.round))
        object.__setattr__(self, "updates", frozenset(self.updates))


def is_identity_update(u: Update) -> bool:
    return isinstance(u.expr, Reg) and u.expr.name == u.target


def normalised_updates(updates: FrozenSet[Update]) -> FrozenSet[Tuple[str, object]]:
    """Identity updates dropped; expressions in normal form."""
    return frozenset(
        (u.target, normal_form(u.expr)) for u in updates if not is_identity_update(u)
    )


def updates_equiv(u1: FrozenSet[Update], u2: FrozenSet[Update],
                  mode: str = "structural",
                  domain: Tuple[int, int] = SEMANTIC_DOMAIN) -> bool:
    """Target-wise equivalence of the right-hand sides (identities dropped)."""
    a = {u.target: u.expr for u in u1 if not is_identity_update(u)}
    b = {u.target: u.expr for u in u2 if not is_identity_update(u)}
    if a.keys() != b.keys():
        return False
    return all(guard_equiv(a[t], b[t], mode, domain) for t in a)


def check_transition(tr: STransition, sig: Signature, states, registers) -> None:
    """Raise on the first fault of one transition of an SFST with the given
    signature, states and registers.  Updates are checked in the order of
    their targets, a doubled target first, so the fault reported does not
    depend on the iteration order of ``tr.updates``."""
    if tr.source not in states:
        raise UnknownState(tr.source)
    if tr.target not in states:
        raise UnknownState(tr.target)
    sig.check_round(tr.round)
    round_inputs = tr.round & sig.inputs
    if type_of(tr.guard, registers, round_inputs) != "bool":
        raise TypeMismatch("guard must be boolean")
    updates = sorted(tr.updates, key=lambda u: u.target)
    for u, w in zip(updates, updates[1:]):
        if u.target == w.target:
            raise TypeMismatch(f"two updates for target {u.target!r}")
    for u in updates:
        if u.target not in registers:
            if u.target not in sig.outputs:
                raise UnboundReference(u.target)
            if u.target not in tr.round:
                raise TypeMismatch(f"output update for {u.target!r} outside its round")
        if type_of(u.expr, registers, round_inputs) != "int":
            raise TypeMismatch(f"update for {u.target!r} must be integer")


def _transition_key(tr: STransition):
    """Canonical sort key for transitions: source, round, target, guard,
    then updates by target (expression reprs do not depend on the hash
    seed)."""
    return (tr.source, kernel.round_key(tr.round), tr.target, repr(tr.guard),
            sorted((u.target, repr(u.expr)) for u in tr.updates))


class SFST(Record):
    """Control states plus registers; transitions carry a guard and a set
    of simultaneous updates.  Registers start at 0."""

    _fields = ("signature", "states", "registers", "initial", "delta")
    __slots__ = _fields + ("_adj",)

    signature: Signature
    states: FrozenSet[str]
    registers: FrozenSet[str]
    initial: str
    delta: FrozenSet[STransition]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "registers", frozenset(self.registers))
        object.__setattr__(self, "delta", frozenset(self.delta))
        if not self.states:
            raise UnknownState("<empty state set>")
        if self.initial not in self.states:
            raise MissingInitial(self.initial)
        clash = self.registers & self.signature.universe
        if clash:
            raise SignatureMismatch(
                f"register names collide with port labels: {sorted(clash)}"
            )
        for name in sorted(self.registers):
            kernel.check_label(name)
        try:
            for tr in self.delta:
                check_transition(tr, self.signature, self.states, self.registers)
        except CohminError:
            # report the first faulty transition in canonical order, whatever
            # the hash seed; a machine without faults sorts nothing
            for tr in sorted(self.delta, key=_transition_key):
                check_transition(tr, self.signature, self.states, self.registers)
            raise
        adj: Dict[str, List[STransition]] = {}
        for tr in self.delta:
            adj.setdefault(tr.source, []).append(tr)
        object.__setattr__(self, "_adj", adj)

    def out(self, s: str) -> List[STransition]:
        if s not in self.states:
            raise UnknownState(s)
        return self._adj.get(s, [])

    def control_skeleton(self) -> Transducer:
        """Guards and updates dropped; duplicates collapse."""
        return Transducer(
            self.signature,
            self.states,
            self.initial,
            frozenset((t.source, t.round, t.target) for t in self.delta),
        )

    def data_ports(self) -> FrozenSet[str]:
        """Ports that ever carry a value: referenced inputs, updated outputs."""
        out = set()
        for tr in self.delta:
            for e in [tr.guard] + [u.expr for u in tr.updates]:
                out |= free_refs(e)[1]
            for u in tr.updates:
                if u.target in self.signature.outputs:
                    out.add(u.target)
        return frozenset(out)

    def initial_registers(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((r, 0) for r in sorted(self.registers))


# -- symbolic protocols and coherence ---------------------------------------


def is_symbolic_protocol(T: SFST) -> bool:
    """Guards all literally true, updates all identities (or none)."""
    return all(normal_form(tr.guard) == ("bool", True) and not normalised_updates(tr.updates)
               for tr in T.delta)


def protocol_skeleton(P: SFST) -> Transducer:
    """The control skeleton of a symbolic protocol (:func:`is_symbolic_protocol`)."""
    if not is_symbolic_protocol(P):
        raise NotAProtocol("a symbolic protocol needs true guards and identity updates")
    return P.control_skeleton()


def _key_index(T: SFST, mode: str):
    """``coherence._index`` of the control states of ``T``, keyed by match keys.

    Two transitions match when their rounds are equal, their guards
    equivalent and their updates target-wise equivalent in ``mode``; each
    transition gets the key ``(round, guard class, update class)``, so that
    matching becomes key equality.  In ``structural`` mode a class is the
    normal form itself.  In ``bounded-semantic`` mode agreement on every
    assignment of a finite domain is an equivalence, so one comparison per
    class representative of the same round places an expression.  Each
    state's transitions are keyed in canonical order (:func:`_transition_key`),
    so the key ids, and the first fault met, do not depend on the hash seed.
    """
    if mode == "structural":
        def key(tr):
            return tr.round, normal_form(tr.guard), normalised_updates(tr.updates)
    else:
        reps: Dict[Round, Tuple[list, list]] = {}

        def cls(members, x, same) -> int:
            for i, y in enumerate(members):
                if same(x, y):
                    return i
            # every expression is evaluated on the whole domain at least
            # once, so an overflow or an oversized domain is an error
            # whether or not another transition needs the comparison
            same(x, x)
            members.append(x)
            return len(members) - 1

        def key(tr):
            guards, updates = reps.setdefault(tr.round, ([], []))
            return (tr.round, cls(guards, tr.guard, lambda a, b: guard_equiv(a, b, mode)),
                    cls(updates, tr.updates, lambda a, b: updates_equiv(a, b, mode)))

    states = sorted(T.states)
    ids = {s: i for i, s in enumerate(states)}
    kid: Dict[tuple, int] = {}
    moves = [list(dict.fromkeys((kid.setdefault(key(tr), len(kid)), ids[tr.target])
                                for tr in sorted(T.out(s), key=_transition_key)))
             for s in states]
    return states, moves, [k[0] for k in kid], ids[T.initial]


# The symbolic names of the ``coherence`` entry points, which take plain and
# symbolic machines alike; ``expand`` and the runs never load ``coherence``.


def _coherence():
    from . import coherence
    return coherence


def sfst_coherent_simulation(T: SFST, P: SFST, mode: str = "structural") -> CoherenceRelation:
    return _coherence().coherent_simulation(T, P, mode)


def sfst_equivalence_pairs(T: SFST, P: SFST, mode: str = "structural",
                           relation=None) -> EquivalencePairs:
    return _coherence().equivalence_pairs(T, P, relation or sfst_coherent_simulation(T, P, mode))


def sfst_quotient(T: SFST, s1: str, s2: str) -> SFST:
    return _coherence().quotient(T, s1, s2)


def sfst_coherent_minimize(T: SFST, P: SFST, mode: str = "structural",
                           keep_unreachable: bool = False, on_merge=None):
    return _coherence().coherent_minimize(T, P, keep_unreachable, on_merge, mode)


_EXPANSION = ("ValuedRound", "Config", "_Firing", "sfst_run", "EXPAND_STATE_CAP",
              "EXPAND_LABEL_CAP", "EXPAND_TRANSITION_CAP", "expanded_label", "_config_name",
              "expand", "expand_valued_trace", "lift_transducer")


def __getattr__(name):
    if name in _EXPANSION:
        from . import expansion
        return getattr(expansion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
