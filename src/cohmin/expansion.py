"""Valued runs of symbolic transducers (``sfst_run``) and their explicit
expansion into plain transducers over a finite value domain (``expand``).

``symbolic`` serves these names on first use (PEP 562), so only ``expand``
and valued-trace readers compile this module, and no minimisation does.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .errors import DomainExceeded, Overflow, ResourceLimit, SignatureMismatch
from .kernel import Record, Signature, Transducer
from .symbolic import SFST, TRUE, STransition, _transition_key, compile_expr, int_literals


def lift_transducer(T: Transducer) -> SFST:
    """View a plain transducer as an SFST with true guards and no updates."""
    return SFST(
        T.signature,
        T.states,
        frozenset(),
        T.initial,
        frozenset(
            STransition(s, v, TRUE, frozenset(), t) for s, v, t in T.delta
        ),
    )


# -- concrete runs ----------------------------------------------------------


class ValuedRound(Record):
    """One synchronous step with concrete port values.

    ``events`` maps each fired port to an integer, or to None for a
    control-only (unit-valued) firing.
    """

    __slots__ = _fields = ("events",)

    events: FrozenSet[Tuple[str, Optional[int]]]

    @classmethod
    def of(cls, mapping: Mapping[str, Optional[int]]) -> "ValuedRound":
        return cls(frozenset(mapping.items()))

    def labels(self) -> FrozenSet[str]:
        return frozenset(label for label, _ in self.events)

    def as_dict(self) -> Dict[str, Optional[int]]:
        return dict(self.events)

    def render(self) -> str:
        items = sorted(self.as_dict().items())
        return "{" + ", ".join(
            lab if val is None else f"{lab}={val}" for lab, val in items
        ) + "}"


Config = Tuple[str, Tuple[Tuple[str, int], ...]]


class _Firing:
    """One transition compiled once for firing on the ports ``data`` that
    carry values: its guard and updates read register values and the
    values of ``inputs`` (its data inputs, sorted) by position, so a
    configuration's register tuple and an assignment's value tuple are
    passed as they are.  Updates run in the order of their targets;
    ``outputs`` are the updated output ports in that order.  ``plain``,
    ``free`` and ``rounds`` are what :func:`expand` renders a firing from:
    the ports without values, the data outputs that no update sets, and
    the rounds of each firing rendered so far."""

    __slots__ = ("inputs", "guard", "updates", "outputs", "free", "plain",
                 "target", "rounds")

    def __init__(self, T: SFST, tr: STransition, data, position: Dict[str, int]):
        self.inputs = sorted(tr.round & T.signature.inputs & data)
        ports = {p: i for i, p in enumerate(self.inputs)}
        self.guard = compile_expr(tr.guard, position, ports)
        updates = sorted(tr.updates, key=lambda u: u.target)
        self.updates = [(position.get(u.target), compile_expr(u.expr, position, ports))
                        for u in updates]
        self.outputs = [u.target for u in updates if u.target not in position]
        self.free = sorted((tr.round & T.signature.outputs & data) - set(self.outputs))
        self.plain, self.target, self.rounds = tr.round - data, tr.target, {}

    def fire(self, regs, values, lo=-math.inf, hi=math.inf):
        """``(register values, carried outputs)`` after firing from register
        values ``regs`` on input values ``values``, or None if the guard
        declines or a value leaves ``[lo..hi]``.  Faults raise."""
        if self.guard(regs, values) is not True:
            return None
        new_regs, carried = list(regs), ()
        for i, f in self.updates:
            v = f(regs, values)
            if not lo <= v <= hi:
                return None
            if i is None:
                carried += (v,)
            else:
                new_regs[i] = v
        return tuple(new_regs), carried


def sfst_run(T: SFST, trace) -> FrozenSet[Config]:
    """All configurations reachable on a valued trace from (initial, zeros).

    A transition fires when its round equals the fired label set, its guard
    holds, and every output update reproduces the carried value; register
    updates read the pre-state.  Transitions are compiled once per run and
    per set of ports fired with a value (:class:`_Firing`; the others stay
    unbound), and tried in canonical order, so the first fault does not
    depend on the hash seed.  Every update runs before a carried output is
    compared.  Evaluation errors carry the round index.
    """
    registers = sorted(T.registers)
    position = {r: i for i, r in enumerate(registers)}
    firings: Dict[tuple, List[_Firing]] = {}   # (state, round, data ports) -> firings
    configs = {(T.initial, (0,) * len(registers))}
    for i, vround in enumerate(trace):
        labels, values = vround.labels(), vround.as_dict()
        stray = labels - T.signature.universe
        if stray:
            raise SignatureMismatch(f"round {i}: unknown labels {sorted(stray)}")
        data = frozenset(p for p, v in values.items() if v is not None)
        nxt = set()
        try:
            for state, regs in sorted(configs):
                plan = firings.get((state, labels, data))
                if plan is None:
                    plan = firings[state, labels, data] = [
                        _Firing(T, tr, data, position)
                        for tr in sorted(T.out(state), key=_transition_key)
                        if tr.round == labels]
                for firing in plan:
                    fired = firing.fire(regs, tuple(map(values.get, firing.inputs)))
                    if fired is not None and fired[1] == tuple(map(values.get, firing.outputs)):
                        nxt.add((firing.target, fired[0]))
        except Exception as e:
            e.round_index = i
            raise
        configs = nxt
        if not configs:
            return frozenset()
    return frozenset((state, tuple(zip(registers, regs))) for state, regs in configs)


# -- explicit expansion -----------------------------------------------------

EXPAND_STATE_CAP = 10**5
# Labels an expanded signature may have; each data port takes one label per
# domain value, so a wide domain would exhaust memory building them.
EXPAND_LABEL_CAP = 10**5
# Transitions an expansion may keep (iterator_map over [-8..8] keeps 2.3
# million in about 0.9 GB), and assignments (data-input and free-output
# values) one symbolic transition may enumerate from one state.
EXPAND_TRANSITION_CAP = 3 * 10**6


def expanded_label(port: str, value: Optional[int]) -> str:
    """Valued events as plain labels: x=3 -> 'x_eq_3', x=-3 -> 'x_eq_n3'."""
    if value is None:
        return port
    return f"{port}_eq_{value}" if value >= 0 else f"{port}_eq_n{-value}"


def _config_name(state: str, regs) -> str:
    if not regs:
        return state
    return state + "[" + ",".join(f"{r}={v}" for r, v in regs) + "]"


def expand(T: SFST, lo: int, hi: int, data_ports=None,
           state_cap: int = EXPAND_STATE_CAP) -> Transducer:
    """Map register values into explicit states over a finite value domain.

    States are reachable (control state, register valuation) pairs; labels
    are (port, value) events rendered via :func:`expanded_label`.  Runs
    whose register values or carried values leave the domain are cut at the
    frontier, so acceptance agrees with ``sfst_run`` exactly on traces whose
    values stay within the domain.  A valued label outside the domain is
    outside the expanded signature: ``accepts`` on a trace carrying one
    raises :class:`UnknownLabel` rather than rejecting it.  An expansion
    that needs more than :data:`EXPAND_LABEL_CAP` labels, ``state_cap``
    states, or :data:`EXPAND_TRANSITION_CAP` transitions or assignments of
    one transition, is a :class:`ResourceLimit`.  A literal outside the
    domain is a :class:`DomainExceeded` that names the least such literal
    of the whole machine.

    Each transition is compiled once, when its source is first reached
    (:class:`_Firing`); a state's transitions are tried in
    ``_transition_key`` order, as in ``sfst_run``, so the first fault met
    does not depend on the hash seed.  Per configuration and assignment of
    its data inputs, only its guard and updates run; an ``Overflow`` cuts
    the run like a value outside the domain.  The expanded rounds of a
    firing are rendered once per distinct firing, and a target joins its
    row with one lookup per round; a round's first target is one tuple
    shared by every row it starts."""
    if lo > hi:
        raise DomainExceeded(f"empty domain [{lo}..{hi}]")
    if not (lo <= 0 <= hi):
        raise DomainExceeded("domain must contain 0 (the initial register value)")
    outside = {v for tr in T.delta for e in [tr.guard] + [u.expr for u in tr.updates]
               for v in int_literals(e) if not lo <= v <= hi}
    if outside:
        raise DomainExceeded(f"literal {min(outside)} outside [{lo}..{hi}]")
    data = frozenset(T.data_ports() if data_ports is None else data_ports)
    domain = range(lo, hi + 1)
    width = hi - lo + 1  # len(domain) overflows on a wide domain
    n_labels = sum(width if p in data else 1 for p in T.signature.universe)
    if n_labels > EXPAND_LABEL_CAP:
        raise ResourceLimit(
            f"expansion needs {n_labels} labels, more than {EXPAND_LABEL_CAP}"
        )

    def port_labels(ports):
        return frozenset(lab for p in ports for lab in (
            [expanded_label(p, v) for v in domain] if p in data else [p]))

    def compiled(tr):
        firing = _Firing(T, tr, data, position)
        n = width ** (len(firing.inputs) + len(firing.free))
        if n > EXPAND_TRANSITION_CAP:
            raise ResourceLimit(f"expansion needs {n} assignments of one "
                                f"transition, more than {EXPAND_TRANSITION_CAP}")
        return firing

    def rendered(firing, values, carried):
        """The rounds of one firing, one per value of its free outputs."""
        fixed = set(firing.plain).union(map(expanded_label, firing.inputs, values))
        fixed.update(expanded_label(p, v) for p, v in zip(firing.outputs, carried)
                     if p not in firing.plain)   # an updated output is in the round
        return [frozenset(fixed.union(map(expanded_label, firing.free, extra)))
                for extra in itertools.product(domain, repeat=len(firing.free))]

    sig = Signature(port_labels(T.signature.inputs), port_labels(T.signature.outputs))
    registers = sorted(T.registers)
    position = {r: i for i, r in enumerate(registers)}
    firings: Dict[str, List[_Firing]] = {}
    init = (T.initial, (0,) * len(registers))
    names = {init: _config_name(T.initial, T.initial_registers())}
    frontier = [init]
    adj, n_transitions = {}, 0   # the index the constructor would build
    alone: Dict[str, Tuple[str]] = {}   # target -> the one row tuple of it alone
    while frontier:
        state, regs = cfg = frontier.pop()
        source = names[cfg]
        row = adj.get(source) or {}   # two configurations may share a name
        if state not in firings:
            firings[state] = [compiled(tr) for tr in sorted(T.out(state), key=_transition_key)]
        for firing in firings[state]:
            for values in itertools.product(domain, repeat=len(firing.inputs)):
                try:
                    fired = firing.fire(regs, values, lo, hi)
                except Overflow:
                    continue
                if fired is None:
                    continue
                new_regs, carried = fired
                key = (values, carried) if carried else values
                rounds = firing.rounds.get(key)
                if rounds is None:
                    rounds = firing.rounds[key] = rendered(firing, values, carried)
                cfg = (firing.target, new_regs)
                target = names.get(cfg)
                if target is None:
                    if len(names) >= state_cap:
                        raise ResourceLimit(f"expansion exceeded {state_cap} states")
                    target = names[cfg] = _config_name(firing.target, tuple(zip(registers, new_regs)))
                    frontier.append(cfg)
                one = alone.get(target)
                if one is None:
                    one = alone[target] = (target,)
                for r in rounds:
                    ts = row.get(r)
                    if ts is None:
                        row[r] = one
                    elif target in ts:
                        continue
                    else:
                        row[r] = ts + (target,)
                    n_transitions += 1
                if n_transitions > EXPAND_TRANSITION_CAP:
                    raise ResourceLimit(f"expansion exceeded {EXPAND_TRANSITION_CAP} transitions")
        if row:
            adj[source] = row
    return Transducer._trusted(sig, frozenset(names.values()), names[init], adj)


def expand_valued_trace(T: SFST, trace, data_ports=None):
    """Render a valued trace in the alphabet of :func:`expand`."""
    data = frozenset(T.data_ports() if data_ports is None else data_ports)
    return tuple(frozenset(expanded_label(lab, val) if lab in data else lab
                           for lab, val in vround.as_dict().items()) for vround in trace)
