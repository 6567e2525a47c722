"""Core model: signatures, rounds, traces and transducers.

A transducer here is a plain transition system over *rounds* (finite sets of
port labels fired in one synchronous step).  Its language is the set of all
traces that can be driven from the initial state; there are no accepting
states, so every language is prefix-closed by construction.

All values are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Mapping, Tuple

from .errors import (
    MissingInitial,
    ResourceLimit,
    SignatureMismatch,
    UnknownLabel,
    UnknownState,
)

Round = FrozenSet[str]
Trace = Tuple[Round, ...]

EMPTY_TRACE: Trace = ()

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

DEFAULT_TRACE_CAP = 10**6


def check_label(name: str) -> str:
    if not isinstance(name, str) or not _LABEL_RE.match(name):
        raise UnknownLabel(name)
    return name


def mkround(labels: Iterable[str]) -> Round:
    return frozenset(labels)


def round_key(v: Round):
    """Canonical sort key for rounds: by size, then sorted contents."""
    return (len(v), tuple(sorted(v)))


def trace_key(t: Trace):
    """Canonical sort key for traces: by length, then round contents."""
    return (len(t), tuple(round_key(v) for v in t))


def render_round(v: Round) -> str:
    return "{" + ", ".join(sorted(v)) + "}"


def render_trace(t: Trace) -> str:
    return "[" + " ".join(render_round(v) for v in t) + "]"


@dataclass(frozen=True)
class Signature:
    """Named input and output port labels; the two sets are disjoint."""

    inputs: FrozenSet[str]
    outputs: FrozenSet[str]

    def __post_init__(self):
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        for name in self.inputs | self.outputs:
            check_label(name)
        overlap = self.inputs & self.outputs
        if overlap:
            raise SignatureMismatch(
                f"labels on both sides of the signature: {sorted(overlap)}"
            )

    @property
    def universe(self) -> FrozenSet[str]:
        return self.inputs | self.outputs

    def dualize(self) -> "Signature":
        """Swap input and output polarity (an involution)."""
        return Signature(self.outputs, self.inputs)

    def restrict(self, labels: Iterable[str]) -> "Signature":
        keep = frozenset(labels)
        missing = keep - self.universe
        if missing:
            raise SignatureMismatch(f"labels not in signature: {sorted(missing)}")
        return Signature(self.inputs & keep, self.outputs & keep)

    def is_sub_signature_of(self, other: "Signature") -> bool:
        return self.inputs <= other.inputs and self.outputs <= other.outputs

    def check_round(self, v: Round) -> Round:
        stray = v - self.universe
        if stray:
            raise UnknownLabel(sorted(stray)[0])
        return v

    def render(self) -> str:
        return (
            "in " + ", ".join(sorted(self.inputs)) + "; out "
            + ", ".join(sorted(self.outputs))
        )


@dataclass(frozen=True)
class Transducer:
    """States plus a set of (source, round, target) transitions.

    ``delta`` is a set, so duplicate transitions collapse silently.
    Unreachable states are retained; only minimisation decides their fate.
    """

    signature: Signature
    states: FrozenSet[str]
    initial: str
    delta: FrozenSet[Tuple[str, Round, str]]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(
            self, "delta", frozenset((s, frozenset(v), t) for s, v, t in self.delta)
        )
        if not self.states:
            raise UnknownState("<empty state set>")
        if self.initial not in self.states:
            raise MissingInitial(self.initial)
        for src, v, tgt in self.delta:
            if src not in self.states:
                raise UnknownState(src)
            if tgt not in self.states:
                raise UnknownState(tgt)
            self.signature.check_round(v)
        adj = {}
        for src, v, tgt in self.delta:
            adj.setdefault(src, {}).setdefault(v, set()).add(tgt)
        object.__setattr__(self, "_adj", adj)

    # -- stepping ---------------------------------------------------------

    def out(self, s: str) -> Mapping[Round, set]:
        """Outgoing transitions of ``s`` grouped by round."""
        if s not in self.states:
            raise UnknownState(s)
        return self._adj.get(s, {})

    def enabled(self, s: str) -> FrozenSet[Round]:
        return frozenset(self.out(s).keys())

    def step_set(self, states: Iterable[str], v: Round) -> FrozenSet[str]:
        v = frozenset(v)
        acc = set()
        for s in states:
            acc |= self.out(s).get(v, set())
        return frozenset(acc)

    def run(self, t: Trace) -> FrozenSet[str]:
        current = frozenset({self.initial})
        for v in t:
            self.signature.check_round(frozenset(v))
            current = self.step_set(current, v)
            if not current:
                return frozenset()
        return current

    def accepts(self, t: Trace) -> bool:
        return bool(self.run(t))

    def reachable_states(self) -> FrozenSet[str]:
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for targets in self.out(s).values():
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return frozenset(seen)

    def relabel_signature(self, sig: Signature) -> "Transducer":
        """Rebind to a signature with the same label universe."""
        if sig.universe != self.signature.universe:
            raise SignatureMismatch(
                "cannot rebind: label universes differ "
                f"({sorted(self.signature.universe)} vs {sorted(sig.universe)})"
            )
        return Transducer(sig, self.states, self.initial, self.delta)


def merge_states(M, classes):
    """``M`` with each class of states folded into its least member.

    ``M`` is a plain :class:`Transducer` or a symbolic machine (whose
    transitions carry ``source`` and ``target``).  States in no class keep
    their names; transitions that become equal collapse, since ``delta`` is
    a set.  This is the one place where states are renamed.
    """
    name = {s: least for c in classes for least in (min(c),) for s in c}.get
    if isinstance(M, Transducer):
        delta = [(name(s, s), v, name(t, t)) for s, v, t in M.delta]
    else:
        delta = [replace(tr, source=name(tr.source, tr.source),
                         target=name(tr.target, tr.target)) for tr in M.delta]
    return replace(M, states=frozenset(name(s, s) for s in M.states),
                   initial=name(M.initial, M.initial), delta=frozenset(delta))


def drop_unreachable(M):
    """``M`` without the states its initial state cannot reach.

    Plain or symbolic, as for :func:`merge_states`; a symbolic machine's
    reachability is read off its control skeleton.
    """
    plain = isinstance(M, Transducer)
    reach = (M if plain else M.control_skeleton()).reachable_states()
    if reach == M.states:
        return M
    if plain:
        delta = [tr for tr in M.delta if tr[0] in reach]
    else:
        delta = [tr for tr in M.delta if tr.source in reach]
    return replace(M, states=reach, delta=frozenset(delta))


@dataclass(frozen=True)
class TraceSet:
    """A finite set of traces over a signature, as :func:`traces_upto`
    enumerates them."""

    signature: Signature
    traces: FrozenSet[Trace]

    def __post_init__(self):
        object.__setattr__(
            self, "traces", frozenset(tuple(frozenset(v) for v in t) for t in self.traces)
        )
        for t in self.traces:
            for v in t:
                self.signature.check_round(v)

    def sorted_traces(self):
        return sorted(self.traces, key=trace_key)


# -- bounded trace enumeration ---------------------------------------------


def _enumerate(T: Transducer, k: int, cap: int):
    """Breadth-first trace enumeration; yields (trace, reached-state-set)."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    count = 1
    yield EMPTY_TRACE, frozenset({T.initial})
    frontier = [(EMPTY_TRACE, frozenset({T.initial}))]
    for _ in range(k):
        nxt = []
        for trace, states in frontier:
            rounds = set()
            for s in states:
                rounds.update(T.out(s).keys())
            for v in sorted(rounds, key=round_key):
                succ = T.step_set(states, v)
                if not succ:
                    continue
                count += 1
                if count > cap:
                    raise ResourceLimit(
                        f"trace enumeration exceeded cap of {cap} traces"
                    )
                item = (trace + (v,), succ)
                yield item
                nxt.append(item)
        frontier = nxt
        if not frontier:
            return


def traces_upto(T: Transducer, k: int, cap: int = DEFAULT_TRACE_CAP) -> TraceSet:
    """Exactly the traces of ``T`` of length at most ``k``."""
    out = [trace for trace, _ in _enumerate(T, k, cap)]
    return TraceSet(T.signature, frozenset(out))
