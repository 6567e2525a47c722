"""Core model: signatures, rounds, traces and transducers.

A transducer here is a plain transition system over *rounds* (finite sets of
port labels fired in one synchronous step).  Its language is the set of all
traces that can be driven from the initial state; there are no accepting
states, so every language is prefix-closed by construction.

All values are immutable; every operation is a pure function of its inputs.
Every value type of the package (here, in ``protocol`` and in ``symbolic``)
is a :class:`Record`: a slotted class with dataclass-like equality, hash,
``repr`` and construction, built without importing :mod:`dataclasses`,
which would cost each ``cohmin`` process several milliseconds of start-up.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .errors import (
    MissingInitial,
    SignatureMismatch,
    UnknownLabel,
    UnknownState,
)

Round = FrozenSet[str]
Trace = Tuple[Round, ...]

EMPTY_TRACE: Trace = ()

DEFAULT_TRACE_CAP = 10**6
# Rounds the enumerated traces may hold between them (a trace of length n
# holds n): long traces exhaust memory well below the trace-count cap.
TRACE_ROUNDS_CAP = 2 * 10**6


def check_label(name: str) -> str:
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
        raise UnknownLabel(name)
    return name


def mkround(labels: Iterable[str]) -> Round:
    return frozenset(labels)


def round_key(v: Round):
    """Canonical sort key for rounds: by size, then sorted contents."""
    return (len(v), tuple(sorted(v)))


def render_round(v: Round) -> str:
    return "{" + ", ".join(sorted(v)) + "}"


def render_trace(t: Trace) -> str:
    return "[" + " ".join(render_round(v) for v in t) + "]"


_set = object.__setattr__


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``_fields``, and declares
    them in ``__slots__`` together with any attribute its
    ``__post_init__`` derives from them; ``_defaults`` maps trailing
    fields to their default values.  The constructor takes the fields
    positionally or by keyword, stores them, then calls
    ``__post_init__``, which may normalise fields (through
    ``object.__setattr__``) and validates them.  As with a frozen
    dataclass, ``==`` holds only between instances of one class with
    equal fields, ``hash`` and ``repr`` are taken over the fields, no
    attribute can be set or deleted afterwards, and ``copy`` and
    ``pickle`` work.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the fields as a tuple, so that a one-field record hashes as
        # ``hash((value,))``, as a dataclass does
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _replace(self, **changes):
        """A new instance with ``changes`` applied to the fields, built
        (and so validated) by the constructor."""
        return type(self)(*[changes.pop(f) if f in changes else getattr(self, f)
                            for f in self._fields], **changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which alone
        # may set the fields
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Signature(Record):
    """Named input and output port labels; the two sets are disjoint.

    ``universe``, the union of the two, is computed once here; it is not a
    field, so it takes no part in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("inputs", "outputs")
    __slots__ = _fields + ("universe",)

    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    universe: FrozenSet[str]

    def __post_init__(self):
        _set(self, "inputs", frozenset(self.inputs))
        _set(self, "outputs", frozenset(self.outputs))
        _set(self, "universe", self.inputs | self.outputs)
        for name in self.universe:
            check_label(name)
        overlap = self.inputs & self.outputs
        if overlap:
            raise SignatureMismatch(
                f"labels on both sides of the signature: {sorted(overlap)}"
            )

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


class Transducer(Record):
    """States plus a set of (source, round, target) transitions.

    ``delta`` is a set, so duplicate transitions collapse silently.
    Unreachable states are retained; only minimisation decides their fate.
    ``_adj`` maps a source to its rounds, each to a tuple of distinct targets.
    """

    _fields = ("signature", "states", "initial", "delta")
    __slots__ = _fields[:3] + ("_delta", "_adj")

    signature: Signature
    states: FrozenSet[str]
    initial: str

    def __post_init__(self):
        _set(self, "states", frozenset(self.states))
        if self.delta.__class__ is not frozenset or any(
                v.__class__ is not frozenset for _, v, _ in self.delta):
            _set(self, "delta", frozenset((s, frozenset(v), t) for s, v, t in self.delta))
        states, delta = self.states, self.delta
        if not states:
            raise UnknownState("<empty state set>")
        if self.initial not in states:
            raise MissingInitial(self.initial)
        # one pass validates and indexes; each distinct round is checked once
        adj, checked = {}, set()
        for src, v, tgt in delta:
            if src not in states or tgt not in states:
                raise UnknownState(tgt if src in states else src)
            if v not in checked:
                self.signature.check_round(v)
                checked.add(v)
            adj.setdefault(src, {}).setdefault(v, []).append(tgt)
        for row in adj.values():   # distinct targets, as ``delta`` is a set
            for v, targets in row.items():
                row[v] = tuple(targets)
        _set(self, "_adj", adj)

    @classmethod
    def _trusted(cls, signature, states, initial, adj) -> "Transducer":
        """A machine from valid parts in normal form (a frozenset of states,
        and the index the constructor would build), taken as they are; its
        ``delta`` is built from the index when it is first read."""
        T = object.__new__(cls)
        for field, value in zip(cls.__slots__, (signature, states, initial, None, adj)):
            _set(T, field, value)
        return T

    def _delta_view(self) -> FrozenSet[Tuple[str, Round, str]]:   # only ``_set`` sets ``delta``
        if self._delta is None:   # a trusted build's, read off its index once
            _set(self, "_delta", frozenset((s, v, t) for s, row in self._adj.items()
                                           for v, targets in row.items() for t in targets))
        return self._delta

    delta = property(_delta_view, lambda self, value: _set(self, "_delta", value))

    # -- stepping ---------------------------------------------------------

    def out(self, s: str) -> Mapping[Round, tuple]:
        """Outgoing transitions of ``s`` grouped by round: each round maps
        to a tuple of its distinct targets, in no fixed order."""
        if s not in self.states:
            raise UnknownState(s)
        return self._adj.get(s, {})

    def enabled(self, s: str) -> FrozenSet[Round]:
        return frozenset(self.out(s).keys())

    def moves(self, states: Iterable[str]) -> Dict[Round, FrozenSet[str]]:
        """The successor function of the subset construction: each round
        some state of ``states`` enables maps to the states it leads to
        from ``states``, so ``moves(S)[v] == step_set(S, v)`` for every
        round ``v`` enabled in ``S``, and no other round is a key."""
        acc: Dict[Round, set] = defaultdict(set)   # one set per round
        for s in states:
            for v, targets in self.out(s).items():
                acc[v].update(targets)
        return {v: frozenset(targets) for v, targets in acc.items()}

    def step_set(self, states: Iterable[str], v: Round) -> FrozenSet[str]:
        v = frozenset(v)
        acc = set()
        for s in states:
            acc.update(self.out(s).get(v, ()))
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
        return _reach(self.initial, lambda s: [t for ts in self.out(s).values() for t in ts])

    def relabel_signature(self, sig: Signature) -> "Transducer":
        """Rebind to a signature with the same label universe."""
        if sig == self.signature:
            return self
        if sig.universe != self.signature.universe:
            raise SignatureMismatch("protocol and subject use different label universes")
        return Transducer._trusted(sig, self.states, self.initial, self._adj)


def _reach(initial: str, successors) -> FrozenSet[str]:
    """``initial`` and the states ``successors`` (state -> targets) leads to from it."""
    seen, frontier = {initial}, [initial]
    while frontier:
        for t in successors(frontier.pop()):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


def joint_reach(left, right, starts, twins=None) -> list:
    """The pairs of states of two machines that joint steps reach from the
    pairs ``starts``: for each left state, the set of right states reached
    with it.  A pair ``(i, j)`` is the integer ``i * len(right) + j``.
    ``left[i]`` lists (shared part, target pair ids ``t * len(right)``) for
    the rounds of state ``i``, and ``right[j]`` maps each part of state
    ``j``'s rounds to their target ids; a joint step takes a round of each
    side with one part.
    ``twins(pair)``, if given, lists the other pairs reached with it."""
    m = len(right)
    seen = [set() for _ in left]
    todo = list(starts)
    for x in todo:
        seen[x // m].add(x % m)
    while todo:
        x = todo.pop()
        there = right[x % m]
        for part, ts in left[x // m]:
            us = there.get(part)
            if us:
                for t in ts:
                    done = seen[t // m]
                    for u in us:
                        if u not in done:
                            done.add(u)
                            todo.append(t + u)
                            if twins:
                                for y in twins(t + u):
                                    seen[y // m].add(y % m)
                                    todo.append(y)
    return seen


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
        delta = [tr._replace(source=name(tr.source, tr.source),
                             target=name(tr.target, tr.target)) for tr in M.delta]
    return M._replace(states=frozenset(name(s, s) for s in M.states),
                      initial=name(M.initial, M.initial), delta=frozenset(delta))


def drop_unreachable(M):
    """``M`` without the states its initial state cannot reach.

    Plain or symbolic, as for :func:`merge_states`; a symbolic machine's
    reachability is read off its transitions, building no control skeleton.
    """
    plain = isinstance(M, Transducer)
    reach = M.reachable_states() if plain else _reach(
        M.initial, lambda s: [tr.target for tr in M.out(s)])
    if reach == M.states:
        return M
    if plain:
        delta = [tr for tr in M.delta if tr[0] in reach]
    else:
        delta = [tr for tr in M.delta if tr.source in reach]
    return M._replace(states=reach, delta=frozenset(delta))


# Bounded trace enumeration, which only ``traces`` runs, lives in ``algebra``
# beside bounded language equality; its names load it on first use (PEP 562).
_ALGEBRA = ("TraceSet", "_enumerate", "trace_key", "traces_upto")


def __getattr__(name):
    if name in _ALGEBRA:
        from . import algebra
        return getattr(algebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
