"""Transducer combinators: intersection, interaction, projection and
composition, plus bounded trace enumeration (:func:`traces_upto`),
bounded-depth language equality and the subset construction
(:func:`determinize`).

The products walk the pairs of states reachable from the initial pair and
build the ``Transducer`` once, in O(reachable pairs + their joint
transitions); ``keep_unreachable=True`` seeds the walk with every pair.
Bounded equality builds no product: it walks the state subsets that one
trace reaches in each machine, to the given depth.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from .errors import LabelClash, ResourceLimit, SignatureMismatch
from .kernel import (DEFAULT_TRACE_CAP, EMPTY_TRACE, TRACE_ROUNDS_CAP, Record, Signature,
                     Trace, Transducer, round_key)


def product_state(left: str, right: str) -> str:
    """Canonical rendering of a product state."""
    return f"({left},{right})"


def intersect(T: Transducer, U: Transducer, keep_unreachable: bool = False) -> Transducer:
    """Synchronous product on identical signatures: a joint step needs the
    same round on both sides (:func:`interact` with every label shared)."""
    if T.signature != U.signature:
        raise SignatureMismatch("intersection needs identical signatures")
    return _product(T, U, T.signature, keep_unreachable)


def _merge_signatures(T: Transducer, U: Transducer) -> Signature:
    """Disjoint-union-by-name; on shared labels an output polarity wins."""
    outputs = T.signature.outputs | U.signature.outputs
    inputs = (T.signature.inputs | U.signature.inputs) - outputs
    return Signature(inputs, outputs)


def interact(T: Transducer, U: Transducer, keep_unreachable: bool = False,
             strict_polarity: bool = False) -> Transducer:
    """Joint stepping over the union universe.

    The shared part is the intersection of the two label universes; a joint
    round V steps T on its T-side projection and U on its U-side projection.
    Candidate rounds come from transition pairs whose shared projections
    agree (never from enumerating the full powerset).  There is no implicit
    idling: a side that should stutter needs its own empty-round transition.
    Cost: O(reachable pairs + their joint transitions), not
    O(|Q_T|·|Q_U| + |δ_T|·|δ_U|).
    """
    if strict_polarity:
        clash = (T.signature.inputs & U.signature.outputs) | (
            T.signature.outputs & U.signature.inputs
        )
        if clash:
            raise LabelClash(f"conflicting polarity on shared labels: {sorted(clash)}")
    return _product(T, U, _merge_signatures(T, U), keep_unreachable)


def _product(T: Transducer, U: Transducer, sig: Signature,
             keep_unreachable: bool) -> Transducer:
    """The product over ``sig``, walked from the initial pair (from every
    pair with ``keep_unreachable``) and built once.  A product state is its
    name: if two pairs render to the same name (possible only when both
    sides have names with commas), reaching the name reaches both.  The
    walk builds the index, with one object per name, and hands it over."""
    shared = T.signature.universe & U.signature.universe
    sides = {}   # s -> [(shared part of v, v, targets)] for the rounds v of s
    joins = {}   # u -> {shared part of w: [(rest of w, targets)]}
    ambiguous = any("," in s for s in T.states) and any("," in u for u in U.states)
    todo = ([(s, u) for s in T.states for u in U.states] if keep_unreachable
            else _pairs_named(product_state(T.initial, U.initial), T, U))
    seen = {name: name for name in (product_state(s, u) for s, u in todo)}
    adj = {}
    while todo:
        s, u = todo.pop()
        src = seen[product_state(s, u)]
        side = sides.get(s)
        if side is None:
            side = sides[s] = [(v & shared, v, ts) for v, ts in T.out(s).items()]
        join = joins.get(u)
        if join is None:
            join = joins[u] = {}
            for w, us in U.out(u).items():
                join.setdefault(w & shared, []).append((w - shared, us))
        row = adj.get(src) or {}
        for key, v, ts in side:
            for rest, us in join.get(key, ()):
                targets = row.setdefault(v | rest if rest else v, [])
                for t in ts:
                    for x in us:
                        tgt = f"({t},{x})"   # product_state, inlined
                        name = seen.get(tgt)
                        if name is None:
                            seen[tgt] = name = tgt
                            todo += _pairs_named(tgt, T, U) if ambiguous else ((t, x),)
                        targets.append(name)
        if row:
            adj[src] = row
    for row in adj.values():   # a target repeats only where two pairs share a name
        for vw, targets in row.items():
            row[vw] = tuple(dict.fromkeys(targets) if ambiguous else targets)
    return Transducer._trusted(sig, frozenset(seen.values()),
                               seen[product_state(T.initial, U.initial)], adj)


def _pairs_named(name: str, T: Transducer, U: Transducer) -> list:
    """Every pair of states of T and U that renders to ``name``."""
    return [(name[1:i], name[i + 1:-1]) for i, c in enumerate(name)
            if c == "," and name[1:i] in T.states and name[i + 1:-1] in U.states]


def project(T: Transducer, keep: Signature) -> Transducer:
    """Replace every transition round by its projection onto ``keep``."""
    if not keep.is_sub_signature_of(T.signature):
        raise SignatureMismatch("projection target is not a sub-signature")
    u = keep.universe
    delta = frozenset((s, v & u, t) for s, v, t in T.delta)
    return Transducer(keep, T.states, T.initial, delta)


def compose(
    T: Transducer,
    U: Transducer,
    keep_unreachable: bool = False,
    strict_polarity: bool = False,
) -> Transducer:
    """Interaction followed by hiding of the shared labels."""
    shared = T.signature.universe & U.signature.universe
    joint = interact(T, U, keep_unreachable, strict_polarity)
    keep = joint.signature.restrict(joint.signature.universe - shared)
    return project(joint, keep)


def determinize(T: Transducer) -> Transducer:
    """Subset construction over rounds (labels stay whole rounds).

    Subsets are visited breadth first, each one's rounds in ``round_key``
    order, and named ``P0, P1, ...`` in the order they are found, so the
    result depends only on ``T`` and its names are valid in a model file.
    The walk builds the index and hands it over."""
    initial = frozenset({T.initial})
    names = {initial: "P0"}
    order = [initial]
    adj = {}
    for cur in order:  # grows while it is walked: a breadth-first queue
        moves = T.moves(cur)
        row = {}
        for v in sorted(moves, key=round_key):
            succ = moves[v]
            if succ not in names:
                names[succ] = f"P{len(names)}"
                order.append(succ)
            row[v] = (names[succ],)
        if row:
            adj[names[cur]] = row
    return Transducer._trusted(T.signature, frozenset(names.values()), "P0", adj)


# -- bounded trace enumeration and bounded-depth language equality ---------


def trace_key(t: Trace):
    """Canonical sort key for traces: by length, then round contents."""
    return (len(t), tuple(round_key(v) for v in t))


class TraceSet(Record):
    """A finite set of traces over a signature, as :func:`traces_upto`
    enumerates them."""

    __slots__ = _fields = ("signature", "traces")

    signature: Signature
    traces: FrozenSet[Trace]

    def __post_init__(self):
        object.__setattr__(self, "traces",
                           frozenset(tuple(frozenset(v) for v in t) for t in self.traces))
        for t in self.traces:
            for v in t:
                self.signature.check_round(v)

    def sorted_traces(self):
        return sorted(self.traces, key=trace_key)


def _enumerate(T: Transducer, k: int, cap: int):
    """Breadth-first trace enumeration; yields (trace, reached-state-set).

    Stops with :class:`ResourceLimit` beyond ``cap`` traces or beyond
    :data:`TRACE_ROUNDS_CAP` rounds held by the traces together.
    """
    if k < 0:
        raise ValueError("depth must be >= 0")
    count, held = 1, 0
    yield EMPTY_TRACE, frozenset({T.initial})
    frontier = [(EMPTY_TRACE, frozenset({T.initial}))]
    for _ in range(k):
        nxt = []
        for trace, states in frontier:
            moves = T.moves(states)
            for v in sorted(moves, key=round_key):
                count += 1
                held += len(trace) + 1
                if count > cap:
                    raise ResourceLimit(
                        f"trace enumeration exceeded cap of {cap} traces"
                    )
                if held > TRACE_ROUNDS_CAP:
                    raise ResourceLimit(
                        f"traces would hold more than {TRACE_ROUNDS_CAP} rounds"
                    )
                item = (trace + (v,), moves[v])
                yield item
                nxt.append(item)
        frontier = nxt
        if not frontier:
            return


def traces_upto(T: Transducer, k: int, cap: int = DEFAULT_TRACE_CAP) -> TraceSet:
    """Exactly the traces of ``T`` of length at most ``k``."""
    out = [trace for trace, _ in _enumerate(T, k, cap)]
    return TraceSet(T.signature, frozenset(out))


def bounded_language_equal(T: Transducer, U: Transducer, k: int) -> bool:
    """Do T and U accept exactly the same traces of length <= k?"""
    return distinguishing_trace(T, U, k) is None


def distinguishing_trace(T: Transducer, U: Transducer, k: int,
                         P: Optional[Transducer] = None) -> Optional[Trace]:
    """A shortest trace of length <= k that exactly one of T∩P and U∩P
    accepts, or ``None`` if they accept the same traces up to length k
    (``P=None``: the universal protocol).

    No product is built: a breadth-first walk visits the triples (subset
    of T, subset of U, subset of P) that one trace reaches.  T∩P enables
    E(S_T) ∩ E(S_P) there and U∩P enables E(S_U) ∩ E(S_P); the two differ
    exactly where these sets do.  Rounds are followed, and the differing
    one chosen, in ``round_key`` order, so the trace does not depend on
    the hash seed.  Unlike ``intersect``, which lets pairs whose names
    ``(s,p)`` collide share one state (only possible when both sides have
    names with commas), the walk never confuses two states.
    """
    if P is not None:
        for M in (T, U):
            if M.signature != P.signature:
                raise SignatureMismatch("intersection needs identical signatures")
    machines = (T, U) if P is None else (T, U, P)
    memos = [{} for _ in machines]
    start = tuple(frozenset({M.initial}) for M in machines)
    parent = {start: None}   # triple -> (the triple before it, round)
    frontier = [start]
    for _ in range(k):
        nxt = []
        for node in frontier:
            mt, mu, *mp = (memo[S] if S in memo else memo.setdefault(S, M.moves(S))
                           for M, S, memo in zip(machines, node, memos))
            if mp:
                a, b = mt.keys() & mp[0].keys(), mu.keys() & mp[0].keys()
            else:
                a, b = mt.keys(), mu.keys()
            if a != b:
                trace = [min(a ^ b, key=round_key)]
                while parent[node] is not None:
                    node, v = parent[node]
                    trace.append(v)
                return tuple(reversed(trace))
            for v in sorted(a, key=round_key):
                child = (mt[v], mu[v], mp[0][v]) if mp else (mt[v], mu[v])
                if child not in parent:
                    parent[child] = (node, v)
                    nxt.append(child)
        frontier = nxt
    return None

