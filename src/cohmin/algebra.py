"""Transducer combinators: intersection, interaction, projection and
composition, plus bounded trace enumeration (:func:`traces_upto`),
bounded-depth language equality and the subset construction
(:func:`determinize`).

The products find the pairs of states reachable from the initial pair by
one integer walk (``kernel.joint_reach``), and compute each pair's row
only when it is read: the library builds the ``Transducer`` from the rows,
the command line writes them as they come.  Either costs O(reachable
pairs + their joint transitions); ``keep_unreachable=True`` takes every
pair.
Bounded equality builds no product: it walks the state subsets that one
trace reaches in each machine, to the given depth.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import FrozenSet, Optional

from .errors import LabelClash, ResourceLimit, SignatureMismatch
from .kernel import (DEFAULT_TRACE_CAP, EMPTY_TRACE, TRACE_ROUNDS_CAP, Record, Signature,
                     Trace, Transducer, joint_reach, round_key)


def product_state(left: str, right: str) -> str:
    """Canonical rendering of a product state."""
    return f"({left},{right})"


def intersect(T: Transducer, U: Transducer, keep_unreachable: bool = False,
              build: bool = True):
    """Synchronous product on identical signatures: a joint step needs the
    same round on both sides (:func:`interact` with every label shared).
    With ``build=False``, the product as walked (:func:`_product`)."""
    if T.signature != U.signature:
        raise SignatureMismatch("intersection needs identical signatures")
    return _product(T, U, T.signature, keep_unreachable, build)


def _merge_signatures(T: Transducer, U: Transducer, strict_polarity: bool = False) -> Signature:
    """Disjoint-union-by-name; on shared labels an output polarity wins,
    unless ``strict_polarity`` refuses a label with both polarities."""
    if strict_polarity:
        clash = (T.signature.inputs & U.signature.outputs) | (
            T.signature.outputs & U.signature.inputs
        )
        if clash:
            raise LabelClash(f"conflicting polarity on shared labels: {sorted(clash)}")
    outputs = T.signature.outputs | U.signature.outputs
    inputs = (T.signature.inputs | U.signature.inputs) - outputs
    return Signature(inputs, outputs)


def interact(T: Transducer, U: Transducer, keep_unreachable: bool = False,
             strict_polarity: bool = False, build: bool = True):
    """Joint stepping over the union universe; ``build`` as for
    :func:`_product`.

    The shared part is the intersection of the two label universes; a joint
    round V steps T on its T-side projection and U on its U-side projection.
    Candidate rounds come from transition pairs whose shared projections
    agree (never from enumerating the full powerset).  There is no implicit
    idling: a side that should stutter needs its own empty-round transition.
    Cost: O(reachable pairs + their joint transitions), not
    O(|Q_T|·|Q_U| + |δ_T|·|δ_U|).
    """
    return _product(T, U, _merge_signatures(T, U, strict_polarity), keep_unreachable, build)


def compose(T: Transducer, U: Transducer, keep_unreachable: bool = False,
            strict_polarity: bool = False, build: bool = True):
    """Interaction followed by hiding of the shared labels."""
    sig = _merge_signatures(T, U, strict_polarity)
    shared = T.signature.universe & U.signature.universe
    return _product(T, U, sig.restrict(sig.universe - shared), keep_unreachable, build)


def _product(T: Transducer, U: Transducer, sig: Signature, keep_unreachable: bool,
             build: bool):
    """The product over ``sig`` of the pairs reachable from the initial pair
    (of every pair with ``keep_unreachable``), the shared labels that
    ``sig`` lacks projected away.  Rounds meet by the id of their shared
    part, :func:`kernel.joint_reach` finds the pairs, and a pair's row is
    computed from the two sides' rounds only when it is read.  A product
    state is its name: if two pairs render to the same name (possible only
    when both sides have names with commas), reaching the name reaches
    both, and its row is the union of theirs.  With ``build``, the product
    is a ``Transducer``; else it has ``signature``, ``states`` (the names,
    sorted), ``initial`` and ``rows()``, which yields ``(name, row)`` in
    name order for the states with transitions, each row mapping a round
    to its target names, and is computed as it is read."""
    shared = T.signature.universe & U.signature.universe
    hidden = shared - sig.universe
    tn, un = list(T.states), list(U.states)
    tid, uid = {s: i for i, s in enumerate(tn)}, {u: j for j, u in enumerate(un)}
    m = len(un)
    parts = {}   # shared part of a round -> its id
    # per state: (part id, the round less the hidden labels, target pair ids)
    left = [[(parts.setdefault(v & shared, len(parts)), v - hidden if hidden else v,
              [tid[t] * m for t in ts]) for v, ts in T.out(s).items()] for s in tn]
    right = []   # per state: {part id: [(the round's unshared labels, target ids)]}
    for u in un:
        group = {}
        for w, us in U.out(u).items():
            group.setdefault(parts.setdefault(w & shared, len(parts)), []).append(
                (w - shared, [uid[x] for x in us]))
        right.append(group)

    def twins(x):   # the other pairs named as ``x`` is
        s = tn[x // m]
        n = f"({s},{un[x % m]})"   # product_state
        return [tid[n[1:i]] * m + uid[n[i + 1:-1]] for i, c in enumerate(n)
                if c == "," and i != len(s) + 1 and n[1:i] in tid and n[i + 1:-1] in uid]

    ambiguous = any("," in s for s in tn) and any("," in u for u in un)
    start = tid[T.initial] * m + uid[U.initial]
    reached = [range(m)] * len(tn) if keep_unreachable else joint_reach(
        [[(p, ts) for p, _, ts in side] for side in left],
        [{p: [x for _, us in moves for x in us] for p, moves in group.items()} for group in right],
        (start, *twins(start)), twins if ambiguous else None)
    name_of = {i * m + j: f"({tn[i]},{un[j]})"   # product_state
               for i, js in enumerate(reached) for j in js}
    named = zip(name_of.values(), name_of)   # (name, pair id)
    if ambiguous:   # one pair per name: the others are read with it
        named = {s: x for s, x in named}.items()
    if ambiguous or not build:   # a built product's rows need no order
        named = sorted(named)
    once = ambiguous or hidden   # only then can a target repeat in a row

    def rows():
        for s, x in named:
            row = {}
            for y in (x, *twins(x)) if ambiguous else (x,):
                there = right[y % m]
                for p, v, ts in left[y // m]:
                    for rest, us in there.get(p, ()):
                        targets = row.setdefault(v | rest if rest else v, [])
                        for t in ts:
                            for u in us:
                                targets.append(name_of[t + u])
            for v, ts in row.items():
                row[v] = tuple(dict.fromkeys(ts) if once else ts)
            if row:
                yield s, row

    initial = product_state(T.initial, U.initial)
    if not build:
        return SimpleNamespace(signature=sig, states=[s for s, _ in named], initial=initial,
                               rows=rows)
    return Transducer._trusted(sig, frozenset(name_of.values()), initial, dict(rows()))


def project(T: Transducer, keep: Signature) -> Transducer:
    """Replace every transition round by its projection onto ``keep``;
    transitions that become equal collapse."""
    if not keep.is_sub_signature_of(T.signature):
        raise SignatureMismatch("projection target is not a sub-signature")
    u = keep.universe
    adj = {}
    for s, out in T._adj.items():
        row = adj[s] = {}
        for v, ts in out.items():
            row.setdefault(v & u, []).extend(ts)
        for w, ts in row.items():
            row[w] = tuple(dict.fromkeys(ts))
    return Transducer._trusted(keep, T.states, T.initial, adj)


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

