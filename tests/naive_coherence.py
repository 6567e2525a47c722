"""Frozen differential oracle: the original pair-scanning coherence engine.

``coherent_simulation``, ``equivalence_pairs`` and ``coherent_minimize``
are kept verbatim from the first implementation, together with the joint
reachability they rest on, so that the bitset engine in
``cohmin.coherence`` can be compared against them relation by relation
and merge log by merge log.  Do not optimise this file: its value is that
it stays the obvious transcription of the definition.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from cohmin.coherence import (
    CoherenceRelation,
    EquivalencePairs,
    _drop_unreachable,
    quotient,
)
from cohmin.errors import SignatureMismatch
from cohmin.kernel import Round, Transducer


def product_reach(T: Transducer, P: Transducer) -> FrozenSet[Tuple[str, str]]:
    """Pairs (s, p) jointly reachable by a common trace.

    Breadth-first search over the synchronized product; this decides the
    emptiness questions about witness traces exactly.
    """
    if T.signature != P.signature:
        raise SignatureMismatch("product reachability needs identical signatures")
    start = (T.initial, P.initial)
    seen = {start}
    frontier = [start]
    while frontier:
        s, p = frontier.pop()
        pout = P.out(p)
        for v, targets in T.out(s).items():
            ptargets = pout.get(v)
            if not ptargets:
                continue
            for s2 in targets:
                for p2 in ptargets:
                    pair = (s2, p2)
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)
    return frozenset(seen)


def _extendable_rounds(T: Transducer, P: Transducer) -> Dict[str, FrozenSet[Round]]:
    """For each state of T, the rounds that extend some legal witness."""
    reach: Dict[str, set] = {s: set() for s in T.states}
    for (ts, ps) in product_reach(T, P):
        reach[ts].update(P.out(ps).keys())
    return {s: frozenset(vs) for s, vs in reach.items()}


def coherent_simulation(T: Transducer, P: Transducer) -> CoherenceRelation:
    """Greatest coherent simulation of ``T`` under protocol ``P``.

    Start from all pairs; settle the protocol-escape condition once (it does
    not depend on the relation), then prune the matching condition to a
    fixpoint.
    """
    if T.signature != P.signature:
        raise SignatureMismatch("coherent simulation needs identical signatures")
    states = sorted(T.states)
    extendable = _extendable_rounds(T, P)

    pairs = set()
    for s1 in states:
        e1 = T.enabled(s1)
        for s2 in states:
            extra = e1 - T.enabled(s2)
            if any(v in extendable[s2] for v in extra):
                continue
            pairs.add((s1, s2))

    # transitions grouped per state for the matching loop
    trans = {s: [(v, t) for v, ts in T.out(s).items() for t in ts] for s in states}

    changed = True
    while changed:
        changed = False
        for (s1, s2) in list(pairs):
            ok = True
            for v, t2 in trans[s2]:
                if not any(
                    w == v and (t1, t2) in pairs for (w, t1) in trans[s1]
                ):
                    ok = False
                    break
            if not ok:
                pairs.discard((s1, s2))
                changed = True
    return CoherenceRelation(frozenset(pairs), T, P)


def equivalence_pairs(T: Transducer, P: Transducer, relation=None) -> EquivalencePairs:
    """Symmetrise the greatest coherent simulation, dropping identity pairs."""
    rel = relation if relation is not None else coherent_simulation(T, P)
    out = set()
    for (a, b) in rel.pairs:
        if a != b and (b, a) in rel.pairs:
            out.add(frozenset((a, b)))
    return EquivalencePairs(frozenset(out))


def coherent_minimize(
    T: Transducer,
    P: Transducer,
    keep_unreachable: bool = False,
) -> Tuple[Transducer, List[Tuple[str, str]]]:
    """Iteratively quotient coherently equivalent states.

    The relation is order-dependent and not transitive, so it is recomputed
    after every merge; the lexicographically least pair goes first, which
    makes the output reproducible.  Returns the reduced transducer and the
    merge log as (survivor, absorbed) entries.
    """
    current = T
    log: List[Tuple[str, str]] = []
    while True:
        pairs = equivalence_pairs(current, P)
        if not pairs:
            break
        a, b = pairs.sorted_pairs()[0]
        current = quotient(current, a, b)
        log.append((min(a, b), max(a, b)))
    if not keep_unreachable:
        current = _drop_unreachable(current)
    return current, log
