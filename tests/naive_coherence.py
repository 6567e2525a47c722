"""Frozen differential oracle: the original pair-scanning coherence engine.

``coherent_simulation``, ``equivalence_pairs`` and ``coherent_minimize``
are kept verbatim from the first implementation, together with the joint
reachability they rest on, so that the bitset engine in
``cohmin.coherence`` can be compared against them relation by relation
and merge log by merge log.  The pair-set relation classes, ``quotient``
and ``_drop_unreachable`` are verbatim copies of the first implementation
too, so the oracle shares no code with the engine it checks beyond the
``Transducer`` value itself.  ``bisim_partition`` is kept verbatim from
the signature refinement over state names, with its ``signature``
callback, that the integer refinement in ``cohmin.coherence`` replaced.  Do not optimise this file: its value is that
it stays the obvious transcription of the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from cohmin.errors import SameState, SignatureMismatch, UnknownState
from cohmin.kernel import Round, Transducer


@dataclass(frozen=True)
class CoherenceRelation:
    """The greatest coherent simulation for (transducer, protocol)."""

    pairs: FrozenSet[Tuple[str, str]]
    transducer: Transducer
    protocol: Transducer

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs)


@dataclass(frozen=True)
class EquivalencePairs:
    """Unordered state pairs related in both directions (identity excluded).

    Symmetric by construction but in general *not* transitive.
    """

    pairs: FrozenSet[FrozenSet[str]]

    def sorted_pairs(self) -> List[Tuple[str, str]]:
        return sorted(tuple(sorted(p)) for p in self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


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


def quotient(T: Transducer, s1: str, s2: str) -> Transducer:
    """Merge two states; the lexicographically smaller name survives.

    Transitions are remapped through the renaming on both endpoints, with
    duplicates collapsing; the language can only grow.
    """
    for s in (s1, s2):
        if s not in T.states:
            raise UnknownState(s)
    if s1 == s2:
        raise SameState(s1)
    keep, drop = min(s1, s2), max(s1, s2)

    def rename(s: str) -> str:
        return keep if s == drop else s

    return Transducer(
        T.signature,
        frozenset(rename(s) for s in T.states),
        rename(T.initial),
        frozenset((rename(a), v, rename(b)) for a, v, b in T.delta),
    )


def _drop_unreachable(T: Transducer) -> Transducer:
    reach = T.reachable_states()
    if reach == T.states:
        return T
    return Transducer(
        T.signature,
        reach,
        T.initial,
        frozenset((s, v, t) for s, v, t in T.delta if s in reach and t in reach),
    )


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


def bisim_partition(T: Transducer, signature=None) -> List[FrozenSet[str]]:
    """Coarsest partition stable under the transition relation.

    Iterated signature refinement (Kanellakis-Smolka style), correct for
    nondeterministic transducers.  ``signature`` optionally maps a
    transition to extra distinguishing data (used by the symbolic layer).
    """
    block: Dict[str, int] = {s: 0 for s in T.states}
    while True:
        sigs = {}
        for s in T.states:
            items = set()
            for v, targets in T.out(s).items():
                for t in targets:
                    extra = signature(s, v, t) if signature is not None else None
                    items.add((v, extra, block[t]))
            sigs[s] = frozenset(items)
        index = {}
        new_block = {}
        for s in sorted(T.states):
            key = (block[s], sigs[s])
            if key not in index:
                index[key] = len(index)
            new_block[s] = index[key]
        if len(set(new_block.values())) == len(set(block.values())):
            break
        block = new_block
    groups: Dict[int, set] = {}
    for s, b in block.items():
        groups.setdefault(b, set()).add(s)
    return [frozenset(g) for g in groups.values()]
