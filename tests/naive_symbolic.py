"""Frozen differential oracle: the original symbolic coherence engine.

``sfst_coherent_simulation``, ``sfst_equivalence_pairs``,
``sfst_quotient``, ``sfst_coherent_minimize`` and ``sfst_bisim_minimize``
are kept verbatim from the pair-scanning implementation that called
``guard_equiv`` inside the fixpoint loop and rebuilt the whole SFST at
every merge.  The only edit: joint reachability and the pair-set relation
classes come from the frozen plain oracle in ``naive_coherence``.  Do not
optimise this file.
"""

from __future__ import annotations

from typing import List, Tuple

from cohmin.errors import NotAProtocol, SameState, SignatureMismatch, UnknownState
from cohmin.kernel import Transducer
from cohmin.symbolic import (
    SEMANTIC_DOMAIN,
    SFST,
    STransition,
    guard_equiv,
    is_symbolic_protocol,
    lift_transducer,
    sfst_bisim_partition,
    updates_equiv,
)

from naive_coherence import CoherenceRelation, EquivalencePairs, _extendable_rounds


def sfst_coherent_simulation(T: SFST, P: SFST, mode: str = "structural",
                             domain: Tuple[int, int] = SEMANTIC_DOMAIN) -> CoherenceRelation:
    """Greatest coherent simulation on control states.

    Transition matching additionally demands guard equivalence and
    target-wise update equivalence in the chosen mode; the witness
    reachability behind the protocol-dead escape runs on the control
    skeleton, which over-approximates witnesses and therefore only ever
    forbids merges.
    """
    if isinstance(P, Transducer):
        P = lift_transducer(P)
    if not is_symbolic_protocol(P):
        raise NotAProtocol("guards must be true and updates identities")
    skel_t = T.control_skeleton()
    skel_p = P.control_skeleton()
    if skel_t.signature != skel_p.signature:
        raise SignatureMismatch("coherent simulation needs identical signatures")
    states = sorted(T.states)
    extendable = _extendable_rounds(skel_t, skel_p)

    pairs = set()
    for s1 in states:
        e1 = skel_t.enabled(s1)
        for s2 in states:
            extra = e1 - skel_t.enabled(s2)
            if any(v in extendable[s2] for v in extra):
                continue
            pairs.add((s1, s2))

    def matches(a: STransition, b: STransition) -> bool:
        return (
            a.round == b.round
            and guard_equiv(a.guard, b.guard, mode, domain)
            and updates_equiv(a.updates, b.updates, mode, domain)
        )

    changed = True
    while changed:
        changed = False
        for (s1, s2) in list(pairs):
            ok = True
            for tb in T.out(s2):
                if not any(
                    matches(ta, tb) and (ta.target, tb.target) in pairs
                    for ta in T.out(s1)
                ):
                    ok = False
                    break
            if not ok:
                pairs.discard((s1, s2))
                changed = True
    return CoherenceRelation(frozenset(pairs), T, P)


def sfst_equivalence_pairs(T: SFST, P: SFST, mode: str = "structural",
                           relation=None) -> EquivalencePairs:
    rel = relation if relation is not None else sfst_coherent_simulation(T, P, mode)
    out = set()
    for (a, b) in rel.pairs:
        if a != b and (b, a) in rel.pairs:
            out.add(frozenset((a, b)))
    return EquivalencePairs(frozenset(out))


def sfst_quotient(T: SFST, s1: str, s2: str) -> SFST:
    """Merge two control states; registers are untouched.  Transitions
    collapse only when round, guard, updates and endpoints all coincide."""
    for s in (s1, s2):
        if s not in T.states:
            raise UnknownState(s)
    if s1 == s2:
        raise SameState(s1)
    keep, drop = min(s1, s2), max(s1, s2)

    def rename(s):
        return keep if s == drop else s

    return SFST(
        T.signature,
        frozenset(rename(s) for s in T.states),
        T.registers,
        rename(T.initial),
        frozenset(
            STransition(rename(t.source), t.round, t.guard, t.updates,
                        rename(t.target))
            for t in T.delta
        ),
    )


def sfst_coherent_minimize(T: SFST, P: SFST, mode: str = "structural",
                           keep_unreachable: bool = False):
    """Iterated quotienting of coherently equivalent control states."""
    current = T
    log: List[Tuple[str, str]] = []
    while True:
        pairs = sfst_equivalence_pairs(current, P, mode)
        if not pairs:
            break
        a, b = pairs.sorted_pairs()[0]
        current = sfst_quotient(current, a, b)
        log.append((min(a, b), max(a, b)))
    if not keep_unreachable:
        reach = current.control_skeleton().reachable_states()
        if reach != current.states:
            current = SFST(
                current.signature,
                reach,
                current.registers,
                current.initial,
                frozenset(t for t in current.delta
                          if t.source in reach and t.target in reach),
            )
    return current, log


def sfst_bisim_minimize(T: SFST, keep_unreachable: bool = False) -> SFST:
    partition = sfst_bisim_partition(T)
    rename = {}
    for group in partition:
        survivor = min(group)
        for s in group:
            rename[s] = survivor
    out = SFST(
        T.signature,
        frozenset(rename.values()),
        T.registers,
        rename[T.initial],
        frozenset(
            STransition(rename[t.source], t.round, t.guard, t.updates,
                        rename[t.target])
            for t in T.delta
        ),
    )
    if not keep_unreachable:
        reach = out.control_skeleton().reachable_states()
        if reach != out.states:
            out = SFST(
                out.signature, reach, out.registers, out.initial,
                frozenset(t for t in out.delta
                          if t.source in reach and t.target in reach),
            )
    return out
