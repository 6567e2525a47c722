"""Protocol-aware state equivalence and minimisation.

The central object is the greatest *coherent simulation* for a transducer
under a protocol: a relation R on states such that for every (s', s'') in R

  1. every transition of s'' is matched by an equally-labelled transition
     of s' whose target stays related, and
  2. any round enabled at s' but not at s'' can never legally occur after a
     witness trace of s'' (the protocol-dead escape).

Mutual membership gives coherent state equivalence; quotienting equivalent
pairs preserves the protocol-restricted language.  A conventional
bisimulation minimiser is included as the protocol-free baseline.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import or_
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .errors import SameState, SignatureMismatch, UnknownState
from .kernel import Round, Transducer, drop_unreachable, joint_reach, merge_states


def _bits(x: int):
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _index(K: Transducer) -> Tuple[List[str], List[List[Tuple[int, int]]], List[Round], int]:
    """The integer index a fixpoint runs on: the states of ``K`` in name
    order, each one's transitions as (key id, target id) pairs, the round
    of each key id, and the initial state's id.  Transitions match when
    their keys do; a plain machine's key is its round."""
    states = sorted(K.states)
    ids = {s: i for i, s in enumerate(states)}
    rid: Dict[Round, int] = {}
    moves = [[(rid.setdefault(v, len(rid)), ids[t]) for v, targets in K.out(s).items()
              for t in targets] for s in states]
    return states, moves, list(rid), ids[K.initial]


def _merged(index, to):
    """``index`` with each state id ``b`` of the map ``to`` folded into
    ``to[b]``, which ``to`` does not map, as the index of the merged
    machine: the survivors keep their name order, and the keys and their
    rounds stay as they are."""
    states, moves, rounds, initial = index
    kept = [i for i in range(len(states)) if i not in to]
    new = {i: j for j, i in enumerate(kept)}
    at = [new[to.get(i, i)] for i in range(len(states))]
    out: List[set] = [set() for _ in kept]
    for i, row in enumerate(moves):
        out[at[i]].update((r, at[k]) for r, k in row)
    return [states[i] for i in kept], [list(row) for row in out], rounds, at[initial]


class CoherenceRelation:
    """The greatest coherent simulation of a machine under a protocol.

    Held as ``(states, rows)``: ``states`` sorted by name and bit ``i`` of
    ``rows[j]`` set iff ``(states[i], states[j])`` is related.  The columns
    hold the same bits the other way, bit ``j`` of ``_cols[i]``, and are
    built once, one OR per (distinct row, member bit); walking them in id
    order gives the pairs in name order.  The set of pairs is built only
    when first asked for.  ``index`` and ``protocol``, when given, are what
    the fixpoint ran on (:func:`_views`).
    """

    def __init__(self, states: List[str], rows: List[int], index=None, protocol=None):
        self._rows = (states, rows)
        self._pairs = None
        self.index = index
        self.protocol = protocol
        groups: Dict[int, int] = {}   # row value -> bitset of the states with it
        for j, row in enumerate(rows):
            groups[row] = groups.get(row, 0) | 1 << j
        cols = self._cols = [0] * len(states)
        for row, members in groups.items():
            for i in _bits(row):
                cols[i] |= members

    @property
    def pairs(self) -> FrozenSet[Tuple[str, str]]:
        if self._pairs is None:
            self._pairs = frozenset(self.sorted_pairs())
        return self._pairs

    def rows(self) -> Tuple[List[str], List[int]]:
        return self._rows

    def __contains__(self, pair) -> bool:
        """One bit test: bit ``id(a)`` of ``rows[id(b)]``, each id found by
        bisection in the sorted states; the set of pairs is not built."""
        states, rows = self._rows
        a, b = pair
        i, j = bisect_left(states, a), bisect_left(states, b)
        return (j < len(states) and states[j] == b and i < len(states) and states[i] == a
                and rows[j] >> i & 1 == 1)

    def sorted_pairs(self) -> List[Tuple[str, str]]:
        states = self._rows[0]
        return [(states[i], states[j]) for i, col in enumerate(self._cols) for j in _bits(col)]


class EquivalencePairs:
    """Unordered state pairs related in both directions (identity excluded).

    Symmetric by construction but in general *not* transitive.  Read off
    the relation's rows and columns (``rows[i] & cols[i]``), the pairs come
    in sorted order and only as far as a caller reads them.
    """

    def __init__(self, relation: CoherenceRelation):
        self._relation = relation
        self._pairs = None

    def _sorted(self):
        states, rows = self._relation.rows()
        for i, col in enumerate(self._relation._cols):
            for j in _bits((rows[i] & col) >> (i + 1)):
                yield states[i], states[i + 1 + j]

    @property
    def pairs(self) -> FrozenSet[FrozenSet[str]]:
        if self._pairs is None:
            self._pairs = frozenset(frozenset(p) for p in self._sorted())
        return self._pairs

    def sorted_pairs(self) -> List[Tuple[str, str]]:
        return list(self._sorted())

    def __bool__(self) -> bool:
        return next(self._sorted(), None) is not None


def product_reach(index, P: Transducer) -> List[int]:
    """For each state of T, the bitset of the keys of ``index`` (T's, as
    :func:`_views` gives it) whose round is enabled at a protocol state
    jointly reachable with it, so extends a legal witness: the live keys
    of the protocol state, ORed over the pairs :func:`kernel.joint_reach`
    reaches from the initial ids, both sides' moves grouped by round; rounds
    T never takes have no key and drop out."""
    states, moves, rounds, initial = index
    rid: Dict[Round, int] = {}
    kr = [rid.setdefault(v, len(rid)) for v in rounds]   # the round id of each key
    same = [0] * len(rid)   # per round id: the bitset of its keys
    for r, i in enumerate(kr):
        same[i] |= 1 << r
    pid = {p: i for i, p in enumerate(P.states)}
    left = []
    for out in moves:
        side: Dict[int, List[int]] = {}
        for r, k in out:
            side.setdefault(kr[r], []).append(k * len(pid))
        left.append(list(side.items()))
    right = [{rid[v]: [pid[q] for q in qs] for v, qs in P.out(p).items() if v in rid}
             for p in pid]
    live = [sum(same[i] for i in side) for side in right]
    return [reduce(or_, map(live.__getitem__, ps), 0)
            for ps in joint_reach(left, right, (initial * len(pid) + pid[P.initial],))]


def _views(T, P, mode: str):
    """``(index, protocol)`` of a plain or symbolic machine and a plain or
    symbolic protocol (or None): the machine's integer index (:func:`_index`,
    or for an SFST ``symbolic._key_index`` in ``mode``) and the protocol's
    control skeleton.  Only a symbolic input loads ``symbolic``.  Raises
    ``NotAProtocol``, ``SignatureMismatch``, then the faults of the keys."""
    if not isinstance(P, (Transducer, type(None))):
        from . import symbolic
        P = symbolic.protocol_skeleton(P)
    if P is not None and T.signature != P.signature:
        raise SignatureMismatch("coherent simulation needs identical signatures")
    if isinstance(T, Transducer):
        return _index(T), P
    from . import symbolic
    return symbolic._key_index(T, mode), P


def coherent_simulation(T, P, mode: str = "structural") -> CoherenceRelation:
    """Greatest coherent simulation of a plain or symbolic machine ``T``
    under a plain or symbolic protocol ``P`` (:func:`_fixpoint`).  On a
    symbolic machine condition 1 matches a transition only by one of the
    same round, guard and updates up to equivalence in ``mode`` (its match
    keys); condition 2 reads only the rounds, so can only forbid pairs."""
    return _fixpoint(*_views(T, P, mode))


def _fixpoint(index, P: Transducer) -> CoherenceRelation:
    """Greatest coherent simulation of the machine of ``index`` under ``P``.

    States are numbered by the index, and ``sim[j]`` is the bitset of the
    states ``i`` with ``(i, j)`` related.  Condition 2 does not depend on
    the relation: with ``E_j`` the keys whose round is enabled at ``j`` and
    ``X_j`` those extending a witness of ``j`` (:func:`product_reach`),
    both bitsets closed under sharing a round, it starts ``sim[j]`` as the
    states ``i`` with ``not E_i & ~E_j & X_j``, one OR per distinct
    ``E_i``.  Condition 1 then prunes to the greatest fixpoint by ``sim[j]
    &= pre_r(sim[k])`` for every transition ``j -r-> k`` with key ``r``,
    where ``pre_r(B)`` is the set of states with an ``r``-transition into
    ``B``; a worklist revisits ``j`` only when a successor row shrank, and
    ``pre_r`` is memoised on its argument because equivalent states share
    rows.  See the README for the cost.
    """
    states, moves, rounds, _ = index
    n = len(states)
    pred = [[0] * n for _ in rounds]   # per key: bitset of predecessors
    hit = [0] * len(rounds)   # per key: bitset of the states with a predecessor
    into = [set() for _ in range(n)]
    for j, out in enumerate(moves):
        for r, k in out:
            pred[r][k] |= 1 << j
            hit[r] |= 1 << k
            into[k].add(j)

    same: Dict[Round, int] = {}   # round -> bitset of its keys
    for r, v in enumerate(rounds):
        same[v] = same.get(v, 0) | 1 << r
    enabled = [sum({same[rounds[r]] for r, _ in out}) for out in moves]
    groups: Dict[int, int] = {}   # enabled keys -> bitset of states
    for j, e in enumerate(enabled):
        groups[e] = groups.get(e, 0) | 1 << j
    masks: Dict[int, int] = {}   # X_j & ~E_j -> starting row, a sum of disjoint groups
    sim = []
    for e, x in zip(enabled, product_reach(index, P)):
        forbidden = x & ~e
        if forbidden not in masks:
            masks[forbidden] = sum(m for f, m in groups.items() if not f & forbidden)
        sim.append(masks[forbidden])

    memo: Dict[Tuple[int, int], int] = {}
    pending = list(range(n))
    queued = [True] * n
    while pending:
        j = pending.pop()
        queued[j] = False
        row = sim[j]
        for r, k in moves[j]:
            pre = memo.get((r, sim[k]))
            if pre is None:
                col = pred[r]
                pre = 0
                for t in _bits(sim[k] & hit[r]):
                    pre |= col[t]
                memo[(r, sim[k])] = pre
            row &= pre
        if row != sim[j]:
            sim[j] = row
            for p in into[j]:
                if not queued[p]:
                    queued[p] = True
                    pending.append(p)
    return CoherenceRelation(states, sim, index, P)


def equivalence_pairs(T, P, relation=None) -> EquivalencePairs:
    """Symmetrise the greatest coherent simulation, dropping identity pairs."""
    return EquivalencePairs(relation if relation is not None else coherent_simulation(T, P))


def quotient(T, s1: str, s2: str):
    """Merge two states of a plain or symbolic machine; the
    lexicographically smaller name survives.

    Transitions are remapped through the renaming on both endpoints, with
    duplicates collapsing; the language can only grow.
    """
    for s in (s1, s2):
        if s not in T.states:
            raise UnknownState(s)
    if s1 == s2:
        raise SameState(s1)
    return merge_states(T, [(s1, s2)])


def coherent_minimize(T, P, keep_unreachable: bool = False,
                      on_merge: Optional[Callable] = None, mode: str = "structural"):
    """Iteratively quotient coherently equivalent states; ``T``, ``P`` and
    ``mode`` are as for :func:`coherent_simulation`.

    The relation is order-dependent and not transitive; the
    lexicographically least pair goes first, which makes the output
    reproducible.  After a merge of ``a`` and ``b`` the relation is folded
    when the skip rule holds and recomputed otherwise; either way it is the
    greatest coherent simulation of the merged machine (README, "Merging
    without recomputing").  Ids are those of the last fixpoint's index, in
    name order, so the least pair of names is the least pair of ids.  ``x
    ~ y`` when x and y have the same row and the same column; rule 1 asks
    ``a ~ b``, and rule 2 that ``~`` be a bisimulation of the index.  Then
    folding ``b`` into ``a`` is clearing ``b``'s bit in ``alive``, and the
    search for the next pair resumes at ``a``: no state before ``a`` had a
    partner after it.  A recomputation runs :func:`_fixpoint` on the last
    fixpoint's index merged by the map ``to`` of the merges made since
    (:func:`_merged`); a survivor is never absorbed later in the same pass,
    since the search only moves forward, so ``to`` maps each absorbed id to
    its survivor's.  The loop builds no machine; ``T`` is folded once, at
    the end.  Returns the reduced machine and the merge log as (survivor,
    absorbed) entries.

    ``on_merge``, when given, is called after every merge as
    ``on_merge(log, outcome, folded)``: ``outcome`` is "skip", or why the
    relation is recomputed ("not interchangeable" when rule 1 fails, "not a
    bisimulation" when rule 2 does), and ``folded`` is, on a skip, the
    relation on the surviving states, as name pairs, that stands in for the
    recomputation.
    """
    rel = coherent_simulation(T, P, mode)
    log: List[Tuple[str, str]] = []
    while True:   # one pass per fixpoint
        states, rows = rel.rows()
        cols = rel._cols
        classes: Dict[Tuple[int, int], int] = {}
        cls = [classes.setdefault(rc, len(classes)) for rc in zip(rows, cols)]
        bisim = _refine(rel.index[1], cls)[1] == len(classes)   # no class splits
        alive, a, to, outcome = (1 << len(states)) - 1, 0, {}, "skip"
        while outcome == "skip":
            mutual = (rows[a] & cols[a] & alive) >> (a + 1)
            if not mutual:
                rest = alive >> (a + 1)
                if not rest:
                    break
                a += (rest & -rest).bit_length()
                continue
            b = a + (mutual & -mutual).bit_length()
            log.append((states[a], states[b]))
            to[b] = a
            if cls[a] != cls[b]:
                outcome = "not interchangeable"
            elif not bisim:
                outcome = "not a bisimulation"
            else:
                alive &= ~(1 << b)
            if on_merge is not None:
                on_merge(log, outcome, None if outcome != "skip" else frozenset(
                    (states[i], states[j]) for j in _bits(alive) for i in _bits(rows[j] & alive)))
        if outcome == "skip":
            break
        rel = _fixpoint(_merged(rel.index, to), rel.protocol)
    out = merge_states(T, merge_classes(log)) if log else T
    return (out if keep_unreachable else drop_unreachable(out)), log


def merge_classes(log: List[Tuple[str, str]]) -> List[FrozenSet[str]]:
    """Union-find over a merge log: the classes of collapsed state names."""
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for keep, drop in log:
        ra, rb = find(keep), find(drop)
        if ra != rb:
            parent[rb] = ra
    groups: Dict[str, set] = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(g) for g in groups.values() if len(g) > 1]


# -- conventional bisimulation baseline -------------------------------------


def _refine(moves, block: List[int]) -> Tuple[List[int], int]:
    """One round of signature refinement: each state's new block is its
    block and the set of its (key id, target block) pairs, numbered in
    state order.  Returns the new blocks and how many there are."""
    ids: Dict[tuple, int] = {}
    new = [ids.setdefault((b, frozenset((r, block[k]) for r, k in out)), len(ids))
           for b, out in zip(block, moves)]
    return new, len(ids)


def bisim_partition(T) -> List[FrozenSet[str]]:
    """Coarsest partition stable under the transition relation.

    :func:`_refine` (Kanellakis-Smolka style) over the integer index of
    :func:`_views`, correct for nondeterministic transducers, iterated
    until the number of blocks stops growing.  A symbolic machine is
    partitioned through its structural keys, so each transition is matched
    on its own round, guard normal form and normalised updates.
    """
    states, moves, _, _ = _views(T, None, "structural")[0]
    block, count = [0] * len(states), 1
    while (refined := _refine(moves, block))[1] != count:
        block, count = refined
    groups: List[List[str]] = [[] for _ in range(count)]
    for s, b in zip(states, block):
        groups[b].append(s)
    return [frozenset(g) for g in groups]


def bisim_minimize(T, keep_unreachable: bool = False):
    """Quotient a plain or symbolic machine by the coarsest stable
    partition, then drop unreachable states."""
    out = merge_states(T, bisim_partition(T))
    return out if keep_unreachable else drop_unreachable(out)


def coherent_equiv_bounded(T: Transducer, U: Transducer, P: Transducer, k: int) -> bool:
    """Bounded instantiation of protocol-restricted trace equivalence.

    True iff the protocol-intersected languages agree on every trace of
    length <= k; this is the soundness oracle for quotienting.  No product
    is built (:func:`algebra.distinguishing_trace`).
    """
    from . import algebra  # only equiv needs it

    return algebra.distinguishing_trace(T, U, k, P) is None
