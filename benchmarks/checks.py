"""Independent checks of ``cohmin`` output.

None of these calls cohmin.  Each compares what a process printed with what
the benchmark knows from the generators' own data: breadth-first products,
a direct partition refinement, the definition of a coherent simulation, or
counts pinned in ``workloads.py``.  A check gets (stdout, exit code) and
returns True when the output is right.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

_TRANS = re.compile(r"trans (\S+) -> (\S+) : \{([^}]*)\}")

Edge = Tuple[str, str, str]


@dataclass(frozen=True)
class Machine:
    """A transducer with single-label rounds, as the generators made it."""

    states: Tuple[str, ...]
    initial: str
    delta: Tuple[Edge, ...]
    adj: Dict[str, Dict[str, List[str]]] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "delta", tuple(self.delta))
        adj: Dict[str, Dict[str, List[str]]] = {}
        for s, v, t in self.delta:
            adj.setdefault(s, {}).setdefault(v, []).append(t)
        object.__setattr__(self, "adj", adj)

    def out(self, s: str) -> Dict[str, List[str]]:
        return self.adj.get(s, {})


@dataclass(frozen=True)
class Model:
    """The parts of a serialised model the checks read."""

    states: FrozenSet[str]
    initial: str
    delta: FrozenSet[Edge]
    transitions: int
    merges: Tuple[Tuple[str, str], ...]


def parse_model_output(text: str) -> Model:
    """Read ``states``/``initial``/``trans`` lines and ``merge`` log lines.

    ``delta`` holds the plain transitions (symbolic ones are only counted
    in ``transitions``); a round is kept as its label text.
    """
    states: Sequence[str] = ()
    initial = ""
    delta: Set[Edge] = set()
    transitions = 0
    merges = []
    for line in text.splitlines():
        if line.startswith("states "):
            states = line[len("states "):].rstrip(";").split(", ")
        elif line.startswith("initial "):
            initial = line[len("initial "):].rstrip(";")
        elif line.startswith("trans "):
            transitions += 1
            m = _TRANS.match(line)
            if m and line.endswith("};"):
                delta.add((m.group(1), m.group(3), m.group(2)))
        elif line.startswith("merge "):
            drop, _, keep = line[len("merge "):].partition(" -> ")
            merges.append((drop, keep))
    return Model(frozenset(states), initial, frozenset(delta), transitions,
                 tuple(merges))


# -- ring-minimize -----------------------------------------------------------


def ring_minimized(names: Sequence[str], out: str, code: int) -> bool:
    """2 states (the least name of each parity class), n-2 merges, each
    inside one class and keeping the smaller name, absorbing every other
    state exactly once."""
    m = parse_model_output(out)
    evens, odds = names[0::2], names[1::2]
    ke, ko = min(evens), min(odds)
    parity = {s: i % 2 for i, s in enumerate(names)}
    dropped = [drop for drop, _ in m.merges]
    return (
        code == 0
        and m.states == {ke, ko}
        and m.initial == ke
        and m.delta == {(ke, "a", ko), (ko, "b", ke)}
        and len(m.merges) == len(names) - 2
        and all(keep in parity and drop in parity and parity[keep] == parity[drop]
                and keep < drop for drop, keep in m.merges)
        and sorted(dropped) == sorted(set(names) - {ke, ko})
    )


# -- random-product ----------------------------------------------------------


def product(T: Machine, P: Machine):
    """Breadth-first reachable part of the synchronous product T x P.

    Returns (reachable pairs, transitions between them) over raw names.
    """
    start = (T.initial, P.initial)
    seen = {start}
    frontier = [start]
    edges = set()
    while frontier:
        nxt = []
        for s, p in frontier:
            pout = P.out(p)
            for v, targets in T.out(s).items():
                for t in targets:
                    for q in pout.get(v, ()):
                        edges.add(((s, p), v, (t, q)))
                        if (t, q) not in seen:
                            seen.add((t, q))
                            nxt.append((t, q))
        frontier = nxt
    return seen, edges


def intersection(expected, out: str, code: int) -> bool:
    """The printed product has exactly the pairs and transitions of the
    benchmark's own breadth-first product."""
    pairs, edges = expected
    m = parse_model_output(out)

    def name(pair):
        return f"({pair[0]},{pair[1]})"

    return (
        code == 0
        and m.transitions == len(edges) == len(m.delta)
        and m.states == {name(p) for p in pairs}
        and m.delta == {(name(a), v, name(b)) for a, v, b in edges}
    )


def bisim_blocks(T: Machine) -> List[FrozenSet[str]]:
    """Coarsest partition of T's states stable under its transitions."""
    block = {s: 0 for s in T.states}
    count = 1
    while True:
        keys = {
            s: (block[s], frozenset((v, block[t]) for v, ts in T.out(s).items()
                                    for t in ts))
            for s in T.states
        }
        index: Dict[tuple, int] = {}
        for s in sorted(T.states):
            index.setdefault(keys[s], len(index))
        if len(index) == count:
            break
        count = len(index)
        block = {s: index[keys[s]] for s in T.states}
    groups: Dict[int, Set[str]] = {}
    for s, b in block.items():
        groups.setdefault(b, set()).add(s)
    return [frozenset(g) for g in groups.values()]


def bisim_quotient(T: Machine):
    """(states, initial, transitions) of T folded onto the least name of
    each bisimulation block, cut to the part reachable from the start."""
    rename = {s: min(g) for g in bisim_blocks(T) for s in g}
    delta = {(rename[s], v, rename[t]) for s, v, t in T.delta}
    adj: Dict[str, Set[str]] = {}
    for s, _, t in delta:
        adj.setdefault(s, set()).add(t)
    init = rename[T.initial]
    reach = {init}
    frontier = [init]
    while frontier:
        for t in adj.get(frontier.pop(), ()):
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    return (frozenset(reach), init,
            frozenset(e for e in delta if e[0] in reach))


def bisim_minimized(expected, out: str, code: int) -> bool:
    states, initial, delta = expected
    m = parse_model_output(out)
    return (code == 0 and m.states == states and m.initial == initial
            and m.delta == delta and m.transitions == len(delta))


def coherent_relation(T: Machine, P: Machine, out: str, code: int) -> bool:
    """The printed ``sim`` pairs form a reflexive coherent simulation of T
    under P, contain every bisimilar pair, and the ``equiv`` lines are
    exactly its symmetric pairs.

    Condition 1: every transition of s2 is matched by an equally labelled
    transition of s1 whose target is related.  Condition 2: a label enabled
    at s1 but not at s2 is never enabled by a protocol state jointly
    reachable with s2.
    """
    sim, equiv = set(), set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("sim", "equiv"):
            return False
        (sim if parts[0] == "sim" else equiv).add((parts[1], parts[2]))
    states = set(T.states)
    if code != 0 or any(a not in states or b not in states for a, b in sim):
        return False
    if any((s, s) not in sim for s in states):
        return False
    extendable: Dict[str, Set[str]] = {s: set() for s in states}
    for s, p in product(T, P)[0]:
        extendable[s].update(P.out(p))
    for s1, s2 in sim:
        out1, out2 = T.out(s1), T.out(s2)
        if any(v in extendable[s2] for v in out1.keys() - out2.keys()):
            return False
        for v, targets in out2.items():
            t1s = out1.get(v, ())
            if not all(any((t1, t2) in sim for t1 in t1s) for t2 in targets):
                return False
    if any((a, b) not in sim for g in bisim_blocks(T) for a in g for b in g):
        return False
    return equiv == {(a, b) for a, b in sim if a < b and (b, a) in sim}


def verdict(expected: str, expected_code: int, out: str, code: int) -> bool:
    """A one-line verdict (``equiv``, ``monitor``) with its exit code."""
    return out == expected + "\n" and code == expected_code


# -- iterator-map --------------------------------------------------------------


def violation(index: int, bad: str, enabled: Sequence[str], out: str,
              code: int) -> bool:
    """The monitor flags the generator's forbidden round at its index."""
    expected = ",".join("{" + v + "}" for v in sorted(enabled))
    return verdict(f"VIOLATION index={index} round={{{bad}}} expected={{{expected}}}",
                   3, out, code)


def minimized_size(states: int, merges: int, out: str, code: int) -> bool:
    m = parse_model_output(out)
    return code == 0 and len(m.states) == states and len(m.merges) == merges


def model_size(states: int, transitions: int, out: str, code: int) -> bool:
    m = parse_model_output(out)
    return code == 0 and len(m.states) == states and m.transitions == transitions
