"""Frozen differential oracles: the original regex-protocol compiler and
the original trace boundary.

``compile_regex`` is kept verbatim from the implementation that ran its own
subset construction over Glushkov position sets, trimmed the dead subsets
afterwards and named the survivors ``P<i>`` breadth first.  It shares the
parser (``cohmin.frontend.parse_regex``) and the position automaton
(``regex_labels``, ``_glushkov``) with the library, but none of
``algebra.determinize``.

``parse_trace`` and ``monitor`` are kept verbatim from the implementation
that parsed every trace line afresh and determinised a nondeterministic
protocol whole with ``algebra.determinize`` before stepping it one state
at a time.  They share the round-text parser and ``Verdict``.  The only
edit: ``monitor`` calls ``step`` and ``is_deterministic`` from ``helpers``,
since the ``Transducer`` methods of those names moved there.
Do not optimise this file.
"""

from __future__ import annotations

from cohmin import algebra
from cohmin.errors import UnknownLabel
from cohmin.frontend.fileformat import _parse_round_text
from cohmin.kernel import Signature, Trace, Transducer, mkround
from cohmin.frontend import parse_regex
from cohmin.protocol import Verdict, _glushkov, regex_labels

from helpers import is_deterministic, step


def compile_regex(r, sig: Signature) -> Transducer:
    """Compile a protocol regex (text or AST) to a deterministic transducer.

    Position-automaton construction followed by subset construction; the
    result is trimmed so that its path language is exactly the prefix
    closure of the regex's language.  Every literal becomes a singleton
    round.
    """
    if isinstance(r, str):
        r = parse_regex(r)
    for label in regex_labels(r):
        if label not in sig.universe:
            raise UnknownLabel(label)
    positions, nullable, first, last, follow = _glushkov(r)
    accepting = set(last)

    # subset construction over position sets; -1 is the start marker
    start = frozenset({-1})
    succ_of = {-1: first}
    for p in range(len(positions)):
        succ_of[p] = follow[p]

    def subset_accepting(subset) -> bool:
        if -1 in subset and nullable:
            return True
        return any(p in accepting for p in subset if p >= 0)

    table = {start: {}}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        buckets = {}
        for p in cur:
            for q in succ_of[p]:
                buckets.setdefault(positions[q], set()).add(q)
        for label, targets in buckets.items():
            tgt = frozenset(targets)
            table[cur][label] = tgt
            if tgt not in table:
                table[tgt] = {}
                frontier.append(tgt)

    # trim to subsets from which some accepting subset is reachable, so all
    # paths spell prefixes of accepted words
    live = {s for s in table if subset_accepting(s)}
    changed = True
    while changed:
        changed = False
        for s, edges in table.items():
            if s not in live and any(t in live for t in edges.values()):
                live.add(s)
                changed = True

    names = {}

    def name_of(subset) -> str:
        if subset not in names:
            names[subset] = f"P{len(names)}"
        return names[subset]

    delta = set()
    if start not in live:
        # empty language: the prefix closure is {epsilon}
        return Transducer(sig, frozenset({"P0"}), "P0", frozenset())
    order = [start]
    seen = {start}
    idx = 0
    while idx < len(order):
        cur = order[idx]
        idx += 1
        name_of(cur)
        for label in sorted(table[cur]):
            tgt = table[cur][label]
            if tgt not in live:
                continue
            if tgt not in seen:
                seen.add(tgt)
                order.append(tgt)
            delta.add((name_of(cur), frozenset({label}), name_of(tgt)))
    return Transducer(sig, frozenset(names.values()), names[start],
                      frozenset(delta))


def parse_trace(text: str) -> Trace:
    rounds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rounds.append(mkround(_parse_round_text(line, lineno)))
    return tuple(rounds)


def monitor(P: Transducer, t: Trace) -> Verdict:
    """Online membership check: consume rounds left to right and flag the
    first round the protocol does not enable."""
    if not is_deterministic(P):
        P = algebra.determinize(P)
    state = P.initial
    for i, v in enumerate(t):
        v = frozenset(v)
        targets = step(P, state, v)
        if not targets:
            return Verdict("VIOLATION", i, v, P.enabled(state))
        (state,) = targets
    return Verdict("OK")
