"""Frozen differential oracle: the original full-product constructions.

``intersect``, ``interact`` and ``compose`` are kept verbatim from the
implementation that built all |Q_T|·|Q_U| product states, looped over all
|δ_T|·|δ_U| transition pairs and validated the whole product before pruning
it.  The only edit: pruning uses the frozen ``_drop_unreachable`` of
``naive_coherence``, so the oracle shares no code with the on-the-fly walk
in ``cohmin.algebra`` beyond ``product_state``, ``project`` and the
``Transducer`` value itself.

``bounded_language_equal`` and ``coherent_equiv_bounded`` are the original
bounded equivalence check, which built both reachable products and walked
pairs of their state subsets.  The only edit: ``coherent_equiv_bounded``
calls this file's ``intersect`` instead of ``algebra.intersect``.

The trace-set mirrors at the end (``traceset_interact``,
``traceset_compose``, their prefix trie and ``project_trace``) are the
trace-level definitions of the same operations on finite trace sets; they
were moved here verbatim when the library stopped carrying code that only
the tests called.  Do not optimise this file.
"""

from __future__ import annotations

from cohmin.algebra import _merge_signatures, product_state, project
from cohmin.errors import LabelClash, ResourceLimit, SignatureMismatch
from cohmin.kernel import DEFAULT_TRACE_CAP, Signature, Trace, TraceSet, Transducer

from naive_coherence import _drop_unreachable as drop_unreachable


def intersect(T: Transducer, U: Transducer, keep_unreachable: bool = False) -> Transducer:
    """Synchronous product on identical signatures: a joint step needs the
    same round on both sides."""
    if T.signature != U.signature:
        raise SignatureMismatch("intersection needs identical signatures")
    states = frozenset(product_state(a, b) for a in T.states for b in U.states)
    delta = set()
    for (s1, v, s2) in T.delta:
        for (u1, w, u2) in U.delta:
            if v == w:
                delta.add((product_state(s1, u1), v, product_state(s2, u2)))
    out = Transducer(
        T.signature, states, product_state(T.initial, U.initial), frozenset(delta)
    )
    return out if keep_unreachable else drop_unreachable(out)


def interact(
    T: Transducer,
    U: Transducer,
    keep_unreachable: bool = False,
    strict_polarity: bool = False,
) -> Transducer:
    """Joint stepping over the union universe.

    The shared part is the intersection of the two label universes; a joint
    round V steps T on its T-side projection and U on its U-side projection.
    Candidate rounds come from transition pairs whose shared projections
    agree (never from enumerating the full powerset).  There is no implicit
    idling: a side that should stutter needs its own empty-round transition.
    """
    ut, uu = T.signature.universe, U.signature.universe
    shared = ut & uu
    if strict_polarity:
        clash = (T.signature.inputs & U.signature.outputs) | (
            T.signature.outputs & U.signature.inputs
        )
        if clash:
            raise LabelClash(f"conflicting polarity on shared labels: {sorted(clash)}")
    sig = _merge_signatures(T, U)
    states = frozenset(product_state(a, b) for a in T.states for b in U.states)
    delta = set()
    for (s1, v, s2) in T.delta:
        vb = v & shared
        for (u1, w, u2) in U.delta:
            if w & shared == vb:
                delta.add((product_state(s1, u1), v | w, product_state(s2, u2)))
    out = Transducer(
        sig, states, product_state(T.initial, U.initial), frozenset(delta)
    )
    return out if keep_unreachable else drop_unreachable(out)


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


def bounded_language_equal(T: Transducer, U: Transducer, k: int) -> bool:
    """Do T and U accept exactly the same traces of length <= k?

    Walks pairs of reachable state subsets; two machines differ at depth
    d+1 exactly when some jointly reached subset pair enables different
    round sets.
    """
    frontier = {(frozenset({T.initial}), frozenset({U.initial}))}
    seen = set(frontier)
    for _ in range(k):
        nxt = set()
        for sa, sb in frontier:
            ea = {v for s in sa for v in T.out(s)}
            eb = {v for s in sb for v in U.out(s)}
            if ea != eb:
                return False
            for v in ea:
                pair = (T.step_set(sa, v), U.step_set(sb, v))
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        frontier = nxt
        if not frontier:
            return True
    return True


def coherent_equiv_bounded(T: Transducer, U: Transducer, P: Transducer, k: int) -> bool:
    """Bounded instantiation of protocol-restricted trace equivalence.

    True iff the protocol-intersected languages agree on every trace of
    length <= k; this is the soundness oracle for quotienting.
    """
    return bounded_language_equal(
        intersect(T, P), intersect(U, P), k
    )


# -- trace-set mirrors of the combinators -----------------------------------
# (``max_length`` and ``traceset_project`` were the ``TraceSet`` methods of
# the same names)


def max_length(ts: TraceSet) -> int:
    return max((len(t) for t in ts.traces), default=0)


def traceset_project(ts: TraceSet, keep: Signature) -> TraceSet:
    if not keep.is_sub_signature_of(ts.signature):
        raise SignatureMismatch("projection target is not a sub-signature")
    return TraceSet(
        keep, frozenset(project_trace(t, keep) for t in ts.traces)
    )


def project_trace(t: Trace, keep: Signature, within: Signature = None) -> Trace:
    """Delete from every round the labels outside ``keep``.

    Rounds may become empty; they are not removed, so length is preserved.
    """
    if within is not None and not keep.is_sub_signature_of(within):
        raise SignatureMismatch("projection target is not a sub-signature")
    u = keep.universe
    return tuple(frozenset(v) & u for v in t)


class _TrieNode:
    __slots__ = ("children", "member")

    def __init__(self):
        self.children = {}
        self.member = False


def _build_trie(ts: TraceSet) -> _TrieNode:
    root = _TrieNode()
    for t in ts.traces:
        node = root
        for v in t:
            node = node.children.setdefault(v, _TrieNode())
        node.member = True
    return root


def traceset_interact(
    theta: TraceSet, theta2: TraceSet, cap: int = DEFAULT_TRACE_CAP
) -> TraceSet:
    """All traces over the union universe whose side projections are members.

    Projection preserves length, so the maximum operand length bounds the
    result exactly; enumeration walks the two prefix tries in lockstep.
    """
    shared = theta.signature.universe & theta2.signature.universe
    outputs = theta.signature.outputs | theta2.signature.outputs
    sig = Signature(
        (theta.signature.inputs | theta2.signature.inputs) - outputs, outputs
    )
    bound = max(max_length(theta), max_length(theta2))
    ra, rb = _build_trie(theta), _build_trie(theta2)
    found = set()
    count = 0
    frontier = [((), ra, rb)]
    for _ in range(bound + 1):
        nxt = []
        for trace, na, nb in frontier:
            if na.member and nb.member:
                found.add(trace)
                count += 1
                if count > cap:
                    raise ResourceLimit(f"trace interaction exceeded cap of {cap}")
            if len(trace) == bound:
                continue
            joint = {}
            for va, ca in na.children.items():
                for vb, cb in nb.children.items():
                    if va & shared == vb & shared:
                        joint.setdefault(va | vb, []).append((ca, cb))
            for v, pairs in joint.items():
                for ca, cb in pairs:
                    nxt.append((trace + (v,), ca, cb))
        # several (ca, cb) pairs can spell the same joint trace; collapse them
        merged = {}
        for trace, ca, cb in nxt:
            merged.setdefault(trace, []).append((ca, cb))
        frontier = []
        for trace, pairs in merged.items():
            union_a = _merge_nodes([a for a, _ in pairs])
            union_b = _merge_nodes([b for _, b in pairs])
            frontier.append((trace, union_a, union_b))
    return TraceSet(sig, frozenset(found))


def _merge_nodes(nodes):
    if len(nodes) == 1:
        return nodes[0]
    out = _TrieNode()
    out.member = any(n.member for n in nodes)
    keys = set()
    for n in nodes:
        keys.update(n.children.keys())
    for k in keys:
        out.children[k] = _merge_nodes([n.children[k] for n in nodes if k in n.children])
    return out


def traceset_compose(
    theta: TraceSet, theta2: TraceSet, cap: int = DEFAULT_TRACE_CAP
) -> TraceSet:
    """Interaction followed by hiding of the shared labels."""
    shared = theta.signature.universe & theta2.signature.universe
    joint = traceset_interact(theta, theta2, cap)
    keep = joint.signature.restrict(joint.signature.universe - shared)
    return traceset_project(joint, keep)
