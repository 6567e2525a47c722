"""Frozen differential oracle: the original full-product constructions.

``intersect``, ``interact`` and ``compose`` are kept verbatim from the
implementation that built all |Q_T|·|Q_U| product states, looped over all
|δ_T|·|δ_U| transition pairs and validated the whole product before pruning
it.  The only edit: pruning uses the frozen ``_drop_unreachable`` of
``naive_coherence``, so the oracle shares no code with the on-the-fly walk
in ``cohmin.algebra`` beyond ``product_state``, ``project`` and the
``Transducer`` value itself.  Do not optimise this file.
"""

from __future__ import annotations

from cohmin.algebra import _merge_signatures, product_state, project
from cohmin.errors import LabelClash, SignatureMismatch
from cohmin.kernel import Transducer

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
