"""Frozen differential oracle: the original symbolic coherence engine.

``sfst_coherent_simulation``, ``sfst_equivalence_pairs``,
``sfst_quotient``, ``sfst_coherent_minimize``, ``sfst_bisim_partition``
and ``sfst_bisim_minimize`` are kept verbatim from the pair-scanning
implementation that called ``guard_equiv`` inside the fixpoint loop and
rebuilt the whole SFST at every merge.  The only edit: joint reachability, the pair-set relation
classes and the name-keyed ``bisim_partition`` come from the frozen plain
oracle in ``naive_coherence``.  ``sfst_bisim_partition`` groups every
guard and update between one (source, round, target) into one item, so
it splits states whose parallel guards lead to different but equivalent
targets; the engine's match keys do not.
``eval_expr`` and ``expand`` are kept verbatim from the tree-walking
evaluator and the expansion loop that evaluated, sorted and rendered every
emitted transition afresh, before transitions were planned and guards
compiled.  The only edit there: ``expand`` tries a state's transitions in
``_transition_key`` order (one line, and its import), as the library does,
where it followed ``T.out``'s hash-seeded order.  Do not optimise this file.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Mapping, Tuple

from cohmin.errors import (
    DomainExceeded,
    NotAProtocol,
    Overflow,
    ResourceLimit,
    SameState,
    SignatureMismatch,
    TypeMismatch,
    UnboundReference,
    UnknownState,
)
from cohmin.kernel import Signature, Transducer
from cohmin.symbolic import (
    _CMP_OPS,
    _INT_OPS,
    EXPAND_LABEL_CAP,
    EXPAND_STATE_CAP,
    SEMANTIC_DOMAIN,
    SFST,
    BoolLit,
    Bin,
    IntLit,
    Neg,
    Not,
    Port,
    Reg,
    STransition,
    _check64,
    _config_name,
    _transition_key,
    expanded_label,
    guard_equiv,
    int_literals,
    is_symbolic_protocol,
    lift_transducer,
    normal_form,
    normalised_updates,
    updates_equiv,
)

Expr = object

from naive_coherence import (
    CoherenceRelation,
    EquivalencePairs,
    _extendable_rounds,
    bisim_partition,
)


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


def sfst_bisim_partition(T: SFST) -> List[FrozenSet[str]]:
    """Guard-sensitive coarsest partition: transitions distinguish on round,
    guard normal form and normalised updates."""
    skel = T.control_skeleton()
    info = {}
    for tr in T.delta:
        info.setdefault((tr.source, tr.round, tr.target), set()).add(
            (normal_form(tr.guard), normalised_updates(tr.updates))
        )

    def signature(s, v, t):
        return frozenset(info[(s, v, t)])

    return bisim_partition(skel, signature)


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


def eval_expr(e: Expr, regs: Mapping[str, int], ports: Mapping[str, int] = None):
    """Strict evaluation; 64-bit checked arithmetic, overflow is an error."""
    ports = ports or {}
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Reg):
        if e.name not in regs:
            raise UnboundReference(e.name)
        return regs[e.name]
    if isinstance(e, Port):
        if e.name not in ports or ports[e.name] is None:
            raise UnboundReference(e.name)
        return ports[e.name]
    if isinstance(e, Neg):
        return _check64(-eval_expr(e.arg, regs, ports))
    if isinstance(e, Not):
        v = eval_expr(e.arg, regs, ports)
        if not isinstance(v, bool):
            raise TypeMismatch("'not' applied to an integer")
        return not v
    if isinstance(e, Bin):
        a = eval_expr(e.left, regs, ports)
        b = eval_expr(e.right, regs, ports)
        if e.op in _INT_OPS or e.op in _CMP_OPS:
            if isinstance(a, bool) or isinstance(b, bool):
                raise TypeMismatch(f"operator {e.op!r} applied to a boolean")
        if e.op == "+":
            return _check64(a + b)
        if e.op == "-":
            return _check64(a - b)
        if e.op == "*":
            return _check64(a * b)
        if e.op == "=":
            return a == b
        if e.op == "<":
            return a < b
        if e.op == "<=":
            return a <= b
        if e.op == ">":
            return a > b
        if e.op == ">=":
            return a >= b
        if not isinstance(a, bool) or not isinstance(b, bool):
            raise TypeMismatch(f"operator {e.op!r} applied to an integer")
        return (a and b) if e.op == "and" else (a or b)
    raise TypeMismatch(f"not an expression: {e!r}")


def expand(T: SFST, lo: int, hi: int, data_ports=None,
           state_cap: int = EXPAND_STATE_CAP) -> Transducer:
    """Map register values into explicit states over a finite value domain.

    States are reachable (control state, register valuation) pairs; labels
    are (port, value) events rendered via :func:`expanded_label`.  Runs
    whose register values or carried values leave the domain are cut at the
    frontier, so acceptance agrees with ``sfst_run`` exactly on traces whose
    values stay within the domain.  A valued label outside the domain is
    outside the expanded signature: ``accepts`` on a trace carrying one
    raises :class:`UnknownLabel` rather than rejecting it.  An expansion
    that needs more than :data:`EXPAND_LABEL_CAP` labels or ``state_cap``
    states is a :class:`ResourceLimit`.
    """
    if lo > hi:
        raise DomainExceeded(f"empty domain [{lo}..{hi}]")
    if not (lo <= 0 <= hi):
        raise DomainExceeded("domain must contain 0 (the initial register value)")
    for tr in T.delta:
        for e in [tr.guard] + [u.expr for u in tr.updates]:
            outside = {v for v in int_literals(e) if not lo <= v <= hi}
            if outside:
                raise DomainExceeded(
                    f"literal {sorted(outside)[0]} outside [{lo}..{hi}]"
                )
    data = frozenset(T.data_ports() if data_ports is None else data_ports)
    domain = range(lo, hi + 1)
    width = hi - lo + 1  # len(domain) overflows on a wide domain
    n_labels = sum(width if p in data else 1 for p in T.signature.universe)
    if n_labels > EXPAND_LABEL_CAP:
        raise ResourceLimit(
            f"expansion needs {n_labels} labels, more than {EXPAND_LABEL_CAP}"
        )

    def port_labels(port):
        if port in data:
            return [expanded_label(port, v) for v in domain]
        return [port]

    inputs = frozenset(
        lab for p in T.signature.inputs for lab in port_labels(p)
    )
    outputs = frozenset(
        lab for p in T.signature.outputs for lab in port_labels(p)
    )
    sig = Signature(inputs, outputs)

    init = (T.initial, T.initial_registers())
    names = {init: _config_name(*init)}
    frontier = [init]
    delta = set()
    while frontier:
        state, regs = frontier.pop()
        regs_d = dict(regs)
        for tr in sorted(T.out(state), key=_transition_key):
            in_data = sorted(tr.round & T.signature.inputs & data)
            for values in itertools.product(domain, repeat=len(in_data)):
                ports = dict(zip(in_data, values))
                try:
                    guard_ok = eval_expr(tr.guard, regs_d, ports) is True
                except Overflow:
                    continue
                if not guard_ok:
                    continue
                new_regs = dict(regs_d)
                out_vals = {}
                ok = True
                for u in tr.updates:
                    try:
                        v = eval_expr(u.expr, regs_d, ports)
                    except Overflow:
                        ok = False
                        break
                    if not lo <= v <= hi:
                        ok = False
                        break
                    if u.target in T.registers:
                        new_regs[u.target] = v
                    else:
                        out_vals[u.target] = v
                if not ok:
                    continue
                free_outs = sorted(
                    (tr.round & T.signature.outputs & data) - out_vals.keys()
                )
                for extra in itertools.product(domain, repeat=len(free_outs)):
                    carried = dict(out_vals)
                    carried.update(zip(free_outs, extra))
                    label_set = set()
                    for p in sorted(tr.round):
                        if p in data:
                            val = ports.get(p, carried.get(p))
                            label_set.add(expanded_label(p, val))
                        else:
                            label_set.add(p)
                    cfg = (tr.target, tuple(sorted(new_regs.items())))
                    if cfg not in names:
                        if len(names) >= state_cap:
                            raise ResourceLimit(
                                f"expansion exceeded {state_cap} states"
                            )
                        names[cfg] = _config_name(*cfg)
                        frontier.append(cfg)
                    delta.add((names[(state, regs)], frozenset(label_set),
                               names[cfg]))
    return Transducer(sig, frozenset(names.values()), names[init],
                      frozenset(delta))
