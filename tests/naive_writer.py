"""Frozen differential oracle: the original model writer.

``canonical_transitions`` and ``serialize_model`` are kept verbatim from
the writer that sorted the whole transition set of a plain transducer with
one key per transition, before it walked the adjacency index.  Do not
optimise this file.
"""

from __future__ import annotations

from cohmin.frontend.expr import render_expr
from cohmin.kernel import Transducer, render_round, round_key


def canonical_transitions(model):
    """Yield ``(source, target, label)`` for every transition of a
    Transducer or SFST in the canonical order: by source, round
    (``round_key``), target, then the rendered guard and updates.  The
    label is the round, then any ``when`` guard and ``do`` updates, as the
    file writes them; each distinct round is rendered once."""
    if isinstance(model, Transducer):
        rounds = {v: (round_key(v), render_round(v))
                  for v in {v for _, v, _ in model.delta}}
        for s, v, t in sorted(model.delta, key=lambda x: (x[0], rounds[x[1]], x[2])):
            yield s, t, rounds[v][1]
        return
    rounds = {v: (round_key(v), render_round(v)) for v in {t.round for t in model.delta}}
    rows = []
    for tr in model.delta:
        updates = sorted(tr.updates, key=lambda u: u.target)
        rows.append((tr.source, rounds[tr.round], tr.target, render_expr(tr.guard),
                     tuple(u.target for u in updates),
                     tuple(render_expr(u.expr) for u in updates)))
    for s, (_, label), t, guard, targets, exprs in sorted(rows):
        if guard != "true":
            label += f" when {guard}"
        if targets:
            label += " do " + ", ".join(f"{x} := {e}" for x, e in zip(targets, exprs))
        yield s, t, label


def serialize_model(model) -> str:
    lines = [f"signature {model.signature.render()};",
             f"states {', '.join(sorted(model.states))};"]
    if not isinstance(model, Transducer):
        lines.append(f"registers {', '.join(sorted(model.registers))};")
    lines.append(f"initial {model.initial};")
    lines += [f"trans {s} -> {t} : {label};" for s, t, label in canonical_transitions(model)]
    return "\n".join(lines) + "\n"
