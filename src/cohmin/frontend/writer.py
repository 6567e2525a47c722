"""The writer of the model and trace formats that ``fileformat`` reads.

Serialisation is canonical (states sorted, transitions in the order of
``canonical_rows``) so equal models produce byte-identical output.  Only
a command that writes a model, or a DOT graph, loads this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from ..kernel import Trace, Transducer, render_round, round_key


def canonical_rows(model, wrap=str):
    """Yield ``(source, [(target, text), ...])`` for each state with
    transitions of a Transducer, of a product as ``algebra`` walks it
    (``build=False``) or of an SFST, sources in sorted order and each
    source's transitions in the canonical order: by round (``round_key``),
    target, then the rendered guard and updates.  A transition's label is
    its round, then any ``when`` guard and ``do`` updates, as the file
    writes them, and ``text`` is ``wrap(label)``: each distinct round is
    rendered and wrapped once."""
    if not hasattr(model, "registers"):
        # walking the rows in this order sorts by (source, round_key,
        # target), as sorting the whole set would; only rows of more than
        # one round or target are sorted, rounds by ``rank``, which orders
        # them as ``round_key`` does.  A Transducer's rounds are ranked and
        # rendered at once, since sorting by an int rank writes an
        # expansion faster than keying each round as it comes
        if isinstance(model, Transducer):
            adj = model._adj
            order = sorted({v for row in adj.values() for v in row}, key=round_key)
            rank = {v: i for i, v in enumerate(order)}.__getitem__
            texts = {v: wrap(render_round(v)) for v in order}
            rows = ((s, adj[s]) for s in sorted(adj))
        else:   # a walked product: its rounds come with its rows
            rank, texts, rows = lru_cache(None)(round_key), _Texts(wrap), model.rows()
        for s, out in rows:
            yield s, [(t, texts[v]) for v in (sorted(out, key=rank) if len(out) > 1 else out)
                      for t in (sorted(out[v]) if len(out[v]) > 1 else out[v])]
        return
    from .expr import render_expr
    rounds = {v: (round_key(v), render_round(v)) for v in {t.round for t in model.delta}}
    rows = []
    for tr in model.delta:
        updates = sorted(tr.updates, key=lambda u: u.target)
        rows.append((tr.source, rounds[tr.round], tr.target, render_expr(tr.guard),
                     tuple(u.target for u in updates),
                     tuple(render_expr(u.expr) for u in updates)))
    rows.sort()
    for s, group in groupby(rows, itemgetter(0)):
        row = []
        for _, (_, label), t, guard, targets, exprs in group:
            if guard != "true":
                label += f" when {guard}"
            if targets:
                label += " do " + ", ".join(f"{x} := {e}" for x, e in zip(targets, exprs))
            row.append((t, wrap(label)))
        yield s, row


class _Texts(dict):
    """Each round's text, ``wrap``ped, made when the round is first read."""

    def __init__(self, wrap):
        self.wrap = wrap

    def __missing__(self, v):
        self[v] = text = self.wrap(render_round(v))
        return text


def canonical_transitions(model):
    """Yield ``(source, target, label)`` for every transition of a
    Transducer or SFST, in the order of :func:`canonical_rows`."""
    for s, row in canonical_rows(model):
        for t, label in row:
            yield s, t, label


def write_model(model, write) -> None:
    """Pass the model's text to ``write``: the header, then one piece per
    source state's transitions, so the whole text is never held at once.
    ``trans <source> -> `` is rendered once per source and `` : <label>;``
    once per distinct round (per transition of an SFST), so each line costs
    one string build."""
    header = [f"signature {model.signature.render()};",
              f"states {', '.join(sorted(model.states))};"]
    if hasattr(model, "registers"):
        header.append(f"registers {', '.join(sorted(model.registers))};")
    header.append(f"initial {model.initial};")
    write("\n".join(header) + "\n")
    for s, row in canonical_rows(model, lambda label: f" : {label};\n"):
        head = f"trans {s} -> "
        write("".join([f"{head}{t}{tail}" for t, tail in row]))


def serialize_model(model) -> str:
    """The model's text: :func:`write_model` gathered into one string."""
    parts = []
    write_model(model, parts.append)
    return "".join(parts)


def serialize_trace(t: Trace) -> str:
    return "".join(render_round(v) + "\n" for v in t)
