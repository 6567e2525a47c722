"""DOT export for transducers and symbolic transducers."""

from __future__ import annotations

from .writer import canonical_transitions


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(model, name: str = "transducer") -> str:
    """Graph with state-named nodes; the initial state gets a distinguished
    (doublecircle) shape, and the edges follow the serialised file: same
    order, each labelled with its round and any guard/updates."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for s in sorted(model.states):
        shape = "doublecircle" if s == model.initial else "circle"
        lines.append(f'  "{_esc(s)}" [shape={shape}];')
    for src, tgt, label in canonical_transitions(model):
        lines.append(f'  "{_esc(src)}" -> "{_esc(tgt)}" [label="{_esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
