"""File formats, DOT output and the command line.

``cli_main``, ``main``, ``to_dot`` and ``parse_valued_trace`` load their
modules on first use, so that ``python -m cohmin.frontend.cli`` runs the
CLI exactly once and a command that writes no DOT, or reads no trace,
never loads those modules.
"""

from .fileformat import (
    load_model,
    load_protocol,
    parse_model,
    parse_regex,
    parse_regex_protocol,
    parse_trace,
    serialize_model,
    serialize_trace,
)

__all__ = [
    "cli_main",
    "main",
    "to_dot",
    "load_model",
    "load_protocol",
    "parse_model",
    "parse_regex",
    "parse_regex_protocol",
    "parse_trace",
    "parse_valued_trace",
    "serialize_model",
    "serialize_trace",
]


def __getattr__(name):
    if name in ("cli_main", "main"):
        from . import cli

        return getattr(cli, name)
    if name == "to_dot":
        from .dot import to_dot

        return to_dot
    if name == "parse_valued_trace":
        from .trace import parse_valued_trace

        return parse_valued_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
