"""File formats, DOT output and the command line.

``cli_main``, ``main``, ``to_dot``, ``parse_valued_trace``, ``parse_regex``
and the serialisers load their modules on first use, so that
``python -m cohmin.frontend.cli`` runs the CLI exactly once and a command
that writes no model or DOT, reads no trace or regex, never loads those
modules.
"""

import importlib

from .fileformat import (
    load_model,
    load_protocol,
    parse_model,
    parse_regex_protocol,
    parse_trace,
)

# name -> the submodule that defines it
_LAZY = {"cli_main": "cli", "main": "cli", "to_dot": "dot", "parse_valued_trace": "trace",
         "parse_regex": "grammar", "serialize_model": "writer", "serialize_trace": "writer"}

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
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
