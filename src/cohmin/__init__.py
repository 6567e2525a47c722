"""Transducer algebra with protocol-aware (coherent) state minimisation,
symbolic guarded transducers, and an online protocol monitor.

Submodules load on first use (PEP 562), so a plain-machine command never
compiles the symbolic layer.
"""

import importlib

from .kernel import Round, Signature, Trace, Transducer

__version__ = "0.1.0"

_SUBMODULES = ("algebra", "coherence", "expansion", "frontend", "kernel", "protocol",
               "symbolic")

__all__ = [
    *_SUBMODULES,
    "Round",
    "Signature",
    "Trace",
    "TraceSet",
    "Transducer",
]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "TraceSet":   # with the trace enumerator, in ``algebra``
        from .algebra import TraceSet
        return TraceSet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
