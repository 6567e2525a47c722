"""Frozen differential oracle: the original ``argparse`` front end.

``build_parser``, ``_Parser`` and ``_count`` are kept verbatim from the
command line that parsed ``argv`` with ``argparse``, before it read a
table of its own.  ``parse`` returns what ``parse_args`` returned, and
raises ``_Usage`` on each usage error and ``SystemExit`` at ``--help``, as
that front end did.  Do not optimise this file.
"""

from __future__ import annotations

import argparse

from cohmin import kernel


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _count(least: int):
    """argparse type: an integer of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cohmin", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a model file")
    sp.add_argument("file")

    sp = sub.add_parser("traces", help="enumerate traces up to a depth")
    sp.add_argument("--depth", type=_count(0), required=True)
    sp.add_argument("--cap", type=_count(1), default=kernel.DEFAULT_TRACE_CAP,
                    help="abort beyond this many traces (exit 4); the traces "
                    f"may also hold at most {kernel.TRACE_ROUNDS_CAP:,} rounds in all")
    sp.add_argument("file")

    for name in ("intersect", "interact", "compose"):
        sp = sub.add_parser(name, help=f"{name} two transducers")
        sp.add_argument("left")
        sp.add_argument("right")
        sp.add_argument("--keep-unreachable", action="store_true")

    sp = sub.add_parser("project", help="project a transducer onto labels")
    sp.add_argument("--keep", required=True, help="comma-separated labels")
    sp.add_argument("file")

    sp = sub.add_parser("minimize", help="coherent or bisimulation minimisation")
    sp.add_argument("--policy", choices=("coherent", "bisim"), required=True)
    sp.add_argument("--protocol")
    sp.add_argument("--guard-mode", choices=("structural", "bounded-semantic"),
                    default="structural")
    sp.add_argument("--keep-unreachable", action="store_true")
    sp.add_argument("file")

    sp = sub.add_parser("relation", help="print the coherent simulation")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--guard-mode", choices=("structural", "bounded-semantic"),
                    default="structural")
    sp.add_argument("file")

    about = ("bounded protocol-restricted equivalence: walks reachable subset "
             "triples to --depth, builds no product")
    sp = sub.add_parser("equiv", help=about, description=about)
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--depth", type=_count(0), default=8)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("quotient", help="merge two states")
    sp.add_argument("--pair", required=True, help="s1,s2")
    sp.add_argument("file")

    sp = sub.add_parser("expand", help="expand a symbolic transducer")
    sp.add_argument("--lo", type=int, required=True)
    sp.add_argument("--hi", type=int, required=True)
    sp.add_argument("file")

    sp = sub.add_parser("monitor", help="check a trace against a protocol")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--trace", required=True)

    sp = sub.add_parser("dot", help="emit a DOT graph")
    sp.add_argument("file")
    return p


def parse(argv):
    return build_parser().parse_args(argv)
