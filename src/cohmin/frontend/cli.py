"""Command-line surface over every pipeline stage.

Exit codes: 0 success (OK / equivalent), 1 usage error, 2 input error,
3 protocol violation or non-equivalence, 4 resource limit.  Results go to
stdout, diagnostics to stderr; identical invocations produce byte-identical
output.

A model that is not a plain ``Transducer`` is symbolic.  Only ``kernel``
and the file formats load with this module; ``algebra``, ``coherence``,
``protocol``, ``symbolic`` and ``dot`` load in the commands that call
them, so that no process pays to compile a layer it does not run.
"""

from __future__ import annotations

import argparse
import sys

from .. import kernel
from ..errors import CohminError, ResourceLimit
from ..kernel import Signature, Transducer
from . import fileformat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_RESOURCE = 4


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CohminError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise CohminError(
            f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from e


def _load_model(path: str):
    return fileformat.parse_model(_read(path))


def _load_protocol(path: str, subject) -> Transducer:
    """A protocol file is either a regex protocol or a transducer, and a
    symbolic protocol is read as its control skeleton.  The result is
    rebound to the subject's signature; with no subject (``None``) it is
    left as read, and a regex protocol takes every label as an input."""
    from .. import protocol

    text = _read(path)
    if fileformat.looks_like_regex_protocol(text):
        alphabet, regex = fileformat.parse_regex_protocol(text)
        sig = (Signature(frozenset(alphabet), frozenset()) if subject is None
               else subject.signature)
        if frozenset(alphabet) != sig.universe:
            raise CohminError(
                "protocol alphabet does not match the subject's labels"
            )
        return protocol.compile_regex(regex, sig)
    model = fileformat.parse_model(text)
    if not isinstance(model, Transducer):
        from .. import symbolic

        if not symbolic.is_symbolic_protocol(model):
            raise CohminError("a symbolic protocol needs true guards and identity updates")
        model = model.control_skeleton()
    return model if subject is None else protocol.align_protocol(model, subject.signature)


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


def _emit_model(model):
    fileformat.write_model(model, sys.stdout.write)


def _require_transducer(model, command):
    if not isinstance(model, Transducer):
        raise CohminError(f"{command} works on plain transducers; expand first")
    return model


def _cmd_validate(args) -> int:
    model = _load_model(args.file)
    kind = "transducer" if isinstance(model, Transducer) else "symbolic transducer"
    n_trans = len(model.delta)
    print(f"ok: {kind}, {len(model.states)} states, {n_trans} transitions")
    return EXIT_OK


def _cmd_traces(args) -> int:
    model = _require_transducer(_load_model(args.file), "traces")
    ts = kernel.traces_upto(model, args.depth, cap=args.cap)
    for t in ts.sorted_traces():
        print(kernel.render_trace(t))
    return EXIT_OK


def _cmd_binary(args) -> int:
    left = _require_transducer(_load_model(args.left), args.command)
    right = _require_transducer(_load_model(args.right), args.command)
    from .. import algebra

    op = {"intersect": algebra.intersect, "interact": algebra.interact,
          "compose": algebra.compose}[args.command]
    _emit_model(op(left, right, keep_unreachable=args.keep_unreachable))
    return EXIT_OK


def _cmd_project(args) -> int:
    model = _require_transducer(_load_model(args.file), "project")
    labels = [x.strip() for x in args.keep.split(",") if x.strip()]
    from .. import algebra

    _emit_model(algebra.project(model, model.signature.restrict(labels)))
    return EXIT_OK


def _cmd_minimize(args) -> int:
    model = _load_model(args.file)
    from .. import coherence

    if args.policy == "bisim":
        if isinstance(model, Transducer):
            out = coherence.bisim_minimize(
                model, keep_unreachable=args.keep_unreachable)
        else:
            from .. import symbolic

            out = symbolic.sfst_bisim_minimize(
                model, keep_unreachable=args.keep_unreachable)
        _emit_model(out)
        return EXIT_OK
    if not args.protocol:
        raise _Usage("--policy coherent needs --protocol")
    P = _load_protocol(args.protocol, model)
    if isinstance(model, Transducer):
        out, log = coherence.coherent_minimize(
            model, P, keep_unreachable=args.keep_unreachable)
    else:
        from .. import symbolic

        out, log = symbolic.sfst_coherent_minimize(
            model, P, mode=args.guard_mode,
            keep_unreachable=args.keep_unreachable)
    _emit_model(out)
    for keep, drop in log:
        print(f"merge {drop} -> {keep}")
    return EXIT_OK


def _cmd_relation(args) -> int:
    model = _load_model(args.file)
    P = _load_protocol(args.protocol, model)
    from .. import coherence

    if isinstance(model, Transducer):
        rel = coherence.coherent_simulation(model, P)
        pairs = coherence.equivalence_pairs(model, P, rel)
    else:
        from .. import symbolic

        rel = symbolic.sfst_coherent_simulation(model, P, mode=args.guard_mode)
        pairs = symbolic.sfst_equivalence_pairs(model, P, args.guard_mode, rel)
    for a, b in rel.sorted_pairs():
        print(f"sim {a} {b}")
    for a, b in pairs.sorted_pairs():
        print(f"equiv {a} {b}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    left = _require_transducer(_load_model(args.left), "equiv")
    right = _require_transducer(_load_model(args.right), "equiv")
    P = _load_protocol(args.protocol, left)
    from .. import coherence

    same = coherence.coherent_equiv_bounded(left, right, P, args.depth)
    print("equivalent" if same else "not equivalent")
    return EXIT_OK if same else EXIT_VERDICT


def _cmd_quotient(args) -> int:
    model = _load_model(args.file)
    parts = [x.strip() for x in args.pair.split(",")]
    if len(parts) != 2 or not all(parts):
        raise _Usage("--pair wants two comma-separated state names")
    from .. import coherence

    _emit_model(coherence.quotient(model, parts[0], parts[1]))
    return EXIT_OK


def _cmd_expand(args) -> int:
    model = _load_model(args.file)
    from .. import symbolic

    if isinstance(model, Transducer):
        model = symbolic.lift_transducer(model)
    _emit_model(symbolic.expand(model, args.lo, args.hi))
    return EXIT_OK


def _cmd_monitor(args) -> int:
    P = _load_protocol(args.protocol, None)
    trace = fileformat.parse_trace(_read(args.trace))
    from .. import protocol

    verdict = protocol.monitor(P, trace)
    print(verdict.render())
    return EXIT_OK if verdict.ok else EXIT_VERDICT


def _cmd_dot(args) -> int:
    from . import dot

    sys.stdout.write(dot.to_dot(_load_model(args.file)))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "traces": _cmd_traces,
    "intersect": _cmd_binary,
    "interact": _cmd_binary,
    "compose": _cmd_binary,
    "project": _cmd_project,
    "minimize": _cmd_minimize,
    "relation": _cmd_relation,
    "equiv": _cmd_equiv,
    "quotient": _cmd_quotient,
    "expand": _cmd_expand,
    "monitor": _cmd_monitor,
    "dot": _cmd_dot,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:   # what a model writer had sent stays on stdout
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except CohminError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
