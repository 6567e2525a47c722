"""Command-line surface over every pipeline stage.

Exit codes: 0 success (OK / equivalent), 1 usage error, 2 input error,
3 protocol violation or non-equivalence, 4 resource limit (output that
cannot be written included; a reader that closes the pipe early ends the
command quietly).  Results go to stdout, diagnostics to stderr; identical
invocations produce byte-identical output.

A model that is not a plain ``Transducer`` is symbolic.  Only ``kernel``
and the model reader load with this module; ``algebra``, ``coherence``,
``protocol``, ``symbolic``, ``expansion``, the writer, the regex grammar
and ``dot`` load in the commands that call them, so that no process pays
to compile a layer it does not run.

``main`` ends the process: it flushes stdout and stderr and calls
``os._exit``, so that no command pays for the interpreter's teardown.
``cli_main`` returns the exit code and leaves the interpreter running.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import sys
from types import SimpleNamespace

from .. import kernel
from ..errors import CohminError, ParseError, ResourceLimit
from ..kernel import DEFAULT_TRACE_CAP, Transducer
from . import fileformat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_RESOURCE = 4


class _Usage(Exception):
    pass


def _emit_model(model):
    from .writer import write_model   # only commands that write a model load it

    write_model(model, sys.stdout.write)


def _require_transducer(model, command):
    if not isinstance(model, Transducer):
        raise CohminError(f"{command} works on plain transducers; expand first")
    return model


def _cmd_validate(args) -> int:
    model = fileformat.load_model(args.file)
    kind = "transducer" if isinstance(model, Transducer) else "symbolic transducer"
    print(f"ok: {kind}, {len(model.states)} states, {len(model.delta)} transitions")
    return EXIT_OK


def _cmd_traces(args) -> int:
    model = _require_transducer(fileformat.load_model(args.file), "traces")
    ts = kernel.traces_upto(model, args.depth, cap=args.cap)
    for t in ts.sorted_traces():
        print(kernel.render_trace(t))
    return EXIT_OK


def _cmd_binary(args) -> int:
    left = _require_transducer(fileformat.load_model(args.left), args.command)
    right = _require_transducer(fileformat.load_model(args.right), args.command)
    from .. import algebra

    # the product as walked: each row is computed as the writer reaches it
    _emit_model(getattr(algebra, args.command)(left, right, args.keep_unreachable, build=False))
    return EXIT_OK


def _cmd_project(args) -> int:
    model = _require_transducer(fileformat.load_model(args.file), "project")
    labels = [x.strip() for x in args.keep.split(",") if x.strip()]
    from .. import algebra

    _emit_model(algebra.project(model, model.signature.restrict(labels)))
    return EXIT_OK


def _cmd_minimize(args) -> int:
    model = fileformat.load_model(args.file)
    from .. import coherence

    if args.policy == "bisim":
        _emit_model(coherence.bisim_minimize(model, args.keep_unreachable))
        return EXIT_OK
    if not args.protocol:
        raise _Usage("--policy coherent needs --protocol")
    P = fileformat.load_protocol(args.protocol, model)
    out, log = coherence.coherent_minimize(model, P, args.keep_unreachable, mode=args.guard_mode)
    _emit_model(out)
    for keep, drop in log:
        print(f"merge {drop} -> {keep}")
    return EXIT_OK


def _cmd_relation(args) -> int:
    model = fileformat.load_model(args.file)
    P = fileformat.load_protocol(args.protocol, model)
    from .. import coherence

    rel = coherence.coherent_simulation(model, P, args.guard_mode)
    for a, b in rel.sorted_pairs():
        print(f"sim {a} {b}")
    for a, b in coherence.equivalence_pairs(model, P, rel).sorted_pairs():
        print(f"equiv {a} {b}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    left = _require_transducer(fileformat.load_model(args.left), "equiv")
    right = _require_transducer(fileformat.load_model(args.right), "equiv")
    P = fileformat.load_protocol(args.protocol, left)
    from .. import coherence

    same = coherence.coherent_equiv_bounded(left, right, P, args.depth)
    print("equivalent" if same else "not equivalent")
    return EXIT_OK if same else EXIT_VERDICT


def _cmd_quotient(args) -> int:
    model = fileformat.load_model(args.file)
    try:   # split as a ``states`` statement is, so (a,b) and A[y=0,z=1] stay whole
        s1, s2 = fileformat._split_state_names(args.pair, 0)
    except (ParseError, ValueError):
        raise _Usage("--pair wants two comma-separated state names") from None
    from .. import coherence

    _emit_model(coherence.quotient(model, s1, s2))
    return EXIT_OK


def _cmd_expand(args) -> int:
    model = fileformat.load_model(args.file)
    from .. import symbolic

    if isinstance(model, Transducer):
        model = symbolic.lift_transducer(model)
    _emit_model(symbolic.expand(model, args.lo, args.hi))
    return EXIT_OK


def _cmd_monitor(args) -> int:
    P = fileformat.load_protocol(args.protocol)
    from .. import protocol
    from .trace import open_trace

    with open_trace(args.trace) as reader:
        verdict = protocol.monitor(P, reader)
        if not verdict.ok:
            reader.check()   # a bad line after the violation is still an input error
    print(verdict.render())
    return EXIT_OK if verdict.ok else EXIT_VERDICT


def _cmd_dot(args) -> int:
    from . import dot

    sys.stdout.write(dot.to_dot(fileformat.load_model(args.file)))
    return EXIT_OK


# Each command's function, options and positionals.  An option maps to
# (kind, default): kind None is a flag, ``str`` a string, a tuple its
# choices, a number the least integer it takes; ``...`` marks it required.
_MODES = (("structural", "bounded-semantic"), "structural")
_COMMANDS = {
    "validate": (_cmd_validate, {}, ("file",)),
    "traces": (_cmd_traces, {"--depth": (0, ...), "--cap": (1, DEFAULT_TRACE_CAP)}, ("file",)),
    **{name: (_cmd_binary, {"--keep-unreachable": (None, False)}, ("left", "right"))
       for name in ("intersect", "interact", "compose")},
    "project": (_cmd_project, {"--keep": (str, ...)}, ("file",)),
    "minimize": (_cmd_minimize, {"--policy": (("coherent", "bisim"), ...),
                                 "--protocol": (str, None), "--guard-mode": _MODES,
                                 "--keep-unreachable": (None, False)}, ("file",)),
    "relation": (_cmd_relation, {"--protocol": (str, ...), "--guard-mode": _MODES}, ("file",)),
    "equiv": (_cmd_equiv, {"--protocol": (str, ...), "--depth": (0, 8)}, ("left", "right")),
    "quotient": (_cmd_quotient, {"--pair": (str, ...)}, ("file",)),
    "expand": (_cmd_expand, {"--lo": (-math.inf, ...), "--hi": (-math.inf, ...)}, ("file",)),
    "monitor": (_cmd_monitor, {"--protocol": (str, ...), "--trace": (str, ...)}, ()),
    "dot": (_cmd_dot, {}, ("file",)),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _classify(token: str, options):
    """How argparse read a token before ``--``: None for a value, else the
    option it names (None if it names none) and its ``=`` value."""
    if not token.startswith("-") or token == "-":
        return None
    known = (*_HELP, *options)
    name, eq, value = token.partition("=")
    if token in known or eq and name in known:
        return (token, None) if token in known else (name, value)
    if token[1] == "-":
        hits = [o for o in known if o.startswith(name)]
        if len(hits) > 1:
            raise _Usage(f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _convert(option: str, kind, text: str):
    if kind is str or isinstance(kind, tuple) and text in kind:
        return text
    if isinstance(kind, tuple):
        raise _Usage(f"argument {option}: invalid choice: {text!r} "
                     f"(choose from {', '.join(map(repr, kind))})")
    try:
        value = int(text)
    except ValueError:
        raise _Usage(f"argument {option}: invalid int value: {text!r}") from None
    if value < kind:
        raise _Usage(f"argument {option}: must be >= {kind}, got {value}")
    return value


def _walk(argv, options, names, args):
    """Read ``argv`` into ``args`` as argparse did: options and the
    positionals ``names`` in any order, ``--opt value`` or ``--opt=value``,
    unique prefixes, ``--`` ending the options, the last of a repeated
    option winning.  Return the tokens left over, or None at ``--help``."""
    kinds = []
    for t in argv:   # after ``--`` every token is a value
        kinds.append(None if "--" in kinds else "--" if t == "--" else _classify(t, options))
    free, extras, i, took = list(names), [], 0, False
    while i < len(argv):
        token, kind = argv[i], kinds[i]
        i += 1
        assigned = kind is None and bool(free)
        if assigned:
            setattr(args, free.pop(0), token)
        # ``--`` goes with a positional that it follows or that follows it
        elif kind == "--" and (took or free and i < len(argv)):
            pass
        elif kind is None or kind == "--" or kind[0] is None:
            extras.append(token)
        else:
            option, value = kind
            if option == "-h" and value:   # -hh is -h -h
                value = value.lstrip("h") or None
            kind = None if option in _HELP else options[option][0]
            if kind is None and value is not None:
                raise _Usage(f"argument {'-h/--help' if option in _HELP else option}: "
                             f"ignored explicit argument {value!r}")
            if option in _HELP:
                return None
            if kind is not None and value is None:
                if i == len(argv) or kinds[i] is not None:
                    raise _Usage(f"argument {option}: expected one argument")
                value, i = argv[i], i + 1
            setattr(args, option[2:].replace("-", "_"),
                    kind is None or _convert(option, kind, value))
        took = assigned
    return extras


def parse_argv(argv):
    """``argv`` as a namespace of its command's fields, or None after
    printing usage for ``-h``/``--help``.  A bad ``argv`` raises
    ``_Usage``, worded as argparse worded it, error for error."""
    at = next((i for i, token in enumerate(argv)
               if token == "--" or _classify(token, ()) is None), len(argv))
    extras = _walk(argv[:at], {}, (), SimpleNamespace())
    if extras is None:
        print(f"usage: cohmin [-h] {{{','.join(_COMMANDS)}}} ...\n")
        print(*__doc__.split("\n\n")[:2], sep="\n\n")
        return None
    if argv[at:] in ([], ["--"]):
        raise _Usage("the following arguments are required: command")
    if argv[at] not in _COMMANDS:
        raise _Usage(f"argument command: invalid choice: {argv[at]!r} "
                     f"(choose from {', '.join(map(repr, _COMMANDS))})")
    _, options, names = _COMMANDS[argv[at]]
    dests = {o: o[2:].replace("-", "_") for o in options}
    args = SimpleNamespace(command=argv[at], **{dests[o]: options[o][1] for o in options})
    more = _walk(argv[at + 1:], options, names, args)
    if more is None:
        words = [o if k is None else f"{o} {dests[o].upper()}" for o, (k, _) in options.items()]
        print("usage: cohmin", argv[at], "[-h]", *names, *(
            w if options[w.split()[0]][1] is ... else f"[{w}]" for w in words))
        return None
    missing = [o for o in options if getattr(args, dests[o]) is ...]
    missing += [name for name in names if not hasattr(args, name)]
    if missing:
        raise _Usage("the following arguments are required: " + ", ".join(missing))
    if extras + more:
        raise _Usage("unrecognized arguments: " + " ".join(extras + more))
    return args


def cli_main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else list(argv))
        return EXIT_OK if args is None else _COMMANDS[args.command][0](args)
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
    """Run ``sys.argv`` and end the process with its code, through
    ``os._exit`` once stdout and stderr are flushed.  If stdout fails, a
    closed pipe or a closed stdout ends quietly (with the command's code,
    or 0 if it had none yet); any other write error is one line on stderr
    and exit 4.  What a failed write left buffered is dropped."""
    if sys.stdout is None:   # started with stdout closed: drop all output, as print does
        sys.stdout = open(os.devnull, "w")
    code = EXIT_OK
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:   # the reader stopped reading, as ``head`` does
        pass
    except OSError as e:   # reads fail inside ``cli_main``, as input errors
        print(f"resource limit: cannot write output: {e.strerror or e}", file=sys.stderr)
        code = EXIT_RESOURCE
    with contextlib.suppress(AttributeError, OSError):   # stderr closed, or failing
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
