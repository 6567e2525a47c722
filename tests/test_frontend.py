import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohmin import algebra, kernel, symbolic
from cohmin.errors import ParseError
from cohmin.frontend import (
    cli_main,
    dot,
    load_model,
    load_protocol,
    parse_model,
    parse_regex_protocol,
    parse_trace,
    parse_valued_trace,
    serialize_model,
    serialize_trace,
    to_dot,
)
from cohmin.frontend import cli
from cohmin.frontend.cli import _COMMANDS
from cohmin.frontend.expr import parse_expr, render_expr
from cohmin.frontend.fileformat import write_model
from cohmin.kernel import Signature, Transducer, mkround
from cohmin.protocol import Verdict
from cohmin.symbolic import SFST, TRUE, Bin, IntLit, Not, Port, Reg, STransition, Update

from helpers import (
    FIXDIR,
    LINE_CHECK_FILES,
    SIG2,
    SRC,
    UNKNOWN_ENDPOINT_FILES,
    fixture_machines,
    fold_stars,
    iterator_map,
    random_regex,
    random_sfst,
    random_transducer,
    render_regex,
    run_cohmin_capped,
    step,
)
import naive_cli
import naive_writer

TWO_PHASE_SRC = """\
# a tiny example
signature in a, c; out b;
states s0, s1;
initial s0;
trans s0 -> s1 : {a};
trans s1 -> s0 : {};          # empty round is written {}
"""


class TestParsing:
    def test_round_trip_is_parse_stable(self):
        T = parse_model(TWO_PHASE_SRC)
        assert parse_model(serialize_model(T)) == T

    def test_serialise_idempotent_after_normalisation(self):
        T = parse_model(TWO_PHASE_SRC)
        once = serialize_model(T)
        assert serialize_model(parse_model(once)) == once

    def test_duplicate_transitions_collapse(self):
        """The reader indexes the transitions as it reads them; a repeated
        one, written alike or with its round's labels in another order,
        is one transition, in a plain file and in a symbolic one."""
        text = ("signature in a, b; out c;\nstates s, t;\ninitial s;\n"
                "trans s -> t : {a, c};\ntrans s -> t : {c, a};\ntrans s -> s : {b};\n"
                "trans s -> t : {a,c};\ntrans t -> s : {};\n")
        T = parse_model(text)
        assert isinstance(T, Transducer) and len(T.delta) == 3
        assert T.out("s")[mkround({"a", "c"})] == ("t",)
        S = parse_model(text.replace("states", "registers y;\nstates"))
        assert S.control_skeleton() == T

    def test_undeclared_label(self):
        src = TWO_PHASE_SRC.replace("{a}", "{zz}")
        with pytest.raises(ParseError) as err:
            parse_model(src)
        assert "zz" in str(err.value)

    @pytest.mark.parametrize("text, line, column, message", [
        ("# c\nalphabet a, b;\nregex (a b;\n", 3, 11, "expected ')'"),
        ("# c\nalphabet a, b;\nregex a ) (b\n  a)*;\n", 3, 9, "trailing input ')'"),
        ("# c\nalphabet a, b;\nregex (a b)*\n  (a + ) b;\n", 4, 8,
         "expected an event or a group"),
        ("# c\nalphabet a, b;\nregex (a\n  c)*;\n", 3, 1, "unknown label 'c' in regex"),
        ("alphabet a, b; regex a +;\n", 1, 25, "expected an event or a group"),
        ("alphabet a, b;\nregex (a b \n  a)*);\n", 3, 6, "trailing input ')'"),
    ], ids=["first-line", "first-of-two", "later-line", "undeclared", "after-statement",
            "space-before-break"])
    def test_regex_protocol_errors_name_their_place(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_regex_protocol(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    EXPR_HEAD = "signature in x; out y;\nstates a, b;\nregisters r;\ninitial a;\n"

    @pytest.mark.parametrize("trans, line, column, message", [
        ("trans a -> b : {x} when r > + 1;\n", 5, 29, "expected an expression"),
        ("trans a -> b : {x} when r > 0\n   and $;\n", 6, 8,
         "bad character '$' in expression"),
        ("trans a -> b : {x, y} do r := x, y := r * (x + 1;\n", 5, 49, "expected ')'"),
        ("trans a -> b : {x} when r > q;\n", 5, 29,
         "unknown name 'q' (not a register or input port)"),
        ("trans a -> b : {x} when\n" + "(" * 101 + "r" + ")" * 101 + " > 0;\n", 6, 101,
         "parentheses nested deeper than 100"),
    ], ids=["guard", "continued-guard", "second-update", "unknown-name", "too-deep"])
    def test_expression_errors_name_their_place(self, trans, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_model(self.EXPR_HEAD + trans)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_bad_character_is_placed_at_its_line_and_column(self, data):
        """A ``$`` at any token boundary of a guard, an update or a regex
        that spans lines is reported at its own line and column."""
        kind = data.draw(st.sampled_from(["guard", "update", "regex"]))
        if kind == "regex":
            r = random_regex(random.Random(data.draw(st.integers(0, 10**6))), ["a", "b"], 4)
            body = render_regex(r)
        else:
            body = data.draw(st.sampled_from(
                _GUARD_TEXTS + _PORT_GUARD_TEXTS if kind == "guard"
                else _EXPR_TEXTS + _PORT_EXPR_TEXTS))
        tokens = re.findall(r"\w+|[<>]=|\S", body)
        tokens.insert(data.draw(st.integers(0, len(tokens))), "$")
        gaps = st.sampled_from(["", " ", "\n", " \n  ", "\t", "  # note\n "])
        text = tokens[0] + "".join(data.draw(gaps) + tok for tok in tokens[1:])
        head = "signature in x; out r;\nstates s0, s1;\nregisters y, z;\ninitial s0;\n"
        full = {"regex": f"alphabet a, b;\nregex\n  {text};\n",
                "guard": f"{head}trans s0 -> s1 : {{x}}\n  when {text};\n",
                "update": f"{head}trans s0 -> s1 : {{x, r}} do y := 1,\n r := {text};\n"}[kind]
        with pytest.raises(ParseError) as err:
            (parse_regex_protocol if kind == "regex" else parse_model)(full)
        at = full.index("$")
        assert (err.value.line, err.value.column) == (full.count("\n", 0, at) + 1,
                                                      at - full.rfind("\n", 0, at))
        assert err.value.message == ("unexpected character '$'" if kind == "regex"
                                     else "bad character '$' in expression")

    def test_each_state_name_is_one_object(self):
        # a transition's endpoints are the header's own strings, not a new
        # string per ``trans`` line
        for name in ("two_phase.fst", "iterator_map.sfst"):
            T = parse_model((FIXDIR / name).read_text())
            own = {id(s) for s in T.states}
            ends = [(t[0], t[2]) if isinstance(t, tuple) else (t.source, t.target)
                    for t in T.delta]
            assert ends and all(id(s) in own and id(t) in own for s, t in ends)

    @pytest.mark.parametrize("text, message", [
        ("states s;\ninitial s;\n", "1:1: missing 'signature' declaration"),
        ("signature in a;\n", "1:1: expected: out <labels>;"),
        ("# c\nstates s;\nsignature in a;\n", "3:1: expected: out <labels>;"),
    ])
    def test_a_missing_signature_is_named(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_adder_source(self):
        src = (FIXDIR / "adder.sfst").read_text()
        T = parse_model(src)
        assert len(T.states) == 3
        assert len(T.registers) == 2
        assert len(T.delta) == 3
        y_plus_z = Bin("+", Reg("y"), Reg("z"))
        assert T == SFST(
            Signature(frozenset({"x"}), frozenset({"r"})),
            frozenset({"A", "B", "C"}),
            frozenset({"y", "z"}),
            "A",
            frozenset([
                STransition("A", mkround({"x"}), TRUE,
                            frozenset({Update("y", Port("x"))}), "B"),
                STransition("B", mkround({"x"}), TRUE,
                            frozenset({Update("z", Port("x"))}), "C"),
                STransition("C", mkround({"r"}), Bin(">", y_plus_z, IntLit(0)),
                            frozenset({Update("r", y_plus_z)}), "A"),
            ]),
        )

    def test_sfst_serialisation_is_canonical_on_ties(self):
        # transitions equal up to their update expressions once came out
        # in set-iteration order, which varied with construction and hashing
        head = "signature in x; out r;\nstates A;\nregisters y;\ninitial A;\n"
        lines = [f"trans A -> A : {{r}} do r := y + {i};\n" for i in range(40)]
        forward = serialize_model(parse_model(head + "".join(lines)))
        backward = serialize_model(parse_model(head + "".join(reversed(lines))))
        assert forward == backward

    def test_model_sniffing(self):
        assert parse_model(TWO_PHASE_SRC).__class__.__name__ == "Transducer"
        assert parse_model((FIXDIR / "adder.sfst").read_text()).__class__.__name__ == "SFST"

    def test_trace_files(self):
        trace = parse_trace("{a}\n{}\n{a, b}\n")
        assert trace == (mkround({"a"}), frozenset(), mkround({"a", "b"}))
        valued = parse_valued_trace("{x=2}\n{r=-5}\n{}\n{q}\n")
        assert valued[0].as_dict() == {"x": 2}
        assert valued[1].as_dict() == {"r": -5}
        assert valued[2].as_dict() == {}
        assert valued[3].as_dict() == {"q": None}

    @pytest.mark.parametrize("text", ["{x=1, x=2}\n", "{x, x=1}\n", "{}\n{x=0, x}\n"])
    def test_a_valued_round_names_each_port_once(self, text):
        with pytest.raises(ParseError) as err:
            parse_valued_trace(text)
        assert (err.value.line, err.value.message) == (text.count("\n"),
                                                       "two values for port 'x'")
        # an identical repeat collapses, as in a plain trace
        assert parse_valued_trace("{x=1, x=1}\n{a, a}\n") == parse_valued_trace("{x=1}\n{a}\n")


class TestExpressions:
    def test_parse_and_render(self):
        e = parse_expr("not (y + z > 0) and x = 1", {"y", "z"}, {"x"})
        assert isinstance(e, Bin) and e.op == "and"
        text = render_expr(e)
        assert parse_expr(text, {"y", "z"}, {"x"}) == e

    def test_precedence(self):
        e = parse_expr("y + z * 2", {"y", "z"}, set())
        assert e == Bin("+", Reg("y"), Bin("*", Reg("z"), IntLit(2)))

    def test_negative_literal(self):
        e = parse_expr("y - -1", {"y"}, set())
        assert render_expr(e) == "y - -1"


    def test_integers_are_read_in_64_bits(self):
        """An integer of a model or a valued trace is read only within 64
        bits, at any length of text; a literal in an expression is unsigned."""
        head = TestParsing.EXPR_HEAD + "trans a -> b : {x} do r := "
        T = parse_model(head + "9223372036854775807;\n"
                        "trans b -> a : {x} do r := -9223372036854775807 - 1;\n")
        assert {u.expr for tr in T.delta for u in tr.updates} == {
            IntLit(2**63 - 1), Bin("-", symbolic.Neg(IntLit(2**63 - 1)), IntLit(1))}
        assert parse_valued_trace("{x=-9223372036854775808}\n{x=" + "0" * 5000 + "7}")[1] \
            == symbolic.ValuedRound.of({"x": 7})
        wide = "integer outside [-9223372036854775808..9223372036854775807]"
        for digits in ("9223372036854775808", "1" + "0" * 4999):
            with pytest.raises(ParseError) as err:
                parse_model(head + digits + ";\n")
            assert (err.value.line, err.value.column, err.value.message) == (5, 28, wide)
            with pytest.raises(ParseError) as err:
                parse_valued_trace("{x=1}\n{q, x=" + digits + "}\n")
            assert (err.value.line, err.value.column, err.value.message) == (2, 1, wide)

    @pytest.mark.parametrize("digit", ["٣", "３", "३"],
                             ids=["arabic-indic", "fullwidth", "devanagari"])
    def test_integers_are_ascii_digits(self, digit):
        """A decimal digit of another script is no digit of an integer,
        in an expression or in a valued trace."""
        head = TestParsing.EXPR_HEAD + "trans a -> b : {x} do r := 1 + "
        with pytest.raises(ParseError) as err:
            parse_model(head + digit + ";\n")
        assert (err.value.line, err.value.column, err.value.message) == (
            5, 32, f"bad character {digit!r} in expression")
        with pytest.raises(ParseError) as err:
            parse_valued_trace("{x=1}\n{q, x=" + digit + "}\n")
        assert (err.value.line, err.value.message) == (2, f"bad event 'x={digit}'")

    def test_depth_bound_keeps_walkers_safe(self):
        from cohmin.frontend.fileformat import MAX_DEPTH
        from cohmin.symbolic import eval_expr, normal_form, type_of
        deepest = " - ".join(["y"] * MAX_DEPTH)  # a left spine MAX_DEPTH deep
        e = parse_expr("(" * MAX_DEPTH + deepest + ")" * MAX_DEPTH, {"y"}, set())
        assert type_of(e) == "int"
        assert eval_expr(e, {"y": 1}) == 2 - MAX_DEPTH
        assert normal_form(e) and hash(e) is not None
        assert parse_expr(render_expr(e), {"y"}, set()) == e
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(deepest + " - y", {"y"}, set())
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("(" * (MAX_DEPTH + 1) + "y" + ")" * (MAX_DEPTH + 1),
                       {"y"}, set())


def _product_machines():
    """intersect, interact and compose of every pair of the fixtures' plain
    machines, with and without ``keep_unreachable``."""
    machines = fixture_machines()
    for T in machines:
        for U in machines:
            for keep in (False, True):
                if T.signature == U.signature:
                    yield algebra.intersect(T, U, keep)
                yield algebra.interact(T, U, keep)
                yield algebra.compose(T, U, keep)


class TestDot:
    def test_fixture_graphs_are_unchanged(self, monkeypatch):
        # the edges come from the adjacency walk; the frozen writer's
        # transition order must give the same graph, byte for byte
        models = list(_product_machines())
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix in (".fst", ".sfst"):
                model = parse_model(path.read_text())
                lifted = model if isinstance(model, SFST) else symbolic.lift_transducer(model)
                models += [model, symbolic.expand(lifted, -1, 1)]
        graphs = [to_dot(m) for m in models]
        monkeypatch.setattr(dot, "canonical_transitions", naive_writer.canonical_transitions)
        assert graphs == [to_dot(m) for m in models]

    def test_two_phase_graph(self):
        d = to_dot(load_model(FIXDIR / "two_phase.fst"))
        assert d.count("shape=") == 2
        assert d.count(" -> ") == 2
        assert "doublecircle" in d

    def test_sfst_edges_carry_guards(self):
        d = to_dot(load_model(FIXDIR / "adder.sfst"))
        assert "when y + z > 0" in d
        assert "do r := y + z" in d

    def test_edges_follow_the_serialised_file(self):
        for name in ("adder.sfst", "iterator_map.sfst", "forked_reader.fst"):
            model = load_model(FIXDIR / name)
            edges = [line.split('[label="')[1][:-3]
                     for line in to_dot(model).splitlines() if " -> " in line]
            trans = [line.split(" : ", 1)[1][:-1]
                     for line in serialize_model(model).splitlines()
                     if line.startswith("trans ")]
            assert edges == trans

    def test_dot_is_deterministic_on_update_ties(self, tmp_path):
        # five transitions that differ only in their updates: DOT once
        # ordered them by set iteration, which varies with the hash seed
        model = tmp_path / "tie.sfst"
        model.write_text(
            "signature in x; out r;\nstates A, B;\nregisters y;\ninitial A;\n"
            + "".join(f"trans A -> B : {{x}} do y := {e};\n"
                      for e in ("x", "x + 1", "x + 2", "y + x", "0")))
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            proc = subprocess.run(
                [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
                 "dot", str(model)],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0 and proc.stderr == ""
            outputs.add(proc.stdout)
        assert len(outputs) == 1


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_files(directory, items):
    """Write each ``(name, text)`` under ``directory``; return the paths."""
    paths = []
    for name, text in items:
        paths.append(directory / name)
        paths[-1].write_text(text)
    return paths


def validate_under_hash_seeds(paths):
    """``(stdout, stderr)`` of one process per hash seed 1-4 that prints the
    exit code of ``cohmin validate`` on each path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom cohmin.frontend import cli_main\n"
             "for path in sys.argv[1:]:\n    print(cli_main(['validate', path]))",
             *map(str, paths)],
            env=env, capture_output=True, text=True, timeout=60)
        yield proc.stdout, proc.stderr


class TestCli:
    def test_validate(self):
        code, out, _ = run_cli("validate", str(FIXDIR / "two_phase.fst"))
        assert code == 0
        assert "2 states" in out

    def test_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.fst"
        bad.write_text("signature in a; out b;\nstates s0;\ninitial s9;\n")
        code, _, err = run_cli("validate", str(bad))
        assert code == 2
        assert "s9" in err

    def test_unknown_state_is_reported_at_its_line(self, tmp_path):
        # several unknown endpoints: the constructors once reported the first
        # one met in a frozenset, which varied with the hash seed
        paths = write_files(tmp_path, sorted(UNKNOWN_ENDPOINT_FILES.items()))
        for out, err in validate_under_hash_seeds(paths):
            assert out == "2\n2\n"
            assert err == ("error: 5:1: unknown state 'x1'\n"
                           "error: 5:1: unknown state 'x2'\n")

    def test_transition_checks_are_reported_at_their_line(self, tmp_path):
        # several faulty transitions, or faulty updates in one transition: the
        # constructor once reported the first fault met in a frozenset, which
        # varied with the hash seed, and a bad initial state had no line.  An
        # update given twice once collapsed in a set and passed, and an empty
        # state list was an error with no line
        files = sorted(LINE_CHECK_FILES.items())
        paths = write_files(tmp_path, [(name, text) for name, (text, _) in files])
        for out, err in validate_under_hash_seeds(paths):
            assert out == "2\n" * len(files)
            assert err == "".join(f"error: {message}\n" for _, (_, message) in files)

    def test_monitor_long_trace(self, tmp_path):
        # a 100,000-round walk with one forbidden round past the middle,
        # parsed and checked in-process
        protocol_path = FIXDIR / "display.prot"
        P = parse_model(protocol_path.read_text())
        rounds = sorted({v for _, v, _ in P.delta}, key=sorted)
        rng = random.Random(31)
        state, trace, bad = P.initial, [], 61_803
        for i in range(100_000):
            enabled = sorted(P.enabled(state), key=sorted)
            if i == bad:
                trace.append(next(v for v in rounds if v not in enabled))
                verdict = Verdict("VIOLATION", bad, trace[-1], frozenset(enabled))
            else:
                trace.append(rng.choice(enabled))
                (state,) = step(P, state, trace[-1])
        path = tmp_path / "long.trc"
        path.write_text(serialize_trace(trace))
        assert run_cli("monitor", "--protocol", str(protocol_path), "--trace", str(path)) \
            == (3, verdict.render() + "\n", "")

    def test_plain_commands_leave_the_symbolic_layer_unloaded(self, tmp_path):
        """The start-up guard: one process per command shape the benchmark
        runs (and ``validate``), each loading exactly the ``cohmin`` modules
        listed.  No command loads ``argparse`` or ``gettext``, nor
        ``dataclasses`` or ``inspect``, whose import alone costs a process
        several ms."""
        ring, prot = tmp_path / "ring.fst", tmp_path / "ring.prot"
        ring.write_text("signature in a; out b;\nstates s0, s1, s2, s3;\n"
                        "initial s0;\ntrans s0 -> s1 : {a};\ntrans s1 -> s2 : {b};\n"
                        "trans s2 -> s3 : {a};\ntrans s3 -> s0 : {b};\n")
        prot.write_text("alphabet a, b;\nregex (a b)*;\n")
        ring, prot = str(ring), str(prot)

        def fix(name):
            return str(FIXDIR / name)

        im = ["--protocol", fix("iterator_map.prot"), fix("iterator_map.sfst")]
        # the writer loads where a command writes a model, the regex and
        # expression grammar where it reads a regex protocol or a symbolic file
        writer, grammar = "frontend.writer", "frontend.grammar"
        sfst = {"symbolic", "frontend.expr", grammar, writer}
        # (argv, exit code, the layers it loads beside the CLI's own modules)
        ops = [
            (["minimize", "--policy", "coherent", "--protocol", prot, ring], 0,
             {"coherence", "protocol", grammar, writer}),
            (["validate", ring], 0, set()),
            (["traces", "--depth", "3", ring], 0, {"algebra"}),
            (["intersect", ring, ring], 0, {"algebra", writer}),
            (["relation", "--protocol", ring, ring], 0, {"coherence"}),
            (["equiv", "--protocol", ring, ring, ring], 0, {"coherence", "algebra"}),
            (["minimize", "--policy", "bisim", ring], 0, {"coherence", writer}),
            (["expand", "--lo", "-1", "--hi", "1", fix("adder.sfst")], 0,
             sfst | {"expansion"}),
            (["minimize", "--policy", "coherent", *im], 0, sfst | {"coherence", "protocol"}),
            (["minimize", "--policy", "coherent", "--guard-mode", "bounded-semantic", *im],
             0, sfst | {"coherence", "protocol"}),
            (["monitor", "--protocol", fix("display.prot"), "--trace",
              fix("display_legal.trc")], 0, {"protocol", "frontend.trace"}),
            (["monitor", "--protocol", fix("iterator_map.prot"), "--trace",
              fix("display_attack.trc")], 3, {"protocol", "frontend.trace", grammar}),
        ]
        base = {"cohmin", "cohmin.errors", "cohmin.kernel", "cohmin.frontend",
                "cohmin.frontend.fileformat", "cohmin.frontend.cli"}
        script = (
            "import contextlib, io, json, sys\n"
            "from cohmin.frontend import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli_main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for argv, code, layers in ops:
            proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.stderr == "", argv
            got_code, modules = json.loads(proc.stdout)
            assert got_code == code, argv
            assert {m for m in modules if m.split(".")[0] == "cohmin"} \
                == base | {f"cohmin.{layer}" for layer in layers}, argv
            assert not {"argparse", "gettext", "dataclasses", "inspect"} & set(modules), argv

    def test_usage_error(self):
        code, _, err = run_cli("minimize", "--policy", "coherent",
                               str(FIXDIR / "forked_reader.fst"))
        assert code == 1

    def test_traces(self):
        code, out, _ = run_cli("traces", "--depth", "2",
                               str(FIXDIR / "two_phase.fst"))
        assert code == 0
        assert out.splitlines() == ["[]", "[{a}]", "[{a} {b}]"]

    def test_minimize_coherent(self):
        code, out, _ = run_cli(
            "minimize", "--policy", "coherent",
            "--protocol", str(FIXDIR / "linear_protocol.fst"),
            str(FIXDIR / "forked_reader.fst"))
        assert code == 0
        assert "merge Q -> P" in out
        body = out.split("merge", 1)[0]
        got = parse_model(body)
        assert len(got.states) == 4

    def test_minimize_bisim(self):
        code, out, _ = run_cli("minimize", "--policy", "bisim",
                               str(FIXDIR / "forked_reader.fst"))
        assert code == 0
        assert len(parse_model(out).states) == 5

    def test_equiv_self_is_zero(self):
        code, out, _ = run_cli(
            "equiv", "--protocol", str(FIXDIR / "linear_protocol.fst"),
            "--depth", "8",
            str(FIXDIR / "forked_reader.fst"), str(FIXDIR / "forked_reader.fst"))
        assert code == 0
        assert out.strip() == "equivalent"

    def test_monitor_ok_and_violation(self):
        code, out, _ = run_cli("monitor",
                               "--protocol", str(FIXDIR / "display.prot"),
                               "--trace", str(FIXDIR / "display_legal.trc"))
        assert code == 0 and out.strip() == "OK"
        code, out, _ = run_cli("monitor",
                               "--protocol", str(FIXDIR / "display.prot"),
                               "--trace", str(FIXDIR / "display_attack.trc"))
        assert code == 3
        assert out.startswith("VIOLATION index=2 round={d4}")

    def test_monitor_a_bad_line_before_or_after_the_violation(self, tmp_path):
        # the trace is checked as it is read, and read to its end after a
        # violation: a bad line on either side is an input error at its line
        argv = ("monitor", "--protocol", str(FIXDIR / "display.prot"), "--trace")
        for text, code, err in (
                ("{q5}\n{r2}\n{d4}\n{q5}\n", 3, ""),
                ("{q5}\n{r2\n{d4}\n{q5}\n", 2, "error: 2:1: expected a round in braces, "
                 "got '{r2'\n"),
                ("{q5}\n{r2}\n{d4}\n\n{q5\n", 2, "error: 5:1: expected a round in braces, "
                 "got '{q5'\n")):
            (tmp_path / "t.trc").write_text(text)
            code_, out, err_ = run_cli(*argv, str(tmp_path / "t.trc"))
            assert (code_, err_) == (code, err)
            assert out == ("VIOLATION index=2 round={d4} expected={{d2},{q1}}\n"
                           if code == 3 else "")

    def test_quotient(self):
        code, out, _ = run_cli("quotient", "--pair", "P,Q",
                               str(FIXDIR / "forked_reader.fst"))
        assert code == 0
        assert len(parse_model(out).states) == 7

    def test_quotient_names_product_and_expanded_states(self, tmp_path):
        """``--pair`` splits as a ``states`` statement does, so the names of
        a product and of an expansion stay whole."""
        for argv, pair, merged in (
                (["intersect", str(FIXDIR / "forked_reader.fst"),
                  str(FIXDIR / "linear_protocol.fst")], "(P,X1),(Q,X1)", "(Q,X1)"),
                (["expand", "--lo", "-1", "--hi", "1", str(FIXDIR / "adder.sfst")],
                 "A[y=0,z=0], A[y=0,z=1]", "A[y=0,z=1]")):
            path = tmp_path / "model.fst"
            path.write_text(run_cli(*argv)[1])
            code, out, err = run_cli("quotient", "--pair", pair, str(path))
            assert (code, err) == (0, "")
            states = parse_model(out).states
            assert merged not in states and len(states) == len(load_model(path).states) - 1
        for pair in ("(P,X1)", "(P,X1),(Q,X1),(p1,X2)", "(P,X1,(Q,X1)", "A[y=0,z=0"):
            assert run_cli("quotient", "--pair", pair, str(path)) == (
                1, "", "usage error: --pair wants two comma-separated state names\n")

    def test_a_literal_of_any_length_is_one_line_of_error(self, tmp_path):
        path = tmp_path / "long.sfst"
        path.write_text(TestParsing.EXPR_HEAD + "trans a -> b : {x} do r := 1"
                        + "0" * 4999 + ";\n")
        assert run_cli("validate", str(path)) == (2, "", "error: 5:28: integer outside "
                                                  "[-9223372036854775808..9223372036854775807]\n")

    def test_expand(self):
        code, out, _ = run_cli("expand", "--lo", "-1", "--hi", "1",
                               str(FIXDIR / "adder.sfst"))
        assert code == 0
        assert "x_eq_n1" in out

    def test_intersect_project_compose(self):
        code, out, _ = run_cli("intersect", str(FIXDIR / "forked_reader.fst"),
                               str(FIXDIR / "linear_protocol.fst"))
        assert code == 0
        code, out, _ = run_cli("project", "--keep", "a",
                               str(FIXDIR / "two_phase.fst"))
        assert code == 0
        assert "{}" in out

    def test_relation(self):
        code, out, _ = run_cli("relation",
                               "--protocol", str(FIXDIR / "linear_protocol.fst"),
                               str(FIXDIR / "forked_reader.fst"))
        assert code == 0
        assert "equiv P Q" in out

    def test_determinism(self):
        a = run_cli("minimize", "--policy", "coherent",
                    "--protocol", str(FIXDIR / "iterator_map.prot"),
                    str(FIXDIR / "iterator_map.sfst"))
        b = run_cli("minimize", "--policy", "coherent",
                    "--protocol", str(FIXDIR / "iterator_map.prot"),
                    str(FIXDIR / "iterator_map.sfst"))
        assert a == b and a[0] == 0

    def test_dot_subcommand(self):
        code, out, _ = run_cli("dot", str(FIXDIR / "two_phase.fst"))
        assert code == 0
        assert out.startswith("digraph")

    def test_resource_limit_exit_code(self):
        code, _, err = run_cli("traces", "--depth", "6", "--cap", "3",
                               str(FIXDIR / "forked_reader.fst"))
        assert code == 4
        assert "resource limit" in err

    @pytest.mark.parametrize("argv, message", [
        (("expand", "--lo", "-100000000000000000000", "--hi",
          "100000000000000000000", "adder.sfst"),
         "expansion needs 400000000000000000002 labels, more than 100000"),
        # one cycle: about 10^5 traces, holding about 5 * 10^9 rounds
        (("traces", "--depth", "100000", "two_phase.fst"),
         "traces would hold more than 2000000 rounds"),
    ])
    def test_memory_bounds_stop_before_memory_runs_out(self, argv, message):
        *opts, name = argv
        proc = run_cohmin_capped(*opts, str(FIXDIR / name))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", f"resource limit: {message}\n")

    def test_expand_transition_bound(self, tmp_path):
        # 20001^2 guard assignments of one transition, about half of them
        # kept: below the label and state caps, it ran for more than 100 s
        path = tmp_path / "sum.sfst"
        path.write_text("signature in x, y; out r;\nstates A;\nregisters ;\n"
                        "initial A;\ntrans A -> A : {x, y} when x + y > 0;\n")
        proc = run_cohmin_capped("expand", "--lo", "-10000", "--hi", "10000", str(path),
                                 timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "resource limit: expansion needs 400040001 assignments of one "
            "transition, more than 3000000\n")

    def test_out_of_memory_is_a_resource_limit(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(kernel, "traces_upto", exhausted)
        assert run_cli("traces", "--depth", "2", str(FIXDIR / "two_phase.fst")) \
            == (4, "", "resource limit: out of memory\n")

    @pytest.mark.parametrize("argv", [
        ("traces", "--depth", "-1", "two_phase.fst"),
        ("traces", "--depth", "2", "--cap", "-5", "two_phase.fst"),
        ("equiv", "--protocol", "linear_protocol.fst", "--depth", "-1",
         "forked_reader.fst", "forked_reader.fst"),
    ])
    def test_negative_count_is_usage_error(self, argv):
        argv = [str(FIXDIR / a) if a.endswith(".fst") else a for a in argv]
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: argument --")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("validate", "BAD"),
        ("traces", "--depth", "1", "BAD"),
        ("intersect", "BAD", "two_phase.fst"),
        ("intersect", "two_phase.fst", "BAD"),
        ("interact", "BAD", "two_phase.fst"),
        ("interact", "two_phase.fst", "BAD"),
        ("compose", "BAD", "two_phase.fst"),
        ("compose", "two_phase.fst", "BAD"),
        ("project", "--keep", "a", "BAD"),
        ("minimize", "--policy", "bisim", "BAD"),
        ("minimize", "--policy", "coherent", "--protocol", "linear_protocol.fst",
         "BAD"),
        ("minimize", "--policy", "coherent", "--protocol", "BAD",
         "forked_reader.fst"),
        ("relation", "--protocol", "linear_protocol.fst", "BAD"),
        ("relation", "--protocol", "BAD", "forked_reader.fst"),
        ("equiv", "--protocol", "linear_protocol.fst", "BAD", "forked_reader.fst"),
        ("equiv", "--protocol", "linear_protocol.fst", "forked_reader.fst", "BAD"),
        ("equiv", "--protocol", "BAD", "forked_reader.fst", "forked_reader.fst"),
        ("quotient", "--pair", "P,Q", "BAD"),
        ("expand", "--lo", "0", "--hi", "1", "BAD"),
        ("monitor", "--protocol", "BAD", "--trace", "display_legal.trc"),
        ("monitor", "--protocol", "display.prot", "--trace", "BAD"),
        ("dot", "BAD"),
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")))
    def test_non_utf8_file_is_input_error(self, tmp_path, argv):
        bad = tmp_path / "bad.fst"
        bad.write_bytes(b"\xff\xfe")
        argv = [str(bad) if a == "BAD" else str(FIXDIR / a) if "." in a else a
                for a in argv]
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: not UTF-8 text")
        assert err.count("\n") == 1

    PLAIN = "signature in a; out b;\nstates s0, s1;\ninitial s0;\ntrans s0 -> s1 : {a};\n"

    @pytest.mark.parametrize("name, text, line", [
        ("m.fst", PLAIN.replace("signature in", "signaturein"), 1),
        ("m.fst", PLAIN.replace("out b", "outb"), 1),
        ("m.fst", PLAIN.replace("states s0", "statess0"), 2),
        ("m.fst", PLAIN.replace("initial s0", "initials0"), 3),
        ("m.fst", PLAIN.replace("initial s0;", "initial s0;\nregistersy;"), 4),
        ("p.prot", "alphabeta, b;\nregex (a b)*;\n", 1),
        ("p.prot", "alphabet a, b;\nregexa b;\n", 2),
    ], ids=["signature", "out", "states", "initial", "registers", "alphabet", "regex"])
    def test_keywords_are_whole_words(self, tmp_path, name, text, line):
        # "statess0, s1;" once parsed as "states s0, s1;"
        (tmp_path / name).write_text(text)
        (tmp_path / "t.trc").write_text("{a}\n")
        argv = (("validate", name) if name.endswith(".fst")
                else ("monitor", "--protocol", name, "--trace", "t.trc"))
        code, out, err = run_cli(*[str(tmp_path / a) if "." in a else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {line}:1: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, text, line, word", [
        ("m.fst", PLAIN.replace("initial", "signature in b; out a;\ninitial"), 3, "signature"),
        ("m.fst", PLAIN.replace("initial", "states s0;\ninitial"), 3, "states"),
        ("m.fst", PLAIN.replace("initial", "registers y;\nregisters z;\ninitial"), 4,
         "registers"),
        ("m.fst", PLAIN.replace("initial s0;", "initial s0;\ninitial s1;"), 4, "initial"),
        ("p.prot", "alphabet a, b;\nregex (a b)*;\nalphabet a;\n", 3, "alphabet"),
        ("p.prot", "alphabet a, b;\nregex (a b)*; regex a;\n", 2, "regex"),
    ], ids=["signature", "states", "registers", "initial", "alphabet", "regex"])
    def test_a_header_statement_appears_once(self, tmp_path, name, text, line, word):
        # a second statement is an error, never a silent replacement
        (tmp_path / name).write_text(text)
        (tmp_path / "t.trc").write_text("{a}\n{b}\n{a}\n")
        argv = (("validate", name) if name.endswith(".fst")
                else ("monitor", "--protocol", name, "--trace", "t.trc"))
        message = f"{line}:1: duplicate {word!r} declaration"
        assert run_cli(*[str(tmp_path / a) if "." in a else a for a in argv]) == \
            (2, "", f"error: {message}\n")
        with pytest.raises(ParseError) as err:
            (parse_model if name.endswith(".fst") else parse_regex_protocol)(text)
        assert str(err.value) == message

    def test_a_regex_protocol_may_start_with_its_regex(self, tmp_path):
        # either statement order is a regex protocol, never a model
        files = {"ab.prot": "alphabet a, b;\nregex (a b)*;\n",
                 "ba.prot": "# the regex first\nregex (a b)*;\nalphabet a, b;\n",
                 "m.fst": self.PLAIN + "trans s1 -> s0 : {b};\ntrans s1 -> s1 : {b};\n",
                 "ok.trc": "{a}\n{b}\n{a}\n", "bad.trc": "{a}\n{a}\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for argv, code in ((["monitor", "--trace", "ok.trc"], 0),
                           (["monitor", "--trace", "bad.trc"], 3),
                           (["relation", "m.fst"], 0)):
            runs = [run_cli(*[str(tmp_path / a) if "." in a else a
                              for a in argv + ["--protocol", p]])
                    for p in ("ab.prot", "ba.prot")]
            assert runs[0] == runs[1]
            assert runs[0][0] == code and runs[0][1] and runs[0][2] == ""

    def test_monitor_reads_a_symbolic_protocol_as_its_skeleton(self, tmp_path):
        text = (FIXDIR / "display.prot").read_text()
        symbolic = tmp_path / "display.sfst"
        symbolic.write_text(text.replace("initial idle;", "registers k;\ninitial idle;")
                            .replace("{q1};", "{q1} do k := k;"))
        assert isinstance(parse_model(symbolic.read_text()), SFST)
        for trace in ("display_legal.trc", "display_attack.trc"):
            verdicts = [run_cli("monitor", "--protocol", str(p),
                                "--trace", str(FIXDIR / trace))
                        for p in (symbolic, FIXDIR / "display.prot")]
            assert verdicts[0] == verdicts[1]
            assert verdicts[0][0] in (0, 3) and verdicts[0][2] == ""

    @pytest.mark.parametrize("argv", [
        ("relation", str(FIXDIR / "two_phase.fst")),
        ("monitor", "--trace", str(FIXDIR / "display_legal.trc")),
    ], ids=["relation", "monitor"])
    def test_a_symbolic_protocol_with_guards_is_an_input_error(self, argv):
        # the adder guards and updates its register, so it is no protocol
        got = run_cli(*argv, "--protocol", str(FIXDIR / "adder.sfst"))
        assert got == (2, "", "error: a symbolic protocol needs true guards "
                              "and identity updates\n")

    SFST_HEAD = ("signature in x; out r;\nstates A;\nregisters y;\ninitial A;\n"
                 "trans A -> A : {x} when ")

    @pytest.mark.parametrize("files, argv, code", [
        ({"p.prot": "alphabet a;\nregex " + "(" * 3000 + "a" + ")" * 3000 + ";\n"},
         ("monitor", "--protocol", "p.prot", "--trace", "t.trc"), 2),
        ({"p.prot": "alphabet a;\nregex a" + "*" * 3000 + ";\n"},
         ("monitor", "--protocol", "p.prot", "--trace", "t.trc"), 0),
        ({"m.sfst": SFST_HEAD + "(" * 600 + "y > 0" + ")" * 600 + ";\n"},
         ("validate", "m.sfst"), 2),
        ({"m.sfst": SFST_HEAD + " + ".join(["y"] * 3000) + " > 0;\n"},
         ("validate", "m.sfst"), 2),
    ], ids=["regex-parens", "regex-stars", "guard-parens", "guard-chain"])
    def test_deep_input(self, tmp_path, files, argv, code):
        (tmp_path / "t.trc").write_text("{a}\n{a}\n")
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if "." in a else a for a in argv]
        got, out, err = run_cli(*argv)
        assert got == code
        if code == 0:
            assert out == "OK\n" and err == ""
        else:
            assert out == ""
            assert err.startswith("error: ") and "nested deeper than 100" in err
            assert err.count("\n") == 1


_IDENTS = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
# product names nest: ((a,b),c) is a state of a product of products
_STATE_NAMES = st.recursive(
    _IDENTS, lambda inner: st.tuples(inner, inner).map(
        lambda p: algebra.product_state(*p)), max_leaves=4)


@st.composite
def _plain_machines(draw, sig):
    states = draw(st.lists(_STATE_NAMES, min_size=1, max_size=4, unique=True))
    rounds = [frozenset(), *(frozenset({lab}) for lab in sorted(sig.universe)),
              sig.universe]
    delta = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(rounds),
                                     st.sampled_from(states)), max_size=8))
    return Transducer(sig, frozenset(states), states[0], frozenset(delta))


_SYM_SIG = Signature(frozenset({"x", "a"}), frozenset({"r"}))
_SYM_ROUNDS = [frozenset(), frozenset({"x"}), frozenset({"a"}), frozenset({"x", "r"}),
               frozenset({"a", "r"}), frozenset({"x", "a", "r"})]
_GUARD_TEXTS = ["true", "false", "y + z > 0", "not y < 1", "y = z and z >= -1",
                "y * 2 > z - 1 or y = 0", "-y < z"]
_PORT_GUARD_TEXTS = ["x > 0", "x + y = 1", "not x = z"]
_EXPR_TEXTS = ["0", "y", "y + z", "z - -1", "2 * y", "-z"]
_PORT_EXPR_TEXTS = ["x", "x + y", "x * x"]


@st.composite
def _symbolic_machines(draw):
    """SFSTs over inputs x, a and output r with registers y and z: guards
    and updates from small pools, port expressions only in rounds with x,
    output updates only in rounds with r."""
    states = draw(st.lists(_STATE_NAMES, min_size=1, max_size=4, unique=True))
    registers = frozenset({"y", "z"})
    delta = []
    for _ in range(draw(st.integers(0, 8))):
        v = draw(st.sampled_from(_SYM_ROUNDS))
        ports = v & _SYM_SIG.inputs
        port_texts = "x" in v
        guard = draw(st.sampled_from(_GUARD_TEXTS + _PORT_GUARD_TEXTS * port_texts))
        targets = draw(st.lists(st.sampled_from(["y", "z", *sorted(v & {"r"})]),
                                unique=True, max_size=3))
        updates = frozenset(
            Update(t, parse_expr(draw(st.sampled_from(_EXPR_TEXTS + _PORT_EXPR_TEXTS
                                                       * port_texts)), registers, ports))
            for t in targets)
        delta.append(STransition(draw(st.sampled_from(states)), v,
                                 parse_expr(guard, registers, ports), updates,
                                 draw(st.sampled_from(states))))
    return SFST(_SYM_SIG, frozenset(states), registers, states[0], frozenset(delta))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((" ", "\n", "  # a comment\n  ")))
    def test_regex_protocol_round_trip(self, seed, gap):
        """A regex, rendered with ``gap`` between the items of each
        concatenation (so over several lines, comments between), parses
        back to itself up to ``a** = a*``."""
        r = random_regex(random.Random(seed), ["a", "b", "c"], 4)
        text = f"# protocol\nalphabet a, b, c;\nregex {render_regex(r, gap)};\n"
        assert parse_regex_protocol(text) == (["a", "b", "c"], fold_stars(r))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_plain_machines(SIG2), _symbolic_machines()), _symbolic_machines())
    def test_writer_matches_the_frozen_writer_and_round_trips(self, model, sfst):
        text = serialize_model(model)
        assert text == naive_writer.serialize_model(model)
        assert parse_model(text) == model
        # an expansion's state names hold commas (A[y=0,z=0]) inside
        # brackets, which a state list keeps whole
        expanded = symbolic.expand(sfst, -2, 2)
        text = serialize_model(expanded)
        assert text == naive_writer.serialize_model(expanded)
        assert parse_model(text) == expanded

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_products_round_trip(self, data):
        left = Signature(frozenset({"a"}), frozenset({"b"}))
        right = Signature(frozenset({"b"}), frozenset({"c"}))
        T = data.draw(_plain_machines(left))
        U = data.draw(_plain_machines(left))
        V = data.draw(_plain_machines(right))
        for m in (T, algebra.intersect(T, U), algebra.interact(T, V),
                  algebra.intersect(T, U, keep_unreachable=True),
                  algebra.interact(T, V, keep_unreachable=True)):
            assert parse_model(serialize_model(m)) == m

    @pytest.mark.parametrize("name, accepted", [
        ("(a,b)", True), ("((a),b)", True), ("a(b)c", True), ("(,)", True),
        ("a),(b", False), ("a)(b", False), (")a(", False), ("a)", False),
        ("(a", False),
    ])
    def test_intersect_of_every_accepted_file_parses_back(self, tmp_path,
                                                          name, accepted):
        # a name whose parentheses close more than they opened, such as
        # a),(b, was once accepted, and its product's name did not split
        # back into one state
        path = tmp_path / "m.fst"
        path.write_text("signature in a; out b;\n"
                        f"states {name}, s;\ninitial s;\ntrans s -> {name} : {{a}};\n")
        code, out, err = run_cli("intersect", str(path), str(path))
        if not accepted:
            assert (code, out) == (2, "")
            assert err == "error: 2:1: unbalanced parentheses in state list\n"
            return
        T = parse_model(path.read_text())
        assert (code, err) == (0, "")
        assert parse_model(out) == algebra.intersect(T, T)
        path.write_text(out)
        assert run_cli("validate", str(path))[0] == 0

    @pytest.mark.parametrize("word", ["do", "when", "registers"])
    def test_keyword_names_stay_plain(self, word):
        sig = Signature(frozenset({"a"}), frozenset({word}))
        T = Transducer(sig, frozenset({word, "s"}), word,
                       frozenset({(word, frozenset({"a", word}), "s")}))
        assert parse_model(serialize_model(T)) == T


    def test_symbolic_round_trip(self):
        rng = random.Random(11)
        machines = [random_sfst(rng, 5, 12) for _ in range(300)]
        machines += [load_model(FIXDIR / "adder.sfst"), *iterator_map()]
        for m in machines:
            assert parse_model(serialize_model(m)) == m

    def test_determinized_round_trip(self):
        rng = random.Random(17)
        machines = [parse_model(path.read_text())
                    for path in sorted(FIXDIR.iterdir()) if path.suffix in (".fst", ".sfst")]
        machines = [m.control_skeleton() if isinstance(m, SFST) else m for m in machines]
        machines += [random_transducer(rng, SIG2, 5, 12) for _ in range(100)]
        for m in machines:
            d = algebra.determinize(m)
            assert parse_model(serialize_model(d)) == d
        compiled = iterator_map()[1]
        assert parse_model(serialize_model(compiled)) == compiled

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.sampled_from(["a", "b", "q_5", "do", "X"]),
                                  max_size=3), max_size=12))
    @example([])
    @example([frozenset(), frozenset({"a"}), frozenset()])
    def test_trace_round_trip(self, rounds):
        t = tuple(rounds)
        assert parse_trace(serialize_trace(t)) == t

    def test_trace_text_is_read_as_given(self):
        """``parse_trace`` takes any ``str``, such as one read with
        ``errors="surrogateescape"``: it is not encoded for the reader."""
        assert parse_trace("# caf\udce9\n{a}\r\n{b}\r{}") == (
            frozenset({"a"}), frozenset({"b"}), frozenset())
        with pytest.raises(ParseError, match="^1:1: bad identifier"):
            parse_trace("{\ud800}\n")

    def test_equal_trace_lines_share_one_round(self):
        lines = ["{a}", "{b, a}", "{}", "{ c }", "{c,d}"]
        rng = random.Random(23)
        for k in range(1, len(lines) + 1):
            text = "".join(rng.choice(lines[:k]) + "\n" for _ in range(500))
            text += "".join(line + "\n" for line in lines[:k])
            t = parse_trace(text)
            assert len(t) == 500 + k
            assert len({id(v) for v in t}) == k

    def test_equal_rounds_of_a_model_are_one_object(self):
        text = ("signature in a, b; out c;\nstates s, t;\ninitial s;\n"
                "trans s -> t : {a, b};\ntrans t -> s : {b,a};\n"
                "trans t -> t : {a, b};\ntrans s -> s : {};\ntrans t -> s : { };\n"
                "trans s -> t : {c} when true;\ntrans t -> s : {c};\n")
        for T in (parse_model(text), parse_model(text.replace(" when true", ""))):
            rounds = [v for _, v, _ in T.control_skeleton().delta] \
                if isinstance(T, SFST) else [v for _, v, _ in T.delta]
            assert len({id(v) for v in rounds}) == len(set(rounds)) == 3
        expanded = parse_model(serialize_model(symbolic.expand(iterator_map()[0], -1, 1)))
        rounds = [v for _, v, _ in expanded.delta]
        assert len({id(v) for v in rounds}) == len(set(rounds)) < len(rounds)

    HEAD = ("signature in a, when; out do, registers;\n"
            "states s, do, when, registers;\ninitial s;\n")

    @pytest.mark.parametrize("body, kind", [
        ("trans do -> when : {when, do};\ntrans registers -> s : {registers};\n",
         Transducer),
        ("registers;\ntrans s -> do : {a};\n", SFST),
        ("trans s -> when : {a} when a > 0;\n", SFST),
        ("trans s -> do : {a, do} do do := a;\n", SFST),
        ("registers y;\ntrans when -> registers : {when} when y > 0 do y := y + 1;\n",
         SFST),
    ], ids=["keyword-names", "empty-registers", "guard-only", "updates-only", "both"])
    def test_classification(self, body, kind):
        model = parse_model(self.HEAD + body)
        assert type(model) is kind
        assert parse_model(serialize_model(model)) == model


_FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXDIR.iterdir())]
# Each subcommand's usual shape; F is a file, N a small integer, P a
# policy, W a word.
_SHAPES = {
    "validate": "F", "dot": "F", "traces": "--depth N F",
    "intersect": "F F", "interact": "F F", "compose": "F F",
    "project": "--keep W F", "minimize": "--policy P --protocol F F",
    "relation": "--protocol F F", "equiv": "--protocol F --depth N F F",
    "quotient": "--pair W F", "expand": "--lo N --hi N F",
    "monitor": "--protocol F --trace F",
}
_WORDS = ("structural", "bounded-semantic", "a", "a,b",
          "P,Q", "s0,s1", "x", "", "--keep-unreachable", "--guard-mode",
          "--cap", "--help", "--depth")


# seeded random machines over the labels of forked_reader.fst
_FORKED_SIG = load_model(FIXDIR / "forked_reader.fst").signature
_RANDOM_MODELS = st.integers(0, 10**6).map(lambda seed: serialize_model(
    random_transducer(random.Random(seed), _FORKED_SIG, 4, 8)))


@st.composite
def _file_texts(draw):
    """A fixture file, whole, cut short or with one line dropped, or a few
    lines taken from the fixtures and from small fragments."""
    text = draw(st.sampled_from(_FIXTURE_TEXTS))
    kind = draw(st.sampled_from(("whole", "cut", "drop", "lines")))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    lines = text.splitlines(keepends=True)
    if kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
        return "".join(lines)
    if kind == "lines":
        pool = [line for t in _FIXTURE_TEXTS for line in t.splitlines(keepends=True)]
        pool += ["states s0;\n", "initial s0;\n", "trans s0 -> s0 : {a};\n",
                 "signature in a; out b;\n", "{a, a}\n", "regex (a b)*;\n",
                 "alphabet a, b;\n", "(((\n", "\x00\n"]
        return "".join(draw(st.lists(st.sampled_from(pool), max_size=6)))
    return text


class TestCliContract:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_subcommand_exits_cleanly(self, tmp_path_factory, data):
        """On generated argv and small files, every subcommand exits with a
        documented code, writes at most one line to stderr and raises
        nothing.  Each argv is a subcommand's usual shape with drawn files,
        numbers and words, sometimes with one stray token.  The three files
        are all random machines over one signature, or all drawn from the
        fixtures."""
        assert set(_SHAPES) == set(_COMMANDS)
        directory = tmp_path_factory.mktemp("contract")
        texts = data.draw(st.sampled_from((_RANDOM_MODELS, _file_texts())))
        paths = []
        for i in range(3):
            path = directory / f"f{i}"
            path.write_text(data.draw(texts))
            paths.append(str(path))
        pick = {"F": st.sampled_from(paths), "N": st.sampled_from(("-1", "0", "1", "3")),
                "P": st.sampled_from(("coherent", "bisim")), "W": st.sampled_from(_WORDS)}
        command = data.draw(st.sampled_from(sorted(_SHAPES)))
        argv = [command] + [data.draw(pick[x]) if x in pick else x
                            for x in _SHAPES[command].split()]
        if data.draw(st.integers(0, 3)) == 3:
            argv.append(data.draw(st.one_of(*pick.values())))
        if data.draw(st.integers(0, 9)) == 9:   # a file that is not there
            argv[data.draw(st.integers(1, len(argv) - 1))] = str(directory / "missing")
        code, _, err = run_cli(*argv)
        assert code in {0, 1, 2, 3, 4}
        assert err.count("\n") <= 1 and err[-1:] in ("", "\n"), err


class TestOutputFailures:
    """A ``cohmin`` process whose stdout cannot take its output exits with
    a documented code and no traceback."""

    ARGV = [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
            "expand", "--lo", "-2", "--hi", "2", str(FIXDIR / "iterator_map.sfst")]

    def _env(self):
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def test_pipe_closed_after_the_first_line(self):
        # about 1 MB of output: the writer is still writing when the pipe closes
        proc = subprocess.Popen(self.ARGV, env=self._env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first.startswith(b"signature in ")
        assert (code, err) == (0, b"")

    def test_closed_stdout(self):
        proc = subprocess.run(self.ARGV, env=self._env(), stderr=subprocess.PIPE,
                              preexec_fn=lambda: os.close(1), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("argv, code", [
        (["validate", str(FIXDIR / "adder.sfst")], 0),
        (["minimize", "--policy", "coherent", str(FIXDIR / "forked_reader.fst")], 1),
        (["validate", str(FIXDIR / "no_such_file.fst")], 2),
        (["monitor", "--protocol", str(FIXDIR / "display.prot"),
          "--trace", str(FIXDIR / "display_attack.trc")], 3),
        (["traces", "--depth", "4", "--cap", "2", str(FIXDIR / "two_phase.fst")], 4),
        (ARGV[3:], 0),
    ], ids=["ok", "usage", "input", "verdict", "resource", "expand"])
    def test_main_ends_the_process_as_cli_main_returns(self, argv, code, tmp_path):
        """``main`` ends its process through ``os._exit``: to a pipe and to
        a file alike, the process writes the stdout and stderr bytes that
        ``cli_main`` writes in process, and exits with the code it returns."""
        expected = run_cli(*argv)
        assert expected[0] == code
        env = self._env()
        env.pop("PYTHONUNBUFFERED", None)   # buffered, so that an unflushed write is lost
        path = tmp_path / "out"
        with open(path, "wb") as out:
            to_file = subprocess.run(self.ARGV[:3] + argv, env=env, stdout=out,
                                     stderr=subprocess.PIPE, timeout=60)
        to_pipe = subprocess.run(self.ARGV[:3] + argv, env=env, capture_output=True, timeout=60)
        for proc, stdout in ((to_pipe, to_pipe.stdout), (to_file, path.read_bytes())):
            assert (proc.returncode, stdout, proc.stderr) == \
                (code, expected[1].encode(), expected[2].encode())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ARGV[3:], ["validate", str(FIXDIR / "adder.sfst")],
        ["monitor", "--protocol", str(FIXDIR / "display.prot"),
         "--trace", str(FIXDIR / "display_attack.trc")],
    ], ids=["expand", "validate", "monitor"])
    def test_full_device(self, argv):
        # a short output fails only in the final flush
        with open("/dev/full", "w") as full:
            proc = subprocess.run(self.ARGV[:3] + argv, env=self._env(), stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 4
        assert proc.stderr == "resource limit: cannot write output: No space left on device\n"


_HELP_WORDS = ("-h", "--help", "--he", "-hh", "-hx", "--help=x")


@st.composite
def _argvs(draw):
    """A subcommand's usual shape (``_SHAPES``) in any order, each option
    as written, cut to a prefix, glued to its value by ``=`` or given
    twice; sometimes with ``--`` inserted, and with ``--help`` or a stray
    token.  No value is ``--``: argparse read one as an empty list, and
    the command then failed with a traceback."""
    pick = {"F": st.sampled_from(("f", "g", "-", "-f")),
            "N": st.sampled_from(("-1", "0", "3", "x")),
            "P": st.sampled_from(("coherent", "bisim", "co")), "W": st.sampled_from(_WORDS)}
    command = draw(st.sampled_from(sorted(_SHAPES)))
    shape, items = _SHAPES[command].split(), []
    while shape:
        word = shape.pop(0)
        if not word.startswith("--"):
            items.append([draw(pick[word])])
            continue
        item = [word, draw(pick[shape.pop(0)])]
        how = draw(st.sampled_from(("plain", "prefix", "glued", "twice")))
        if how == "prefix":
            item[0] = word[:draw(st.integers(3, len(word)))]
        elif how == "glued":
            item = [f"{item[0]}={item[1]}"]
        elif how == "twice":
            item += [word, draw(st.one_of(*pick.values()))]
        items.append(item)
    argv = [command] + [t for i in draw(st.permutations(range(len(items)))) for t in items[i]]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--")
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(_HELP_WORDS + _WORDS)))
    return argv


def _parsed(parse, usage, argv):
    """What a parser made of ``argv``: its fields, its usage error, or
    ``help``."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = parse(argv)
    except usage as e:
        return "usage", str(e)
    except SystemExit as e:
        return "help", e.code
    return ("help", 0) if args is None else ("ok", vars(args))


class TestArgv:
    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    @example(["equiv", "--dep", "2", "--prot=p", "l", "r"])
    @example(["expand", "--hi=1", "f", "--lo", "-2", "--lo", "-3"])
    @example(["validate", "--", "-f"])
    @example(["traces", "--depth", "x", "-h"])
    @example(["traces", "-h", "--depth", "x"])
    @example(["expand", "-h", "--h", "1"])
    def test_argv_reads_as_argparse_read_it(self, argv):
        """The table-driven parser and the frozen argparse front end
        (``tests/naive_cli.py``) agree on every field, every usage error
        and every ``--help``; the CLI exits 1 with that one line, or 0
        with the usage on stdout."""
        expected = _parsed(naive_cli.parse, naive_cli._Usage, argv)
        assert _parsed(cli.parse_argv, cli._Usage, argv) == expected
        if expected[0] == "usage":
            assert run_cli(*argv) == (1, "", f"usage error: {expected[1]}\n")
        elif expected[0] == "help":
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, "") and out.startswith("usage: cohmin")

    @pytest.mark.parametrize("argv, message", [
        (["minimize"], "the following arguments are required: --policy, file"),
        (["minimize", "--policy", "both", "f"],
         "argument --policy: invalid choice: 'both' (choose from 'coherent', 'bisim')"),
        (["expand", "--lo", "x", "--hi", "1", "f"], "argument --lo: invalid int value: 'x'"),
        (["traces", "--depth", "-1", "f"], "argument --depth: must be >= 0, got -1"),
        (["relation", "f", "--protocol"], "argument --protocol: expected one argument"),
        (["validate", "f", "g", "--x"], "unrecognized arguments: g --x"),
        (["expand", "--h", "1", "f"], "ambiguous option: --h could match --help, --hi"),
        (["--x", "mini"], "argument command: invalid choice: 'mini' (choose from "
         "'validate', 'traces', 'intersect', 'interact', 'compose', 'project', "
         "'minimize', 'relation', 'equiv', 'quotient', 'expand', 'monitor', 'dot')"),
    ], ids=["required", "choice", "int", "bound", "one-argument", "unrecognized",
            "ambiguous", "command"])
    def test_usage_errors_keep_their_wording(self, argv, message):
        assert _parsed(naive_cli.parse, naive_cli._Usage, argv) == ("usage", message)
        assert run_cli(*argv) == (1, "", f"usage error: {message}\n")

    def test_the_forms_argparse_took(self):
        """Prefixes, ``=``, any order, a negative number as a value, the
        last of a repeated option, and ``--`` before a dashed file."""
        assert vars(cli.parse_argv(["equiv", "l", "--dep", "2", "--prot=p", "r"])) == {
            "command": "equiv", "protocol": "p", "depth": 2, "left": "l", "right": "r"}
        assert vars(cli.parse_argv(["expand", "--hi=1", "--lo", "-2", "--lo", "-3",
                                    "--", "-f"])) == {
            "command": "expand", "lo": -3, "hi": 1, "file": "-f"}


class TestExpandedModelsParseBack:
    def test_validate_accepts_an_expansion_with_two_registers(self, tmp_path):
        code, out, err = run_cli("expand", "--lo", "-1", "--hi", "1",
                                 str(FIXDIR / "adder.sfst"))
        assert (code, err) == (0, "") and "A[y=0,z=0]" in out
        path = tmp_path / "expanded.fst"
        path.write_text(out)
        assert run_cli("validate", str(path)) == (
            0, "ok: transducer, 18 states, 29 transitions\n", "")

    def test_every_fixture_expansion_round_trips(self):
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix in (".fst", ".sfst"):
                model = parse_model(path.read_text())
                if isinstance(model, Transducer):
                    model = symbolic.lift_transducer(model)
                E = symbolic.expand(model, -1, 1)
                assert parse_model(serialize_model(E)) == E

    @pytest.mark.parametrize("states, initial, line", [
        ("A[y=0, s", "s", 2), ("A]y=0[, s", "s", 2), ("s", "A[y=0", 3),
        ("s, a[(b]), c)", "s", 2),
    ])
    def test_an_unbalanced_bracket_is_an_error_at_its_line(self, states, initial, line):
        with pytest.raises(ParseError) as err:
            parse_model(f"signature in a; out b;\nstates {states};\n"
                        f"initial {initial};\n")
        assert err.value.line == line
        assert "unbalanced" in str(err.value)


class TestStreamingWriter:
    """``write_model`` passes the header, then one chunk per source state
    with transitions; joined, the chunks are ``serialize_model``'s text and
    the frozen writer's, byte for byte."""

    def assert_writes_like_the_frozen_writer(self, model):
        chunks = []
        write_model(model, chunks.append)
        text = serialize_model(model)
        assert "".join(chunks) == text == naive_writer.serialize_model(model)
        header, *rows = chunks
        assert not header.count("trans ")
        sources = [chunk.split(" ", 2)[1] for chunk in rows]
        assert all(chunk.count(f"trans {s} -> ") == chunk.count("\n")
                   for s, chunk in zip(sources, rows))
        assert len(set(sources)) == len(sources)

    def test_fixtures(self):
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix in (".fst", ".sfst"):
                model = parse_model(path.read_text())
                self.assert_writes_like_the_frozen_writer(model)
                lifted = (model if isinstance(model, SFST)
                          else symbolic.lift_transducer(model))
                self.assert_writes_like_the_frozen_writer(symbolic.expand(lifted, -1, 1))

    def test_expanded_sfsts(self):
        rng = random.Random(12)
        for model in [load_model(FIXDIR / "adder.sfst"), iterator_map()[0]] + \
                [random_sfst(rng, 4, 8) for _ in range(40)]:
            self.assert_writes_like_the_frozen_writer(symbolic.expand(model, -2, 2))

    def test_products(self):
        products = list(_product_machines())
        assert len(products) > 250
        for model in products:
            self.assert_writes_like_the_frozen_writer(model)


class TestShippedFixtures:
    def test_every_fixture_parses_and_round_trips(self):
        for path in sorted(FIXDIR.iterdir()):
            text = path.read_text()
            if path.suffix in (".fst", ".sfst"):
                model = parse_model(text)
                assert parse_model(serialize_model(model)) == model
            elif path.suffix == ".trc":
                parse_trace(text)
            elif path.suffix == ".vtrc":
                parse_valued_trace(text)
            elif path.suffix == ".prot":
                load_protocol(path)
