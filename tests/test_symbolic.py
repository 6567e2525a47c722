import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cohmin import algebra, coherence, expansion, kernel, symbolic
from cohmin.errors import (
    DomainExceeded,
    NotAProtocol,
    Overflow,
    TypeMismatch,
    UnboundReference,
)
from cohmin.frontend import cli_main, load_model, parse_model
from cohmin.kernel import Signature, mkround
from cohmin.symbolic import (
    SFST,
    Bin,
    BoolLit,
    IntLit,
    Neg,
    Not,
    Port,
    Reg,
    STransition,
    TRUE,
    Update,
    ValuedRound,
    eval_expr,
    expand,
    expand_valued_trace,
    guard_equiv,
    is_symbolic_protocol,
    lift_transducer,
    normal_form,
    sfst_run,
)

from helpers import FIXDIR, PARALLEL_GUARDS, iterator_map

ADDER = load_model(FIXDIR / "adder.sfst")
VR = ValuedRound.of


class TestEvalExpr:
    def test_arithmetic(self):
        e = Bin("+", Reg("y"), Reg("z"))
        assert eval_expr(e, {"y": 2, "z": 3}) == 5

    def test_boolean_literal(self):
        assert eval_expr(BoolLit(True), {}) is True

    def test_guard_case(self):
        e = Bin(">", Bin("+", Reg("y"), Reg("z")), IntLit(0))
        assert eval_expr(e, {"y": 2, "z": -3}) is False

    def test_unbound(self):
        with pytest.raises(UnboundReference):
            eval_expr(Reg("q"), {})

    def test_type_error(self):
        with pytest.raises(TypeMismatch):
            eval_expr(Bin("+", IntLit(1), BoolLit(True)), {})

    def test_overflow_is_hard_error(self):
        big = IntLit(2**62)
        with pytest.raises(Overflow):
            eval_expr(Bin("*", big, IntLit(4)), {})


class TestSfstRun:
    def test_accepting_run(self):
        got = sfst_run(ADDER, [VR({"x": 2}), VR({"x": 3}), VR({"r": 5})])
        assert got == {("A", (("y", 2), ("z", 3)))}

    def test_guard_rejects(self):
        assert sfst_run(ADDER, [VR({"x": 2}), VR({"x": -3}), VR({"r": -1})]) \
            == frozenset()

    def test_empty_trace_zero_registers(self):
        assert sfst_run(ADDER, []) == {("A", (("y", 0), ("z", 0)))}

    def test_wrong_output_value_declines(self):
        assert sfst_run(ADDER, [VR({"x": 2}), VR({"x": 3}), VR({"r": 6})]) \
            == frozenset()

    def test_updates_read_pre_state(self):
        sig = Signature(frozenset({"x"}), frozenset())
        swap = SFST(
            sig, frozenset({"s"}), frozenset({"y", "z"}), "s",
            frozenset([STransition("s", mkround({"x"}), TRUE, frozenset({
                Update("y", Reg("z")), Update("z", Port("x")),
            }), "s")]),
        )
        got = sfst_run(swap, [VR({"x": 7}), VR({"x": 9})])
        assert got == {("s", (("y", 7), ("z", 9)))}

    def test_compiles_each_transition_once_per_run(self, monkeypatch):
        calls = []
        compile_expr = expansion.compile_expr
        monkeypatch.setattr(expansion, "compile_expr",
                            lambda *args: calls.append(1) or compile_expr(*args))
        rounds = [VR({"x": 2}), VR({"x": 3}), VR({"r": 5})]
        counts = []
        for repeat in (1, 300):
            calls.clear()
            assert sfst_run(ADDER, rounds * repeat) == {("A", (("y", 2), ("z", 3)))}
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_a_port_fired_without_a_value_stays_unbound(self):
        # the same transition, compiled first with x bound, then without
        with pytest.raises(UnboundReference) as err:
            sfst_run(ADDER, [VR({"x": 2}), VR({"x": 3}), VR({"r": 5}), VR({"x": None})])
        assert err.value.round_index == 3


_UPDATE_FAULT = """\
from cohmin.frontend import parse_model
from cohmin.symbolic import ValuedRound, sfst_run
T = parse_model("signature in x; out r;\\nstates A;\\nregisters y;\\ninitial A;\\n"
                "trans A -> A : {x, r} do r := x + 1, y := x * 9223372036854775807;\\n")
try:
    print(sfst_run(T, [ValuedRound.of({"x": 2, "r": 0})]))
except Exception as e:
    print(type(e).__name__, e, e.round_index)
"""


def test_an_update_fault_does_not_hide_behind_an_output_mismatch():
    """Every update is evaluated before a carried output is compared, so
    the run faults whatever order the hash seed gives ``tr.updates``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "4", "6", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _UPDATE_FAULT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"Overflow arithmetic overflow: 18446744073709551614 0\n"}


# Expands a transition whose register update leaves [-1..1] and whose
# output update reads an input that is no data port.
_EXPAND_FAULT = """\
from cohmin.frontend import parse_model
from cohmin.symbolic import expand
T = parse_model("signature in x; out r;\\nstates A;\\nregisters y;\\ninitial A;\\n"
                "trans A -> A : {x, r} do y := 1 + 1, r := x;\\n")
try:
    print(len(expand(T, -1, 1, data_ports=frozenset({"r"})).states))
except Exception as e:
    print(type(e).__name__, e)
"""


def test_expand_runs_updates_in_target_order():
    """``expand`` runs updates in the order of their targets, as ``sfst_run``
    does, so ``r := x`` faults before ``y := 2`` leaves the domain,
    whatever order the hash seed gives ``tr.updates``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3", "5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _EXPAND_FAULT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"UnboundReference unbound reference: 'x'\n"}


# Expands a state with two transitions that fail differently: each guard
# reads an input that is no data port; then, through the CLI, a state
# whose 5-input and 6-input transitions each need too many assignments.
_EXPAND_ORDER = """\
import contextlib, io, sys
from cohmin.frontend import cli_main, parse_model
from cohmin.symbolic import expand
T = parse_model("signature in a, b; out o;\\nstates A;\\ninitial A;\\n"
                "trans A -> A : {a} when a > 0;\\ntrans A -> A : {b} when b > 0;\\n")
try:
    print(len(expand(T, -1, 1, data_ports=frozenset()).states))
except Exception as e:
    print(type(e).__name__, e)
err = io.StringIO()
with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
    code = cli_main(["expand", "--lo", "-20", "--hi", "20", sys.argv[1]])
print(code, err.getvalue(), end="")
"""


def test_expand_tries_transitions_in_canonical_order(tmp_path):
    """``expand`` tries a state's transitions in ``_transition_key`` order,
    as ``sfst_run`` does, so the first of two faults it meets, and the
    assignment count of an exit-4 ``expand``, do not depend on the hash
    seed (``T.out`` order gave ``'b'`` under seeds 1 and 5, and
    ``4750104241`` assignments under seed 2)."""
    wide = tmp_path / "wide.sfst"
    wide.write_text("signature in a, b, c, d, e, f; out o;\nstates A;\ninitial A;\n"
                    "trans A -> A : {a, b, c, d, e} when a + b + c + d + e > 0;\n"
                    "trans A -> A : {a, b, c, d, e, f} when a + b + c + d + e + f > 0;\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _EXPAND_ORDER, str(wide)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"UnboundReference unbound reference: 'a'\n"
                       "4 resource limit: expansion needs 115856201 assignments of one "
                       "transition, more than 3000000\n"}


class TestGuardEquiv:
    def test_commutative_sort(self):
        a = Bin(">", Bin("+", Reg("y"), Reg("z")), IntLit(0))
        b = Bin(">", Bin("+", Reg("z"), Reg("y")), IntLit(0))
        assert guard_equiv(a, b, "structural")

    def test_reflexive(self):
        g = Bin("=", Reg("y"), IntLit(1))
        assert guard_equiv(g, g, "structural")
        assert guard_equiv(g, g, "bounded-semantic")

    def test_integer_semantics_on_test_domain(self):
        a = Bin(">", Reg("y"), IntLit(0))
        b = Bin(">=", Reg("y"), IntLit(1))
        assert not guard_equiv(a, b, "structural")
        assert guard_equiv(a, b, "bounded-semantic")

    def test_a_register_and_a_port_of_one_name_stay_apart(self):
        # the bounded-semantic loop reads both from one tuple of values
        diff = Bin("-", Reg("x"), Port("x"))
        assert not guard_equiv(Bin(">", Reg("x"), IntLit(0)),
                               Bin(">", Port("x"), IntLit(0)), "bounded-semantic")
        assert not guard_equiv(diff, IntLit(0), "bounded-semantic")
        assert guard_equiv(diff, Neg(Bin("-", Port("x"), Reg("x"))), "bounded-semantic")

    def test_constant_folding(self):
        a = Bin("and", BoolLit(True), Bin("<", IntLit(1), IntLit(2)))
        assert normal_form(a) == ("bool", True)

    def test_type_clash(self):
        with pytest.raises(TypeMismatch):
            guard_equiv(IntLit(1), BoolLit(True))

    def test_structural_sound_for_semantics(self):
        rng = random.Random(1234)
        regs = ["y", "z"]
        agree = 0
        for _ in range(1000):
            a = random_int_expr(rng, regs, 3)
            b = random_int_expr(rng, regs, 3)
            ga = Bin(">", a, IntLit(0))
            gb = Bin(">", b, IntLit(0))
            if guard_equiv(ga, gb, "structural"):
                agree += 1
                assert guard_equiv(ga, gb, "bounded-semantic", (-4, 4))
        assert agree > 0  # the generator does hit structural equalities

    OVERFLOWING = Bin(">", Bin("+", IntLit(2**63 - 1), IntLit(1)), IntLit(0))

    def test_a_fold_that_overflows_is_no_constant(self):
        g = self.OVERFLOWING
        assert not guard_equiv(g, TRUE, "structural")
        assert not guard_equiv(g, g, "structural")
        with pytest.raises(Overflow):
            guard_equiv(g, TRUE, "bounded-semantic")
        # strict evaluation reaches every operand, so no fold drops it
        for e in (Bin("and", BoolLit(False), g), Bin("or", g, BoolLit(True)),
                  Bin("*", Bin("-", IntLit(-2**63), IntLit(1)), IntLit(0)),
                  Neg(IntLit(-2**63)),
                  Bin("+", Bin("+", Reg("y"), IntLit(2**63 - 1)), IntLit(1))):
            assert normal_form(e)[0] == "refused", e
            assert normal_form(e) != normal_form(e)
        assert normal_form(Bin("+", IntLit(2**63 - 1), IntLit(0))) == ("int", 2**63 - 1)
        assert normal_form(Bin("+", Reg("y"), IntLit(2**63 - 1)))[0] == "sum"

    def test_bisim_keeps_apart_a_guard_that_overflows(self, tmp_path, capsys):
        path = tmp_path / "overflow.sfst"
        path.write_text("signature in a, b; out c;\nstates s0, s1, s2, s3;\ninitial s0;\n"
                        "trans s0 -> s1 : {a};\ntrans s0 -> s2 : {a};\n"
                        "trans s1 -> s3 : {b} when 9223372036854775807 + 1 > 0;\n"
                        "trans s2 -> s3 : {b};\n")
        assert cli_main(["minimize", "--policy", "bisim", str(path)]) == 0
        assert "states s0, s1, s2, s3;" in capsys.readouterr().out

    def test_structural_equality_only_where_evaluation_agrees(self):
        """On closed guards with constants near the 64-bit bounds, two
        guards are structurally equal only if both evaluate, without
        overflow, to the same value."""
        rng = random.Random(4100)
        near = [2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1, 2**62, -2**62, 1, 0, -1, 2, 3]
        seen = set()

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return IntLit(rng.choice(near))
            if rng.random() < 0.15:
                return Neg(expr(depth - 1))
            return Bin(rng.choice("+-*"), expr(depth - 1), expr(depth - 1))

        def guard():
            g = Bin(rng.choice(["<", "<=", "=", ">", ">="]), expr(3), expr(2))
            return Bin(rng.choice(["and", "or"]), g, guard()) if rng.random() < 0.3 else g

        def value(g):
            try:
                return eval_expr(g, {})
            except Overflow:
                return Overflow

        for _ in range(3000):
            a, b = guard(), guard()
            for x, y in ((a, b), (a, a), (a, Not(Not(a)))):
                same = guard_equiv(x, y, "structural")
                if same:
                    assert value(x) is not Overflow and value(x) == value(y), (x, y)
                seen.add((same, value(x) is Overflow))
        assert seen == {(True, False), (False, False), (False, True)}


def random_int_expr(rng, regs, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Reg(rng.choice(regs))
        return IntLit(rng.randint(-2, 2))
    op = rng.choice(["+", "+", "*", "-"])
    return Bin(op, random_int_expr(rng, regs, depth - 1),
               random_int_expr(rng, regs, depth - 1))


# Expands a machine whose transitions hold different least literals
# outside [-1..1] (5, 7, 3 and 4), the least of them all on the third.
_EXPAND_LITERALS = """\
from cohmin.frontend import parse_model
from cohmin.symbolic import expand
T = parse_model("signature in x; out r;\\nstates A, B;\\nregisters y;\\ninitial A;\\n"
                "trans A -> B : {x} when y < 5;\\ntrans B -> A : {x} do y := 7;\\n"
                "trans A -> A : {r} do r := 3 * 9;\\ntrans B -> B : {r} do r := y + 4;\\n")
try:
    expand(T, -1, 1)
except Exception as e:
    print(type(e).__name__, e)
"""


def test_expand_names_the_least_literal_of_the_whole_machine():
    """Of the literals outside the domain, ``expand`` names the least one
    of the whole machine, whatever order the hash seed gives ``T.delta``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _EXPAND_LITERALS], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"DomainExceeded literal 3 outside [-1..1]\n"}


class TestExpand:
    def test_guard_arithmetic(self):
        exp = expand(ADDER, -2, 2)
        ok = expand_valued_trace(ADDER, [VR({"x": 2}), VR({"x": -1}), VR({"r": 1})])
        bad = expand_valued_trace(ADDER, [VR({"x": 1}), VR({"x": -1}), VR({"r": 0})])
        assert exp.accepts(ok)
        assert not exp.accepts(bad)

    def test_no_registers_isomorphic_skeleton(self):
        sig = Signature(frozenset({"a"}), frozenset({"b"}))
        plain = SFST(
            sig, frozenset({"s0", "s1"}), frozenset(), "s0",
            frozenset([
                STransition("s0", mkround({"a"}), TRUE, frozenset(), "s1"),
                STransition("s1", mkround({"b"}), TRUE, frozenset(), "s0"),
            ]),
        )
        exp = expand(plain, -1, 1)
        assert len(exp.states) == 2
        assert len(exp.delta) == 2

    def test_a_lone_target_is_one_tuple_per_target(self):
        # over [-2..2] 15,750 of iterator_map's 19,000 rows hold one target
        exp = expand(load_model(FIXDIR / "iterator_map.sfst"), -2, 2)
        lone = [ts for row in exp._adj.values() for ts in row.values() if len(ts) == 1]
        assert len(lone) == 15750
        assert len({id(ts) for ts in lone}) == len({ts[0] for ts in lone}) == 1625

    def test_agrees_with_run_on_random_traces(self):
        rng = random.Random(99)
        exp = expand(ADDER, -2, 2)
        for _ in range(200):
            trace = random_adder_trace(rng, 4, -2, 2)
            assert exp.accepts(expand_valued_trace(ADDER, trace)) == \
                bool(sfst_run(ADDER, trace))

    def test_domain_must_contain_literals(self):
        sig = Signature(frozenset({"x"}), frozenset())
        big = SFST(
            sig, frozenset({"s"}), frozenset({"y"}), "s",
            frozenset([STransition("s", mkround({"x"}), TRUE,
                                   frozenset({Update("y", IntLit(5))}), "s")]),
        )
        with pytest.raises(DomainExceeded):
            expand(big, -2, 2)

    def test_state_cap(self):
        from cohmin.errors import ResourceLimit
        with pytest.raises(ResourceLimit):
            expand(ADDER, -2, 2, state_cap=3)

    def test_transition_cap(self, monkeypatch):
        # adder over [-2..2] keeps 147 transitions, and each of its
        # transitions enumerates 5 assignments (one data input) or 1
        from cohmin.errors import ResourceLimit
        assert len(expand(ADDER, -2, 2).delta) == 147
        monkeypatch.setattr(expansion, "EXPAND_TRANSITION_CAP", 146)
        with pytest.raises(ResourceLimit, match=r"^expansion exceeded 146 transitions$"):
            expand(ADDER, -2, 2)
        monkeypatch.setattr(expansion, "EXPAND_TRANSITION_CAP", 4)
        with pytest.raises(ResourceLimit, match=r"^expansion needs 5 assignments of one "
                                                r"transition, more than 4$"):
            expand(ADDER, -2, 2)

    def test_fixtures_fit_the_caps(self):
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix in (".fst", ".sfst"):
                model = parse_model(path.read_text())
                lifted = model if isinstance(model, SFST) else lift_transducer(model)
                exp = expand(lifted, -4, 4)
                if path.name == "iterator_map.sfst":
                    assert (len(exp.states), len(exp.delta)) == (9477, 202662)
        # the widest domain the caps are set for: over [-8..8] the expansion
        # keeps 2,348,414 transitions (too slow to run here); its labels and
        # each transition's assignments are counted as expand counts them
        machine, _ = iterator_map()
        data = machine.data_ports()
        width = 17
        assert sum(width if p in data else 1 for p in machine.signature.universe) \
            <= symbolic.EXPAND_LABEL_CAP
        for tr in machine.delta:
            free = (tr.round & machine.signature.outputs & data) - {u.target for u in tr.updates}
            k = len(tr.round & machine.signature.inputs & data) + len(free)
            assert width ** k <= symbolic.EXPAND_TRANSITION_CAP
        assert 2_348_414 < symbolic.EXPAND_TRANSITION_CAP

    def test_compiles_each_reached_transition_once(self, monkeypatch):
        calls = []
        compile_expr = expansion.compile_expr
        monkeypatch.setattr(expansion, "compile_expr",
                            lambda *args: calls.append(1) or compile_expr(*args))
        machine, _ = iterator_map()
        counts = []
        for lo, hi in ((-1, 1), (-2, 2)):
            calls.clear()
            expand(machine, lo, hi)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_iterator_map_expansion_adequacy(self):
        machine, _ = iterator_map()
        exp = expand(machine, -1, 1)
        data = machine.data_ports()
        labels = sorted(machine.signature.universe)
        rng = random.Random(512)
        for _ in range(200):
            trace = []
            for _ in range(rng.randint(0, 4)):
                port = rng.choice(labels)
                value = rng.randint(-1, 1) if port in data else None
                trace.append(ValuedRound.of({port: value}))
            assert exp.accepts(expand_valued_trace(machine, trace)) == \
                bool(sfst_run(machine, trace))


def random_adder_trace(rng, max_len, lo, hi):
    trace = []
    for _ in range(rng.randint(0, max_len)):
        port = rng.choice(["x", "r"])
        trace.append(VR({port: rng.randint(lo, hi)}))
    return trace


# Builds two machines, each with several faults, and prints the error each
# raises: three transitions that each double an update, and three register
# names that are not labels.
_THREE_FAULTS = """\
from cohmin.kernel import Signature
from cohmin.symbolic import SFST, STransition, TRUE, IntLit, Update
sig = Signature(frozenset({"a"}), frozenset({"b"}))
doubled = frozenset(
    STransition("s0", frozenset({"a"}), TRUE,
                frozenset({Update(r, IntLit(1)), Update(r, IntLit(2))}), "s0")
    for r in ("y", "z", "w"))
for registers, delta in ((("y", "z", "w"), doubled), (("1y", "2z", "3w"), ())):
    try:
        SFST(sig, frozenset({"s0"}), frozenset(registers), "s0", frozenset(delta))
    except Exception as e:
        print(type(e).__name__, e)
"""


class TestSfstConstruction:
    def test_first_fault_does_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in ("1", "2", "3", "4", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", _THREE_FAULTS], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"TypeMismatch two updates for target 'w'\n"
                           "UnknownLabel unknown label: '1y'\n"}


class TestSymbolicProtocol:
    def test_control_only_protocol(self):
        _, proto = iterator_map()
        assert is_symbolic_protocol(lift_transducer(proto))

    def test_adder_is_not_a_protocol(self):
        assert not is_symbolic_protocol(ADDER)

    def test_identity_update_admitted(self):
        sig = Signature(frozenset({"x"}), frozenset())
        ident = SFST(
            sig, frozenset({"s"}), frozenset({"y"}), "s",
            frozenset([STransition("s", mkround({"x"}), TRUE,
                                   frozenset({Update("y", Reg("y"))}), "s")]),
        )
        assert is_symbolic_protocol(ident)


class TestSfstCoherence:
    def test_identity_pairs_always_included(self):
        machine, proto = iterator_map()
        rel = symbolic.sfst_coherent_simulation(machine, proto)
        for s in machine.states:
            assert (s, s) in rel

    def test_iterator_map_classes(self):
        machine, proto = iterator_map()
        pairs = symbolic.sfst_equivalence_pairs(machine, proto)
        got = {frozenset(p) for p in pairs.pairs}
        hubs = {"0", "B", "H", "J", "L"}
        expected = {frozenset(c) for c in itertools.combinations(sorted(hubs), 2)}
        expected |= {frozenset({"C", "M"}), frozenset({"D", "F"})}
        assert got == expected

    def test_guard_difference_blocks_pair(self):
        sig = Signature(frozenset({"x"}), frozenset())
        mk = lambda st, guard, tgt: STransition(st, mkround({"x"}), guard,
                                                frozenset(), tgt)
        two = SFST(
            sig, frozenset({"a", "b", "sink"}), frozenset({"y"}), "a",
            frozenset([
                mk("a", Bin(">", Reg("y"), IntLit(0)), "sink"),
                mk("b", Bin(">", Reg("y"), IntLit(1)), "sink"),
            ]),
        )
        proto = lift_transducer(kernel.Transducer(
            sig, frozenset({"p"}), "p",
            frozenset([("p", mkround({"x"}), "p")]),
        ))
        rel = symbolic.sfst_coherent_simulation(two, proto, mode="structural")
        assert ("a", "b") not in rel and ("b", "a") not in rel

    def test_protocol_check(self):
        machine, _ = iterator_map()
        with pytest.raises(NotAProtocol):
            symbolic.sfst_coherent_simulation(machine, ADDER)


class TestSfstMinimize:
    def test_iterator_map_counts(self):
        machine, proto = iterator_map()
        mini, log = symbolic.sfst_coherent_minimize(machine, proto)
        assert len(machine.states) == 13
        assert len(mini.states) == 7
        bis = coherence.bisim_minimize(machine)
        assert len(bis.states) == 12

    @pytest.mark.parametrize("mode", ["structural", "bounded-semantic"])
    def test_merge_loop_builds_no_machine(self, monkeypatch, mode):
        """Six recomputed merges run on the first fixpoint's index merged by
        the log: the one machine built is the final fold, an SFST.  Its
        unreachable states are read off its transitions, building no
        ``Transducer``."""
        machine, proto = iterator_map()
        builds = Counter()
        for cls in (kernel.Transducer, SFST):
            monkeypatch.setattr(cls, "__post_init__", lambda self, post=cls.__post_init__:
                                builds.update([type(self).__name__]) or post(self))
        outcomes = Counter()
        mini, _ = coherence.coherent_minimize(
            machine, proto, on_merge=lambda log, outcome, folded: outcomes.update([outcome]),
            mode=mode)
        assert len(mini.states) == 7 and outcomes == {"not a bisimulation": 6}
        assert builds == {"SFST": 1}

    def test_coherent_simulation_builds_no_control_skeleton(self, monkeypatch):
        calls = []
        control_skeleton = SFST.control_skeleton
        monkeypatch.setattr(SFST, "control_skeleton",
                            lambda self: calls.append(self) or control_skeleton(self))
        machine, proto = iterator_map()
        for mode in ("structural", "bounded-semantic"):
            coherence.coherent_simulation(machine, proto, mode)
        assert calls == []
        # a symbolic protocol is read as its own control skeleton
        symbolic_proto = lift_transducer(proto)
        coherence.coherent_simulation(machine, symbolic_proto)
        assert calls == [symbolic_proto]

    def test_bisim_partition_builds_no_control_skeleton(self, monkeypatch):
        calls = []
        control_skeleton = SFST.control_skeleton
        monkeypatch.setattr(SFST, "control_skeleton",
                            lambda self: calls.append(1) or control_skeleton(self))
        machine, _ = iterator_map()
        assert len(coherence.bisim_partition(machine)) == 12
        assert calls == []

    def test_parallel_guards_to_one_target(self, tmp_path, capsys):
        path = tmp_path / "parallel.sfst"
        path.write_text(PARALLEL_GUARDS)
        assert cli_main(["minimize", "--policy", "bisim", str(path)]) == 0
        assert capsys.readouterr().out == (
            "signature in a, b; out ;\nstates s0, s1, t;\nregisters y;\ninitial s0;\n"
            "trans s0 -> s1 : {a};\n"
            "trans s1 -> t : {b} when y < 0;\ntrans s1 -> t : {b} when y > 0;\n")
        assert sorted(map(sorted, coherence.bisim_partition(parse_model(PARALLEL_GUARDS)))) \
            == [["s0"], ["s1", "s2"], ["t", "u1", "u2"]]

    def test_register_set_never_changes(self):
        machine, proto = iterator_map()
        mini, _ = symbolic.sfst_coherent_minimize(machine, proto)
        assert mini.registers == machine.registers

    def test_both_modes_sound_against_expansion(self):
        machine, proto = iterator_map()
        lifted = lift_transducer(proto)
        data = machine.data_ports()
        exp_proto = expand(lifted, -1, 1, data_ports=data)
        base = algebra.intersect(expand(machine, -1, 1), exp_proto)
        for mode in ("structural", "bounded-semantic"):
            mini, _ = symbolic.sfst_coherent_minimize(machine, proto, mode=mode)
            reduced = algebra.intersect(expand(mini, -1, 1), exp_proto)
            assert algebra.bounded_language_equal(base, reduced, 6)

    def test_mode_shrink_only_shrinks(self):
        # structural equivalence is a subset of bounded-semantic equivalence,
        # so the structural-mode relation can only be smaller
        machine, proto = iterator_map()
        structural = symbolic.sfst_coherent_simulation(machine, proto).pairs
        semantic = symbolic.sfst_coherent_simulation(
            machine, proto, mode="bounded-semantic").pairs
        assert structural <= semantic
