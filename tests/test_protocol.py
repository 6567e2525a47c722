import io
import itertools
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

from cohmin import algebra, kernel, protocol
from cohmin.errors import ParseError, UnknownLabel
from cohmin.frontend import cli_main, load_protocol, parse_regex, parse_trace
from cohmin.frontend.fileformat import MAX_DEPTH
from cohmin.frontend.trace import TraceReader
from cohmin.kernel import Signature, Transducer, mkround
from cohmin.protocol import compile_regex, monitor

import naive_protocol
from helpers import (
    FIXDIR,
    assert_position_automaton,
    empty_protocol,
    iterator_map,
    random_regex,
    regex_prefix_member,
    step,
    universal_protocol,
)

R = mkround
AB = Signature(frozenset({"a", "b"}), frozenset())
DISPLAY = load_protocol(FIXDIR / "display.prot")
LEGAL = parse_trace((FIXDIR / "display_legal.trc").read_text())
ATTACK = parse_trace((FIXDIR / "display_attack.trc").read_text())


class TestParseRegex:
    def test_structure(self):
        got = parse_regex("(a b)*")
        assert isinstance(got, protocol.Star)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_regex("a + + b")
        assert err.value.line == 1

    def test_repeated_stars_fold(self):
        assert parse_regex("a***") == parse_regex("((a*)*)*") == parse_regex("a*")

    def test_nesting_bound(self):
        # the deepest tree the bound admits: three nodes per parenthesis
        deepest = "(a + b " * MAX_DEPTH + ")*" * MAX_DEPTH
        sig = Signature(frozenset({"a", "b"}), frozenset())
        tree = parse_regex(deepest)
        assert_position_automaton(compile_regex(tree, sig), tree)
        with pytest.raises(ParseError) as err:
            parse_regex("(" * (MAX_DEPTH + 1) + "a" + ")" * 200)
        assert (err.value.line, err.value.column) == (1, MAX_DEPTH + 1)

    def test_unknown_label_on_compile(self):
        sig = Signature(frozenset({"a"}), frozenset())
        with pytest.raises(UnknownLabel):
            compile_regex(parse_regex("a q"), sig)


class TestCompileRegex:
    SIG = Signature(frozenset({"a"}), frozenset({"b"}))

    def test_alternating_pair(self):
        got = compile_regex(parse_regex("(a b)*"), self.SIG)
        assert_position_automaton(got, parse_regex("(a b)*"))
        assert kernel.traces_upto(got, 4).traces == {
            (), (R({"a"}),), (R({"a"}), R({"b"})),
            (R({"a"}), R({"b"}), R({"a"})),
            (R({"a"}), R({"b"}), R({"a"}), R({"b"})),
        }

    def test_single_literal_prefix_closure(self):
        got = compile_regex(parse_regex("a"), self.SIG)
        assert kernel.traces_upto(got, 3).traces == {(), (R({"a"}),)}

    def test_iterator_map_regex_depth3(self):
        machine, proto = iterator_map()
        traces = kernel.traces_upto(proto, 3).traces
        mk = lambda *moves: tuple(R({m}) for m in moves)
        assert mk("r") in traces
        assert mk("r", "q_more") in traces
        assert mk("r", "q_more", "b_more") in traces
        assert mk("q_more") not in traces

    def test_derivative_oracle_on_random_regexes(self):
        rng = random.Random(505)
        labels = ["a", "b", "c"]
        sig = Signature(frozenset({"a"}), frozenset({"b", "c"}))
        for _ in range(50):
            r = random_regex(rng, labels)
            compiled = compile_regex(r, sig)
            for k in range(4):
                for seq in itertools.product(labels, repeat=k):
                    want = regex_prefix_member(r, seq)
                    got = compiled.accepts(tuple(R({x}) for x in seq))
                    assert got == want, (r, seq)


def tail_regex(k: int) -> str:
    """``(a + b)* a (a + b)^k``: 2k + 3 positions, while its subset
    construction has 2^(k+1) states."""
    return "(a + b)* a" + " (a + b)" * k


# `minimize --policy coherent` of a one-state machine and `monitor` of 10^4
# seeded rounds under the k = 40 tail protocol, in process: 1.6 s and a
# 3.7 MiB tracemalloc peak, under tracing (Python 3.11, x86-64 Linux).  At
# k = 18 the subset construction this compilation once ran exhausted 400 MB.
TAIL_SECONDS = 30
TAIL_PEAK_MB = 32

# tracemalloc peak of `monitor` under the k = 20 tail protocol over 10^5
# random {a}/{b} rounds: 2.0 MiB with at most ``MONITOR_ROWS`` rows
# (Python 3.11, x86-64 Linux); keeping a row for every subset met held
# 208 MB over 10^5 rounds.
MONITOR_PEAK_MB = 16


class TestPositionAutomaton:
    def test_names_the_start_and_each_position(self):
        # positions a0 b1 a2 c3 a4 a5 b6 c7; c7 leads only into the empty
        # language (an empty alternation), so it is dropped
        tree = protocol.Alt((parse_regex("(a + b) a + c (a a)* b"),
                             protocol.Cat((protocol.Lit("c"), protocol.Alt(())))))
        got = compile_regex(tree, Signature(frozenset({"a", "b", "c"}), frozenset()))
        assert got.initial == "P0"
        assert {s: sorted(map(sorted, got.enabled(s))) for s in got.states} == {
            "P0": [["a"], ["b"], ["c"]], "P1": [["a"]], "P2": [["a"]], "P3": [],
            "P4": [["a"], ["b"]], "P5": [["a"]], "P6": [["a"], ["b"]], "P7": []}
        assert got.out("P0")[R({"c"})] == ("P4",)
        assert_position_automaton(got, tree)

    def test_keeps_the_nondeterminism_of_the_regex(self):
        tree = parse_regex(tail_regex(2))
        got = compile_regex(tree, AB)
        assert len(got.states) == 8 and len(got.out("P0")[R({"a"})]) == 2
        assert_position_automaton(got, tree)
        assert kernel.traces_upto(got, 5).traces == \
            kernel.traces_upto(algebra.determinize(got), 5).traces

    def test_a_long_tail_minimizes_and_monitors_in_little_time_and_memory(self, tmp_path):
        tree = parse_regex(tail_regex(40))
        assert len(compile_regex(tree, AB).states) == 84   # 83 positions and the start
        prot, model, trace = (str(tmp_path / n) for n in ("p.prot", "m.fst", "t.trc"))
        (tmp_path / "p.prot").write_text(f"alphabet a, b;\nregex {tail_regex(40)};\n")
        (tmp_path / "m.fst").write_text("signature in a; out b;\nstates s;\ninitial s;\n"
                                        "trans s -> s : {a};\ntrans s -> s : {b};\n")
        rng = random.Random(2640)
        (tmp_path / "t.trc").write_text("".join(rng.choice(("{a}\n", "{b}\n"))
                                                for _ in range(10**4)))
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                codes = [cli_main(["minimize", "--policy", "coherent", "--protocol", prot,
                                   model]),
                         cli_main(["monitor", "--protocol", prot, "--trace", trace])]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seconds = perf_counter() - t0
        assert codes == [0, 0] and err.getvalue() == ""
        assert out.getvalue().endswith("OK\n")
        assert seconds < TAIL_SECONDS and peak / 2**20 < TAIL_PEAK_MB


class TestMonitor:
    def test_legal_ten_move_trace(self):
        verdict = monitor(DISPLAY, LEGAL)
        assert verdict.ok

    def test_attack_trace(self):
        verdict = monitor(DISPLAY, ATTACK)
        assert not verdict.ok
        assert verdict.index == 2
        assert verdict.offending == R({"d4"})
        assert verdict.expected == {R({"d2"}), R({"q1"})}

    def test_empty_trace_is_ok(self):
        assert monitor(DISPLAY, ()).ok

    def test_monitor_iff_accepts(self):
        for trace in kernel.traces_upto(DISPLAY, 8, cap=10**6).traces:
            assert monitor(DISPLAY, trace).ok
        assert not monitor(DISPLAY, (R({"q5"}), R({"q5"}))).ok

    def test_nondeterministic_protocol_determinised(self):
        sig = Signature(frozenset({"a"}), frozenset())
        P = Transducer(
            sig, frozenset({"n0", "n1", "n2"}), "n0",
            frozenset([("n0", R({"a"}), "n1"), ("n0", R({"a"}), "n2"),
                       ("n1", R({"a"}), "n0")]),
        )
        assert monitor(P, (R({"a"}), R({"a"}))).ok

    def test_rows_stay_bounded_on_a_long_random_trace(self):
        """Nearly every round of a random {a}/{b} trace enters a new subset of
        the k = 20 tail automaton.  The frozen monitor would determinise it
        to 2^21 states first, so it checks a one-state protocol of the same
        language instead."""
        P = compile_regex(parse_regex(tail_regex(20)), AB)
        D = Transducer(AB, {"u"}, "u", [("u", R({"a"}), "u"), ("u", R({"b"}), "u")])
        assert algebra.bounded_language_equal(P, D, 10)
        rng = random.Random(2641)
        legal = [rng.choice((R({"a"}), R({"b"}))) for _ in range(10**5)]
        attack = legal[:90_000] + [R(set())] + legal[90_000:]
        tracemalloc.start()
        try:
            verdict = monitor(P, legal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < MONITOR_PEAK_MB
        assert verdict == naive_protocol.monitor(D, legal) == protocol.Verdict("OK")
        verdict = monitor(P, attack)
        assert verdict == naive_protocol.monitor(D, attack)
        assert verdict.render() == "VIOLATION index=90000 round={} expected={{a},{b}}"

    def test_restarted_rows_agree_with_the_frozen_monitor(self, monkeypatch):
        """With room for two rows, the table starts afresh on most rounds;
        verdicts on raw lines and on rounds still match the frozen monitor,
        which determinises the k = 6 tail automaton whole."""
        monkeypatch.setattr(protocol, "MONITOR_ROWS", 2)
        P = compile_regex(parse_regex(tail_regex(6)), AB)
        rng = random.Random(2642)
        lines = ["{a}", "{b}", " {a} # x", "", "# c"]
        for _ in range(60):
            text = "\n".join(rng.choice(lines) for _ in range(rng.randint(0, 300)))
            if rng.random() < 0.7:
                text += rng.choice(["\n{}", "\n{a, b}"]) + "\n{a}" * rng.randint(0, 3)
            want = naive_protocol.monitor(P, naive_protocol.parse_trace(text))
            assert monitor(P, TraceReader(text)) == want
            assert monitor(P, naive_protocol.parse_trace(text)) == want

    def test_random_walks_and_corruptions(self):
        rng = random.Random(606)
        machine, proto = iterator_map()
        rounds = sorted({v for _, v, _ in proto.delta}, key=kernel.round_key)
        for _ in range(40):
            state = proto.initial
            trace = []
            for _ in range(rng.randint(1, 10)):
                enabled = sorted(proto.enabled(state), key=kernel.round_key)
                if not enabled:
                    break
                v = rng.choice(enabled)
                trace.append(v)
                (state,) = step(proto, state, v)
            assert monitor(proto, tuple(trace)).ok
            if not trace:
                continue
            idx = rng.randrange(len(trace))
            prefix_state = proto.initial
            for v in trace[:idx]:
                (prefix_state,) = step(proto, prefix_state, v)
            illegal = [v for v in rounds if v not in proto.enabled(prefix_state)]
            if not illegal:
                continue
            corrupted = list(trace)
            corrupted[idx] = rng.choice(illegal)
            verdict = monitor(proto, tuple(corrupted))
            assert not verdict.ok
            assert verdict.index == idx


class TestDisplayFixture:
    def test_terminate_immediately(self):
        assert DISPLAY.accepts((R({"q5"}), R({"d5"})))

    def test_repeated_argument_queries(self):
        moves = ["q5", "r2", "q1", "n1", "q1", "n1", "d2", "d5"]
        assert DISPLAY.accepts(tuple(R({m}) for m in moves))

    def test_answer_before_question_rejected(self):
        assert not DISPLAY.accepts((R({"d5"}),))

    def test_restart_after_completion(self):
        moves = ["q5", "d5", "q5", "d5"]
        assert DISPLAY.accepts(tuple(R({m}) for m in moves))


class TestIteratorMapFixture:
    def test_state_count(self):
        machine, _ = iterator_map()
        assert len(machine.states) == 13

    def test_protocol_language_shape(self):
        _, proto = iterator_map()
        mk = lambda *moves: tuple(R({m}) for m in moves)
        assert proto.accepts(mk("r", "r_init", "d_init", "q_more", "b_more"))
        assert proto.accepts(mk("r", "q_f1", "q_f2", "m_f2", "m_f1", "d"))
        assert not proto.accepts(mk("r", "q_f1", "q_v"))
        assert not proto.accepts(mk("r", "r_init", "d_next"))


class TestCanonicalProtocols:
    def test_universal_enables_everything(self):
        sig = Signature(frozenset({"a"}), frozenset({"b"}))
        P = universal_protocol(sig)
        assert P.enabled("u") == {frozenset(), R({"a"}), R({"b"}), R({"a", "b"})}

    def test_empty_protocol_language(self):
        sig = Signature(frozenset({"a"}), frozenset({"b"}))
        P = empty_protocol(sig)
        assert kernel.traces_upto(P, 5).traces == {()}
