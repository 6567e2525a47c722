import itertools
import random

import pytest

from cohmin import algebra, kernel, protocol
from cohmin.errors import ParseError, UnknownLabel
from cohmin.frontend import load_protocol, parse_regex, parse_trace
from cohmin.frontend.fileformat import MAX_DEPTH
from cohmin.kernel import Signature, Transducer, mkround
from cohmin.protocol import compile_regex, monitor

from helpers import (
    FIXDIR,
    empty_protocol,
    is_deterministic,
    iterator_map,
    random_regex,
    regex_prefix_member,
    step,
    universal_protocol,
)

R = mkround
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
        assert is_deterministic(compile_regex(parse_regex(deepest), sig))
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
        assert is_deterministic(got)
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
