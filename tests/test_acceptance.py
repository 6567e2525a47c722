"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance (depths, counts, seeds, time budgets) is pinned here.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from cohmin import algebra, coherence, kernel, symbolic
from cohmin.frontend import cli_main, load_model, load_protocol, parse_trace
from cohmin.kernel import Signature, mkround
from cohmin.protocol import monitor
from cohmin.symbolic import ValuedRound, expand, expand_valued_trace, sfst_run

import naive_algebra
from helpers import (
    FIXDIR,
    SIG2,
    SIG3,
    bounded_language_subset,
    bruteforce_coherent_union,
    empty_protocol,
    iterator_map,
    linear_protocol_shaped,
    random_transducer,
    step,
    universal_protocol,
)

R = mkround


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_iterator_map_reproduction():
    with criterion("1 iterate-map reproduction (13 -> 7 coherent, 12 bisim)"):
        start = time.monotonic()
        machine, proto = iterator_map()
        assert len(machine.states) == 13

        mini, log = symbolic.sfst_coherent_minimize(machine, proto)
        assert len(mini.states) == 7
        classes = {frozenset(c) for c in coherence.merge_classes(log)}
        assert classes == {
            frozenset({"D", "F"}),
            frozenset({"0", "B", "H", "J", "L"}),
            frozenset({"C", "M"}),
        }

        bis = coherence.bisim_minimize(machine)
        assert len(bis.states) == 12
        bis_classes = {frozenset(c)
                       for c in coherence.bisim_partition(machine)
                       if len(c) > 1}
        assert bis_classes == {frozenset({"C", "M"})}
        assert time.monotonic() - start < 5.0


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_2_attack_detection():
    with criterion("2 attack detection (legal OK / attack VIOLATION@2)"):
        display = load_protocol(FIXDIR / "display.prot")
        legal = parse_trace((FIXDIR / "display_legal.trc").read_text())
        attack = parse_trace((FIXDIR / "display_attack.trc").read_text())
        assert monitor(display, legal).ok

        verdict = monitor(display, attack)
        assert not verdict.ok
        assert verdict.index == 2
        # exactly the moves enabled after [q5, r2]
        state = display.initial
        for v in attack[:2]:
            (state,) = step(display, state, v)
        assert verdict.expected == display.enabled(state)
        assert verdict.expected == {R({"d2"}), R({"q1"})}

        code, out = run_cli("monitor", "--protocol", str(FIXDIR / "display.prot"),
                            "--trace", str(FIXDIR / "display_legal.trc"))
        assert code == 0 and out.strip() == "OK"
        code, out = run_cli("monitor", "--protocol", str(FIXDIR / "display.prot"),
                            "--trace", str(FIXDIR / "display_attack.trc"))
        assert code == 3 and out.startswith("VIOLATION index=2")


def test_criterion_3_soundness_suite():
    with criterion("3 soundness of quotienting (200 random pairs, depth 8)"):
        start = time.monotonic()
        rng = random.Random(93)
        failures = 0
        for _ in range(200):
            sig = rng.choice([SIG2, SIG3])
            T = random_transducer(rng, sig, 6, 10)
            P = random_transducer(rng, sig, 4, 10, "p")
            for a, b in coherence.equivalence_pairs(T, P).sorted_pairs():
                q = coherence.quotient(T, a, b)
                if not coherence.coherent_equiv_bounded(T, q, P, 8):
                    failures += 1
        assert failures == 0
        assert time.monotonic() - start < 60.0


def test_criterion_4_greatest_fixpoint_oracle():
    with criterion("4 greatest fixpoint equals enumeration oracle (500x3)"):
        rng = random.Random(17)
        protocols = [
            empty_protocol(SIG2),
            universal_protocol(SIG2),
            linear_protocol_shaped(SIG2),
        ]
        for _ in range(500):
            T = random_transducer(rng, SIG2, 4, 8)
            for P in protocols:
                assert coherence.coherent_simulation(T, P).pairs == \
                    bruteforce_coherent_union(T, P)


def test_criterion_5_forked_reader_separation():
    with criterion("5 forked reader: coherent 4 vs bisim 5"):
        fork = load_model(FIXDIR / "forked_reader.fst")
        proto = load_protocol(FIXDIR / "linear_protocol.fst")
        mini, log = coherence.coherent_minimize(fork, proto)
        assert len(mini.states) == 4
        assert ("P", "Q") in log
        assert len(coherence.bisim_minimize(fork).states) == 5
        assert coherence.coherent_equiv_bounded(fork, mini, proto, 8)


def test_criterion_6_algebra_soundness():
    with criterion("6 algebra soundness (100 pairs per operation)"):
        start = time.monotonic()
        rng = random.Random(58)

        for _ in range(100):
            A = random_transducer(rng, SIG3, 4, 10, "a")
            B = random_transducer(rng, SIG3, 4, 10, "b")
            got = kernel.traces_upto(algebra.intersect(A, B), 6).traces
            want = kernel.traces_upto(A, 6).traces & kernel.traces_upto(B, 6).traces
            assert got == want

        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        sigb = Signature(frozenset({"b"}), frozenset({"c"}))
        for _ in range(100):
            A = random_transducer(rng, siga, 4, 8, "a")
            B = random_transducer(rng, sigb, 4, 8, "b")
            got = kernel.traces_upto(algebra.interact(A, B), 4).traces
            oracle = naive_algebra.traceset_interact(
                kernel.traces_upto(A, 4), kernel.traces_upto(B, 4)).traces
            assert got == {t for t in oracle if len(t) <= 4}

        for _ in range(100):
            A = random_transducer(rng, siga, 4, 8, "a")
            B = random_transducer(rng, sigb, 4, 8, "b")
            got = kernel.traces_upto(algebra.compose(A, B), 4).traces
            oracle = naive_algebra.traceset_compose(
                kernel.traces_upto(A, 4), kernel.traces_upto(B, 4)).traces
            assert got == {t for t in oracle if len(t) <= 4}
        assert time.monotonic() - start < 120.0


def test_criterion_7_compositionality():
    with criterion("7 compositionality of coherent equivalence (50 instances)"):
        rng = random.Random(71)
        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        sigb = Signature(frozenset({"b"}), frozenset({"c"}))
        done = 0
        while done < 50:
            T = random_transducer(rng, siga, 5, 9, "t")
            P = random_transducer(rng, siga, 3, 7, "p")
            pairs = coherence.equivalence_pairs(T, P).sorted_pairs()
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            T2 = coherence.quotient(T, a, b)
            T3 = random_transducer(rng, sigb, 4, 8, "u")
            P2 = random_transducer(rng, sigb, 3, 7, "q")
            left = algebra.compose(T, T3)
            right = algebra.compose(T2, T3)
            joint_protocol = algebra.compose(P, P2)
            assert coherence.coherent_equiv_bounded(
                left, right, joint_protocol, 4)
            done += 1


def test_criterion_8_subset_lemma():
    with criterion("8 quotient subset lemma (100 arbitrary quotients, depth 6)"):
        rng = random.Random(84)
        done = 0
        while done < 100:
            T = random_transducer(rng, SIG3, 6, 10)
            states = sorted(T.states)
            if len(states) < 2:
                continue
            s1, s2 = rng.sample(states, 2)
            q = coherence.quotient(T, s1, s2)
            assert bounded_language_subset(T, q, 6)
            done += 1


def test_criterion_9_sfst_adequacy():
    with criterion("9 adder adequacy (runs + expansion agreement on 500)"):
        machine = load_model(FIXDIR / "adder.sfst")
        VR = ValuedRound.of
        assert sfst_run(machine, [VR({"x": 2}), VR({"x": 3}), VR({"r": 5})])
        for v in range(-4, 5):
            assert not sfst_run(machine, [VR({"x": 2}), VR({"x": -3}), VR({"r": v})])

        exp = expand(machine, -2, 2)
        rng = random.Random(29)
        for _ in range(500):
            trace = []
            for _ in range(rng.randint(0, 4)):
                port = rng.choice(["x", "r"])
                trace.append(VR({port: rng.randint(-2, 2)}))
            assert exp.accepts(expand_valued_trace(machine, trace)) == \
                bool(sfst_run(machine, trace))


def test_criterion_10_limit_cases():
    with criterion("10 limit protocols (empty trivial, universal = bisim)"):
        rng = random.Random(35)
        # empty protocol: any single quotient is coherently equivalent
        empty = empty_protocol(SIG2)
        done = 0
        while done < 50:
            T = random_transducer(rng, SIG2, 5, 9)
            states = sorted(T.states)
            if len(states) < 2:
                continue
            s1, s2 = rng.sample(states, 2)
            assert coherence.coherent_equiv_bounded(
                T, coherence.quotient(T, s1, s2), empty, 8)
            done += 1
        # universal protocol on deterministic machines: agrees with bisim
        universal = universal_protocol(SIG2)
        for _ in range(50):
            T = random_transducer(rng, SIG2, 5, 10, deterministic=True)
            mini, _ = coherence.coherent_minimize(T, universal)
            bis = coherence.bisim_minimize(T)
            assert len(mini.states) == len(bis.states)
            assert algebra.bounded_language_equal(mini, bis, 8)
