"""The bitset coherence engine against the frozen naive oracle.

``naive_coherence`` is the original pair-scanning implementation; every
relation, equivalence list and merge log must come out identical.  The
ring tests at the end pin the merge-and-recompute loop on sizes the naive
engine could not reach in a test run.
"""

import random
from pathlib import Path

import pytest

from cohmin import coherence, protocol
from cohmin.coherence import CoherenceRelation
from cohmin.frontend import parse_model
from cohmin.frontend.fileformat import looks_like_regex_protocol, parse_regex_protocol
from cohmin.kernel import Transducer, mkround
from cohmin.protocol import empty_protocol, universal_protocol

import naive_coherence as naive
from helpers import SIG2, SIG3, linear_protocol_shaped, random_transducer, ring

FIXDIR = Path(__file__).parent.parent / "fixtures"


def ring_protocol(sig):
    _, regex = parse_regex_protocol("alphabet a, b;\nregex (a b)*;\n")
    return protocol.compile_regex(regex, sig)


def assert_same(T, P):
    new = coherence.coherent_simulation(T, P)
    old = naive.coherent_simulation(T, P)
    assert new.sorted_pairs() == old.sorted_pairs()
    assert new.pairs == old.pairs
    new_eq = coherence.equivalence_pairs(T, P, new)
    old_eq = naive.equivalence_pairs(T, P, old)
    assert new_eq.sorted_pairs() == old_eq.sorted_pairs()
    assert new_eq.pairs == old_eq.pairs
    assert bool(new_eq) == bool(old_eq)
    for keep in (False, True):
        assert coherence.coherent_minimize(T, P, keep) == \
            naive.coherent_minimize(T, P, keep)


def fixture_protocols(model):
    """Empty, universal, and every fixture file usable as a protocol."""
    sig = model.signature
    yield empty_protocol(sig)
    yield universal_protocol(sig)
    for path in sorted(FIXDIR.iterdir()):
        if path.suffix not in (".fst", ".prot"):
            continue
        text = path.read_text()
        if looks_like_regex_protocol(text):
            alphabet, regex = parse_regex_protocol(text)
            if frozenset(alphabet) == sig.universe:
                yield protocol.compile_regex(regex, sig)
        else:
            P = parse_model(text)
            if P.signature.universe == sig.universe:
                yield protocol.align_protocol(P, sig)


class TestAgainstNaiveOracle:
    def test_every_plain_fixture(self):
        models = [parse_model(p.read_text()) for p in sorted(FIXDIR.glob("*.fst"))]
        assert len(models) >= 3
        checked = 0
        for model in models:
            for P in fixture_protocols(model):
                assert_same(model, P)
                checked += 1
        assert checked > 2 * len(models)  # some fixture files act as protocols

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_random_machines(self, deterministic):
        rng = random.Random(1700 + deterministic)
        for _ in range(50):
            sig = rng.choice((SIG2, SIG3))
            T = random_transducer(rng, sig, 7, 14, deterministic=deterministic)
            for P in (empty_protocol(sig), universal_protocol(sig),
                      linear_protocol_shaped(sig),
                      random_transducer(rng, sig, 4, 10, "p")):
                assert_same(T, P)

    def test_rings_with_shuffled_names(self):
        rng = random.Random(1800)
        for n in (2, 4, 6, 10, 16, 20):
            names = [f"q{x:03d}" for x in rng.sample(range(1000), n)]
            T = ring(names)
            for P in (ring_protocol(T.signature), universal_protocol(T.signature),
                      empty_protocol(T.signature)):
                assert_same(T, P)
            # one extra transition breaks the symmetry of the ring
            a, b = rng.sample(names, 2)
            broken = Transducer(T.signature, T.states, T.initial,
                                 T.delta | {(a, mkround({"a"}), b)})
            assert_same(broken, ring_protocol(T.signature))

    def test_relation_given_as_pairs(self):
        # symbolic coherence builds its relation from a frozenset of pairs
        rng = random.Random(1900)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 6, 12)
            P = random_transducer(rng, SIG2, 3, 6, "p")
            old = naive.coherent_simulation(T, P)
            rel = CoherenceRelation(old.pairs, T, P)
            assert coherence.equivalence_pairs(T, P, rel).sorted_pairs() == \
                naive.equivalence_pairs(T, P, old).sorted_pairs()


def ring_names(n):
    """n names whose sorted order does not follow the ring's parity."""
    names = [f"s{i * 5 % (n + 1):03d}" for i in range(n)]
    assert len(set(names)) == n  # 5 is a unit modulo n + 1
    return names


class TestRingSmoke:
    def test_ring_16_pinned_log(self):
        T = ring(ring_names(16))
        mini, log = coherence.coherent_minimize(T, ring_protocol(T.signature))
        assert sorted(mini.states) == ["s000", "s001"]
        assert log == [
            ("s000", "s002"), ("s000", "s003"), ("s000", "s006"),
            ("s000", "s009"), ("s000", "s010"), ("s000", "s013"),
            ("s000", "s016"), ("s001", "s004"), ("s001", "s005"),
            ("s001", "s007"), ("s001", "s008"), ("s001", "s011"),
            ("s001", "s014"), ("s001", "s015"),
        ]

    def test_ring_256_folds_to_two_states(self):
        names = ring_names(256)
        T = ring(names)
        mini, log = coherence.coherent_minimize(T, ring_protocol(T.signature))
        classes = (set(names[0::2]), set(names[1::2]))
        assert sorted(mini.states) == sorted(min(c) for c in classes)
        assert len(log) == 254
        for keep, drop in log:
            assert any(keep in c and drop in c for c in classes)
            assert keep < drop
        assert len({drop for _, drop in log}) == 254
