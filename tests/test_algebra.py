import random

import pytest

from cohmin import algebra, kernel
from cohmin.errors import SignatureMismatch
from cohmin.frontend import load_model, load_protocol
from cohmin.kernel import Signature, TraceSet, Transducer, mkround

import naive_algebra
from helpers import FIXDIR, SIG3, bounded_language_subset, random_transducer

R = mkround
T1 = load_model(FIXDIR / "two_phase.fst")
FORK = load_model(FIXDIR / "forked_reader.fst")
PR = load_protocol(FIXDIR / "linear_protocol.fst")


def lang(T, k):
    return kernel.traces_upto(T, k).traces


class TestIntersect:
    def test_idempotent_on_language(self):
        got = algebra.intersect(T1, T1)
        assert lang(got, 6) == lang(T1, 6)

    def test_fork_against_protocol(self):
        got = algebra.intersect(FORK, PR)
        assert lang(got, 3) == {
            (), (R({"i"}),), (R({"i"}), R({"a"})),
        }

    def test_empty_protocol_gives_epsilon(self):
        empty = Transducer(FORK.signature, frozenset({"e"}), "e", frozenset())
        got = algebra.intersect(FORK, empty)
        assert len(got.states) == 1
        assert not got.delta
        assert lang(got, 4) == {()}

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            algebra.intersect(T1, PR)

    def test_soundness_random(self):
        rng = random.Random(101)
        for _ in range(40):
            A = random_transducer(rng, SIG3, 4, 8, "a")
            B = random_transducer(rng, SIG3, 4, 8, "b")
            assert lang(algebra.intersect(A, B), 5) == lang(A, 5) & lang(B, 5)

    def test_keep_unreachable_retains_full_product(self):
        full = algebra.intersect(FORK, PR, keep_unreachable=True)
        assert len(full.states) == len(FORK.states) * len(PR.states)
        pruned = algebra.intersect(FORK, PR)
        assert pruned.states == full.reachable_states()
        assert pruned.delta == {tr for tr in full.delta if tr[0] in pruned.states}
        assert len(pruned.states) < len(full.states)


def relabel(T, mapping):
    sig = Signature(
        frozenset(mapping.get(x, x) for x in T.signature.inputs),
        frozenset(mapping.get(x, x) for x in T.signature.outputs),
    )
    return Transducer(
        sig, T.states, T.initial,
        frozenset(
            (s, frozenset(mapping.get(x, x) for x in v), t) for s, v, t in T.delta
        ),
    )


class TestInteract:
    def test_disjoint_universes_free_product(self):
        other = relabel(T1, {"a": "c", "b": "d"})
        other = Transducer(other.signature,
                           frozenset(f"u{s}" for s in other.states), "us0",
                           frozenset((f"u{s}", v, f"u{t}") for s, v, t in other.delta))
        joint = algebra.interact(T1, other)
        # both sides must step on every joint round: unions of one round each
        assert lang(joint, 1) == {(), (R({"a", "c"}),)}

    def test_full_sharing_equals_intersection(self):
        a = algebra.interact(T1, T1)
        b = algebra.intersect(T1, T1)
        assert algebra.bounded_language_equal(a, b, 5)

    def test_oracle_comparison_depth4(self):
        other = relabel(PR, {"i": "b", "a": "c", "b": "d"})
        joint = algebra.interact(T1, other)
        oracle = naive_algebra.traceset_interact(
            kernel.traces_upto(T1, 4), kernel.traces_upto(other, 4)
        )
        assert {t for t in lang(joint, 4)} == {
            t for t in oracle.traces if len(t) <= 4
        }

    def test_strict_polarity_clash(self):
        # b is an output of T1 but an input of the partner
        partner = Transducer(
            Signature(frozenset({"b"}), frozenset({"c"})),
            frozenset({"f"}), "f", frozenset([("f", R({"b"}), "f")]),
        )
        with pytest.raises(algebra.LabelClash):
            algebra.interact(T1, partner, strict_polarity=True)
        algebra.interact(T1, partner)  # polarity-blind by default


class TestProject:
    def test_identity_on_full_signature(self):
        assert algebra.project(T1, T1.signature) == T1

    def test_apply_definition(self):
        got = algebra.project(T1, T1.signature.restrict({"a"}))
        assert got.delta == {
            ("s0", R({"a"}), "s1"), ("s1", frozenset(), "s0"),
        }

    def test_transition_count_never_grows(self):
        rng = random.Random(3)
        for _ in range(20):
            T = random_transducer(rng, SIG3, 4, 9)
            keep = T.signature.restrict({"x"})
            assert len(algebra.project(T, keep).delta) <= len(T.delta)

    def test_functoriality(self):
        rng = random.Random(9)
        for _ in range(20):
            T = random_transducer(rng, SIG3, 4, 9)
            big = T.signature.restrict({"x", "y"})
            small = T.signature.restrict({"x"})
            assert algebra.project(algebra.project(T, big), small) == \
                algebra.project(T, small)


class TestCompose:
    def test_identity_forwarder(self):
        # forwarder reads b and emits c; composing hides b
        fwd = Transducer(
            Signature(frozenset({"b"}), frozenset({"c"})),
            frozenset({"f0", "f1"}), "f0",
            frozenset([("f0", R({"b"}), "f1"), ("f1", R({"c"}), "f0"),
                       ("f0", frozenset(), "f0"), ("f1", frozenset(), "f1")]),
        )
        got = algebra.compose(T1, fwd)
        assert got.signature.universe == {"a", "c"}
        oracle = naive_algebra.traceset_compose(
            kernel.traces_upto(T1, 4), kernel.traces_upto(fwd, 4)).traces
        assert lang(got, 4) == {t for t in oracle if len(t) <= 4}
        # the relabelled acknowledgment is observable after the hidden b
        assert (R({"a"}), frozenset(), R({"a", "c"})) in lang(got, 4)

    def test_no_shared_labels_no_transitions(self):
        dead = Transducer(Signature(frozenset({"k"}), frozenset()),
                          frozenset({"d"}), "d", frozenset())
        got = algebra.compose(T1, dead)
        oracle = naive_algebra.traceset_compose(
            kernel.traces_upto(T1, 3), kernel.traces_upto(dead, 3)
        )
        assert lang(got, 3) == {t for t in oracle.traces if len(t) <= 3}
        # the dead partner can never step, so only epsilon survives
        assert lang(got, 3) == {()}

    def test_composition_soundness_oracle(self):
        rng = random.Random(77)
        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        sigb = Signature(frozenset({"b2"}), frozenset({"c"}))
        for _ in range(25):
            A = random_transducer(rng, siga, 3, 6, "a")
            B = random_transducer(
                rng, Signature(frozenset({"b"}), frozenset({"c"})), 3, 6, "b")
            got = lang(algebra.compose(A, B), 4)
            oracle = naive_algebra.traceset_compose(
                kernel.traces_upto(A, 4), kernel.traces_upto(B, 4)
            ).traces
            assert got == {t for t in oracle if len(t) <= 4}


class TestTracesetOps:
    def test_epsilon_only(self):
        sa = TraceSet(Signature(frozenset({"a"}), frozenset()), frozenset({()}))
        sb = TraceSet(Signature(frozenset({"b"}), frozenset()), frozenset({()}))
        assert naive_algebra.traceset_interact(sa, sb).traces == {()}

    def test_disjoint_singletons_union_rounds(self):
        sa = TraceSet(Signature(frozenset({"a"}), frozenset()),
                      frozenset({(), (R({"a"}),)}))
        sb = TraceSet(Signature(frozenset({"b"}), frozenset()),
                      frozenset({(), (R({"b"}),)}))
        got = naive_algebra.traceset_interact(sa, sb).traces
        assert got == {(), (R({"a", "b"}),)}

    def test_symmetry(self):
        rng = random.Random(13)
        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        sigb = Signature(frozenset({"b"}), frozenset({"c"}))
        for _ in range(10):
            A = kernel.traces_upto(random_transducer(rng, siga, 3, 6, "a"), 3)
            B = kernel.traces_upto(random_transducer(rng, sigb, 3, 6, "b"), 3)
            assert naive_algebra.traceset_interact(A, B).traces == \
                naive_algebra.traceset_interact(B, A).traces

    def test_compose_with_stutter_closure(self):
        # a partner that only ever stutters keeps exactly the members of
        # theta that never fire a shared label, projected
        rng = random.Random(19)
        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        stutter = Transducer(Signature(frozenset({"b"}), frozenset({"c"})),
                             frozenset({"z"}), "z",
                             frozenset([("z", frozenset(), "z")]))
        for _ in range(10):
            A = random_transducer(rng, siga, 3, 7, "a")
            theta = kernel.traces_upto(A, 3)
            theta2 = kernel.traces_upto(stutter, 3)
            got = naive_algebra.traceset_compose(theta, theta2).traces
            keep = A.signature.restrict({"a"})
            want = {
                naive_algebra.project_trace(t, keep)
                for t in theta.traces
                if not any("b" in v for v in t)
            }
            assert got == want

    def test_compose_length_bound(self):
        rng = random.Random(15)
        siga = Signature(frozenset({"a"}), frozenset({"b"}))
        sigb = Signature(frozenset({"b"}), frozenset({"c"}))
        for _ in range(10):
            A = kernel.traces_upto(random_transducer(rng, siga, 3, 6, "a"), 3)
            B = kernel.traces_upto(random_transducer(rng, sigb, 3, 6, "b"), 3)
            bound = max(naive_algebra.max_length(A), naive_algebra.max_length(B))
            for t in naive_algebra.traceset_compose(A, B).traces:
                assert len(t) <= bound


class TestBoundedComparisons:
    def test_equal_reflexive(self):
        assert algebra.bounded_language_equal(FORK, FORK, 8)

    def test_detects_difference(self):
        extra = Transducer(
            T1.signature, T1.states, "s0",
            T1.delta | {("s1", R({"a"}), "s1")},
        )
        assert not algebra.bounded_language_equal(T1, extra, 2)
        assert bounded_language_subset(T1, extra, 6)
        assert not bounded_language_subset(extra, T1, 6)
        # the shortest witness, from either side
        assert algebra.distinguishing_trace(T1, extra, 1) is None
        assert algebra.distinguishing_trace(T1, extra, 2) == (R({"a"}), R({"a"}))
        assert algebra.distinguishing_trace(extra, T1, 5) == (R({"a"}), R({"a"}))
        # a protocol that never allows a second round hides the difference
        once = Transducer(T1.signature, frozenset({"p0", "p1"}), "p0",
                          frozenset({("p0", R({"a"}), "p1")}))
        assert algebra.distinguishing_trace(T1, extra, 5, once) is None

    def test_agrees_with_enumeration(self):
        rng = random.Random(21)
        for _ in range(30):
            A = random_transducer(rng, SIG3, 4, 8, "a")
            B = random_transducer(rng, SIG3, 4, 8, "b")
            assert algebra.bounded_language_equal(A, B, 4) == \
                (lang(A, 4) == lang(B, 4))
            assert bounded_language_subset(A, B, 4) == \
                (lang(A, 4) <= lang(B, 4))
