import random
from collections import Counter

import pytest

from cohmin import algebra, coherence, kernel
from cohmin.errors import SameState, UnknownState
from cohmin.frontend import load_model, load_protocol, parse_model
from cohmin.kernel import Transducer, merge_states, mkround
from cohmin.symbolic import lift_transducer

import naive_coherence

from helpers import (
    FIXDIR,
    SFST_SIG,
    SIG2,
    SIG3,
    bounded_language_subset,
    bruteforce_coherent_union,
    empty_protocol,
    extendable_rounds,
    iterator_map,
    joint_reach,
    linear_protocol_shaped,
    protocol_extendable,
    random_sfst,
    random_transducer,
    ring,
    universal_protocol,
)

R = mkround
T1 = load_model(FIXDIR / "two_phase.fst")
FORK = load_model(FIXDIR / "forked_reader.fst")
PR = load_protocol(FIXDIR / "linear_protocol.fst")


def checked_reach(T, P):
    """``coherence.product_reach`` on the index of ``T``, checked against
    the independent ``helpers.extendable_rounds`` mapped to the same state
    and key ids (a plain machine's key is its round; rounds ``T`` never
    takes have no key), then read back as {state: rounds}."""
    index = coherence._index(T)
    states, _, rounds, initial = index
    assert states[initial] == T.initial and len(set(rounds)) == len(rounds)
    got = coherence.product_reach(index, P)
    oracle = extendable_rounds(T, P)
    assert got == [sum(1 << r for r, v in enumerate(rounds) if v in oracle[s])
                   for s in states]
    return {s: {v for r, v in enumerate(rounds) if b >> r & 1} for s, b in zip(states, got)}


class TestProductReach:
    def test_self_product(self):
        assert checked_reach(T1, T1) == {"s0": {R({"a"})}, "s1": {R({"b"})}}

    def test_empty_protocol(self):
        P = empty_protocol(T1.signature)
        assert checked_reach(T1, P) == {"s0": set(), "s1": set()}

    def test_fork_against_protocol(self):
        # the protocol ends at X2, so nothing extends a witness of the
        # states after the first a, and p3, q3 have no witness at all
        assert checked_reach(FORK, PR) == {
            "r0": {R({"i"})}, "P": {R({"a"})}, "Q": {R({"a"})},
            "p1": set(), "p2": set(), "p3": set(), "q1": set(), "q3": set(),
        }

    def test_matches_independent_search(self):
        rng = random.Random(21)
        for _ in range(40):
            T = random_transducer(rng, SIG3, 6, 12)
            P = random_transducer(rng, SIG3, 4, 10, "p")
            checked_reach(T, P)

    def test_protocol_rounds_the_machine_never_takes(self):
        P = universal_protocol(FORK.signature)
        taken = {v for _, v, _ in FORK.delta}
        assert extendable_rounds(FORK, P)["r0"] - taken
        # every reachable state may be extended by each round FORK takes
        assert checked_reach(FORK, P) == {
            s: (taken if s in FORK.reachable_states() else set())
            for s in FORK.states
        }

    def test_nondeterministic_protocol(self):
        # after {i} the protocol is in X1 or Y1: the a of X1 and the b of
        # Y1 both extend the witnesses of P and Q
        P = parse_model("""\
signature in a, i; out b;
states X0, X1, Y1, Z;
initial X0;
trans X0 -> X1 : {i};
trans X0 -> Y1 : {i};
trans X1 -> Z : {a};
trans Y1 -> Z : {b};
""")
        ext = checked_reach(FORK, P)
        assert ext["P"] == ext["Q"] == {R({"a"}), R({"b"})}
        assert ext["p1"] == ext["q1"] == set()


class TestProtocolExtendable:
    def test_dead_after_protocol_end(self):
        assert not protocol_extendable(FORK, PR, "p2", R({"b"}))

    def test_live_round(self):
        assert protocol_extendable(FORK, PR, "P", R({"a"}))

    def test_universal_protocol_everything_live(self):
        P = universal_protocol(FORK.signature)
        for s in FORK.reachable_states():
            for v in [R({"i"}), R({"a"}), R({"b"}), frozenset()]:
                assert protocol_extendable(FORK, P, s, v)


class TestCoherentSimulation:
    def test_asymmetric_pair(self):
        rel = coherence.coherent_simulation(FORK, PR)
        assert ("p1", "p2") in rel
        assert ("p2", "p1") not in rel

    def test_contains_identity(self):
        rng = random.Random(31)
        for _ in range(15):
            T = random_transducer(rng, SIG2, 4, 8)
            P = random_transducer(rng, SIG2, 3, 6, "p")
            rel = coherence.coherent_simulation(T, P)
            for s in T.states:
                assert (s, s) in rel

    def test_fork_mutual_pair(self):
        rel = coherence.coherent_simulation(FORK, PR)
        assert ("P", "Q") in rel and ("Q", "P") in rel

    def test_membership_reads_the_rows_without_building_the_pairs(self):
        """``in`` agrees with the listed pairs on every pair of states, and
        of names that are no state, and builds no set of pairs."""
        rng = random.Random(47)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 6, 14)
            P = random_transducer(rng, SIG2, 3, 6, "p")
            rel = coherence.coherent_simulation(T, P)
            listed = set(rel.sorted_pairs())
            names = sorted(T.states) + ["", "zz", "s", "s0 "]
            for a in names:
                for b in names:
                    assert ((a, b) in rel) == ((a, b) in listed) == ([a, b] in rel), (a, b)
            assert rel._pairs is None
            assert rel.pairs == listed


class TestEquivalencePairs:
    def test_fork_under_protocol(self):
        pairs = coherence.equivalence_pairs(FORK, PR)
        assert pairs.sorted_pairs() == [
            ("P", "Q"), ("p1", "q1"), ("p2", "p3"), ("p2", "q3"), ("p3", "q3"),
        ]

    def test_fork_under_universal(self):
        # the fork branch P needs a protocol-dead escape for (q1, p2); the
        # all-permitting protocol denies it, so {P, Q} falls apart while the
        # three dead states and {p1, q1} stay equivalent
        P = universal_protocol(FORK.signature)
        pairs = coherence.equivalence_pairs(FORK, P)
        assert pairs.sorted_pairs() == [
            ("p1", "q1"), ("p2", "p3"), ("p2", "q3"), ("p3", "q3"),
        ]

    def test_empty_protocol_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            T = random_transducer(rng, SIG2, 3, 6)
            P = empty_protocol(SIG2)
            assert coherence.coherent_simulation(T, P).pairs == \
                bruteforce_coherent_union(T, P)


def bruteforce_pairs(T, P):
    union = bruteforce_coherent_union(T, P)
    return {frozenset((a, b)) for a, b in union if a != b and (b, a) in union}


class TestQuotient:
    def test_merges_and_collapses(self):
        got = coherence.quotient(FORK, "P", "Q")
        assert len(got.states) == 7
        assert ("r0", R({"i"}), "P") in got.delta
        assert sum(1 for s, v, t in got.delta if s == "r0") == 1

    def test_language_only_grows(self):
        rng = random.Random(51)
        for _ in range(60):
            T = random_transducer(rng, SIG2, 5, 9)
            states = sorted(T.states)
            if len(states) < 2:
                continue
            s1, s2 = rng.sample(states, 2)
            q = coherence.quotient(T, s1, s2)
            assert bounded_language_subset(T, q, 6)

    def test_disjoint_pairs_commute(self):
        rng = random.Random(61)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 6, 9)
            states = sorted(T.states)
            if len(states) < 4:
                continue
            a, b, c, d = rng.sample(states, 4)
            one = coherence.quotient(coherence.quotient(T, a, b), c, d)
            two = coherence.quotient(coherence.quotient(T, c, d), a, b)
            assert one == two

    def test_errors(self):
        with pytest.raises(SameState):
            coherence.quotient(T1, "s0", "s0")
        with pytest.raises(UnknownState):
            coherence.quotient(T1, "s0", "zz")


class TestCoherentMinimize:
    def test_fork_reaches_four_states(self):
        mini, log = coherence.coherent_minimize(FORK, PR)
        assert len(mini.states) == 4
        assert ("P", "Q") in log
        assert coherence.coherent_equiv_bounded(FORK, mini, PR, 8)

    def test_empty_protocol_language_trivially_preserved(self):
        mini, _ = coherence.coherent_minimize(FORK, empty_protocol(FORK.signature))
        assert coherence.coherent_equiv_bounded(
            FORK, mini, empty_protocol(FORK.signature), 8)

    def test_merge_log_is_reproducible(self):
        a = coherence.coherent_minimize(FORK, PR)
        b = coherence.coherent_minimize(FORK, PR)
        assert a == b


# The machine that refutes the skip rule once proposed for the merge loop
# ("a and b have the same row and column, and the joint reach does not
# grow"): both hold at the first merge, (a, b), yet the merged machine's
# relation is not f(R).  a enters the ~-class {g, h, l} on {w} and b on
# {v}, so ~ is no bisimulation and the loop recomputes.
LEMMA_COUNTEREXAMPLE = parse_model("""\
signature in u, q, v, w; out z, zz;
states a, b, c, d, e, f, g, h, j, k, l;
initial c;
trans c -> a : {u}; trans c -> b : {u}; trans c -> d : {q};
trans a -> e : {v}; trans a -> h : {w}; trans a -> f : {w};
trans b -> e : {v}; trans b -> g : {v}; trans b -> f : {w};
trans d -> j : {v}; trans d -> k : {w}; trans d -> e : {v}; trans d -> f : {w};
trans e -> l : {z}; trans f -> l : {zz};
""")
LEMMA_PROTOCOL = parse_model("""\
signature in u, q, v, w; out z, zz;
states P0, P1, P2, P3, P4, P5, P6, P7;
initial P0;
trans P0 -> P1 : {u}; trans P0 -> P2 : {q}; trans P1 -> P4 : {v};
trans P1 -> P6 : {w}; trans P2 -> P3 : {v}; trans P2 -> P5 : {w};
trans P3 -> P7 : {z}; trans P5 -> P7 : {zz};
""")

# Merging s1 (reached) with s3 (not reached) makes s4 reachable, so the
# joint reach grows; s1, s3 and s4 form one class of a ~ that is a
# bisimulation, so the merge is still skipped, and the folded relation is
# the merged machine's (README, "Merging without recomputing").
REACH_GROWTH = parse_model("""\
signature in x; out y;
states s0, s1, s2, s3, s4;
initial s0;
trans s0 -> s1 : {x, y};
trans s1 -> s1 : {x};
trans s2 -> s4 : {y};
trans s3 -> s4 : {x};
trans s4 -> s1 : {x};
""")


def minimize_with_outcomes(T, P):
    """``coherent_minimize(T, P)`` and each merge's outcome; every skipped
    merge's folded relation is checked against a fresh fixpoint."""
    outcomes = []

    def hook(log, outcome, folded):
        outcomes.append(outcome)
        if folded is not None:
            merged = merge_states(T, coherence.merge_classes(log))
            assert folded == coherence.coherent_simulation(merged, P).pairs

    return coherence.coherent_minimize(T, P, on_merge=hook), outcomes


def fold(f, pairs):
    return {(f.get(x, x), f.get(y, y)) for x, y in pairs}


class TestSkipRule:
    def test_lemma_counterexample_recomputes(self):
        T, P = LEMMA_COUNTEREXAMPLE, LEMMA_PROTOCOL
        (_, log), outcomes = minimize_with_outcomes(T, P)
        assert log == [("a", "b"), ("a", "d"), ("g", "h"), ("g", "j"),
                       ("g", "k"), ("g", "l")]
        assert log == naive_coherence.coherent_minimize(T, P)[1]
        assert outcomes[0] == "not a bisimulation"
        assert "skip" not in outcomes
        # both conditions of the refuted rule hold at the first merge ...
        R = coherence.coherent_simulation(T, P).pairs
        for x in T.states:
            assert ((x, "a") in R) == ((x, "b") in R)
            assert (("a", x) in R) == (("b", x) in R)
        f = {"b": "a"}
        merged = merge_states(T, [{"a", "b"}])
        assert joint_reach(merged, P) == fold(f, joint_reach(T, P))
        # ... yet f(R) misses the pair that the loop merges next
        fresh = coherence.coherent_simulation(merged, P).pairs
        assert fresh - fold(f, R) == {("a", "d")}
        assert ("d", "a") in fresh

    def test_reach_growth_is_skipped(self):
        T, P = REACH_GROWTH, universal_protocol(REACH_GROWTH.signature)
        (mini, log), outcomes = minimize_with_outcomes(T, P)
        assert log == [("s1", "s3"), ("s1", "s4")]
        assert outcomes == ["skip", "skip"]
        assert (mini, log) == naive_coherence.coherent_minimize(T, P)
        merged = merge_states(T, [{"s1", "s3"}])
        before = fold({"s3": "s1"}, joint_reach(T, P))
        after = joint_reach(merged, P)
        assert before < after and ("s4", "u") in after - before

    def test_ring_runs_one_fixpoint(self, monkeypatch):
        names = [f"q{i * 7 % 257:03d}" for i in range(256)]
        T = ring(names)
        P = parse_model("signature in a; out b;\nstates p, q;\ninitial p;\n"
                        "trans p -> q : {a};\ntrans q -> p : {b};\n")
        calls, outcomes = [], Counter()
        simulation = coherence.coherent_simulation
        monkeypatch.setattr(coherence, "coherent_simulation",
                            lambda *args: calls.append(1) or simulation(*args))
        mini, log = coherence.coherent_minimize(
            T, P, on_merge=lambda log, outcome, folded: outcomes.update([outcome]))
        assert len(mini.states) == 2 and len(log) == 254
        assert len(calls) == 1
        assert outcomes == {"skip": 254}


def recomputations_checked(monkeypatch, T, P, mode="structural"):
    """``coherent_minimize(T, P)`` with the index of every recomputation
    checked as the loop runs it: ``coherence._fixpoint`` is wrapped, and
    each call after the first fixpoint must run on the index of the
    machine merged by the log so far (``kernel.merge_states``) as a cold
    ``_index`` / ``_key_index`` of it numbers it: the same states, initial
    state and (round, target) pairs per row, up to their order, and a
    fixpoint with the cold fixpoint's rows.  Returns the result and the
    number of recomputations."""
    fixpoint = coherence._fixpoint
    logs, runs = [], []

    def hook(log, outcome, folded):
        if outcome != "skip":
            logs.append(list(log))

    def checked(index, protocol):
        got = fixpoint(index, protocol)
        runs.append(index)
        if len(runs) > 1:   # a recomputation, after the merge logged last
            assert len(runs) == len(logs) + 1
            merged = merge_states(T, coherence.merge_classes(logs[-1]))
            cold_index, cold_protocol = coherence._views(merged, P, mode)
            states, moves, rounds, initial = index
            cold_states, cold_moves, cold_rounds, cold_initial = cold_index
            assert (states, initial) == (cold_states, cold_initial)
            assert [{(rounds[r], k) for r, k in row} for row in moves] == \
                [{(cold_rounds[r], k) for r, k in row} for row in cold_moves]
            assert got.rows() == fixpoint(cold_index, cold_protocol).rows()
        return got

    with monkeypatch.context() as m:
        m.setattr(coherence, "_fixpoint", checked)
        result = coherence.coherent_minimize(T, P, on_merge=hook, mode=mode)
    assert len(runs) == len(logs) + 1
    return result, len(logs)


class TestMergedIndex:
    """A recomputed merge runs on the last fixpoint's index merged by the
    merges made since, and builds no machine; checked, as it runs, against
    cold indices and fixpoints of the machine merged by
    ``kernel.merge_states``."""

    def test_counterexample(self, monkeypatch):
        (_, log), recomputed = recomputations_checked(
            monkeypatch, LEMMA_COUNTEREXAMPLE, LEMMA_PROTOCOL)
        assert len(log) == 6 and recomputed == 6

    def test_iterator_map(self, monkeypatch):
        machine, proto = iterator_map()
        outcomes = Counter()
        for mode in ("structural", "bounded-semantic"):
            (mini, log), recomputed = recomputations_checked(monkeypatch, machine, proto, mode)
            assert recomputed == 6 and len(log) == 6 and len(mini.states) == 7
            coherence.coherent_minimize(
                machine, proto, mode=mode,
                on_merge=lambda log, outcome, folded: outcomes.update([(mode, outcome)]))
        assert outcomes == {(mode, "not a bisimulation"): 6
                            for mode in ("structural", "bounded-semantic")}

    def test_random_plain_machines(self, monkeypatch):
        rng = random.Random(2400)
        recomputed = 0
        for _ in range(60):
            sig = rng.choice((SIG2, SIG3))
            T = random_transducer(rng, sig, 9, 20)
            for P in (universal_protocol(sig), random_transducer(rng, sig, 3, 8, "p")):
                result, count = recomputations_checked(monkeypatch, T, P)
                assert result == naive_coherence.coherent_minimize(T, P)
                recomputed += count
        assert recomputed > 50

    def test_random_symbolic_machines(self, monkeypatch):
        rng = random.Random(2500)
        recomputed = Counter()
        for _ in range(60):
            T = random_sfst(rng, 8, 18)
            for P in (universal_protocol(SFST_SIG),
                      lift_transducer(random_transducer(rng, SFST_SIG, 3, 6, "p"))):
                for mode in ("structural", "bounded-semantic"):
                    recomputed[mode] += recomputations_checked(monkeypatch, T, P, mode)[1]
        assert min(recomputed.values()) > 50


class TestBisimMinimize:
    def test_fork_baseline(self):
        got = coherence.bisim_minimize(FORK)
        assert len(got.states) == 5
        classes = {frozenset(c) for c in coherence.bisim_partition(FORK)}
        assert frozenset({"p1", "q1"}) in classes
        assert frozenset({"p2", "p3", "q3"}) in classes

    def test_already_minimal(self):
        assert coherence.bisim_minimize(T1) == T1

    def test_preserves_language(self):
        rng = random.Random(71)
        for _ in range(40):
            T = random_transducer(rng, SIG3, 5, 10)
            got = coherence.bisim_minimize(T)
            assert algebra.bounded_language_equal(T, got, 6)


class TestCoherentEquivBounded:
    def test_reflexive(self):
        assert coherence.coherent_equiv_bounded(FORK, FORK, PR, 8)

    def test_quotient_instance(self):
        q = coherence.quotient(FORK, "P", "Q")
        assert coherence.coherent_equiv_bounded(FORK, q, PR, 8)

    def test_separating_loop(self):
        extra = Transducer(T1.signature, T1.states, "s0",
                           T1.delta | {("s1", R({"a"}), "s1")})
        P = universal_protocol(T1.signature)
        assert not coherence.coherent_equiv_bounded(T1, extra, P, 2)

    def test_builds_no_product_and_no_transducer(self, monkeypatch):
        rng = random.Random(95)
        cases = []
        for _ in range(30):
            T = random_transducer(rng, SIG3, 6, 14)
            extra = (rng.choice(sorted(T.states)), R({"x"}), T.initial)
            U = Transducer(SIG3, T.states, T.initial, T.delta | {extra})
            cases += [(T, T, universal_protocol(SIG3)), (T, U, universal_protocol(SIG3))]
        builds = []
        build = Transducer.__post_init__

        def counted(self):
            builds.append(self)
            build(self)

        def refused(*args, **kwargs):
            raise AssertionError("intersect called")

        monkeypatch.setattr(Transducer, "__post_init__", counted)
        monkeypatch.setattr(algebra, "intersect", refused)
        verdicts = {coherence.coherent_equiv_bounded(T, U, P, 6) for T, U, P in cases}
        assert verdicts == {False, True}
        assert builds == []


class TestGreatestFixpointOracle:
    def test_small_census(self):
        rng = random.Random(81)
        protocols = [
            empty_protocol(SIG2),
            universal_protocol(SIG2),
            linear_protocol_shaped(SIG2),
        ]
        for _ in range(60):
            T = random_transducer(rng, SIG2, 4, 8)
            for P in protocols:
                assert coherence.coherent_simulation(T, P).pairs == \
                    bruteforce_coherent_union(T, P)


class TestProtocolMonotonicity:
    def test_universal_protocol_gives_smallest_relation(self):
        rng = random.Random(91)
        for _ in range(60):
            T = random_transducer(rng, SIG2, 5, 9)
            P1 = random_transducer(rng, SIG2, 3, 5, "p")
            P2 = universal_protocol(SIG2)
            assert bounded_language_subset(P1, P2, 8)
            rel_small = coherence.coherent_simulation(T, P1).pairs
            rel_big = coherence.coherent_simulation(T, P2).pairs
            assert rel_big <= rel_small

    def test_random_included_protocol_pairs(self):
        # whenever one protocol's language contains the other's (to depth 8),
        # the richer protocol yields the smaller relation
        rng = random.Random(92)
        hits = 0
        for _ in range(250):
            T = random_transducer(rng, SIG2, 5, 9)
            P1 = random_transducer(rng, SIG2, 3, 6, "p")
            P2 = random_transducer(rng, SIG2, 3, 6, "q")
            if not bounded_language_subset(P1, P2, 8):
                continue
            hits += 1
            rel_small = coherence.coherent_simulation(T, P1).pairs
            rel_big = coherence.coherent_simulation(T, P2).pairs
            assert rel_big <= rel_small
        assert hits >= 20  # the family really exercises the property


class TestSoundnessSuite:
    def test_every_equivalence_pair_is_sound(self):
        rng = random.Random(2024)
        for _ in range(60):
            T = random_transducer(rng, SIG3, 6, 10)
            P = random_transducer(rng, SIG3, 4, 10, "p")
            for a, b in coherence.equivalence_pairs(T, P).sorted_pairs():
                q = coherence.quotient(T, a, b)
                assert coherence.coherent_equiv_bounded(T, q, P, 8)


class TestUniversalProtocolLimit:
    def test_deterministic_matches_bisim(self):
        rng = random.Random(303)
        for _ in range(25):
            T = random_transducer(rng, SIG2, 5, 10, deterministic=True)
            P = universal_protocol(SIG2)
            mini, _ = coherence.coherent_minimize(T, P)
            bis = coherence.bisim_minimize(T)
            assert len(mini.states) == len(bis.states)
            assert algebra.bounded_language_equal(mini, bis, 8)

    def test_equivalence_is_mutual_similarity_with_equal_enabled(self):
        rng = random.Random(404)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 4, 8)
            P = universal_protocol(SIG2)
            for a, b in coherence.equivalence_pairs(T, P).sorted_pairs():
                assert T.enabled(a) == T.enabled(b)
