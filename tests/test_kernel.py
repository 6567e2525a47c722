import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohmin import algebra, kernel, symbolic
from cohmin.errors import MissingInitial, ResourceLimit, UnknownLabel, UnknownState
from cohmin.frontend import load_model, serialize_model
from cohmin.kernel import (
    EMPTY_TRACE,
    Signature,
    TraceSet,
    Transducer,
    merge_states,
    mkround,
)
from cohmin.protocol import Alt, Cat, Lit, Star, Verdict
from cohmin.symbolic import (
    SFST,
    TRUE,
    Bin,
    BoolLit,
    IntLit,
    Neg,
    Not,
    Port,
    Reg,
    STransition,
    Update,
    ValuedRound,
)

import naive_algebra
from helpers import (
    FIXDIR,
    SIG2,
    SIG3,
    accepts,
    all_rounds,
    dualize,
    random_transducer,
    run,
    step,
    witness_traces_upto,
)

R = mkround
T1 = load_model(FIXDIR / "two_phase.fst")
FORK = load_model(FIXDIR / "forked_reader.fst")


class TestValidate:
    SIG = Signature(frozenset({"a"}), frozenset({"b"}))

    def test_minimal_legal_input(self):
        T = Transducer(self.SIG, {"s0", "s1"}, "s0",
                       [("s0", {"a"}, "s1"), ("s1", {"b"}, "s0")])
        assert T == T1

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel) as err:
            Transducer(self.SIG, {"s0"}, "s0", [("s0", {"c"}, "s0")])
        assert err.value.label == "c"

    def test_missing_initial(self):
        with pytest.raises(MissingInitial):
            Transducer(self.SIG, {"s0"}, "S9", [])

    def test_endpoint_not_in_states(self):
        with pytest.raises(UnknownState) as err:
            Transducer(self.SIG, {"s0"}, "s0", [("s0", {"a"}, "nowhere")])
        assert err.value.state == "nowhere"


class TestConstructorContract:
    """One fault each: the constructor reports it with the exception and
    message it always has; valid input in any iterable shape normalises
    to the same value and hash as the frozen form."""

    SIG = Signature(frozenset({"a"}), frozenset({"b"}))
    GOOD = [("s0", {"a"}, "s1"), ("s1", {"b"}, "s0"), ("s1", set(), "s1")]

    @pytest.mark.parametrize("states, initial, delta, error, message", [
        ({"s0", "s1"}, "s0", GOOD + [("s7", {"a"}, "s0")], UnknownState,
         "unknown state: 's7'"),
        ({"s0", "s1"}, "s0", GOOD + [("s0", {"b"}, "s7")], UnknownState,
         "unknown state: 's7'"),
        ({"s0", "s1"}, "s0", GOOD + [("s0", {"a", "c", "d"}, "s1")], UnknownLabel,
         "unknown label: 'c'"),
        ({"s0", "s1"}, "s9", GOOD, MissingInitial,
         "initial state 's9' is not in the state set"),
        (set(), "s0", [], UnknownState, "unknown state: '<empty state set>'"),
    ])
    def test_one_fault(self, states, initial, delta, error, message):
        for shape in (list, frozenset):
            rounds = [(s, frozenset(v), t) for s, v, t in delta]
            with pytest.raises(error) as err:
                Transducer(self.SIG, states, initial, shape(rounds))
            assert str(err.value) == message

    def test_any_iterable_shape_normalises(self):
        frozen = frozenset((s, frozenset(v), t) for s, v, t in self.GOOD)
        want = Transducer(self.SIG, frozenset({"s0", "s1"}), "s0", frozenset(frozen))
        shapes = [
            self.GOOD + self.GOOD[:2],                              # sets, doubled
            [(s, sorted(v), t) for s, v, t in self.GOOD * 2],       # lists
            [[s, tuple(v), t] for s, v, t in reversed(self.GOOD)],  # tuples
            frozenset((s, tuple(sorted(v)), t) for s, v, t in self.GOOD),
            iter(frozen),
        ]
        for delta in shapes:
            T = Transducer(self.SIG, ["s1", "s0", "s1"], "s0", delta)
            assert T == want and hash(T) == hash(want)
            assert T.delta == frozen and type(T.delta) is frozenset
            assert all(type(v) is frozenset for _, v, _ in T.delta)
            # each round maps to a tuple of distinct targets, in no fixed order
            rows = [ts for s in T.states for ts in T.out(s).values()]
            assert all(type(ts) is tuple and len(set(ts)) == len(ts) for ts in rows)
            assert {s: {v: set(ts) for v, ts in T.out(s).items()} for s in T.states} == \
                {"s0": {frozenset({"a"}): {"s1"}},
                 "s1": {frozenset({"b"}): {"s0"}, frozenset(): {"s1"}}}
        # a delta already in the frozen form is kept, not copied
        assert want.delta is frozen


class TestTrustedBuild:
    """``Transducer._trusted`` checks nothing; in the tests the autouse
    ``checked_trusted_builds`` fixture re-validates every trusted build,
    and it must reject a bad one."""

    SIG = Signature(frozenset({"a"}), frozenset({"b"}))
    A = frozenset({"a"})

    def build(self, adj):
        return Transducer._trusted(self.SIG, frozenset({"s0", "s1"}), "s0", adj)

    def test_a_good_build_equals_the_validating_one(self):
        T = self.build({"s0": {self.A: ("s1",)}})
        assert T == Transducer(self.SIG, {"s0", "s1"}, "s0", [("s0", self.A, "s1")])
        assert T.out("s0") == {self.A: ("s1",)} and T.out("s1") == {}

    def test_products_and_expansions_hold_only_the_index(self, checked_trusted_builds, monkeypatch):
        """A parsed model, a product, a projection and an expansion keep no
        transition set: ``delta`` is built from the index when it is first
        read, and kept.  Writing the machine, or projecting it, does not
        read it."""
        # the unchecked constructor: the fixture's check reads ``delta``
        monkeypatch.setattr(Transducer, "_trusted", checked_trusted_builds)
        T = load_model(FIXDIR / "two_phase.fst")
        P = algebra.intersect(T, T)
        built = [T, P, algebra.interact(T, T), algebra.compose(T, T),
                 algebra.project(P, T.signature.restrict({"a"})),
                 symbolic.expand(load_model(FIXDIR / "adder.sfst"), -2, 2)]
        for M in built:
            serialize_model(M)
            assert M._delta is None
            rebuilt = Transducer(M.signature, M.states, M.initial, M.delta)
            assert M._delta is M.delta and rebuilt == M
            assert {s: {v: set(ts) for v, ts in rebuilt.out(s).items()} for s in M.states} \
                == {s: {v: set(ts) for v, ts in M.out(s).items()} for s in M.states}
            assert pickle.loads(pickle.dumps(M)) == M and hash(M) == hash(rebuilt)

    @pytest.mark.parametrize("delta, adj, error", [
        # an unknown target
        ({("s0", A, "s7")}, {"s0": {A: ("s7",)}}, UnknownState),
        # a round with a stray label
        ({("s0", frozenset({"a", "c"}), "s1")},
         {"s0": {frozenset({"a", "c"}): ("s1",)}}, UnknownLabel),
        # a target repeated in one row
        ({("s0", A, "s1")}, {"s0": {A: ("s1", "s1")}}, AssertionError),
    ])
    def test_the_fixture_rejects_a_bad_build(self, checked_trusted_builds,
                                             delta, adj, error):
        with pytest.raises(error):
            self.build(adj)
        # the trusted constructor itself takes the bad parts as they are,
        # and its ``delta`` lists what the index holds
        bad = checked_trusted_builds(self.SIG, frozenset({"s0", "s1"}), "s0", adj)
        assert bad._adj is adj and bad.delta == frozenset(delta)


class TestRecord:
    """The value types (``kernel.Record``) keep a frozen dataclass's
    behaviour; the ``repr`` strings are those the dataclasses printed."""

    SIG = Signature(frozenset({"a"}), frozenset())
    T = Transducer(SIG, {"s0"}, "s0", [("s0", {"a"}, "s0")])
    TR = STransition("s0", {"a"}, TRUE, {Update("x", IntLit(1))}, "s0")

    def test_equality_is_per_class(self):
        items = (Lit("a"), Lit("b"))
        assert Cat(items) == Cat(items) and Alt(items) == Alt(items)
        assert Cat(items) != Alt(items)
        assert Neg(Reg("x")) != Not(Reg("x"))
        assert IntLit(1) != BoolLit(True)
        assert IntLit(1) != (1,) and Lit("a") != "a"
        assert Signature({"a"}, set()) == self.SIG

    def test_hash_is_over_the_fields(self):
        assert hash(IntLit(3)) == hash((3,))
        assert hash(Bin("+", Reg("x"), IntLit(1))) == hash(("+", Reg("x"), IntLit(1)))
        assert hash(self.T) == hash((self.SIG, self.T.states, "s0", self.T.delta))
        assert len({Neg(Reg("x")), Neg(Reg("x")), Not(Reg("x"))}) == 2

    def test_repr(self):
        sig = "Signature(inputs=frozenset({'a'}), outputs=frozenset())"
        tr = ("STransition(source='s0', round=frozenset({'a'}), "
              "guard=BoolLit(value=True), "
              "updates=frozenset({Update(target='x', expr=IntLit(value=1))}), "
              "target='s0')")
        assert repr(self.SIG) == sig
        assert repr(self.T) == (
            f"Transducer(signature={sig}, states=frozenset({{'s0'}}), "
            "initial='s0', delta=frozenset({('s0', frozenset({'a'}), 's0')}))")
        assert repr(TraceSet(self.SIG, {()})) == (
            f"TraceSet(signature={sig}, traces=frozenset({{()}}))")
        assert repr(Cat((Lit("a"), Star(Alt((Lit("b"), Lit("a"))))))) == (
            "Cat(items=(Lit(label='a'), "
            "Star(item=Alt(items=(Lit(label='b'), Lit(label='a'))))))")
        assert repr(Verdict("OK")) == (
            "Verdict(status='OK', index=None, offending=None, expected=None)")
        assert repr(Bin("+", Neg(Reg("x")), Not(BoolLit(True)))) == (
            "Bin(op='+', left=Neg(arg=Reg(name='x')), "
            "right=Not(arg=BoolLit(value=True)))")
        assert repr(Port("p")) == "Port(name='p')"
        assert repr(self.TR) == tr
        assert repr(SFST(self.SIG, {"s0"}, {"x"}, "s0", {self.TR})) == (
            f"SFST(signature={sig}, states=frozenset({{'s0'}}), "
            f"registers=frozenset({{'x'}}), initial='s0', delta=frozenset({{{tr}}}))")
        assert repr(ValuedRound(frozenset({("a", 3)}))) == (
            "ValuedRound(events=frozenset({('a', 3)}))")

    @pytest.mark.parametrize("name", ["inputs", "universe", "delta", "_adj", "other"])
    def test_immutable(self, name):
        value = self.SIG if name in ("inputs", "universe") else self.T
        with pytest.raises(AttributeError):
            setattr(value, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert not hasattr(value, "__dict__")

    def test_keyword_construction_and_defaults(self):
        assert Transducer(signature=self.SIG, states={"s0"}, initial="s0",
                          delta=[("s0", {"a"}, "s0")]) == self.T
        assert Transducer(self.SIG, {"s0"}, delta=self.T.delta, initial="s0") == self.T
        ok = Verdict("OK")
        assert (ok.index, ok.offending, ok.expected) == (None, None, None)
        assert Verdict(status="VIOLATION", index=2).index == 2
        for args, kwargs in [((), {}), ((1, 2), {}), ((1,), {"value": 2}),
                             ((1,), {"other": 2})]:
            with pytest.raises(TypeError):
                IntLit(*args, **kwargs)

    def test_copy_and_pickle(self):
        sfst = SFST(self.SIG, {"s0"}, {"x"}, "s0", {self.TR})
        for value in (self.T, sfst, Verdict("OK"), Bin("+", Reg("x"), IntLit(1))):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert twin == value and repr(twin) == repr(value)
        assert pickle.loads(pickle.dumps(self.T)).out("s0") == self.T.out("s0")

    def test_universe_is_derived_not_a_field(self):
        sig = Signature({"a"}, {"b"})
        assert sig.universe == {"a", "b"}
        assert sig == Signature(frozenset({"a"}), frozenset({"b"}))
        assert "universe" not in repr(sig)

    def test_replace_rebuilds_and_validates(self):
        renamed = self.T._replace(states={"s0", "s1"})
        assert renamed.states == {"s0", "s1"} and renamed.out("s1") == {}
        with pytest.raises(MissingInitial):
            self.T._replace(initial="s9")
        with pytest.raises(TypeError):
            self.T._replace(other=1)

    def test_merge_states_on_an_sfst(self):
        def tr(source, target):
            return STransition(source, {"a"}, TRUE, {Update("x", IntLit(1))}, target)

        sig = Signature({"a"}, set())
        M = SFST(sig, {"p", "q", "r"}, {"x"}, "q", {tr("q", "r"), tr("r", "q"), tr("p", "r")})
        got = merge_states(M, [{"q", "p"}])
        assert got == SFST(sig, {"p", "r"}, {"x"}, "p", {tr("p", "r"), tr("r", "p")})
        assert got.out("r") == [tr("r", "p")]


class TestStep:
    def test_step_on_enabled_round(self):
        assert step(T1, "s0", R({"a"})) == {"s1"}

    def test_step_on_missing_round(self):
        assert step(T1, "s0", R({"b"})) == frozenset()

    def test_step_nondeterministic(self):
        assert step(FORK, "r0", R({"i"})) == {"P", "Q"}

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            step(T1, "zz", R({"a"}))


class TestMoves:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_moves_is_step_set_on_every_subset(self, seed, deterministic):
        # up to 5 states and as few as no transitions, so that the empty
        # subset, dead states and unreachable states all occur
        rng = random.Random(seed)
        sig = rng.choice((SIG2, SIG3))
        T = random_transducer(rng, sig, 5, rng.randint(0, 12), deterministic=deterministic)
        states = sorted(T.states)
        for mask in range(1 << len(states)):
            S = frozenset(s for i, s in enumerate(states) if mask >> i & 1)
            moves = T.moves(S)
            assert moves.keys() == {v for s in S for v in T.enabled(s)}
            for v in all_rounds(sig):
                assert moves.get(v, frozenset()) == T.step_set(S, v)
                assert v not in moves or type(moves[v]) is frozenset and moves[v]

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            T1.moves({"s0", "zz"})


class TestDeterminize:
    def test_names_subsets_breadth_first_in_round_order(self):
        """``P0`` is the initial subset; the others are named in the order a
        breadth-first walk finds them, each subset's rounds in ``round_key``
        order.  It lives in ``algebra``, which no regex compilation loads."""
        sig = Signature(frozenset({"a"}), frozenset({"b"}))
        T = Transducer(sig, {"s0", "s1", "s2"}, "s0",
                       [("s0", R({"b"}), "s2"), ("s0", R({"a"}), "s1"), ("s0", R({"a"}), "s2"),
                        ("s1", R({"b"}), "s0"), ("s2", R({"a", "b"}), "s1")])
        assert algebra.determinize(T) == Transducer(sig, {"P0", "P1", "P2", "P3"}, "P0", [
            ("P0", R({"a"}), "P1"), ("P0", R({"b"}), "P2"), ("P1", R({"b"}), "P0"),
            ("P1", R({"a", "b"}), "P3"), ("P2", R({"a", "b"}), "P3"), ("P3", R({"b"}), "P0")])
        assert not hasattr(kernel, "determinize")


class TestRun:
    def test_empty_trace_stays_initial(self):
        assert run(T1, EMPTY_TRACE) == {"s0"}

    def test_two_steps(self):
        assert run(T1, (R({"a"}), R({"b"}))) == {"s0"}

    def test_dead_round(self):
        assert run(T1, (R({"b"}),)) == frozenset()


class TestAccepts:
    def test_epsilon_always_accepted(self):
        assert accepts(T1, EMPTY_TRACE)

    def test_single_step(self):
        assert accepts(T1, (R({"a"}),))

    def test_rejected(self):
        assert not accepts(T1, (R({"a"}), R({"a"})))


class TestTracesUpto:
    def test_depth_zero(self):
        assert kernel.traces_upto(T1, 0).traces == {EMPTY_TRACE}

    def test_depth_two(self):
        got = kernel.traces_upto(T1, 2).traces
        assert got == {EMPTY_TRACE, (R({"a"}),), (R({"a"}), R({"b"}))}

    def test_monotone_in_depth(self):
        rng = random.Random(11)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 4, 8)
            k = rng.randint(0, 3)
            assert kernel.traces_upto(T, k).traces <= kernel.traces_upto(T, k + 1).traces

    def test_stable_ordering(self):
        a = kernel.traces_upto(FORK, 3).sorted_traces()
        b = kernel.traces_upto(FORK, 3).sorted_traces()
        assert a == b

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            kernel.traces_upto(FORK, 3, cap=2)


class TestWitnessTraces:
    def test_initial_state_has_epsilon(self):
        assert witness_traces_upto(T1, "s0", 0).traces == {EMPTY_TRACE}

    def test_cycle_witnesses(self):
        got = witness_traces_upto(T1, "s1", 3).traces
        assert got == {(R({"a"}),), (R({"a"}), R({"b"}), R({"a"}))}

    def test_non_initial_at_depth_zero(self):
        assert witness_traces_upto(T1, "s1", 0).traces == frozenset()


class TestDualize:
    def test_swap(self):
        assert dualize(Signature(frozenset({"a"}), frozenset({"b"}))) == \
            Signature(frozenset({"b"}), frozenset({"a"}))

    def test_empty(self):
        empty = Signature(frozenset(), frozenset())
        assert dualize(empty) == empty

    def test_involution(self):
        sig = Signature(frozenset({"a", "c"}), frozenset({"b"}))
        assert dualize(dualize(sig)) == sig


class TestProjectTrace:
    SIG = Signature(frozenset({"a", "c"}), frozenset({"b"}))

    def test_apply_definition(self):
        keep = self.SIG.restrict({"a", "c"})
        assert naive_algebra.project_trace((R({"a", "b"}), R({"c"})), keep) == \
            (R({"a"}), R({"c"}))

    def test_identity_on_full_signature(self):
        t = (R({"a", "b"}), R({"c"}))
        assert naive_algebra.project_trace(t, self.SIG) == t

    def test_round_emptied_not_removed(self):
        keep = self.SIG.restrict({"a"})
        assert naive_algebra.project_trace((R({"b"}),), keep) == (frozenset(),)

    def test_not_a_sub_signature(self):
        other = Signature(frozenset({"zz"}), frozenset())
        with pytest.raises(kernel.SignatureMismatch):
            naive_algebra.project_trace((R({"a"}),), other, within=self.SIG)


class TestInvariants:
    def test_prefix_closure_random(self):
        rng = random.Random(23)
        for _ in range(30):
            T = random_transducer(rng, SIG2, 5, 9)
            traces = kernel.traces_upto(T, rng.randint(0, 8) % 5 + 2).traces
            for t in traces:
                if t:
                    assert t[:-1] in traces

    def test_epsilon_always_in_language(self):
        rng = random.Random(5)
        for _ in range(10):
            T = random_transducer(rng, SIG2, 5, 9)
            assert accepts(T, EMPTY_TRACE)

    def test_run_recurrence(self):
        rng = random.Random(7)
        for _ in range(25):
            T = random_transducer(rng, SIG2, 5, 9)
            for t, _ in [(x, None) for x in kernel.traces_upto(T, 3).traces]:
                for v in [R(set()), R({"x"}), R({"y"}), R({"x", "y"})]:
                    lhs = run(T, t + (v,))
                    rhs = frozenset().union(
                        *(step(T, s, v) for s in run(T, t))
                    ) if run(T, t) else frozenset()
                    assert lhs == rhs

    @given(st.lists(st.sets(st.sampled_from(["a", "b", "c"])), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_projection_preserves_length(self, rounds):
        sig = Signature(frozenset({"a"}), frozenset({"b", "c"}))
        t = tuple(mkround(v) for v in rounds)
        assert len(naive_algebra.project_trace(t, sig.restrict({"a", "b"}))) == len(t)
