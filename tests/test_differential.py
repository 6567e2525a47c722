"""The optimised engines against the frozen naive oracles.

``naive_coherence`` and ``naive_symbolic`` are the original pair-scanning
implementations, plain and symbolic; every relation, equivalence list,
merge log and minimised machine must come out identical.
``naive_algebra`` is the original full-product ``intersect``/``interact``/
``compose``; every product must come out identical to the on-the-fly walk.
``naive_protocol`` is the original regex compiler with its own subset
construction; the compiled protocols must have the same traces and drive
the coherence engine to the same relations and merge logs.  It also keeps
the original ``parse_trace`` and ``monitor``; every trace, parse error and
verdict must come out identical.  ``naive_reader`` is the original
statement scanner, header reader and state-list splitter; every statement
place, model and parse error must come out identical.
Every merge that ``coherent_minimize`` folds instead of recomputing is
checked against a fresh fixpoint of the merged machine.  The ring tests at
the end pin the merge loop on sizes the naive engine could not reach in a
test run.
"""

import io
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from cohmin import algebra, coherence, kernel, protocol, symbolic
from cohmin.coherence import CoherenceRelation
from cohmin.errors import (
    CohminError,
    LabelClash,
    NotAProtocol,
    Overflow,
    ParseError,
    ResourceLimit,
    SignatureMismatch,
)
from cohmin.frontend import (
    cli_main,
    load_model,
    load_protocol,
    parse_model,
    parse_regex,
    parse_trace,
    serialize_model,
    serialize_trace,
)
from cohmin.frontend import fileformat
from cohmin.frontend import trace as trace_reader
from cohmin.frontend.fileformat import looks_like_regex_protocol, parse_regex_protocol
from cohmin.kernel import Signature, Transducer, merge_states, mkround, round_key
from cohmin.symbolic import lift_transducer

import naive_algebra
import naive_coherence as naive
import naive_protocol
import naive_reader
import naive_symbolic
import naive_writer
from helpers import (
    FIXDIR,
    PARALLEL_GUARDS,
    SFST_SIG,
    SIG2,
    SIG3,
    accepts,
    all_rounds,
    assert_position_automaton,
    dualize,
    empty_protocol,
    fixture_machines,
    iterator_map,
    linear_protocol_shaped,
    random_regex,
    random_sfst,
    random_transducer,
    render_regex,
    ring,
    universal_protocol,
)


def ring_protocol(sig):
    _, regex = parse_regex_protocol("alphabet a, b;\nregex (a b)*;\n")
    return protocol.compile_regex(regex, sig)


def skips_checked(fresh, outcomes):
    """An ``on_merge`` for ``coherent_minimize`` that checks every skipped
    merge: its folded relation must equal ``fresh(classes)``, a new fixpoint
    of the machine merged along the log so far.  Each merge's outcome goes
    into ``outcomes``."""

    def on_merge(log, outcome, folded):
        outcomes[outcome] += 1
        if folded is not None:
            assert folded == fresh(coherence.merge_classes(log))

    return on_merge


def assert_same(T, P, outcomes=None):
    new = coherence.coherent_simulation(T, P)
    old = naive.coherent_simulation(T, P)
    assert new.sorted_pairs() == old.sorted_pairs()
    assert new.pairs == old.pairs
    new_eq = coherence.equivalence_pairs(T, P, new)
    old_eq = naive.equivalence_pairs(T, P, old)
    assert new_eq.sorted_pairs() == old_eq.sorted_pairs()
    assert new_eq.pairs == old_eq.pairs
    assert bool(new_eq) == bool(old_eq)

    def fresh(classes):
        return coherence.coherent_simulation(merge_states(T, classes), P).pairs

    on_merge = skips_checked(fresh, Counter() if outcomes is None else outcomes)
    for keep in (False, True):
        assert coherence.coherent_minimize(T, P, keep, on_merge=on_merge) == \
            naive.coherent_minimize(T, P, keep)


def fixture_protocols(model):
    """Empty, universal, and every fixture file usable as a protocol of
    ``model``, read as the CLI reads it."""
    sig = model.signature
    yield empty_protocol(sig)
    yield universal_protocol(sig)
    for path in sorted(FIXDIR.iterdir()):
        if path.suffix not in (".fst", ".prot"):
            continue
        if load_protocol(path).signature.universe == sig.universe:
            yield load_protocol(path, model)


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

    def test_merge_loop_on_many_machines(self):
        # only the merge loop, on enough machines that both ways out of
        # the skip test occur
        rng = random.Random(2500)
        outcomes = Counter()
        for i in range(400):
            sig = rng.choice((SIG2, SIG3))
            T = random_transducer(rng, sig, 7, 14, deterministic=i % 2 == 0)
            for P in (universal_protocol(sig), linear_protocol_shaped(sig),
                      random_transducer(rng, sig, 4, 10, "p")):
                def fresh(classes):
                    return coherence.coherent_simulation(
                        merge_states(T, classes), P).pairs

                on_merge = skips_checked(fresh, outcomes)
                assert coherence.coherent_minimize(T, P, on_merge=on_merge) == \
                    naive.coherent_minimize(T, P)
        assert outcomes["skip"] > 500
        assert outcomes["not interchangeable"] > 200
        assert outcomes["not a bisimulation"] > 0

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
        # a relation handed to equivalence_pairs is symmetrised from its rows
        rng = random.Random(1900)
        for _ in range(20):
            T = random_transducer(rng, SIG2, 6, 12)
            P = random_transducer(rng, SIG2, 3, 6, "p")
            old = naive.coherent_simulation(T, P)
            states = sorted(T.states)
            index = {s: i for i, s in enumerate(states)}
            rows = [0] * len(states)
            for a, b in old.pairs:
                rows[index[b]] |= 1 << index[a]
            rel = CoherenceRelation(states, rows)
            assert rel.pairs == old.pairs
            assert coherence.equivalence_pairs(T, P, rel).sorted_pairs() == \
                naive.equivalence_pairs(T, P, old).sorted_pairs()


GUARD_MODES = ("structural", "bounded-semantic")


def recording(calls, then=None):
    """An ``on_merge`` that appends each call's (log, outcome, folded) to
    ``calls`` and then calls ``then``, if given."""

    def on_merge(log, outcome, folded):
        calls.append((tuple(log), outcome, folded))
        if then is not None:
            then(log, outcome, folded)

    return on_merge


def assert_same_sfst(T, P, outcomes=None):
    """Symbolic engine and frozen symbolic oracle agree on (T, P), and the
    ``coherence`` entry points called on the SFST agree with the ``sfst_*``
    names; returns the relation per guard mode."""
    relations = {}
    outcomes = Counter() if outcomes is None else outcomes
    for mode in GUARD_MODES:
        new = symbolic.sfst_coherent_simulation(T, P, mode)
        old = naive_symbolic.sfst_coherent_simulation(T, P, mode)
        direct = coherence.coherent_simulation(T, P, mode)
        assert new.sorted_pairs() == old.sorted_pairs() == direct.sorted_pairs()
        assert new.pairs == old.pairs == direct.pairs
        new_eq = symbolic.sfst_equivalence_pairs(T, P, mode, new)
        old_eq = naive_symbolic.sfst_equivalence_pairs(T, P, mode, old)
        assert new_eq.sorted_pairs() == old_eq.sorted_pairs()
        assert symbolic.sfst_equivalence_pairs(T, P, mode).sorted_pairs() == \
            old_eq.sorted_pairs()

        def fresh(classes):
            return symbolic.sfst_coherent_simulation(
                merge_states(T, classes), P, mode).pairs

        on_merge = skips_checked(fresh, outcomes)
        for keep in (False, True):
            calls, direct_calls = [], []
            mini, log = symbolic.sfst_coherent_minimize(
                T, P, mode, keep, recording(calls, on_merge))
            old_mini, old_log = naive_symbolic.sfst_coherent_minimize(
                T, P, mode, keep)
            direct_mini, direct_log = coherence.coherent_minimize(
                T, P, keep, recording(direct_calls), mode)
            assert log == old_log == direct_log
            assert mini == old_mini == direct_mini
            assert calls == direct_calls
            assert serialize_model(mini) == serialize_model(old_mini) == \
                serialize_model(direct_mini)
        relations[mode] = new.pairs
    return relations


def assert_same_sfst_folds(T):
    """Bisimulation minimisation and single quotients agree with the
    oracle."""
    for keep in (False, True):
        assert serialize_model(coherence.bisim_minimize(T, keep)) == \
            serialize_model(naive_symbolic.sfst_bisim_minimize(T, keep))
    states = sorted(T.states)
    for a, b in zip(states, states[1:]):
        assert serialize_model(symbolic.sfst_quotient(T, b, a)) == \
            serialize_model(naive_symbolic.sfst_quotient(T, b, a))


def sfst_protocols(rng, sig):
    yield empty_protocol(sig)
    yield lift_transducer(universal_protocol(sig))
    for _ in range(2):
        yield lift_transducer(random_transducer(rng, sig, 3, 8, "p"))


class TestSymbolicAgainstNaiveOracle:
    def test_iterator_map(self):
        machine, proto = iterator_map()
        outcomes = Counter()
        relations = assert_same_sfst(machine, proto, outcomes)
        assert len(relations["structural"]) == 59
        # six merges in each guard mode, with and without unreachable
        # states, and every one recomputes
        assert outcomes == {"not a bisimulation": 24}
        # 16 labels: too many for the universal protocol
        assert_same_sfst(machine, empty_protocol(machine.signature))
        assert_same_sfst(machine, linear_protocol_shaped(machine.signature))
        assert_same_sfst_folds(machine)

    def test_adder(self):
        machine = load_model(FIXDIR / "adder.sfst")
        for P in sfst_protocols(random.Random(2000), machine.signature):
            assert_same_sfst(machine, P)
        assert_same_sfst_folds(machine)
        for a in sorted(machine.states):
            for b in sorted(machine.states):
                if a != b:
                    assert symbolic.sfst_quotient(machine, a, b) == \
                        naive_symbolic.sfst_quotient(machine, a, b)

    @pytest.mark.parametrize("guard, error", [
        ("y * 4611686018427387904 > 0", Overflow),
        ("y + z + w + v + u + t + x > 0", ResourceLimit),
    ])
    def test_lone_guard_errors(self, guard, error):
        # bounded-semantic mode evaluates every guard on the whole domain,
        # even one that no other transition is compared with
        machine = parse_model(
            "signature in x, a; out r;\nstates A, B;\n"
            "registers y, z, w, v, u, t;\ninitial A;\n"
            f"trans A -> B : {{x}} when {guard};\ntrans B -> A : {{a}};\n")
        P = universal_protocol(machine.signature)
        for engine in (symbolic, naive_symbolic):
            with pytest.raises(error):
                engine.sfst_coherent_simulation(machine, P, "bounded-semantic")
            with pytest.raises(error):
                engine.sfst_coherent_minimize(machine, P, "bounded-semantic")
        assert_same_sfst_folds(machine)
        assert symbolic.sfst_coherent_minimize(machine, P) == \
            naive_symbolic.sfst_coherent_minimize(machine, P)

    def test_plain_machine_under_a_symbolic_protocol(self):
        """A symbolic protocol is read as its control skeleton, whatever
        the machine; the guard mode does not matter for a plain machine."""
        rng = random.Random(2300)
        merges = 0
        for _ in range(40):
            T = random_transducer(rng, SIG2, 6, 12)
            skeleton = random_transducer(rng, SIG2, 3, 6, "p")
            P = lift_transducer(skeleton)
            for mode in GUARD_MODES:
                rel = coherence.coherent_simulation(T, P, mode)
                assert rel.sorted_pairs() == naive.coherent_simulation(T, skeleton).sorted_pairs()
                assert rel.pairs == naive_symbolic.sfst_coherent_simulation(
                    lift_transducer(T), P, mode).pairs
                assert symbolic.sfst_coherent_simulation(T, P, mode).pairs == rel.pairs
                mini, log = coherence.coherent_minimize(T, P, mode=mode)
                assert (mini, log) == naive.coherent_minimize(T, skeleton)
                merges += len(log)
        assert merges > 20

    def test_faults_are_reported_in_order(self):
        """On a machine and protocol with several faults: first a protocol
        that is not one, then a signature mismatch, then the keys'
        own faults, for every entry point and the oracle alike."""
        machine = parse_model(
            "signature in x, a; out r;\nstates A, B;\nregisters y;\ninitial A;\n"
            "trans A -> B : {x} when y * 4611686018427387904 > 0;\ntrans B -> A : {a};\n")
        other = Signature(frozenset({"x"}), frozenset({"r"}))
        guarded = parse_model("signature in x; out r;\nstates p;\nregisters y;\n"
                              "initial p;\ntrans p -> p : {x} when y > 0;\n")
        cases = [(guarded, NotAProtocol), (universal_protocol(other), SignatureMismatch),
                 (lift_transducer(universal_protocol(other)), SignatureMismatch),
                 (universal_protocol(machine.signature), Overflow),
                 (lift_transducer(universal_protocol(machine.signature)), Overflow)]
        for P, error in cases:
            for run in (partial(coherence.coherent_simulation, machine, P),
                        partial(coherence.coherent_minimize, machine, P),
                        partial(symbolic.sfst_coherent_simulation, machine, P),
                        partial(symbolic.sfst_coherent_minimize, machine, P),
                        partial(naive_symbolic.sfst_coherent_simulation, machine, P),
                        partial(naive_symbolic.sfst_coherent_minimize, machine, P)):
                with pytest.raises(error):
                    run(mode="bounded-semantic")

    def test_random_sfsts(self):
        rng = random.Random(2100)
        merges = modes_differ = 0
        outcomes = Counter()
        for _ in range(40):
            T = random_sfst(rng, 5, 10)
            for P in sfst_protocols(rng, SFST_SIG):
                relations = assert_same_sfst(T, P, outcomes)
                modes_differ += relations["structural"] != \
                    relations["bounded-semantic"]
                merges += len(symbolic.sfst_coherent_minimize(T, P)[1])
            assert_same_sfst_folds(T)
        # the pools must actually exercise merges and the two guard modes
        assert merges > 40
        assert modes_differ > 5
        assert outcomes["skip"] > 50 and outcomes["not interchangeable"] > 50


def blocks(partition):
    return {frozenset(block) for block in partition}


def product_shaped(rng, n=200, m=600, labels=("a", "b", "c")):
    """A nondeterministic machine shaped like the ``random-product``
    benchmark's: n states, m single-label transitions, every state
    reachable from the first."""
    names = [f"m{i:03d}" for i in range(n)]
    delta = {(names[rng.randrange(i)], mkround({rng.choice(labels)}), names[i])
             for i in range(1, n)}
    while len(delta) < m:
        delta.add((rng.choice(names), mkround({rng.choice(labels)}), rng.choice(names)))
    return Transducer(Signature(frozenset(labels), frozenset()), names, names[0], delta)


def assert_stable(index, partition):
    """``partition`` covers the states of the integer index ``index``
    (``coherence._index``, or ``symbolic._key_index``) and each of its
    blocks is stable: all members step on the same (key, target block)
    pairs."""
    states, moves, _, _ = index
    block = {s: i for i, b in enumerate(partition) for s in b}
    assert block.keys() == set(states) and sum(map(len, partition)) == len(states)
    out = dict(zip(states, moves))
    for b in partition:
        assert len({frozenset((r, block[states[k]]) for r, k in out[s]) for s in b}) == 1


class TestBisimulationAgainstNaiveOracle:
    """The integer refinement against the frozen name-keyed one, and the
    key-index partition of symbolic machines against the frozen
    per-(source, round, target) grouping."""

    def test_plain_partitions(self):
        rng = random.Random(3100)
        machines = fixture_machines() + [ring(ring_names(12))]
        machines += [random_transducer(rng, rng.choice((SIG2, SIG3)), 9, 18,
                                       deterministic=i % 2 == 0) for i in range(300)]
        machines += [product_shaped(rng) for _ in range(4)]
        merged = 0
        for T in machines:
            new = coherence.bisim_partition(T)
            assert blocks(new) == blocks(naive.bisim_partition(T))
            assert_stable(coherence._index(T), new)
            merged += len(new) < len(T.states)
        assert merged > 100

    def test_symbolic_partitions(self):
        rng = random.Random(3200)
        machines = [random_sfst(rng, 6, 14) for _ in range(300)]
        machines += [load_model(FIXDIR / "adder.sfst"), iterator_map()[0],
                     parse_model(PARALLEL_GUARDS)]
        parallel = coarser = 0
        for T in machines:
            new, old = blocks(coherence.bisim_partition(T)), \
                blocks(naive_symbolic.sfst_bisim_partition(T))
            edges = Counter((tr.source, tr.round, tr.target) for tr in T.delta)
            if max(edges.values(), default=0) < 2:
                assert new == old
                continue
            parallel += 1
            coarser += new != old
            assert all(any(b <= c for c in new) for b in old)
            assert_stable(symbolic._key_index(T, "structural"), list(new))
        assert parallel > 10 and coarser >= 1


def colliding_pairs():
    """A pair whose names ("x", "y,z") and ("x,y", "z") both render to
    "(x,y,z)", then 400 seeded pairs of machines with commas in their state
    names, many of whose product names collide."""
    a, b = mkround({"x"}), mkround({"y"})
    yield (Transducer(SIG2, frozenset({"i", "x", "x,y", "t"}), "i",
                      frozenset({("i", a, "x"), ("x,y", b, "t")})),
           Transducer(SIG2, frozenset({"j", "y,z", "z", "w"}), "j",
                      frozenset({("j", a, "y,z"), ("z", b, "w")})))
    rng = random.Random(2300)
    pool = ["x", "x,y", "y", "y,z", "z", ",", "x,", ",z"]
    rounds = all_rounds(SIG2)

    def machine():
        states = rng.sample(pool, rng.randint(1, 5))
        delta = {(rng.choice(states), rng.choice(rounds), rng.choice(states))
                 for _ in range(rng.randint(0, 8))}
        return Transducer(SIG2, frozenset(states), states[0], frozenset(delta))

    for _ in range(400):
        yield machine(), machine()


def random_product_pairs():
    """300 seeded pairs of random machines over the signatures of
    ``PRODUCT_SIGS``, a third of them on one signature."""
    rng = random.Random(2200)
    for _ in range(300):
        T = random_transducer(rng, rng.choice(PRODUCT_SIGS), 6, 14)
        U = random_transducer(rng, rng.choice(PRODUCT_SIGS), 6, 14, "u")
        if rng.random() < 0.3:
            U = random_transducer(rng, T.signature, 6, 14, "u")
        yield T, U


def assert_same_products(T, U):
    """intersect, interact and compose agree with the frozen full-product
    oracle on (T, U), with and without ``keep_unreachable``, errors too."""
    for keep in (False, True):
        if T.signature == U.signature:
            assert algebra.intersect(T, U, keep) == \
                naive_algebra.intersect(T, U, keep)
        else:
            for engine in (algebra, naive_algebra):
                with pytest.raises(SignatureMismatch):
                    engine.intersect(T, U, keep)
        assert algebra.interact(T, U, keep) == naive_algebra.interact(T, U, keep)
        assert algebra.compose(T, U, keep) == naive_algebra.compose(T, U, keep)
        for op in ("interact", "compose"):
            outcomes = []
            for engine in (algebra, naive_algebra):
                try:
                    outcomes.append(getattr(engine, op)(T, U, keep, True))
                except LabelClash as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1]


# x and y as in SIG2, w fresh: shared labels with equal, with mixed and with
# no polarity in common, and a signature whose only round is the empty one
PRODUCT_SIGS = (SIG2, SIG3, Signature(frozenset({"y"}), frozenset({"w"})),
                Signature(frozenset({"x", "w"}), frozenset()),
                Signature(frozenset(), frozenset()))


class TestProductsAgainstNaiveOracle:
    def test_every_fixture_pair(self):
        machines = fixture_machines()
        assert len(machines) >= 8
        for T in machines:
            for U in machines:
                assert_same_products(T, U)
            if len(T.signature.universe) > 8:
                continue  # too many labels for the universal protocol
            for P in fixture_protocols(T):
                assert_same_products(T, P)
                assert_same_products(P, T)

    def test_random_machines(self):
        unreachable = empty_rounds = clashes = 0
        for T, U in random_product_pairs():
            assert_same_products(T, U)
            unreachable += T.reachable_states() != T.states
            joint = algebra.interact(T, U, keep_unreachable=True)
            empty_rounds += any(not v for _, v, _ in joint.delta)
            clashes += bool((T.signature.inputs & U.signature.outputs)
                            | (T.signature.outputs & U.signature.inputs))
        assert unreachable > 50 and empty_rounds > 50 and clashes > 30

    def test_colliding_product_names(self):
        # ("x", "y,z") and ("x,y", "z") both render to "(x,y,z)": reaching
        # the name reaches both pairs, in the walk as in the full product
        (T, U), *pairs = colliding_pairs()
        # (i,j) reaches ("x", "y,z"); only ("x,y", "z") steps on to (t,w)
        assert algebra.intersect(T, U).states == {"(i,j)", "(x,y,z)", "(t,w)"}
        assert_same_products(T, U)
        collisions = 0
        for T, U in pairs:
            names = [algebra.product_state(a, b) for a in T.states for b in U.states]
            collisions += len(set(names)) < len(names)
            assert_same_products(T, U)
        assert collisions > 10

    def test_equiv_verdicts(self):
        rng = random.Random(2400)
        verdicts = set()
        for _ in range(60):
            sig = rng.choice((SIG2, SIG3))
            T = random_transducer(rng, sig, 6, 14)
            P = random_transducer(rng, sig, 4, 12, "p")
            if rng.random() < 0.5:
                fresh = {s: f"r{s}" for s in T.states}
                U = Transducer(sig, frozenset(fresh.values()), fresh[T.initial],
                               frozenset((fresh[a], v, fresh[b]) for a, v, b in T.delta))
            else:
                extra = (rng.choice(sorted(T.states)), rng.choice(all_rounds(sig)),
                         rng.choice(sorted(T.states)))
                U = Transducer(sig, T.states, T.initial, T.delta | {extra})
            for k in (2, 5):
                got = coherence.coherent_equiv_bounded(T, U, P, k)
                assert got == naive_algebra.coherent_equiv_bounded(T, U, P, k)
                verdicts.add(got)
        assert verdicts == {False, True}


PRODUCT_COMMANDS = [(command, keep) for command in ("intersect", "interact", "compose")
                    for keep in (False, True)]


class TestStreamedProducts:
    """``intersect``, ``interact`` and ``compose`` on the command line write
    each product row as the walk computes it, building no product; their
    output must be the text of the product the library builds."""

    @pytest.fixture(scope="class")
    def model_files(self, tmp_path_factory):
        """Every fixture pair and the seeded random pairs, each machine
        written to a file once."""
        root = tmp_path_factory.mktemp("products")
        paths = {}

        def path(M):
            if id(M) not in paths:
                paths[id(M)] = root / f"m{len(paths)}.fst"
                paths[id(M)].write_text(serialize_model(M))
            return str(paths[id(M)])

        machines = fixture_machines()
        pairs = [(T, U) for T in machines for U in machines] + list(random_product_pairs())
        return [(path(T), path(U)) for T, U in pairs]

    @pytest.mark.parametrize("command, keep", PRODUCT_COMMANDS)
    def test_output_is_the_built_product(self, model_files, command, keep):
        op = getattr(algebra, command)
        for left, right in model_files:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main([command, *["--keep-unreachable"] * keep, left, right])
            try:
                text = serialize_model(op(load_model(left), load_model(right), keep))
            except CohminError as e:
                assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {e}\n")
                continue
            assert (code, out.getvalue(), err.getvalue()) == (0, text, "")

    @pytest.mark.parametrize("command, keep", PRODUCT_COMMANDS)
    def test_colliding_names_stream_as_built(self, command, keep):
        """Names with top-level commas cannot be read from a file, so the
        walked product the command writes is written here directly."""
        op = getattr(algebra, command)
        for T, U in colliding_pairs():
            assert serialize_model(op(T, U, keep, build=False)) == \
                serialize_model(op(T, U, keep))

    def test_the_commands_build_no_product(self, checked_trusted_builds, monkeypatch):
        builds = Counter()

        def trusted(*parts):
            builds["trusted"] += 1
            return checked_trusted_builds(*parts)

        def checked(self, validate=Transducer.__post_init__):
            builds["validated"] += 1
            validate(self)

        monkeypatch.setattr(Transducer, "_trusted", staticmethod(trusted))
        monkeypatch.setattr(Transducer, "__post_init__", checked)
        files = [str(FIXDIR / "forked_reader.fst"), str(FIXDIR / "linear_protocol.fst")]
        for command, keep in PRODUCT_COMMANDS:
            builds.clear()
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main([command, *["--keep-unreachable"] * keep, *files]) == 0
            assert out.getvalue().startswith("signature ")
            assert builds == {"trusted": 2}   # the two inputs, as they are read


def renamed(T, prefix):
    """An isomorphic copy of ``T`` under fresh state names."""
    fresh = {s: f"{prefix}{i}" for i, s in enumerate(sorted(T.states))}
    return Transducer(T.signature, frozenset(fresh.values()), fresh[T.initial],
                      frozenset((fresh[a], v, fresh[b]) for a, v, b in T.delta))


def with_extra_transition(rng, T, rounds):
    """``T`` plus one seeded transition over one of ``rounds``."""
    states = sorted(T.states)
    extra = (rng.choice(states), rng.choice(rounds), rng.choice(states))
    return Transducer(T.signature, T.states, T.initial, T.delta | {extra})


def assert_same_equiv(T, U, P, k):
    """The product-free walk against the frozen product-based check on
    (T, U) under P (``None``: no protocol) to depth k.  When they are not
    equivalent, the witness is checked with the independent helpers on the
    frozen products: it has length <= k, exactly one side accepts it,
    both accept every proper prefix, and the oracle sees no difference one
    round shallower, so no shorter witness exists; no round before its
    last one in ``round_key`` order tells the two apart after the same
    prefix.  Returns the verdict."""
    witness = algebra.distinguishing_trace(T, U, k, P)
    if P is None:
        A, B = T, U
        got = algebra.bounded_language_equal(T, U, k)
        oracle = partial(naive_algebra.bounded_language_equal, T, U)
    else:
        A, B = naive_algebra.intersect(T, P), naive_algebra.intersect(U, P)
        got = coherence.coherent_equiv_bounded(T, U, P, k)
        oracle = partial(naive_algebra.coherent_equiv_bounded, T, U, P)
    assert got == oracle(k) == (witness is None)
    if witness is not None:
        assert 1 <= len(witness) <= k
        assert accepts(A, witness) != accepts(B, witness)
        for j in range(len(witness)):
            assert accepts(A, witness[:j]) and accepts(B, witness[:j])
        assert oracle(len(witness) - 1)
        *prefix, last = witness
        for v in {v for _, v, _ in A.delta | B.delta}:
            if round_key(v) < round_key(last):
                t = (*prefix, v)
                assert accepts(A, t) == accepts(B, t)
    return got


class TestBoundedEquivAgainstNaiveOracle:
    """``coherent_equiv_bounded``, ``bounded_language_equal`` and the
    witness of ``distinguishing_trace`` against the frozen check that
    built both products; every name is comma-free (see
    ``distinguishing_trace`` for the one place the two may differ)."""

    def test_every_plain_fixture(self):
        rng = random.Random(2500)
        models = [parse_model(p.read_text()) for p in sorted(FIXDIR.glob("*.fst"))]
        assert len(models) >= 3
        verdicts = []
        for T in models:
            for P in [None, *fixture_protocols(T)]:
                rounds = sorted({v for M in (T, P) if M is not None for _, v, _ in M.delta},
                                key=round_key) or [frozenset()]
                others = [T, renamed(T, "c"), coherence.bisim_minimize(T)]
                others += [with_extra_transition(rng, T, rounds) for _ in range(4)]
                if P is not None:
                    others.append(coherence.coherent_minimize(T, P)[0])
                for U in others:
                    for k in range(7):
                        verdicts.append(assert_same_equiv(T, U, P, k))
        assert verdicts.count(False) > 50 and verdicts.count(True) > 100

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_random_machines(self, deterministic):
        rng = random.Random(2600 + deterministic)
        verdicts = []
        for _ in range(80):
            sig = rng.choice((SIG2, SIG3))
            T = random_transducer(rng, sig, 6, 14, deterministic=deterministic)
            for P in (None, universal_protocol(sig), linear_protocol_shaped(sig),
                      random_transducer(rng, sig, 4, 12, "p")):
                for U in (renamed(T, "c"),
                          with_extra_transition(rng, T, all_rounds(sig))):
                    for k in range(7):
                        verdicts.append(assert_same_equiv(T, U, P, k))
        assert verdicts.count(False) > 300 and verdicts.count(True) > 1000

    def test_signature_mismatch_on_either_side(self):
        rng = random.Random(2700)
        T = random_transducer(rng, SIG2, 4, 8)
        other = random_transducer(rng, SIG3, 4, 8, "u")
        flipped = T.relabel_signature(dualize(SIG2))
        P = universal_protocol(SIG2)
        for args in ((T, T, universal_protocol(SIG3)), (T, other, P),
                     (other, T, P), (T, flipped, P), (flipped, T, P)):
            messages = set()
            for check in (coherence.coherent_equiv_bounded,
                          naive_algebra.coherent_equiv_bounded,
                          lambda T, U, P, k: algebra.distinguishing_trace(T, U, k, P)):
                with pytest.raises(SignatureMismatch) as err:
                    check(*args, 3)
                messages.add(str(err.value))
            assert len(messages) == 1

    def test_witness_does_not_depend_on_the_hash_seed(self):
        script = (
            "import random\n"
            "from cohmin import algebra\n"
            "from cohmin.kernel import render_trace\n"
            "from helpers import SIG3, random_transducer\n"
            "rng = random.Random(2800)\n"
            "for _ in range(300):\n"
            "    T = random_transducer(rng, SIG3, 6, 30)\n"
            "    U = random_transducer(rng, SIG3, 6, 30, 'u')\n"
            "    P = random_transducer(rng, SIG3, 3, 30, 'p')\n"
            "    w = algebra.distinguishing_trace(T, U, 6, P)\n"
            "    print('-' if w is None else render_trace(w))\n")
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(tests).parent / "src")
        outputs = []
        for seed in ("1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, tests]))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        # several differing rounds at once make the round_key choice matter
        assert len(lines) == 300 and sum(line != "-" for line in lines) > 100


def singleton_machine(rng, sig, max_states, max_trans):
    """A random machine whose rounds are single labels, as a regex
    protocol's are, so that the protocol enables most of its moves."""
    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    labels = sorted(sig.universe)
    delta = {(rng.choice(states), frozenset({rng.choice(labels)}), rng.choice(states))
             for _ in range(rng.randint(0, max_trans))}
    return Transducer(sig, frozenset(states), states[0], frozenset(delta))


def assert_same_compilation(regex, sig, machines):
    tree = parse_regex(regex) if isinstance(regex, str) else regex
    new = protocol.compile_regex(tree, sig)
    old = naive_protocol.compile_regex(regex, sig)
    assert_position_automaton(new, tree)
    assert kernel.traces_upto(new, 6).traces == kernel.traces_upto(old, 6).traces
    for T in machines:
        assert coherence.coherent_simulation(T, new).rows() == \
            coherence.coherent_simulation(T, old).rows()
        assert coherence.coherent_minimize(T, new)[1] == \
            coherence.coherent_minimize(T, old)[1]
    return new


class TestRegexCompilationAgainstNaiveOracle:
    """``compile_regex``'s position automaton against the frozen compiler
    with its own subset construction."""

    SIG = Signature(frozenset({"a"}), frozenset({"b", "c"}))

    def test_fixture_regexes(self):
        machine, _ = iterator_map()
        skeleton = machine.control_skeleton()
        texts = []   # each regex as text and as the file's syntax tree
        for path in sorted(FIXDIR.glob("*.prot")):
            text = path.read_text()
            if looks_like_regex_protocol(text):
                alphabet, regex = parse_regex_protocol(text)
                assert frozenset(alphabet) == skeleton.signature.universe
                texts += [render_regex(regex), regex]
        assert len(texts) >= 2
        rng = random.Random(2500)
        for regex in texts:
            machines = [skeleton] + [singleton_machine(rng, skeleton.signature, 6, 16)
                                     for _ in range(5)]
            assert len(assert_same_compilation(regex, skeleton.signature,
                                               machines).states) == 17

    def test_alternating_pair(self):
        rng = random.Random(2600)
        sig = ring(ring_names(16)).signature
        machines = [ring(ring_names(16))] + [singleton_machine(rng, sig, 5, 10)
                                             for _ in range(5)]
        assert len(assert_same_compilation("(a b)*", sig, machines).states) == 3

    def test_random_regexes(self):
        # every fourth regex as drawn, then starred (nullable), followed by
        # the empty language, and beside a branch with dead positions
        rng = random.Random(2700)
        labels = sorted(self.SIG.universe)
        void = protocol.Alt(())
        regexes = [void, protocol.Cat(()), protocol.Cat((protocol.Lit("a"), void))]
        for i in range(240):
            r = random_regex(rng, labels, rng.randint(1, 4))
            regexes.append([
                r, protocol.Star(r), protocol.Cat((r, void)),
                protocol.Alt((r, protocol.Cat((random_regex(rng, labels, 2), void)))),
            ][i % 4])
        sizes = set()
        for r in regexes:
            machines = [singleton_machine(rng, self.SIG, 5, 10) for _ in range(2)]
            sizes.add(len(assert_same_compilation(r, self.SIG, machines).states))
        assert 1 in sizes and len(sizes) > 3


def assert_same_verdict(P, t):
    new, old = protocol.monitor(P, t), naive_protocol.monitor(P, t)
    assert (new.status, new.index, new.offending, new.expected) == \
        (old.status, old.index, old.offending, old.expected)
    assert new.render() == old.render()
    return new


def assert_same_parse(text):
    """The trace both parsers read from ``text``, or ``None`` when both
    raise the same ``ParseError``."""
    try:
        old = naive_protocol.parse_trace(text)
    except ParseError as e:
        with pytest.raises(ParseError) as info:
            parse_trace(text)
        assert (info.value.line, info.value.column, info.value.message) == \
            (e.line, e.column, e.message)
        return None
    new = parse_trace(text)
    assert new == old
    return new


def random_walk(rng, P, length):
    """A trace of ``P``: each round taken from a transition of the state
    reached so far, so nondeterministic protocols are walked along one
    path; shorter when the walk meets a state with no transitions."""
    state, trace = P.initial, []
    for _ in range(length):
        out = sorted((kernel.round_key(v), t) for v, ts in P.out(state).items() for t in ts)
        if not out:
            break
        (_, labels), state = rng.choice(out)
        trace.append(frozenset(labels))
    return trace


class TestTraceBoundaryAgainstNaiveOracle:
    """``parse_trace`` with its line memo and ``monitor`` with its lazy
    subset walk against the frozen originals."""

    def test_fixture_protocols_and_traces(self):
        texts = [path.read_text() for path in sorted(FIXDIR.iterdir())
                 if path.suffix in (".trc", ".vtrc")]
        traces = [t for t in map(assert_same_parse, texts) if t is not None]
        protocols = []
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix in (".fst", ".sfst", ".prot"):
                try:
                    protocols.append(load_protocol(path))
                except CohminError:  # a symbolic machine that is no protocol
                    continue
        assert len(traces) >= 2 and len(protocols) >= 5
        verdicts = {assert_same_verdict(P, t).status for P in protocols for t in traces}
        assert verdicts == {"OK", "VIOLATION"}

    @pytest.mark.parametrize("deterministic", [True, False],
                             ids=["deterministic", "nondeterministic"])
    def test_random_protocols(self, deterministic):
        rng = random.Random(2800 + deterministic)
        stray = frozenset({"w"})  # a label outside every protocol's signature
        seen = set()
        for i in range(300):
            sig = (SIG2, SIG3)[i % 2]
            P = random_transducer(rng, sig, 6, 18, deterministic=deterministic)
            rounds = all_rounds(sig)
            walk = random_walk(rng, P, rng.randint(0, 12))
            traces = [(), (frozenset(),), walk, walk + [stray]]
            for _ in range(3):
                if walk:
                    bad = list(walk)
                    bad[rng.randrange(len(walk))] = rng.choice(rounds + [stray, stray | {"x"}])
                    traces.append(bad)
            for t in traces:
                text = serialize_trace(t)
                assert assert_same_parse(text) == tuple(t)
                verdict = assert_same_verdict(P, parse_trace(text))
                seen.add((verdict.status, len(verdict.expected or ()) > 1))
        assert seen == {("OK", False), ("VIOLATION", False), ("VIOLATION", True)}

    def test_text_variants(self):
        P = parse_model((FIXDIR / "display.prot").read_text())
        texts = [
            "", "\n\n", "# only a comment\n", "{q5}", "{q5}\n\n  \n{r2}\n",
            "{ q5 }\n{r2 , }\n{d2}# done\n", "\t{q5}\t\n{ r4 ,d4 }\n",
            "{q5}\n{}\n{ }\n{d5}\r\n{q5}\n", "{q5} # {r2}\n{r2}#\n{  d2}\n",
            "{ a ,b }\n", "{q5}\n{r2}\n{d4}\n", "{q5}\n{r2}\n{q1}\n{n1}\n{q1}\n{n1}\n{d2}\n",
        ]
        for text in texts:
            t = assert_same_parse(text)
            assert t is not None
            assert_same_verdict(P, t)

    @pytest.mark.parametrize("text", [
        "{q5}\n" * 1000 + "{q5\n",
        "{q5}\n" * 1000 + "q5\n{q5}\n",
        "{q5}\n{r2}\n{q-1}\n{d2}\n{q-1}\n{q-1}\n",
        "{q5}\n{1a}\n{q5}\n{ 1a }\n{1a}\n",
        "{q5}\n{a b}\n{a b}\n{ a b }\n",
        "{q5}\n{}}\n\n{}}\n",
    ], ids=["after-1000-good", "bare-after-1000-good", "repeated-bad", "repeated-bad-ident",
            "repeated-bad-space", "repeated-bad-brace"])
    def test_bad_lines(self, text):
        assert assert_same_parse(text) is None

    def test_bad_line_is_reported_at_its_line_in_every_call(self):
        # a failure remembered from an earlier call would carry that call's line
        for prefix in range(4):
            assert assert_same_parse("{a}\n" * prefix + "{a\n") is None
            assert assert_same_parse("{a}\n" * prefix + "{a}\n") == (frozenset({"a"}),) * (prefix + 1)

    def test_rounds_as_lists_or_sets(self):
        rng = random.Random(2900)
        for i in range(100):
            P = random_transducer(rng, SIG3, 5, 14, deterministic=bool(i % 2))
            walk = random_walk(rng, P, rng.randint(1, 10))
            if walk and rng.random() < 0.5:
                walk[rng.randrange(len(walk))] = rng.choice(all_rounds(SIG3))
            for t in (walk, [sorted(v) for v in walk], [set(v) for v in walk],
                      tuple(list(v) if j % 2 else v for j, v in enumerate(walk))):
                verdict = assert_same_verdict(P, t)
                assert verdict.offending is None or type(verdict.offending) is frozenset

    # every line break ``str.splitlines`` knows
    BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]

    @staticmethod
    def cli_against_oracle(capsys, path, text):
        """``cohmin monitor`` on ``text`` (or bytes) under ``display.prot``
        gives the exit code, stdout and stderr that decoding the whole file
        and the frozen parser and monitor imply: exit 2 at bad UTF-8
        anywhere, else exit 2 at the first bad line anywhere, else the
        verdict.  Returns the exit code."""
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        prot = FIXDIR / "display.prot"
        try:
            text = path.read_bytes().decode("utf-8")   # as the CLI once read it
            old = naive_protocol.monitor(parse_model(prot.read_text()),
                                         naive_protocol.parse_trace(text))
            expected = (0 if old.ok else 3, old.render() + "\n", "")
        except UnicodeDecodeError as e:
            expected = (2, "", f"error: cannot read {path}: not UTF-8 text "
                               f"({e.reason} at byte {e.start})\n")
        except ParseError as e:
            expected = (2, "", f"error: {e}\n")
        capsys.readouterr()
        code = cli_main(["monitor", "--protocol", str(prot), "--trace", str(path)])
        assert (code, *capsys.readouterr()) == expected
        return code

    PIECES = [1, 2, 3, 7, 64, 1 << 16]

    @pytest.mark.parametrize("piece", PIECES)
    def test_streamed_reading_against_splitlines(self, monkeypatch, capsys, tmp_path, piece):
        """The reader walks the text a piece at a time, each piece cut just
        after a line feed; whatever the piece size, its rounds, its parse
        errors and ``len`` are those of the oracle's ``text.splitlines()``,
        and ``cohmin monitor`` gives the oracle's verdict or error: the
        rest of the text is read after a violation, so a bad line there is
        still the error."""
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        P = parse_model((FIXDIR / "display.prot").read_text())
        rounds = sorted({v for _, v, _ in P.delta}, key=round_key)
        rng = random.Random(3100 + piece)
        seen = set()
        for _ in range(150):
            walk = [kernel.render_round(v)
                    for v in random_walk(rng, P, rng.randint(0, 12))]
            if walk and rng.random() < 0.5:   # a violation, mostly
                walk[rng.randrange(len(walk))] = kernel.render_round(rng.choice(rounds))
            for _ in range(rng.randint(0, 4)):
                extra = rng.choice(["", "  ", "# note", "{q5} # c", "\t{ r2 }", "{q5",
                                    "q5", "{}"])
                walk.insert(rng.randint(0, len(walk)), extra)
            text = "".join(line + rng.choice(self.BREAKS) for line in walk)
            text += rng.choice(["", "{q5}", "# end", "{q5"])
            if assert_same_parse(text) is not None:
                reader = trace_reader.TraceReader(io.StringIO(text))
                assert len(reader) == len(naive_protocol.parse_trace(text))
            seen.add(self.cli_against_oracle(capsys, tmp_path / "t.trc", text))
        assert seen == {0, 2, 3}

    @pytest.mark.parametrize("piece", PIECES)
    @pytest.mark.parametrize("text, code, where", [
        ("{q5}\n\n# a note\n{r2}\n   \n# more\n{d4}\n{q5}\n", 3, "index=2 "),
        ("{q5}\n{r2}\n{d4}\n{q5}\n{q5\n{r2}\n", 2, "error: 5:1: "),
        ("{q5}\n{d5}\n{ q5 }  # again\n{d5}\n{q5}\n{d5 }\n{r4}\n", 3, "index=6 "),
    ], ids=["skipped-lines-before-violation", "bad-line-after-violation",
            "one-round-two-texts"])
    def test_cli_cases(self, monkeypatch, capsys, tmp_path, piece, text, code, where):
        """``index`` counts rounds, not lines; a bad line met first after
        the violation is still exit 2 at its line; a row that meets one
        round as two line texts steps the same way on both."""
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        path = tmp_path / "t.trc"
        assert self.cli_against_oracle(capsys, path, text) == code
        capsys.readouterr()
        cli_main(["monitor", "--protocol", str(FIXDIR / "display.prot"), "--trace", str(path)])
        assert where in "".join(capsys.readouterr())

    @pytest.mark.parametrize("piece", [1, 64, 1 << 16])
    def test_every_line_distinct(self, monkeypatch, capsys, tmp_path, piece):
        """No line text repeats: every step parses a line."""
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        P = parse_model((FIXDIR / "display.prot").read_text())
        rng = random.Random(3300 + piece)
        walk = [sorted(v)[0] for v in random_walk(rng, P, 400)]
        assert len(walk) == 400
        lines = ["{" + " " * (i % 7) + label + " " * (i // 7) + "}" + (" # %d" % i) * (i % 2)
                 for i, label in enumerate(walk)]
        assert len(set(lines)) == len(lines)
        text = "".join(line + "\n" for line in lines)
        assert self.cli_against_oracle(capsys, tmp_path / "t.trc", text) == 0
        state = P.initial
        for label in walk[:300]:
            (state,) = P.out(state)[frozenset({label})]
        bad = min(x for x in P.signature.universe if frozenset({x}) not in P.out(state))
        lines[300] = "{ " + bad + " }  # not enabled here"
        text = "".join(line + "\n" for line in lines)
        assert self.cli_against_oracle(capsys, tmp_path / "t.trc", text) == 3


class TestTraceFileAtPieceBoundaries:
    """``cohmin monitor`` reads the trace file a few bytes at a time and
    still reports what decoding the whole file first would: bad UTF-8 at its
    byte in the file, ahead of any bad line or violation before it; every
    line break and character however a read cuts it."""

    cli_against_oracle = staticmethod(TestTraceBoundaryAgainstNaiveOracle.cli_against_oracle)

    @pytest.mark.parametrize("piece", [1, 3, 16])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xe0\x80", b"\xed\xa0\x80", b"\xe2\x82"],
                             ids=["invalid-start", "invalid-continuation", "surrogate",
                                  "truncated-at-end"])
    def test_bad_utf8_past_the_first_piece(self, monkeypatch, capsys, tmp_path, piece, bad):
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        data = b"{q5}\n{r2}\n{d2}\n" * 20 + b"# \xc3\xa9 " + bad
        assert self.cli_against_oracle(capsys, tmp_path / "t.trc", data) == 2
        cli_main(["monitor", "--protocol", str(FIXDIR / "display.prot"),
                  "--trace", str(tmp_path / "t.trc")])
        assert f" at byte {data.index(bad)})\n" in capsys.readouterr().err

    @pytest.mark.parametrize("piece", [1, 3, 16, 1 << 16])
    @pytest.mark.parametrize("text, code", [
        ("{q5}\n{q5\n{r2}\n", 2),
        ("{q5}\n{r2}\n{d4}\n{q5}\n", 3),
        ("{q5}\n{r2}\n{d4}\n{q5\n", 2),
    ], ids=["bad-line", "violation", "violation-then-bad-line"])
    def test_bad_utf8_wins_over_what_comes_before_it(self, monkeypatch, capsys, tmp_path,
                                                     piece, text, code):
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        path = tmp_path / "t.trc"
        assert self.cli_against_oracle(capsys, path, text * 30) == code
        data = (text * 30).encode() + b"{r2}\n" * 30 + b"{\xff}\n"
        assert self.cli_against_oracle(capsys, path, data) == 2
        cli_main(["monitor", "--protocol", str(FIXDIR / "display.prot"), "--trace", str(path)])
        assert "not UTF-8 text (invalid start byte" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{q5}\r\n{r2}\r\n{d2}\r\n{q5",
        "{q5}\r{r2}\r\r{d2}\r{q5",
        "\u2028{q5} # \u00e9\u20ac\U0001f600\n{r2}\u2028{d2}\x85{q5}\u2029",
        "{q5}\n{r2 \u00e9}\n",
        "{q5}\r\n{r2}\r\n{q\u00e9}\r\n",
    ], ids=["crlf", "lone-cr", "multi-byte", "bad-multi-byte", "bad-multi-byte-crlf"])
    def test_every_cut_of_a_line_break_or_character(self, monkeypatch, capsys, tmp_path, text):
        want, seen = assert_same_parse(text), set()
        for piece in range(1, len(text.encode()) + 2):
            monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
            seen.add(self.cli_against_oracle(capsys, tmp_path / "t.trc", text))
            if want is not None:   # every round is read, not only a legal prefix
                stream = trace_reader.Utf8File(io.BytesIO(text.encode()))
                assert tuple(trace_reader.TraceReader(stream)) == want
        assert len(seen) == 1

    @pytest.mark.parametrize("piece", [1, 4, 1 << 16])
    @pytest.mark.parametrize("text, code", [
        ("{q5}\n{r2}", 0), ("{q5}\n{r2", 2), ("{q5}\n{q5}", 3), ("", 0), ("# c", 0),
    ], ids=["no-trailing-newline", "bad-last-line", "violation-on-last-line", "empty",
            "comment-only"])
    def test_the_last_line_and_the_empty_file(self, monkeypatch, capsys, tmp_path, piece,
                                              text, code):
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        assert self.cli_against_oracle(capsys, tmp_path / "t.trc", text) == code

    @pytest.mark.parametrize("piece", [3, 1 << 16])
    def test_each_pass_reads_from_the_start(self, monkeypatch, piece):
        monkeypatch.setattr(trace_reader, "_TRACE_PIECE", piece)
        text = (FIXDIR / "display_legal.trc").read_text()
        reader = trace_reader.TraceReader(trace_reader.Utf8File(io.BytesIO(text.encode())))
        assert protocol.monitor(parse_model((FIXDIR / "display.prot").read_text()), reader).ok
        assert len(reader) == len(naive_protocol.parse_trace(text)) > 0
        assert tuple(reader) == naive_protocol.parse_trace(text)

    def test_a_pipe_is_read_once(self):
        """The first pass seeks nothing, and ``check()`` resumes where the
        monitor stopped, so a trace can come through a pipe."""
        P = parse_model((FIXDIR / "display.prot").read_text())
        for text in ("{q5}\n{r2}\n{d2}\n", "{q5}\n{q5}\n{r2\n"):
            r, w = os.pipe()
            os.write(w, text.encode())
            os.close(w)
            with open(r, "rb") as stream:
                reader = trace_reader.TraceReader(trace_reader.Utf8File(stream))
                verdict = protocol.monitor(P, reader)
                if verdict.ok:
                    assert naive_protocol.monitor(P, naive_protocol.parse_trace(text)).ok
                else:
                    with pytest.raises(ParseError, match="^3:1: "):
                        reader.check()

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.trc"
        code = cli_main(["monitor", "--protocol", str(FIXDIR / "display.prot"),
                         "--trace", str(missing)])
        assert (code, *capsys.readouterr()) == (
            2, "", f"error: cannot read {missing}: No such file or directory\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs Linux /proc")
    def test_a_read_that_fails_after_the_open_is_an_input_error(self, capsys):
        """Reading a process's memory at address 0 fails with EIO once the
        file is open: an input error (exit 2), not an output error."""
        code = cli_main(["monitor", "--protocol", str(FIXDIR / "display.prot"),
                         "--trace", "/proc/self/mem"])
        assert (code, *capsys.readouterr()) == (
            2, "", "error: cannot read /proc/self/mem: Input/output error\n")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bytes_against_whole_decode(self, monkeypatch, capsys, tmp_path, seed):
        """Seeded traces of walks, corruptions, stray lines, every line
        break, characters of one to four bytes and bad UTF-8, each read in
        pieces of a random size: the verdict and its index, the bad line's
        line and column and the encoding error are those of the frozen
        parser and monitor over the whole decoded text."""
        P = parse_model((FIXDIR / "display.prot").read_text())
        rounds = sorted({v for _, v, _ in P.delta}, key=round_key)
        rng = random.Random(3400 + seed)
        seen = set()
        for _ in range(120):
            monkeypatch.setattr(trace_reader, "_TRACE_PIECE", rng.choice([1, 2, 3, 5, 8, 64]))
            walk = [kernel.render_round(v) for v in random_walk(rng, P, rng.randint(0, 12))]
            if walk and rng.random() < 0.5:
                walk[rng.randrange(len(walk))] = kernel.render_round(rng.choice(rounds))
            for _ in range(rng.randint(0, 3)):
                walk.insert(rng.randint(0, len(walk)), rng.choice(
                    ["", "# \u00e9\u20ac\U0001f600", "{q5} # \u00e9", "{\u00e9}", "{q5",
                     " { r2 } "]))
            text = "".join(line + rng.choice(LINE_BREAKS) for line in walk)
            data = text.encode("utf-8")
            if rng.random() < 0.3:
                at = rng.randint(0, len(data))
                data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]) + data[at:]
            try:
                trace, utf8 = assert_same_parse(data.decode("utf-8")), True
            except UnicodeDecodeError:
                trace, utf8 = None, False
            if trace is not None:
                stream = trace_reader.Utf8File(io.BytesIO(data))
                new = protocol.monitor(P, trace_reader.TraceReader(stream))
                old = naive_protocol.monitor(P, trace)
                assert (new.status, new.index, new.offending, new.expected) == \
                    (old.status, old.index, old.offending, old.expected)
            seen.add((self.cli_against_oracle(capsys, tmp_path / "t.trc", data), utf8))
        assert seen == {(0, True), (2, True), (2, False), (3, True)}


# Every line break ``str.splitlines`` knows.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def random_state_name(rng, depth=0):
    """A plain, product or expansion state name, products nested."""
    kind = rng.choice(["plain", "plain", "product", "expansion"] if depth < 2 else ["plain"])
    if kind == "product":
        return f"({random_state_name(rng, depth + 1)},{random_state_name(rng, depth + 1)})"
    name = rng.choice(["s", "q", "P", "A_"]) + str(rng.randrange(4))
    if kind == "expansion":
        return name + "[" + ",".join(f"{r}={rng.randint(-2, 2)}"
                                     for r in rng.sample(["x", "y", "z"], rng.randint(1, 3))) + "]"
    return name


def random_model_text(rng):
    """A model text in the shapes the reader must place: statements spread
    over lines by every line break, comments holding ``;`` and ``#``,
    empty statements, bracketed state names, symbolic transitions, and
    sometimes an unterminated tail or a stray character."""
    names = sorted({random_state_name(rng) for _ in range(rng.randint(1, 5))})
    symbolic = rng.random() < 0.3
    groups = [["signature in a, b", "out c"], ["states " + ", ".join(rng.sample(names, len(names)))],
              [f"initial {rng.choice(names)}"]]
    if symbolic:
        groups.append(["registers x"])
    rng.shuffle(groups)
    for _ in range(rng.randint(0, 6)):
        labels = rng.sample(["a", "b", "c"], rng.randint(0, 2))
        stmt = f"trans {rng.choice(names)} -> {rng.choice(names)} : {{{', '.join(labels)}}}"
        if symbolic and rng.random() < 0.6:
            stmt += rng.choice([" when x > 0", " when x + 1 = 2 and x < 3", ""])
            stmt += rng.choice([" do x := x + 1", " do x := 0, c := x" if "c" in labels else ""])
        groups.insert(rng.randint(len(groups) // 2, len(groups)), [stmt])
    stmts = [s for group in groups for s in group]
    pieces = []
    for stmt in stmts:
        words = stmt.split(" ")
        out = words[0]
        for w in words[1:]:   # the lines of a statement, some with a comment
            out += rng.choice([" ", " ", " ", "  ", "\t", rng.choice(LINE_BREAKS),
                               " # a; b # c" + rng.choice(LINE_BREAKS)]) + w
        pieces.append(rng.choice(["", " ", "\t"]) + out)
        pieces.append(rng.choice([";", ";", " ;", "; ;", ";;"]))   # empty statements too
        pieces.append(rng.choice(["", " ", rng.choice(LINE_BREAKS), "\n\n",
                                  " # x;y #z" + rng.choice(LINE_BREAKS)]))
    if rng.random() < 0.15:   # an unterminated tail
        pieces.append(rng.choice(["trans", "initial q9", "  \n (s0, ", "# only a comment"]))
    text = "".join(pieces)
    if rng.random() < 0.25:   # a stray character somewhere
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice("();[]{}#,$ \n\r") + text[at:]
    return text


def reader_outcome(read, *args):
    """What ``read(*args)`` gives, or the place and message of its
    ``ParseError``; a generator is read to its end."""
    got = []
    try:
        out = read(*args)
        if hasattr(out, "__next__"):
            for item in out:
                got.append(item)
            return got
        return out
    except ParseError as e:
        return got, (e.line, e.column, e.message)


def naive_reader_model(text):
    """``parse_model`` with the frozen reader's three functions."""
    saved = {name: getattr(fileformat, name)
             for name in ("_statements", "_parse_header", "_split_state_names")}
    try:
        for name in saved:
            setattr(fileformat, name, getattr(naive_reader, name))
        return parse_model(text)
    finally:
        for name, fn in saved.items():
            setattr(fileformat, name, fn)


class TestReaderAgainstNaiveOracle:
    """The one-pass statement scanner, the header reader and the state-list
    splitter against the frozen originals (``naive_reader``): the same
    (line, column, text) triples, the same models and the same errors."""

    def test_random_texts(self):
        models = errors = 0
        for seed in range(1500):
            text = random_model_text(random.Random(seed))
            new = reader_outcome(fileformat._statements, text)
            assert new == reader_outcome(naive_reader._statements, text), (seed, text)
            statements = list(naive_reader._statements(text)) if isinstance(new, list) else []
            assert reader_outcome(fileformat._parse_header, iter(statements), 1) == \
                reader_outcome(naive_reader._parse_header, iter(statements), 1), (seed, text)
            got = reader_outcome(parse_model, text)
            assert got == reader_outcome(naive_reader_model, text), (seed, text)
            if isinstance(got, tuple) and isinstance(got[1], tuple):
                errors += 1
            else:
                models += 1
        assert models > 900 and errors > 250   # both sides of the reader are reached

    def test_every_line_break_and_an_unterminated_tail(self):
        head = "signature in a; out b;#x;y\nstates s0, (s0,s1)  ,\tA[y=0,z=1];"
        for brk in LINE_BREAKS:
            for tail in ("", "initial s0", "\n  trans s0 ->"):
                text = (head + brk + "initial s0 ;" + brk + brk + "trans (s0,s1)" + brk
                        + "-> A[y=0,z=1] : {a};;" + tail).replace("\n", brk)
                assert reader_outcome(fileformat._statements, text) == \
                    reader_outcome(naive_reader._statements, text), repr(text)
                assert reader_outcome(parse_model, text) == \
                    reader_outcome(naive_reader_model, text), repr(text)

    def test_random_state_lists(self):
        for seed in range(3000):
            rng = random.Random(seed)
            text = "".join(rng.choice("ab(),,[] \t\x1f\u3000=0{;") for _ in range(rng.randint(0, 14)))
            assert reader_outcome(fileformat._split_state_names, text, 7) == \
                reader_outcome(naive_reader._split_state_names, text, 7), (seed, text)


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


# -- expansion against the frozen expander ------------------------------------

INT64_MIN, INT64_MAX = symbolic.INT64_MIN, symbolic.INT64_MAX
_EXPAND_SIG = Signature(frozenset({"x", "a"}), frozenset({"r", "o"}))


def expand_outcome(engine, writer, *args, **kwargs):
    """The expansion and its file, or the error's type and message."""
    try:
        T = engine.expand(*args, **kwargs)
    except CohminError as e:
        return type(e), str(e)
    return T, writer(T)


def assert_same_expansion(machine, lo, hi, **kwargs):
    new = expand_outcome(symbolic, serialize_model, machine, lo, hi, **kwargs)
    old = expand_outcome(naive_symbolic, naive_writer.serialize_model,
                         machine, lo, hi, **kwargs)
    assert new == old
    return new


def _int_expr(rng, regs, ports, lits, depth):
    kind = rng.randrange(6 if depth else 3)
    if kind == 0 or (kind == 1 and not regs) or (kind == 2 and not ports):
        return symbolic.IntLit(rng.choice(lits))
    if kind == 1:
        return symbolic.Reg(rng.choice(regs))
    if kind == 2:
        return symbolic.Port(rng.choice(ports))
    if kind == 3:
        return symbolic.Neg(_int_expr(rng, regs, ports, lits, depth - 1))
    return symbolic.Bin(rng.choice("+-*"), _int_expr(rng, regs, ports, lits, depth - 1),
                        _int_expr(rng, regs, ports, lits, depth - 1))


def _bool_expr(rng, regs, ports, lits, depth):
    kind = rng.randrange(4 if depth else 2)
    if kind == 0:
        return symbolic.BoolLit(rng.random() < 0.8)
    if kind == 1:
        return symbolic.Bin(rng.choice(["=", "<", "<=", ">", ">="]),
                            _int_expr(rng, regs, ports, lits, depth),
                            _int_expr(rng, regs, ports, lits, depth))
    if kind == 2:
        return symbolic.Not(_bool_expr(rng, regs, ports, lits, depth - 1))
    return symbolic.Bin(rng.choice(["and", "or"]),
                        _bool_expr(rng, regs, ports, lits, depth - 1),
                        _bool_expr(rng, regs, ports, lits, depth - 1))


def random_expand_case(rng):
    """A seeded SFST over inputs x, a and outputs r, o, with a domain and
    the options to expand it with.  Guards use every operator; updates
    write registers and outputs, and outputs left without one are free.
    One case in three has a domain reaching an int64 bound, where
    arithmetic overflows; such a case usually has no data ports, so that
    the domain's width needs no labels, and then reads no port."""
    kwargs = {}
    wide = rng.random() < 0.35
    if wide:
        lo, hi = rng.choice([(INT64_MIN, rng.randint(0, 2)), (-rng.randint(0, 2), INT64_MAX)])
        lits = [v for v in (lo, hi, lo + 1, hi - 1, 0, 1, -1, 2) if lo <= v <= hi]
        if rng.random() < 0.9:
            kwargs["data_ports"] = frozenset()
    else:
        lo, hi = rng.choice([(-1, 1)] * 3 + [(-2, 2)] * 2 + [(0, 2), (1, 2), (2, 1)])
        lits = list(range(max(lo, -2), hi + 1)) or [0]
        if rng.random() < 0.05:
            lits.append(hi + 1)
        if rng.random() < 0.2:
            kwargs["data_ports"] = frozenset(rng.sample(sorted(_EXPAND_SIG.universe), 2))
    if rng.random() < 0.3:
        kwargs["state_cap"] = rng.randint(1, 12)
    regs = sorted(rng.sample(["y", "z"], rng.randint(0, 2)))
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    rounds = [v for v in all_rounds(_EXPAND_SIG) if len(v) <= 3]
    delta = set()
    for _ in range(rng.randint(0, 8)):
        v = rng.choice(rounds)
        ports = [] if kwargs.get("data_ports") == frozenset() else sorted(v & _EXPAND_SIG.inputs)
        guard = (symbolic.TRUE if rng.random() < 0.3
                 else _bool_expr(rng, regs, ports, lits, 2))
        targets = [t for t in regs + sorted(v & _EXPAND_SIG.outputs) if rng.random() < 0.6]
        updates = frozenset(symbolic.Update(t, _int_expr(rng, regs, ports, lits, 2))
                            for t in targets)
        delta.add(symbolic.STransition(rng.choice(states), v, guard, updates,
                                       rng.choice(states)))
    machine = symbolic.SFST(_EXPAND_SIG, frozenset(states), frozenset(regs), states[0],
                            frozenset(delta))
    return machine, lo, hi, kwargs


class TestExpandAgainstNaiveOracle:
    """``symbolic.expand`` against the frozen per-transition expander, and
    its file against the frozen writer: the same machine and the same bytes,
    or the same error with the same message."""

    @pytest.mark.parametrize("lo, hi", [(-1, 1), (-2, 2)])
    def test_fixtures(self, lo, hi):
        for path in sorted(FIXDIR.iterdir()):
            if path.suffix not in (".fst", ".sfst"):
                continue
            machine = parse_model(path.read_text())
            if isinstance(machine, Transducer):
                machine = lift_transducer(machine)
            assert isinstance(assert_same_expansion(machine, lo, hi)[0], Transducer)

    def test_iterator_map_over_three(self):
        machine = parse_model((FIXDIR / "iterator_map.sfst").read_text())
        T, _ = assert_same_expansion(machine, -3, 3)
        assert (len(T.states), len(T.delta)) == (4459, 78204)

    def test_random_machines(self, monkeypatch):
        overflows = Counter()

        def check64(v):
            try:
                return check(v)
            except Overflow:
                overflows[0] += 1
                raise

        check = symbolic._check64
        monkeypatch.setattr(symbolic, "_check64", check64)
        rng = random.Random(1100)
        kinds = Counter()
        for _ in range(250):
            machine, lo, hi, kwargs = random_expand_case(rng)
            new = assert_same_expansion(machine, lo, hi, **kwargs)
            kinds[new[0].__name__ if isinstance(new[0], type) else "ok"] += 1
        # every outcome the expander has is met, and arithmetic overflows
        assert set(kinds) == {"ok", "DomainExceeded", "ResourceLimit", "UnboundReference"}
        assert kinds["ok"] >= 150 and overflows[0] >= 20

    def test_random_expressions_evaluate_alike(self):
        """``eval_expr`` on typed and ill-typed trees, and the same trees
        compiled to read values by position, against the frozen tree
        walker: the same value, or the same error and message."""
        rng = random.Random(1101)
        lits = [INT64_MIN, INT64_MAX, -2, -1, 0, 1, 2, 3]
        pool = [symbolic.IntLit(v) for v in lits] + [
            symbolic.BoolLit(True), symbolic.BoolLit(False), symbolic.Reg("y"),
            symbolic.Reg("q"), symbolic.Port("x"), symbolic.Port("p"), "junk"]
        ops = ["+", "-", "*", "=", "<", "<=", ">", ">=", "and", "or", "xor"]

        def tree(depth):
            kind = rng.randrange(4 if depth else 1)
            if kind == 0:
                return rng.choice(pool)
            if kind == 1:
                return symbolic.Neg(tree(depth - 1))
            if kind == 2:
                return symbolic.Not(tree(depth - 1))
            return symbolic.Bin(rng.choice(ops), tree(depth - 1), tree(depth - 1))

        def addressed(e, regs, ports):
            """``e`` compiled to read value tuples by position, as ``_Firing``
            reads register and input values."""
            bound = {p: v for p, v in (ports or {}).items() if v is not None}
            f = symbolic.compile_expr(e, {r: i for i, r in enumerate(regs)},
                                      {p: i for i, p in enumerate(bound)})
            return f(tuple(regs.values()), tuple(bound.values()))

        def outcome(evaluate, e, regs, ports):
            try:
                return "ok", evaluate(e, regs, ports)
            except CohminError as err:
                return type(err), str(err)

        kinds = Counter()
        for _ in range(3000):
            e = tree(3)
            regs = {"y": rng.choice(lits)}
            ports = rng.choice([None, {}, {"x": rng.choice(lits)}, {"x": None}])
            old = outcome(naive_symbolic.eval_expr, e, regs, ports)
            for new in (outcome(symbolic.eval_expr, e, regs, ports),
                        outcome(addressed, e, regs, ports)):
                assert new == old and type(new[1]) is type(old[1]), e
            kinds[new[0] if new[0] == "ok" else new[0].__name__] += 1
        assert set(kinds) == {"ok", "Overflow", "TypeMismatch", "UnboundReference"}
