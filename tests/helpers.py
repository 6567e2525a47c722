"""Shared test machinery: seeded generators and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
relation oracle enumerates every candidate relation and unions the coherent
ones, over its own joint-reachability search; the regex oracle decides
membership through derivatives.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np

from cohmin.errors import ResourceLimit, UnknownState
from cohmin.frontend.expr import parse_expr
from cohmin.frontend.fileformat import load_model, load_protocol
from cohmin.kernel import (
    DEFAULT_TRACE_CAP,
    Round,
    Signature,
    TraceSet,
    Transducer,
    mkround,
    traces_upto,
)
from cohmin.protocol import Alt, Cat, Lit, Star, _glushkov
from cohmin.symbolic import SFST, STransition, Update, expand


SRC = Path(__file__).resolve().parent.parent / "src"
# The standard machines, protocols and traces: each file is the one
# definition of what it holds.
FIXDIR = SRC.parent / "fixtures"

# Address space a capped ``cohmin`` child may use: well above what any
# shipped command needs, well below what a runaway one would take.
MEMORY_CAP_BYTES = 1 << 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_cohmin_capped(*argv, timeout=60) -> subprocess.CompletedProcess:
    """``cohmin *argv`` in a child process whose address space is capped at
    :data:`MEMORY_CAP_BYTES` (set in the child alone, before it starts) and
    whose run time is capped at ``timeout`` seconds, so that a command that
    would exhaust memory fails its test instead of the machine running it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c", "from cohmin.frontend.cli import main; main()", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=_cap_memory)


def dualize(sig: Signature) -> Signature:
    """Swap input and output polarity (an involution)."""
    return Signature(sig.outputs, sig.inputs)


# -- canonical protocols ------------------------------------------------------

_UNIVERSAL_CAP = 4096


def universal_protocol(sig: Signature) -> Transducer:
    """One state enabling every round: the all-permitting protocol."""
    labels = sorted(sig.universe)
    if 2 ** len(labels) > _UNIVERSAL_CAP:
        raise ResourceLimit(
            f"universal protocol over {len(labels)} labels is too large"
        )
    rounds = [frozenset()]
    for lab in labels:
        rounds += [v | {lab} for v in rounds]
    return Transducer(
        sig, frozenset({"u"}), "u", frozenset(("u", v, "u") for v in rounds)
    )


def empty_protocol(sig: Signature) -> Transducer:
    """No interaction is permitted; the language is {epsilon}."""
    return Transducer(sig, frozenset({"e"}), "e", frozenset())


def all_rounds(sig: Signature):
    labels = sorted(sig.universe)
    out = [frozenset()]
    for lab in labels:
        out += [v | {lab} for v in out]
    return sorted(out, key=lambda v: (len(v), tuple(sorted(v))))


def random_transducer(rng: random.Random, sig: Signature, max_states: int,
                      max_trans: int, prefix: str = "s",
                      deterministic: bool = False) -> Transducer:
    n = rng.randint(1, max_states)
    states = [f"{prefix}{i}" for i in range(n)]
    rounds = all_rounds(sig)
    delta = set()
    used = set()
    for _ in range(rng.randint(0, max_trans)):
        src = rng.choice(states)
        v = rng.choice(rounds)
        if deterministic:
            if (src, v) in used:
                continue
            used.add((src, v))
        delta.add((src, v, rng.choice(states)))
    return Transducer(sig, frozenset(states), states[0], frozenset(delta))


# -- random symbolic machines -------------------------------------------------

SFST_SIG = Signature(frozenset({"x"}), frozenset({"r"}))
SFST_REGISTERS = frozenset({"y", "z"})

# Pools of families: the members of a family are equal, some only
# semantically (y + z > 0 / y + z >= 1), some structurally (y + z > 0 /
# z + y > 0); members of different families differ.
_GUARDS = (("true",), ("y + z > 0", "z + y > 0", "y + z >= 1"),
           ("y >= 1", "not y < 1", "y > 0"), ("y > 1",), ("y = z", "z = y"),
           ("y - z > 0", "z < y"))
_PORT_GUARDS = (("x > 0", "0 < x", "x >= 1"), ("x > 1",))
_UPDATES = (((), ("y := y",)), (("y := y + z",), ("y := z + y",)),
            (("y := y + y",), ("y := 2 * y",)),
            (("z := 0",), ("z := 0 + 0",), ("z := z - z",)),
            (("y := z", "z := y"),))
_PORT_UPDATES = ((("y := x",), ("y := x + 0",), ("y := 0 + x",)),
                 (("z := x", "y := y"), ("z := x",)))
_OUTPUTS = ((("r := y + z",), ("r := z + y",), ("r := y - -z",)),
            (("r := y",), ("r := y + 0",)), ((),))


def random_sfst(rng: random.Random, max_states: int, max_trans: int,
                prefix: str = "s") -> SFST:
    """A seeded SFST over ``SFST_SIG`` with registers y and z.

    Each machine uses two rounds and, per round, two families each of
    guards, updates and (in rounds with ``r``) output updates; every
    transition takes a random member of a random family, so equivalent
    transitions, and hence merges, are common.  Port guards and updates
    appear only in rounds that carry ``x``.
    """
    n = rng.randint(1, max_states)
    states = [f"{prefix}{i}" for i in range(n)]
    rounds = rng.sample(all_rounds(SFST_SIG), 2)
    families = {}
    for v in rounds:
        ports = v & SFST_SIG.inputs
        families[v] = (
            rng.sample(_GUARDS + (_PORT_GUARDS if ports else ()), 2),
            rng.sample(_UPDATES + (_PORT_UPDATES if ports else ()), 2),
            rng.sample(_OUTPUTS, 2) if "r" in v else [((),)],
        )
    delta = set()
    for _ in range(rng.randint(0, max_trans)):
        v = rng.choice(rounds)
        guard, updates, outputs = (rng.choice(rng.choice(f)) for f in families[v])
        ports = v & SFST_SIG.inputs
        delta.add(STransition(
            rng.choice(states), v, parse_expr(guard, SFST_REGISTERS, ports),
            frozenset(_update(text, ports) for text in updates + outputs),
            rng.choice(states),
        ))
    return SFST(SFST_SIG, frozenset(states), SFST_REGISTERS, states[0],
                frozenset(delta))


def _update(text: str, ports) -> Update:
    target, expr = text.split(":=")
    return Update(target.strip(), parse_expr(expr, SFST_REGISTERS, ports))


# -- free-function views of stepping, used by the tests ------------------------


def step(T: Transducer, s: str, v: Round):
    """The states ``s`` moves to on round ``v``."""
    return frozenset(T.out(s).get(frozenset(v), ()))


def is_deterministic(T: Transducer) -> bool:
    """Does every state have at most one target per round?"""
    return all(len(ts) == 1 for s in T.states for ts in T.out(s).values())


def assert_position_automaton(P: Transducer, regex) -> None:
    """``P`` keeps the contract of ``compile_regex(regex, ...)``: the start
    ``P0`` and at most one state ``P<i+1>`` per position ``i`` of the
    regex, every state but the start on a path to an accepting position."""
    positions, nullable, _, last, _ = _glushkov(regex)
    assert P.initial == "P0"
    assert P.states <= {f"P{i}" for i in range(len(positions) + 1)}
    live = set(P.states & ({f"P{p + 1}" for p in last} | ({"P0"} if nullable else set())))
    preds = {}
    for s, _, t in P.delta:
        preds.setdefault(t, set()).add(s)
    todo = list(live)
    while todo:
        for s in preds.get(todo.pop(), ()):
            if s not in live:
                live.add(s)
                todo.append(s)
    assert P.states - live <= {"P0"}


def run(T: Transducer, t):
    return T.run(t)


def accepts(T: Transducer, t) -> bool:
    return T.accepts(t)


def witness_traces_upto(T: Transducer, s: str, k: int,
                        cap: int = DEFAULT_TRACE_CAP) -> TraceSet:
    """Traces of length <= k that reach state ``s`` from the initial state."""
    if s not in T.states:
        raise UnknownState(s)
    out = [t for t in traces_upto(T, k, cap).traces if s in T.run(t)]
    return TraceSet(T.signature, frozenset(out))


def bounded_language_subset(T: Transducer, U: Transducer, k: int) -> bool:
    """Is every trace of T with length <= k also a trace of U?"""
    frontier = {(frozenset({T.initial}), frozenset({U.initial}))}
    seen = set(frontier)
    for _ in range(k):
        nxt = set()
        for sa, sb in frontier:
            for v in {v for s in sa for v in T.out(s)}:
                ta = T.step_set(sa, v)
                tb = U.step_set(sb, v)
                if ta and not tb:
                    return False
                pair = (ta, tb)
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        frontier = nxt
        if not frontier:
            return True
    return True


SIG2 = Signature(frozenset({"x"}), frozenset({"y"}))
SIG3 = Signature(frozenset({"x"}), frozenset({"y", "z"}))


def linear_protocol_shaped(sig: Signature) -> Transducer:
    """A two-step corridor protocol like the forked-reader one."""
    labels = sorted(sig.universe)
    first, second = labels[0], labels[-1]
    return Transducer(
        sig,
        frozenset({"X0", "X1", "X2"}),
        "X0",
        frozenset([
            ("X0", mkround({first}), "X1"),
            ("X1", mkround({second}), "X2"),
        ]),
    )


def ring(names) -> Transducer:
    """A cycle through ``names`` alternating rounds {a} and {b}.

    Under the protocol ``(a b)*`` every {a}-state is coherently equivalent
    to every other, and likewise every {b}-state, so coherent minimisation
    folds an even ring to 2 states.
    """
    sig = Signature(frozenset({"a"}), frozenset({"b"}))
    n = len(names)
    delta = {(names[i], mkround({"ab"[i % 2]}), names[(i + 1) % n])
             for i in range(n)}
    return Transducer(sig, frozenset(names), names[0], frozenset(delta))


# -- brute-force relation oracle ---------------------------------------------


def joint_reach(T: Transducer, P: Transducer):
    """(state, protocol state) pairs reached together by some common trace.

    A breadth-first search read straight off both transition sets, kept
    apart from ``coherence.product_reach`` so the oracles below share no
    code with the engine they check.
    """
    t_moves, p_moves = {}, {}
    for src, v, tgt in T.delta:
        t_moves.setdefault(src, []).append((v, tgt))
    for src, v, tgt in P.delta:
        p_moves.setdefault((src, v), []).append(tgt)
    start = (T.initial, P.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        s, p = queue.popleft()
        for v, s2 in t_moves.get(s, ()):
            for p2 in p_moves.get((p, v), ()):
                if (s2, p2) not in seen:
                    seen.add((s2, p2))
                    queue.append((s2, p2))
    return seen


def extendable_rounds(T: Transducer, P: Transducer):
    """For each state of T, the rounds enabled at a protocol state
    jointly reachable with it."""
    p_enabled = {}
    for src, v, _ in P.delta:
        p_enabled.setdefault(src, set()).add(v)
    ext = {s: set() for s in T.states}
    for s, p in joint_reach(T, P):
        ext[s] |= p_enabled.get(p, set())
    return ext


def protocol_extendable(T: Transducer, P: Transducer, s: str, v: Round) -> bool:
    """Can some witness trace of ``s`` be legally extended by round ``v``?"""
    if s not in T.states:
        raise UnknownState(s)
    return frozenset(v) in extendable_rounds(T, P)[s]


def bruteforce_coherent_union(T: Transducer, P: Transducer):
    """Union of every relation satisfying the two coherence conditions.

    Enumerates all subsets of the pairs passing the (relation-independent)
    protocol-escape condition and keeps those whose matching condition is
    self-supporting.  Exponential: callers keep T at <= 4 states.
    """
    states = sorted(T.states)
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}

    def pid(a, b):
        return idx[a] * n + idx[b]

    ext = extendable_rounds(T, P)
    m2_bits = []
    for s1 in states:
        for s2 in states:
            extra = T.enabled(s1) - T.enabled(s2)
            if not any(v in ext[s2] for v in extra):
                m2_bits.append(pid(s1, s2))
    trans = {s: [(v, t) for v, ts in T.out(s).items() for t in ts] for s in states}
    requirements = []
    for s1 in states:
        for s2 in states:
            masks = []
            for v, t2 in trans[s2]:
                m = 0
                for w, t1 in trans[s1]:
                    if w == v:
                        m |= 1 << pid(t1, t2)
                masks.append(m)
            if masks:
                requirements.append((pid(s1, s2), masks))

    k = len(m2_bits)
    if k > 22:
        raise ValueError(f"instance too large for enumeration: {k} candidate pairs")
    subsets = np.arange(1 << k, dtype=np.int64)
    relations = np.zeros(1 << k, dtype=np.int64)
    for j, b in enumerate(m2_bits):
        relations |= ((subsets >> j) & 1) << b
    ok = np.ones(1 << k, dtype=bool)
    for pair_bit, masks in requirements:
        has_pair = ((relations >> pair_bit) & 1).astype(bool)
        for m in masks:
            ok &= ~(has_pair & ((relations & m) == 0))
    if not ok.any():
        return frozenset()
    union = int(np.bitwise_or.reduce(relations[ok]))
    return frozenset(
        (states[i // n], states[i % n])
        for i in range(n * n)
        if (union >> i) & 1
    )


# -- regex derivative oracle ---------------------------------------------------

EMPTY = ("empty",)
EPSILON = ("epsilon",)


def _cat(a, b):
    if a is EMPTY or b is EMPTY:
        return EMPTY
    if a is EPSILON:
        return b
    if b is EPSILON:
        return a
    return Cat((a, b))


def _alt(a, b):
    if a is EMPTY:
        return b
    if b is EMPTY:
        return a
    if a == b:
        return a
    return Alt((a, b))


def _nullable(r) -> bool:
    if r is EMPTY:
        return False
    if r is EPSILON:
        return True
    if isinstance(r, Lit):
        return False
    if isinstance(r, Star):
        return True
    if isinstance(r, Cat):
        return all(_nullable(x) for x in r.items)
    if isinstance(r, Alt):
        return any(_nullable(x) for x in r.items)
    raise TypeError(r)


def _derivative(r, label):
    if r is EMPTY or r is EPSILON:
        return EMPTY
    if isinstance(r, Lit):
        return EPSILON if r.label == label else EMPTY
    if isinstance(r, Star):
        return _cat(_derivative(r.item, label), r)
    if isinstance(r, Alt):
        out = EMPTY
        for x in r.items:
            out = _alt(out, _derivative(x, label))
        return out
    if isinstance(r, Cat):
        head, tail = r.items[0], r.items[1:]
        rest = tail[0] if len(tail) == 1 else Cat(tail)
        out = _cat(_derivative(head, label), rest)
        if _nullable(head):
            out = _alt(out, _derivative(rest, label))
        return out
    raise TypeError(r)


def regex_prefix_member(r, labels) -> bool:
    """Is the label sequence a prefix of some word of the regex language?

    The smart constructors collapse the empty language, so a trace is a
    member of the prefix closure exactly when its derivative is not EMPTY.
    """
    cur = r
    for lab in labels:
        cur = _derivative(cur, lab)
        if cur is EMPTY:
            return False
    return True


def random_regex(rng: random.Random, labels, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        return Lit(rng.choice(labels))
    kind = rng.choice(["cat", "alt", "star", "lit"])
    if kind == "lit":
        return Lit(rng.choice(labels))
    if kind == "star":
        return Star(random_regex(rng, labels, depth - 1))
    items = tuple(
        random_regex(rng, labels, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return Cat(items) if kind == "cat" else Alt(items)


def render_regex(r, gap: str = " ") -> str:
    """Protocol regex text for ``r`` with ``gap`` between the items of a
    concatenation: every compound item is parenthesised, so the text
    parses back to ``r`` up to :func:`fold_stars`."""
    def item(x):
        return render_regex(x, gap) if isinstance(x, (Lit, Star)) else \
            f"({render_regex(x, gap)})"

    if isinstance(r, Lit):
        return r.label
    if isinstance(r, Star):
        return item(r.item) + "*"
    return (gap if isinstance(r, Cat) else f"{gap}+{gap}").join(map(item, r.items))


def fold_stars(r):
    """``r`` in the normal form the regex parser builds: ``a** = a*``."""
    if isinstance(r, Star):
        inner = fold_stars(r.item)
        return inner if isinstance(inner, Star) else Star(inner)
    if isinstance(r, (Cat, Alt)):
        return type(r)(tuple(map(fold_stars, r.items)))
    return r


# -- model files with several unknown endpoints -----------------------------
# The first unknown state in file order is on line 5 of each; a diagnostic
# must name that one, whatever the hash seed.

UNKNOWN_ENDPOINT_FILES = {
    "unknown_endpoints.fst": (
        "signature in a; out b;\nstates s0;\ninitial s0;\n"
        "trans s0 -> s0 : {a};\ntrans s0 -> x1 : {a};\n"
        "trans x2 -> s0 : {b};\ntrans x3 -> x4 : {a};\n"),
    "unknown_endpoints.sfst": (
        "signature in a; out b;\nstates s0;\nregisters y;\ninitial s0;\n"
        "trans x2 -> x1 : {a} do y := a;\ntrans x3 -> s0 : {a} when y > 0;\n"),
}


# -- model files with faulty transitions, or a bad state list or initial state
# Each maps to the one diagnostic ``cohmin validate`` must print for it,
# whatever the hash seed: the first fault in file order, at its line.

LINE_CHECK_FILES = {
    "doubled_updates.sfst": (
        "signature in a; out b;\nstates s0, s1;\nregisters y, z, w;\ninitial s0;\n"
        "trans s0 -> s1 : {a} do y := 1, y := 2;\n"
        "trans s1 -> s0 : {a} do z := 1, z := 2;\n"
        "trans s0 -> s0 : {b} do w := 1, w := 2;\n",
        "5:1: two updates for target 'y'"),
    "repeated_update.sfst": (
        "signature in a; out b;\nstates s0;\nregisters y;\ninitial s0;\n"
        "trans s0 -> s0 : {a} do y := a, y := a;\n",
        "5:1: two updates for target 'y'"),
    "mixed_faults.sfst": (
        "signature in a; out b;\nstates s0;\nregisters y;\ninitial s0;\n"
        "trans s0 -> s0 : {a} do y := 1 < 2, q := 1;\n"
        "trans s0 -> s0 : {a} when y + 1;\n"
        "trans s0 -> s0 : {a} do b := 1;\n",
        "5:1: unbound reference: 'q'"),
    "bad_initial.fst": (
        "signature in a; out b;\nstates s0;\ninitial s9;\ntrans s0 -> s0 : {a};\n",
        "3:1: initial state 's9' is not in the state set"),
    "empty_states.fst": (
        "signature in a; out b;\nstates ;\ninitial s0;\n",
        "2:1: expected at least one state"),
}


# s1 and s2 are bisimilar: each has one b-transition per guard, and every
# target is a dead end.  s1's two guards lead to one state, so a partition
# that keys a (source, round, target) by all its guards at once splits them.
PARALLEL_GUARDS = """\
signature in a, b; out;
states s0, s1, s2, t, u1, u2;
registers y;
initial s0;
trans s0 -> s1 : {a};
trans s0 -> s2 : {a};
trans s1 -> t : {b} when y > 0;
trans s1 -> t : {b} when y < 0;
trans s2 -> u1 : {b} when y > 0;
trans s2 -> u2 : {b} when y < 0;
"""


def iterator_map():
    """The iterate-and-map circuit and its session protocol, compiled
    over the circuit's signature."""
    machine = load_model(FIXDIR / "iterator_map.sfst")
    return machine, load_protocol(FIXDIR / "iterator_map.prot", machine)


def fixture_machines():
    """Every plain machine the fixtures give: the model files, the
    protocol files as the CLI reads them (a regex protocol over its
    alphabet), the control skeleton of each symbolic file and the adder
    expanded over [-1..1]."""
    machines = []
    for path in sorted(FIXDIR.iterdir()):
        if path.suffix == ".sfst":
            machines.append(load_model(path).control_skeleton())
        elif path.suffix in (".fst", ".prot"):
            machines.append(load_protocol(path))
    machines.append(expand(load_model(FIXDIR / "adder.sfst"), -1, 1))
    return machines
