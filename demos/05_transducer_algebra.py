"""The combinator layer: intersection, interaction, projection, composition.

Every combinator has a trace-level mirror that serves as its oracle: the
machine-level product must accept exactly the traces the trace-level
definition admits.  The mirrors live with the other frozen oracles in
``tests/naive_algebra.py``; this demo checks intersection against plain
language intersection.
"""

import random
from pathlib import Path

from cohmin import algebra, kernel
from cohmin.frontend import load_model
from cohmin.kernel import Signature, Transducer, mkround, render_trace

R = mkround
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
T = load_model(FIXTURES / "two_phase.fst")  # reads a, answers b

# A forwarder that consumes b and acknowledges on c (with explicit idling:
# there is no implicit stuttering anywhere in the algebra).
fwd = Transducer(
    Signature(frozenset({"b"}), frozenset({"c"})),
    frozenset({"f0", "f1"}), "f0",
    frozenset([
        ("f0", R({"b"}), "f1"), ("f1", R({"c"}), "f0"),
        ("f0", frozenset(), "f0"), ("f1", frozenset(), "f1"),
    ]),
)

joint = algebra.interact(T, fwd)
print("interaction signature:", joint.signature.render())
print("interaction traces to depth 3:")
for t in kernel.traces_upto(joint, 3).sorted_traces():
    print("  ", render_trace(t))

piped = algebra.compose(T, fwd)  # the shared b is hidden
print("\ncomposition signature:", piped.signature.render())
print("composition traces to depth 3:")
for t in kernel.traces_upto(piped, 3).sorted_traces():
    print("  ", render_trace(t))

# intersection really is language intersection, on random machines
rng = random.Random(0)
sig = Signature(frozenset({"x"}), frozenset({"y"}))


def rand_machine(prefix):
    states = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    rounds = [frozenset(), R({"x"}), R({"y"}), R({"x", "y"})]
    delta = {(rng.choice(states), rng.choice(rounds), rng.choice(states))
             for _ in range(rng.randint(0, 8))}
    return Transducer(sig, frozenset(states), states[0], frozenset(delta))


checks = []
for _ in range(20):
    A, B = rand_machine("a"), rand_machine("b")
    got = kernel.traces_upto(algebra.intersect(A, B), 5).traces
    want = kernel.traces_upto(A, 5).traces & kernel.traces_upto(B, 5).traces
    checks.append(got == want)
print("intersection soundness on 20 random pairs:", all(checks))
