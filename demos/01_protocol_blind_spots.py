"""What a protocol-constrained environment cannot see.

A transducer can carry behaviour that no protocol-respecting environment is
able to trigger.  Conventional bisimulation must still distinguish states by
that behaviour; coherent simulation may ignore it, which buys extra merges.
"""

from pathlib import Path

from cohmin import coherence, kernel
from cohmin.frontend import load_model, load_protocol, serialize_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
machine = load_model(FIXTURES / "forked_reader.fst")
proto = load_protocol(FIXTURES / "linear_protocol.fst", machine)

print("machine:")
print(serialize_model(machine))
print("protocol (one i, then one a, then silence):")
print(serialize_model(proto))

# Which states can stand in for which?  (s1, s2) in the relation means s1
# can do everything s2 does, and anything extra s1 enables is dead under
# the protocol after s2's witnesses.
rel = coherence.coherent_simulation(machine, proto)
print("coherent simulation pairs (identity omitted):")
for a, b in rel.sorted_pairs():
    if a != b:
        print(f"  {a} can stand in for {b}")

pairs = coherence.equivalence_pairs(machine, proto)
print("mutually equivalent pairs:", pairs.sorted_pairs())

mini, log = coherence.coherent_minimize(machine, proto)
print(f"\ncoherent minimisation: {len(machine.states)} -> {len(mini.states)} states")
for keep, drop in log:
    print(f"  merge {drop} -> {keep}")

baseline = coherence.bisim_minimize(machine)
print(f"bisimulation baseline:  {len(machine.states)} -> {len(baseline.states)} states")

print("\nthe protocol-restricted languages agree to depth 8:",
      coherence.coherent_equiv_bounded(machine, mini, proto, 8))

# The raw languages agree as well: the merges remove branching, not traces.
# P and Q both answer {a}, but after it P may reach the dead end p2, while
# Q's only successor q1 still offers {b}.  Bisimulation must keep P and Q
# apart for that, so it stops at 5 states; coherent simulation lets q1
# stand in for p2, since the {b} that only q1 offers can never legally
# follow (the protocol stops after one a), and it reaches 4.
from cohmin import algebra
print("raw languages equal:",
      algebra.bounded_language_equal(machine, mini, 8))
