"""The headline reduction: a 13-state compiled circuit folds to 7 states.

The iterate-and-map circuit is assembled from reactive sub-blocks, so its
wait hubs accept every pulse and its hazard paths only matter when the
environment breaks the session discipline.  With the protocol enforced by a
monitor, coherent minimisation folds 13 control states down to 7, while
guard-sensitive bisimulation can only merge the two identical poll states.
"""

from pathlib import Path

from cohmin import coherence, symbolic
from cohmin.frontend import load_model, load_protocol, serialize_model, to_dot

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
machine = load_model(FIXTURES / "iterator_map.sfst")
proto = load_protocol(FIXTURES / "iterator_map.prot", machine)
print(f"machine: {len(machine.states)} control states,"
      f" {len(machine.delta)} transitions, registers {sorted(machine.registers)}")
print(f"protocol: {len(proto.states)} states (compiled from the session regex)")

pairs = symbolic.sfst_equivalence_pairs(machine, proto)
print("\ncoherently equivalent control-state pairs:")
print(" ", pairs.sorted_pairs())

mini, log = symbolic.sfst_coherent_minimize(machine, proto)
print(f"\ncoherent minimisation: {len(machine.states)} -> {len(mini.states)} states")
print("merge classes:",
      sorted(sorted(c) for c in coherence.merge_classes(log)))

baseline = coherence.bisim_minimize(machine)
print(f"bisimulation baseline: {len(machine.states)} -> {len(baseline.states)} states")
print("bisim classes:",
      sorted(sorted(c) for c in coherence.bisim_partition(machine)
             if len(c) > 1))

print("\nreduced machine:\n")
print(serialize_model(mini))

with open("iterator_map_minimized.dot", "w") as fh:
    fh.write(to_dot(mini, "iterator_map_minimized"))
print("DOT graph written to iterator_map_minimized.dot")
