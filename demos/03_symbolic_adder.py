"""Symbolic transducers: guarded transitions over registers.

The adder reads an integer twice and emits the sum, but only when it is
positive.  Register machines stay small where explicit ones explode; the
explicit expansion over a finite value domain is the cross-check oracle.
"""

from pathlib import Path

from cohmin.frontend import load_model, parse_valued_trace, serialize_model
from cohmin.symbolic import (
    Bin,
    IntLit,
    Reg,
    expand,
    expand_valued_trace,
    guard_equiv,
    sfst_run,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
machine = load_model(FIXTURES / "adder.sfst")
print(serialize_model(machine))

good = parse_valued_trace((FIXTURES / "adder_accept.vtrc").read_text())
bad = parse_valued_trace((FIXTURES / "adder_reject.vtrc").read_text())
print("run x=2, x=3, r=5  ->", sfst_run(machine, good) or "rejected")
print("run x=2, x=-3, r=-1 ->", sfst_run(machine, bad) or "rejected")

# Two ways to compare guards: by normal form, or on a finite test domain.
a = Bin(">", Bin("+", Reg("y"), Reg("z")), IntLit(0))
b = Bin(">", Bin("+", Reg("z"), Reg("y")), IntLit(0))
c = Bin(">=", Bin("+", Reg("y"), Reg("z")), IntLit(1))
print("\ny+z>0 vs z+y>0, structural:      ", guard_equiv(a, b, "structural"))
print("y+z>0 vs y+z>=1, structural:     ", guard_equiv(a, c, "structural"))
print("y+z>0 vs y+z>=1, bounded-semantic:", guard_equiv(a, c, "bounded-semantic"))

# The expansion interprets registers explicitly over [-5..5], which holds
# every value the traces above carry; acceptance must agree with sfst_run
# for every in-domain trace.  (A value outside the domain has no label in
# the expanded signature, so accepts() would raise UnknownLabel.)
explicit = expand(machine, -5, 5)
print(f"\nexplicit expansion over [-5..5]: {len(explicit.states)} states,"
      f" {len(explicit.delta)} transitions")
for trace in (good, bad):
    agrees = explicit.accepts(expand_valued_trace(machine, trace)) == \
        bool(sfst_run(machine, trace))
    print("expansion agrees on", [r.render() for r in trace], "->", agrees)
