"""Catching a low-level attack with the online protocol monitor.

A program drives two external display functions.  Its session protocol says
a display may only report termination after it was called.  An environment
that answers out of turn is flagged at the exact offending round.
"""

from pathlib import Path

from cohmin.frontend import load_protocol, parse_trace
from cohmin.kernel import render_round, render_trace
from cohmin.protocol import monitor

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
proto = load_protocol(FIXTURES / "display.prot")

legal = parse_trace((FIXTURES / "display_legal.trc").read_text())
print("legal run:  ", render_trace(legal))
print("verdict:    ", monitor(proto, legal).render())

attack = parse_trace((FIXTURES / "display_attack.trc").read_text())
print("\nattack run: ", render_trace(attack))
verdict = monitor(proto, attack)
print("verdict:    ", verdict.render())
print("\nthe second display reported termination (d4) without having been",
      "called; after", render_trace(attack[:verdict.index]),
      "the protocol only allows:",
      ", ".join(sorted(render_round(v) for v in verdict.expected)))

# The same check is available from the shell with exit code 3 on violation:
#   cohmin monitor --protocol fixtures/display.prot --trace fixtures/display_attack.trc
