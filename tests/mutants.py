"""The mutation table: deliberate faults that the named tests must catch.

Each entry is a file of the repository, an exact source fragment that
occurs once in it, the replacement that breaks the code, and the ids of
the tests that must fail once the replacement is made.  ``tools/mutants.py``
applies the entries one at a time to a copy of the tree and runs their
tests; ``tests/test_tooling.py`` checks that every fragment still occurs
exactly once, so a change to the code shows up here first.  A mutant the
tests let through is a finding about the tests, never a reason to drop
the mutant.
"""

COHERENCE = "src/cohmin/coherence.py"
SKIP_RULE = "tests/test_coherence.py::TestSkipRule"
MERGED_INDEX = "tests/test_coherence.py::TestMergedIndex"
DIFFERENTIAL = "tests/test_differential.py::TestAgainstNaiveOracle"

# (name, file, fragment, replacement, test ids that must fail)
MUTANTS = [
    ("rule 1 always passes", COHERENCE,
     "            if cls[a] != cls[b]:\n",
     "            if False:\n",
     [f"{DIFFERENTIAL}::test_merge_loop_on_many_machines"]),
    ("the rule-2 flag is forced True", COHERENCE,
     "        bisim = _refine(rel.index[1], cls)[1] == len(classes)",
     "        bisim = True",
     [f"{SKIP_RULE}::test_lemma_counterexample_recomputes"]),
    ("a merge is left out of the map of a recomputation", COHERENCE,
     "            to[b] = a\n",
     "",
     [f"{MERGED_INDEX}::test_counterexample"]),
    ("the search restarts past the survivor after a skip", COHERENCE,
     "                alive &= ~(1 << b)\n",
     "                alive &= ~(1 << b)\n"
     "                a += ((alive >> (a + 1)) & -(alive >> (a + 1))).bit_length()\n",
     [f"{SKIP_RULE}::test_ring_runs_one_fixpoint"]),
    ("sorted_pairs walks the rows instead of the columns", COHERENCE,
     "for i, col in enumerate(self._cols) for j in _bits(col)]",
     "for i, col in enumerate(self._rows[1]) for j in _bits(col)]",
     ["tests/test_coherence.py::TestCoherentSimulation::test_asymmetric_pair"]),
    ("the equivalence pairs drop the column test", COHERENCE,
     "_bits((rows[i] & col) >> (i + 1))",
     "_bits(rows[i] >> (i + 1))",
     ["tests/test_coherence.py::TestEquivalencePairs::test_fork_under_protocol"]),
    ("a merged index keeps the old initial id", COHERENCE,
     "rounds, at[initial]",
     "rounds, initial",
     [f"{MERGED_INDEX}::test_counterexample"]),
    ("condition 2 forbids every extendable round", COHERENCE,
     "        forbidden = x & ~e\n",
     "        forbidden = x\n",
     [f"{DIFFERENTIAL}::test_merge_loop_on_many_machines"]),
]
