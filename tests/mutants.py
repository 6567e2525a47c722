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
KERNEL = "src/cohmin/kernel.py"
ALGEBRA = "src/cohmin/algebra.py"
SYMBOLIC = "src/cohmin/symbolic.py"
FILEFORMAT = "src/cohmin/frontend/fileformat.py"
MODULE_SETS = "tests/test_frontend.py::TestCli::test_plain_commands_leave_the_symbolic_layer_unloaded"
SKIP_RULE = "tests/test_coherence.py::TestSkipRule"
MERGED_INDEX = "tests/test_coherence.py::TestMergedIndex"
DIFFERENTIAL = "tests/test_differential.py::TestAgainstNaiveOracle"
PRODUCTS = "tests/test_differential.py::TestProductsAgainstNaiveOracle"
STREAMED = "tests/test_differential.py::TestStreamedProducts"

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
     ["tests/test_coherence.py::TestCoherentSimulation::"
      "test_membership_reads_the_rows_without_building_the_pairs"]),
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
    ("an SFST's transitions are keyed in the order of its transition set", SYMBOLIC,
     "for tr in sorted(T.out(s), key=_transition_key)))",
     "for tr in T.out(s)))",
     ["tests/test_tooling.py::test_cli_output_does_not_depend_on_the_hash_seed"]),
    ("a firing runs its updates in the order of their set", "src/cohmin/expansion.py",
     "        updates = sorted(tr.updates, key=lambda u: u.target)\n",
     "        updates = list(tr.updates)\n",
     ["tests/test_symbolic.py::test_expand_runs_updates_in_target_order"]),
    ("main ends the process without flushing stdout", "src/cohmin/frontend/cli.py",
     "        code = cli_main()\n        sys.stdout.flush()\n",
     "        code = cli_main()\n",
     [f"tests/test_frontend.py::TestOutputFailures::test_main_ends_the_process_as_cli_main_returns"
      f"[{case}]" for case in ("ok", "verdict", "expand")]),
    ("symbolic imports expansion when it loads", SYMBOLIC,
     "_EXPANSION = (",
     "from . import expansion  # noqa: E402,F401\n_EXPANSION = (",
     [MODULE_SETS,
      "tests/test_tooling.py::test_symbolic_serves_the_expansion_names_without_loading_it"]),
    ("a folded constant skips the 64-bit check", SYMBOLIC,
     'return ("int", v) if INT64_MIN <= v <= INT64_MAX else _refused()',
     'return ("int", v)',
     ["tests/test_symbolic.py::TestGuardEquiv::test_a_fold_that_overflows_is_no_constant",
      "tests/test_symbolic.py::TestGuardEquiv::test_structural_equality_only_where_evaluation_agrees"]),
    ("the model reader imports the writer when it loads", FILEFORMAT,
     "from ..kernel import Signature, Trace, Transducer, mkround\n",
     "from ..kernel import Signature, Trace, Transducer, mkround\nfrom . import writer  # noqa: F401\n",
     [MODULE_SETS, "tests/test_tooling.py::test_moved_names_are_served_from_their_old_places"]),
    ("a column on a continuation line is one too far", FILEFORMAT,
     'return line + breaks, offset - stmt.rindex("\\n", 0, offset)',
     'return line + breaks, offset - stmt.rindex("\\n", 0, offset) + 1',
     ["tests/test_frontend.py::TestParsing::test_a_bad_character_is_placed_at_its_line_and_column",
      "tests/test_frontend.py::TestParsing::test_expression_errors_name_their_place[too-deep]"]),
    ("the walk pushes the pair after the one it reached", KERNEL,
     "                            todo.append(t + u)\n",
     "                            todo.append(t + u + 1)\n",
     ["tests/test_coherence.py::TestProductReach::test_matches_independent_search",
      f"{PRODUCTS}::test_random_machines"]),
    ("condition 2 keeps the live keys of one reached protocol state only", COHERENCE,
     "reduce(or_, map(live.__getitem__, ps), 0)",
     "max(map(live.__getitem__, ps), default=0)",
     ["tests/test_coherence.py::TestProductReach::test_matches_independent_search"]),
    ("a colliding name's other pairs are not pushed", ALGEBRA,
     "twins if ambiguous else None)",
     "None)",
     [f"{PRODUCTS}::test_colliding_product_names"]),
    ("a streamed row's targets are not deduplicated", ALGEBRA,
     "tuple(dict.fromkeys(ts) if once else ts)",
     "tuple(ts)",
     [f"{PRODUCTS}::test_colliding_product_names",
      f"{STREAMED}::test_colliding_names_stream_as_built[compose-False]"]),
    ("compose keeps the shared labels in its rounds", ALGEBRA,
     "    hidden = shared - sig.universe\n",
     "    hidden = frozenset()\n",
     [f"{PRODUCTS}::test_random_machines", f"{PRODUCTS}::test_every_fixture_pair"]),
    ("a command writes the rows in walk order, not name order", ALGEBRA,
     "    if ambiguous or not build:",
     "    if ambiguous:",
     [f"{STREAMED}::test_output_is_the_built_product[{command}-{keep}]"
      for command in ("intersect", "interact", "compose") for keep in (False, True)]),
    ("a projection keeps a target twice where two rounds meet", ALGEBRA,
     "            row[w] = tuple(dict.fromkeys(ts))\n",
     "            row[w] = tuple(ts)\n",
     [f"{PRODUCTS}::test_random_machines"]),
    ("the reader keeps a repeated transition twice", FILEFORMAT,
     "adj.setdefault(src, {}).setdefault(v, {})[tgt] = None",
     "adj.setdefault(src, {}).setdefault(v, []).append(tgt)",
     ["tests/test_frontend.py::TestParsing::test_duplicate_transitions_collapse"]),
]
