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
TRACE = "src/cohmin/frontend/trace.py"
MODULE_SETS = "tests/test_frontend.py::TestCli::test_plain_commands_leave_the_symbolic_layer_unloaded"
SKIP_RULE = "tests/test_coherence.py::TestSkipRule"
MERGED_INDEX = "tests/test_coherence.py::TestMergedIndex"
DIFFERENTIAL = "tests/test_differential.py::TestAgainstNaiveOracle"
PRODUCTS = "tests/test_differential.py::TestProductsAgainstNaiveOracle"
STREAMED = "tests/test_differential.py::TestStreamedProducts"
BOUNDARIES = "tests/test_differential.py::TestTraceFileAtPieceBoundaries"
STREAMED_TRACE = "tests/test_differential.py::TestTraceBoundaryAgainstNaiveOracle"

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
    ("the trace reader drops the unfinished line of a read", TRACE,
     "                self._carry = self._lines.pop()\n",
     "                self._lines.pop()\n",
     [f"{BOUNDARIES}::test_every_cut_of_a_line_break_or_character[multi-byte]",
      f"{STREAMED_TRACE}::test_streamed_reading_against_splitlines[3]"]),
    ("the trace reader yields the unfinished line of a read and carries it too", TRACE,
     "                self._carry = self._lines.pop()\n",
     "                self._carry = self._lines[-1]\n",
     [f"{BOUNDARIES}::test_every_cut_of_a_line_break_or_character[multi-byte]",
      f"{STREAMED_TRACE}::test_streamed_reading_against_splitlines[3]"]),
    ("the trace reader ends a line at a read that ends in a lone CR", TRACE,
     "            elif more and end == \"\\r\":",
     "            elif False:",
     [f"{BOUNDARIES}::test_every_cut_of_a_line_break_or_character[crlf]",
      f"{BOUNDARIES}::test_every_cut_of_a_line_break_or_character[bad-multi-byte-crlf]"]),
    ("a fresh pass over a trace does not go back to its start", TRACE,
     "            if self._begun:\n                self._stream.seek(0)\n",
     "",
     [f"{BOUNDARIES}::test_each_pass_reads_from_the_start[{piece}]" for piece in (3, 1 << 16)]
     + ["tests/test_tooling.py::test_a_traced_pass_runs_every_kind_of_benchmark_op"]),
    ("a first pass over a trace seeks back to its start", TRACE,
     "            if self._begun:\n",
     "            if True:\n",
     [f"{BOUNDARIES}::test_a_pipe_is_read_once"]),
    ("bad UTF-8 is reported at its byte in the read, not in the file", TRACE,
     "                at = self._read - len(e.object) + e.start\n",
     "                at = e.start\n",
     [f"{BOUNDARIES}::test_bad_utf8_past_the_first_piece[{bad}-{piece}]"
      for bad in ("invalid-start", "truncated-at-end") for piece in (1, 3, 16)]),
    ("a failed read of the trace file escapes as an output error", TRACE,
     "            except OSError as e:\n                raise CohminError(f\"cannot read {self._raw.name}",
     "            except ZeroDivisionError as e:\n                raise CohminError(f\"cannot read {self._raw.name}",
     [f"{BOUNDARIES}::test_a_read_that_fails_after_the_open_is_an_input_error"]),
    ("a read that ends inside a character ends the trace", TRACE,
     "            if text or not data:",
     "            if True:",
     [f"{BOUNDARIES}::test_every_cut_of_a_line_break_or_character[multi-byte]",
      f"{BOUNDARIES}::test_random_bytes_against_whole_decode[0]"]),
    ("a bad line is reported before bad UTF-8 after it", TRACE,
     "            while self._stream.read(_TRACE_PIECE):",
     "            while False:",
     [f"{BOUNDARIES}::test_bad_utf8_wins_over_what_comes_before_it[bad-line-{piece}]"
      for piece in (1, 3, 16)]),
    ("check() resumes after the piece read last", TRACE,
     "        elif self._lines:\n            yield self._lines\n",
     "",
     [f"{STREAMED_TRACE}::test_cli_cases[bad-line-after-violation-65536]",
      f"{BOUNDARIES}::test_bad_utf8_wins_over_what_comes_before_it[violation-then-bad-line-65536]"]),
    ("check() keeps the previous piece while it splits the next", TRACE,
     "            del lines   # before the next piece is split\n",
     "",
     ["tests/test_protocol.py::TestMonitor::test_check_holds_one_piece_at_a_time"]),
    ("the reader keeps a repeated transition twice", FILEFORMAT,
     "adj.setdefault(src, {}).setdefault(v, {})[tgt] = None",
     "adj.setdefault(src, {}).setdefault(v, []).append(tgt)",
     ["tests/test_frontend.py::TestParsing::test_duplicate_transitions_collapse"]),
]
