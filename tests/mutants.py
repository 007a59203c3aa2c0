"""A standing mutation list for the fast paths and the length table's readers.

Each mutant replaces one text of a source file with another.  The script
copies src, tests and pyproject.toml to a temporary directory, checks
that every listed test passes there unmutated, then applies one mutant at
a time and runs only that mutant's tests, in sequence.  A mutant is
killed when each of its tests fails (for a test id without parameters,
when one of its cases fails).  An equivalent mutant changes no outcome
the tests can see; it is run all the same, and is expected to survive.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Exit status 0 when every mutant is killed and every equivalent one
survives, 1 otherwise.  stdlib only; pytest is run as a child process.
tests/test_mutants.py checks in tier-1 that each old text occurs exactly
once in its file, so a rewrite of a listed line has to update its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

CNS = "src/cnskit/cns.py"
NEGABASE = "src/cnskit/negabase.py"
PENNEY = "src/cnskit/penney.py"
VERIFY = "src/cnskit/verify.py"

T_CNS = "tests/test_cns.py::"
T_NEGABASE = "tests/test_negabase.py::"
T_PENNEY = "tests/test_penney.py::"
T_VERIFY = "tests/test_verify.py::"
T_GRID = "tests/test_verify_grid.py::"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    # why the mutant changes no outcome, for one listed as equivalent
    equivalent: str = ""


MUTANTS = (
    # the kernel: the box test, the budget edge and the stop at a stored answer
    Mutant("kernel-box-a1-half", CNS,
           "    for _ in range(max_steps):\n"
           "        if low0 <= a0 <= box0 and low1 <= a1 <= box1:",
           "    for _ in range(max_steps):\n"
           "        if low0 <= a0 <= box0 and 0 <= a1 <= box1:",
           (T_CNS + "test_encode_outcomes_equal_the_reference_loop",)),
    Mutant("kernel-budget-one-short", CNS,
           "    for _ in range(max_steps):\n        if low0",
           "    for _ in range(max_steps - 1):\n        if low0",
           (T_CNS + "test_budget_exactly_sufficient",
            T_CNS + "test_encode_outcomes_equal_the_reference_loop")),
    Mutant("kernel-known-budget-edge", CNS,
           "if len(digits) + rest > max_steps:",
           "if len(digits) + rest >= max_steps:",
           (T_CNS + "test_quadratic_length_runs_out_at_the_kernel_budget",)),
    Mutant("cycle-box-real-roots-bounded", CNS,
           "        return inf, inf",
           "        pass",
           (T_CNS + "test_real_roots_cycle_outside_the_box",
            T_CNS + "test_quadratic_length_raises_as_the_kernel_on_bases_with_cycles")),
    # quadratic_length's stop rule
    Mutant("length-budget-edge", CNS,
           "if steps > max_steps:",
           "if steps >= max_steps:",
           (T_CNS + "test_quadratic_length_runs_out_at_the_kernel_budget",)),
    Mutant("length-stop-adds-one", CNS,
           "                        steps += rest\n",
           "                        steps += rest + 1\n",
           (T_CNS + "test_quadratic_length_counts_the_kernel_steps_below_the_table",
            T_VERIFY + "test_table_equals_the_kernel_walk_without_a_memo")),
    Mutant("length-stop-window-narrowed", CNS,
           "                if low <= a0 <= bound:",
           "                if low < a0 <= bound:",
           (T_CNS + "test_quadratic_length_counts_the_kernel_steps_below_the_table",),
           equivalent="a walk not stopped at -bound walks on from it and counts the "
                      "steps that the stored length counted, within the same budget"),
    Mutant("length-exhaustion-counted", CNS,
           "            steps = max_steps + 1  # out of steps",
           "            pass",
           (T_CNS + "test_quadratic_length_runs_out_at_the_kernel_budget",
            T_CNS + "test_quadratic_length_beyond_the_budget_raises_the_kernel_message")),
    # the cycle sets, made at the first state inside the box
    Mutant("kernel-lazy-set-remade", CNS,
           "\n            if seen is None:",
           "\n            if True:",
           (T_CNS + "test_encode_outcomes_equal_the_reference_loop",)),
    Mutant("length-lazy-set-remade", CNS,
           "\n                if seen is None:",
           "\n                if True:",
           (T_CNS + "test_quadratic_length_raises_as_the_kernel_on_bases_with_cycles",)),
    Mutant("kernel-lazy-set-drops-first", CNS,
           "\n                seen = {state}",
           "\n                seen = set()",
           (T_CNS + "test_encode_outcomes_equal_the_reference_loop",),
           equivalent="the first state a walk has inside cycle_box is transient, so it is "
                      "never revisited: over complex roots with p0 <= 60, |p1| <= 40 no "
                      "periodic state has a1 = 0 or a predecessor outside the box, and no "
                      "walk from (z, 0), z != 0, with 2 <= p0 <= 30, |p1| <= 20, "
                      "|z| <= 2000 comes back to a state it entered the box on"),
    Mutant("length-set-kept-across-walks", CNS,
           "    for z in zs:\n        seen = None\n",
           "    seen = None\n    for z in zs:\n",
           (T_VERIFY + "test_table_equals_single_walks_on_an_empty_store",
            T_VERIFY + "test_table_equals_the_kernel_walk_without_a_memo")),
    # quadratic_length's batch store
    Mutant("batch-stores-beyond-the-bound", CNS,
           "        if low <= z <= bound:",
           "        if z <= bound:",
           (T_CNS + "test_a_batch_stores_no_z_beyond_the_bound",)),
    Mutant("batch-stores-before-the-walk", CNS,
           "        a0, a1 = z, 0\n        steps = 0\n",
           "        a0, a1 = z, 0\n        if low <= z <= bound:\n"
           "            data[z + bound] = steps\n        steps = 0\n",
           (T_CNS + "test_a_batch_raises_the_kernel_message_for_its_failing_z",)),
    Mutant("batch-stores-nothing-below-zero", CNS,
           "        if low <= z <= bound:",
           "        if 0 <= z <= bound:",
           (T_VERIFY + "test_table_equals_single_walks_on_an_empty_store",
            T_VERIFY + "test_table_equals_the_kernel_walk_without_a_memo")),
    # _lift_outcome: the budget map and the cycle residue
    Mutant("lift-budget-map-short", CNS,
           "walk = _walk(z, qc, (max_steps - 2) // m + 2)",
           "walk = _walk(z, qc, (max_steps - 2) // m + 1)",
           (T_CNS + "test_q_of_x_to_the_m_equals_the_oracle_and_the_reference_loop",)),
    Mutant("lift-length-edge", CNS,
           "if m * (len(walk) - 1) + 1 > max_steps:",
           "if m * (len(walk) - 1) + 1 >= max_steps:",
           (T_CNS + "test_q_of_x_to_the_m_equals_the_oracle_and_the_reference_loop",)),
    Mutant("lift-cycle-residue-unshifted", CNS,
           "lifted[m - 1::m] = cycle",
           "lifted[::m] = cycle",
           (T_CNS + "test_q_of_x_to_the_m_equals_the_oracle_and_the_reference_loop",)),
    # _byte_walk: the landing, the steps left and the exhaustion map
    Mutant("byte-walk-landing-drops-c1", CNS,
           "max_steps - n * j, a1=c1)",
           "max_steps - n * j)",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",
            T_CNS + "test_big_integer_outcomes_equal_the_reference_loop")),
    Mutant("byte-walk-one-step-more", CNS,
           "max_steps - n * j, a1=c1)",
           "max_steps - n * j + 1, a1=c1)",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",)),
    Mutant("byte-walk-exhaustion-unmapped", CNS,
           "    return CnsExhausted(max_steps) if isinstance(walk, CnsExhausted) else walk",
           "    return walk",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",
            T_CNS + "test_big_integers_exhaust_the_budget_at_the_same_step")),
    # _walk's group count and _byte_base's kept bits
    Mutant("byte-walk-keeps-8-bits", CNS,
           "(z.bit_length() - keep) // 8",
           "(z.bit_length() - 8) // 8",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",
            T_CNS + "test_small_byte_walks_equal_the_reference_loop"),
           equivalent="8 bits are at least every byte base's keep (6, or 8 over X^2 + 16), "
                      "so every landing still lies outside cycle_box; z only reads a byte "
                      "fewer"),
    Mutant("byte-walk-group-past-the-budget", CNS,
           "min((z.bit_length() - keep) // 8, max_steps // j)",
           "min((z.bit_length() - keep) // 8, max_steps // j + 1)",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",
            T_CNS + "test_small_byte_walks_equal_the_reference_loop"),
           equivalent="a kept landing is not periodic, so a walk whose groups overrun "
                      "the budget is exhausted on the plain loop too"),
    Mutant("byte-walk-no-budget-cap", CNS,
           "n = j and min((z.bit_length() - keep) // 8, max_steps // j)",
           "n = j and (z.bit_length() - keep) // 8",
           (T_CNS + "test_byte_walks_equal_the_reference_loop",
            T_CNS + "test_small_byte_walks_equal_the_reference_loop"),
           equivalent="groups past the budget leave the walk on a negative budget, "
                      "which is exhausted at once, as the plain loop is"),
    # one bit fewer puts a landing such as (-15, 0) over X^2 + 2X + 2 in the
    # box; the walks stay exact all the same, as the only periodic states of
    # the byte bases are (0, 0) and, over X^2 - 2X + 2, (-1, 1), far below
    # 2^4 - 1 (found by walking every start with |a_i| <= 80), so only the
    # box test sees it
    Mutant("byte-walk-keeps-a-bit-too-few", CNS,
           "return j, (cycle_box(p0, p1)[0] + c).bit_length() + 1",
           "return j, (cycle_box(p0, p1)[0] + c).bit_length()",
           (T_CNS + "test_kept_bits_put_every_landing_outside_the_box",)),
    Mutant("byte-base-gate-drops-x-squared-plus-16", CNS,
           "if p0 > 256 or p1 * p1 >= 4 * p0:",
           "if p0 > 8 or p1 * p1 >= 4 * p0:",
           (T_CNS + "test_only_bases_with_a_power_256_read_bytes",)),
    Mutant("byte-base-carries-unbounded", CNS,
           "c = max(255 - low, high) // 255",
           "c = 0",
           (T_CNS + "test_kept_bits_put_every_landing_outside_the_box",)),
    # _carry_table's start state
    Mutant("carry-table-start-drops-c1", CNS,
           "            a0, a1 = c0 + b, c1",
           "            a0, a1 = c0 + b, 0",
           (T_CNS + "test_carry_table_equals_plain_steps",
            T_CNS + "test_byte_walks_equal_the_reference_loop")),
    # the negabase mask window
    Mutant("mask-window-short", NEGABASE,
           "pairs = (z.bit_length() + 31) // 16",
           "pairs = (z.bit_length() + 15) // 16",
           (T_NEGABASE + "test_masked_digits_equal_the_plain_loop_at_the_window_edges",)),
    # block substitution's top block and the length formula, shared by
    # convert and predicted_length, against which check i's recurrence is pinned
    Mutant("convert-keeps-top-padding", PENNEY,
           'return bytes(out.rstrip(b"\\0")) or b"\\0"',
           'return bytes(out) or b"\\0"',
           (T_PENNEY + "test_convert_known_values",
            T_PENNEY + "test_raw_digit_functions_are_convert_and_predicted_length",
            T_VERIFY + "test_block_substitutions_equal_penney")),
    Mutant("formula-drops-the-minus-one", PENNEY,
           "return scheme.d * (len(neg) - 1) + scheme.block_lengths[neg[-1]]",
           "return scheme.d * len(neg) + scheme.block_lengths[neg[-1]]",
           (T_PENNEY + "test_predicted_length_formula",
            T_PENNEY + "test_raw_digit_functions_are_convert_and_predicted_length",
            T_VERIFY + "test_block_substitutions_equal_penney")),
    # check i's outward recurrence and its comparison with the direct sweep
    Mutant("recurrence-keeps-top-padding", VERIFY,
           "pair = tops[r], lams[r]",
           "pair = blocks[r], lams[r]",
           (T_VERIFY + "test_block_substitutions_equal_penney",)),
    Mutant("recurrence-formula-drops-d", VERIFY,
           "blocks[r] + substitution, d + length",
           "blocks[r] + substitution, length",
           (T_VERIFY + "test_block_substitutions_equal_penney",)),
    Mutant("check-i-ignores-top-padding", VERIFY,
           "if direct != substituted or",
           "if direct != substituted[:len(direct)] or",
           (T_VERIFY + "test_length_formula_reports_a_padded_top_block",)),
    Mutant("check-i-skips-the-formula", VERIFY,
           "or predicted != len(direct):",
           "or False:",
           (T_VERIFY + "test_length_formula_reports_a_wrong_formula_alone",)),
    # the interleaved decoder's stride
    Mutant("decoder-stride-drops-m", CNS,
           "values = values_at_power_of_two(digits, t, m * len(columns[0]))",
           "values = values_at_power_of_two(digits, t, len(columns[0]))",
           (T_CNS + "test_decode_routes_agree",
            T_CNS + "test_big_expansions_decode_to_their_integer")),
    # base -b digits read over X + b, both routes of the decoder
    Mutant("negabase-decodes-over-x-minus-b", CNS,
           "    return IntPoly((b, 1))",
           "    return IntPoly((-b, 1))",
           (T_NEGABASE + "test_decode_known_values",
            T_NEGABASE + "test_round_trip_small",
            T_NEGABASE + "test_decode_equals_horner")),
    # LengthTable and the lam store
    Mutant("row-keeps-negative-steps-unreversed", VERIFY,
           "        if step < 0:\n            row.reverse()",
           "        if step < 0:\n            pass",
           (T_GRID + "test_lambda_bounds_rows_equal_the_pair_loop_on_corrupted_stores",
            T_GRID + "test_additive_bounds_rows_equal_the_pair_loop_on_corrupted_tables")),
    Mutant("side-minus-one-unreversed", VERIFY,
           "self.data[:bound][::-1]",
           "self.data[:bound]",
           (T_VERIFY + "test_gap3_passes",
            T_VERIFY + "test_gap3_reports_a_step_of_one_below_zero")),
    Mutant("sign-sets-swapped", VERIFY,
           "return sorted(set(self.side(1))), sorted(set(self.side(-1)))",
           "return sorted(set(self.side(-1))), sorted(set(self.side(1)))",
           (T_VERIFY + "test_sign_disjoint_passes",
            T_VERIFY + "test_pair_subsequences_passes")),
    Mutant("lam-fill-place-keeps-its-sign", VERIFY,
           "        place *= -c",
           "        place *= c",
           (T_VERIFY + "test_leading_block_lengths_equal_the_level_fill",)),
    Mutant("lam-fill-interval-one-short", VERIFY,
           "min(high + u * place, bound)",
           "min(high + u * place - 1, bound)",
           (T_VERIFY + "test_leading_block_lengths_equal_the_level_fill",)),
    Mutant("lam-step-drops-the-sign", VERIFY,
           "            v = -(v >> 2)",
           "            v = v >> 2",
           (T_VERIFY + "test_leading_block_lengths_equal_penney",)),
    Mutant("lam-step-floor-division", VERIFY,
           "            v = -(v >> 2)",
           "            v = -(v // 4)",
           (T_VERIFY + "test_leading_block_lengths_equal_penney",),
           equivalent="v >> 2 equals v // 4 for every integer v"),
)


def run_tests(root: Path, tests: tuple[str, ...]) -> set[str]:
    """The ids of the tests among tests that fail or error, run in root."""
    # no bytecode cache: a mutant and the text it replaced may share a size and an mtime
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--no-header", *tests],
        cwd=root, env=env, capture_output=True, text=True)
    failed = set()
    for line in proc.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    if proc.returncode not in (0, 1) or (proc.returncode and not failed):
        # collection failed, or pytest itself did: every listed test counts as failed
        return set(tests)
    return failed


def fails(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cnskit-mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        listed = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        failed = run_tests(root, listed)
        if failed:
            print(f"unmutated source fails: {sorted(failed)}")
            return 1
        bad = 0
        for m in chosen:
            target = root / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: old text occurs {original.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                failed = run_tests(root, m.tests)
            finally:
                target.write_text(original)
            killed = all(fails(t, failed) for t in m.tests)
            if m.equivalent:
                verdict = "KILLED, yet listed as equivalent" if failed else "survived (equivalent)"
                bad += bool(failed)
            else:
                verdict = "killed" if killed else "SURVIVED"
                bad += not killed
                if not killed:
                    verdict += f" (passing: {[t for t in m.tests if not fails(t, failed)]})"
            print(f"{m.name}: {verdict} [{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{len(chosen)} mutants, {bad} not as listed, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
