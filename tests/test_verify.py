"""The claim checks: pass/fail behavior, determinism, partition invariance."""

import json
import random
import time
from fractions import Fraction

import pytest

import cnskit.verify
from cnskit import penney
from cnskit.cli import main
from cnskit.cns import (DEFAULT_MAX_STEPS, StepBudgetError, brute_force_oracle,
                        cns_encode, cns_length, quadratic_length, quadratic_walk)
from cnskit.negabase import format_digits, negabase_digits, parse_digits
from cnskit.penney import convert, leading_digit_length, penney_standard, predicted_length
from cnskit.verify import (DEFAULT_SEED, STANDARD_POLY, SWEEP_BOUND, LengthTable,
                           VerificationReport, check_additive_bounds, check_boundary_jumps,
                           check_digit_sums, check_gap3, check_lambda_bounds,
                           check_length_formula, check_length_set,
                           check_pair_subsequences, check_scheme_counterexample,
                           check_sign_disjoint, compute_length_table,
                           digit_sum_probe, run_suite)
from cnskit.verify import (_block_substitutions, _breaks_digit_sum, _direct_expansions,
                           _finish, _leading_block_lengths, _outward)

SMALL_BOUND = 3000


@pytest.fixture(scope="module")
def table():
    return compute_length_table(SMALL_BOUND)


def strip_elapsed(report):
    data = report.to_json_dict()
    data.pop("elapsed_ms")
    return data


def test_table_partition_invariance():
    """Where the bound cuts the range changes no stored length."""
    whole = compute_length_table(400)
    wider = compute_length_table(1000)
    assert whole.data == wider.data[600:1401]
    assert whole[0] == 1
    assert whole[2] == 4
    assert whole[-1] == 5


@pytest.fixture(scope="module")
def full_table():
    return compute_length_table(SWEEP_BOUND)


@pytest.mark.parametrize("bound", [0, 1, 100])
def test_table_holds_one_entry_per_integer(bound):
    assert len(compute_length_table(bound)) == 2 * bound + 1


def test_table_equals_direct_lengths(full_table):
    for z in range(-2000, 2001):
        assert full_table[z] == cns_length(z, STANDARD_POLY)
    rng = random.Random(5)
    for z in (rng.randint(-SWEEP_BOUND, SWEEP_BOUND) for _ in range(2000)):
        assert full_table[z] == cns_length(z, STANDARD_POLY)


def test_table_agrees_with_the_oracle_on_short_lengths(table):
    """Exactly the integers of length at most 8 have an expansion that
    short, and it is as long as the table says."""
    for z in range(-SMALL_BOUND, SMALL_BOUND + 1):
        found = brute_force_oracle(z, STANDARD_POLY, 8)
        if table[z] <= 8:
            assert found is not None and found.length == table[z]
        else:
            assert found is None


def test_table_walks_down_beyond_its_bound(table):
    rng = random.Random(11)
    for z in (rng.randint(-10**10, 10**10) for _ in range(2000)):
        assert table[z] == cns_length(z, STANDARD_POLY)


def test_table_beyond_the_budget_raises_as_cns_length(table):
    with pytest.raises(StepBudgetError) as direct:
        cns_length(2**20000, STANDARD_POLY)
    with pytest.raises(StepBudgetError) as walked:
        table[2**20000]
    assert str(walked.value) == str(direct.value)


def test_table_equals_the_kernel_walk_without_a_memo():
    plain = bytearray(len(quadratic_walk(z, 2, 2, DEFAULT_MAX_STEPS)[0])
                      for z in range(-SMALL_BOUND, SMALL_BOUND + 1))
    assert compute_length_table(SMALL_BOUND).data == plain


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 5, 17, 400])
def test_table_equals_single_walks_on_an_empty_store(bound):
    """The one batch walk stores for each z what a walk of z alone, with
    no stored length to stop at, counts."""
    single = bytearray(quadratic_length((z,), 2, 2, bytearray(1), 0)
                       for z in range(-bound, bound + 1))
    assert compute_length_table(bound).data == single


def test_length_formula_passes(table):
    report = check_length_formula(800)
    assert report.passed
    assert report.counterexamples == []
    assert report.params["bound"] == 800
    assert report.params["counterexample_count"] == 0


@pytest.mark.parametrize("suite", ["i", "ix"], ids=["i", "ix"])
def test_length_formula_jobs_equivalence(suite, tmp_path, capsys):
    """--jobs is accepted only by the command line; checks i and ix report
    the same at --jobs 1 and 3, apart from elapsed_ms."""
    records = []
    for jobs in ("1", "3"):
        path = tmp_path / f"{suite}-{jobs}.jsonl"
        assert main(["verify", "--suite", suite, "--range", "400",
                     "--jobs", jobs, "--report", str(path)]) == 0
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        del record["elapsed_ms"]
        records.append(record)
    capsys.readouterr()
    assert records[0] == records[1]
    assert records[0]["passed"]


def test_direct_expansions_equal_the_encoder():
    direct = dict(_direct_expansions(10_000))
    assert len(direct) == 20_001
    for z in range(-2000, 2001):
        assert direct[z] == cns_encode(z, STANDARD_POLY).representation.digits
    rng = random.Random(7)
    for z in (rng.randint(-10_000, 10_000) for _ in range(2000)):
        assert direct[z] == cns_encode(z, STANDARD_POLY).representation.digits


def test_direct_expansions_agree_with_the_oracle_on_short_lengths():
    for z, digits in _direct_expansions(SMALL_BOUND):
        found = brute_force_oracle(z, STANDARD_POLY, 8)
        if len(digits) <= 8:
            assert found is not None and found.digits == digits
        else:
            assert found is None


def test_digit_sums_equal_the_encoder():
    """Check ix sums the digits of the expansion sweep: it yields every
    |z| <= 10^4 once, and each sum is that of the encoder's digits."""
    sums = {z: sum(digits) for z, digits in _direct_expansions(10_000)}
    assert sorted(sums) == list(range(-10_000, 10_001))
    for z, digit_sum in sums.items():
        assert digit_sum == sum(cns_encode(z, STANDARD_POLY).representation.digits)


def test_digit_sums_reports_corrupted_sums_in_ascending_order(monkeypatch):
    """Check ix reads the expansion sweep, which runs outward from 0, and
    reports the sums that break the identity in ascending z order."""
    real_expansions = cnskit.verify._direct_expansions
    corrupted = {150: (1,), -37: (1, 1), 9: (1, 0, 1)}

    def expansions(bound):
        for z, digits in real_expansions(bound):
            yield z, corrupted.get(z, digits)

    monkeypatch.setattr(cnskit.verify, "_direct_expansions", expansions)
    report = check_digit_sums(400, trace_bound=0)
    assert report.counterexamples == [[-37, 2], [9, 2], [150, 1]]
    assert report.params["counterexample_count"] == 3


def test_checks_i_and_ix_share_one_sweep(monkeypatch):
    """run_suite walks the expansion sweep once for checks i and ix on one
    bound; ix then reports the digit sums that i's sweep saw break the
    identity, in ascending z order, as its own sweep would."""
    real_expansions = cnskit.verify._direct_expansions
    corrupted = {150: (1,), -37: (1, 1), 9: (1, 0, 1)}
    sweeps = []

    def expansions(bound):
        sweeps.append(bound)
        for z, digits in real_expansions(bound):
            yield z, corrupted.get(z, digits)

    monkeypatch.setattr(cnskit.verify, "_direct_expansions", expansions)
    alone = run_suite(["ix"], bound=400)[0]
    assert sweeps == [400]
    formula, shared = run_suite(["i", "ix"], bound=400)
    assert sweeps == [400, 400]
    assert shared.counterexamples == [[-37, 2], [9, 2], [150, 1]]
    assert strip_elapsed(shared) == strip_elapsed(alone)
    assert [z for z, *_ in formula.counterexamples] == [-37, 9, 150]


def test_leading_block_lengths_equal_penney():
    scheme = penney_standard()
    lam = _leading_block_lengths(300 * 300)
    for v in range(-20_000, 20_001):
        assert lam[v] == leading_digit_length(v, scheme)
    for x in range(-300, 301, 7):
        for y in range(-300, 301, 11):
            assert lam[x * y] == leading_digit_length(x * y, scheme)
    rng = random.Random(13)
    for v in (rng.randint(-10**10, 10**10) for _ in range(2000)):
        assert lam[v] == leading_digit_length(v, scheme)


def reference_leading_block_lengths(bound):
    """(bound, store) of check vii's lam filled a level at a time by the
    base -4 step: the leading digit of v = 4k + r, 0 <= r < 4, is that of
    -k unless k is 0, so once lam is stored on [low, high] it follows on
    [-4 high, -4 low + 3], each residue class r on each side by one
    stride-4 slice of the reversed slice of its heads.  The reference for
    the layout by length intervals."""
    block_lengths = penney_standard().block_lengths
    bound = max(bound, 3)
    data = bytearray(2 * bound + 1)
    data[bound:bound + 4] = bytes(block_lengths[:4])
    low, high = 0, 3
    while low > -bound or high < bound:
        new_low, new_high = max(-4 * high, -bound), min(-4 * low + 3, bound)
        for first, last in ((new_low, low - 1), (high + 1, new_high)):
            for r in range(4):
                # v = 4k + r in [first, last] for first_k <= k <= last_k
                first_k, last_k = (first - r + 3) // 4, (last - r) // 4
                if first_k <= last_k:
                    heads = data[bound - last_k:bound - first_k + 1]
                    data[bound + 4 * first_k + r:bound + 4 * last_k + r + 1:4] = heads[::-1]
        low, high = new_low, new_high
    return bound, data


@pytest.mark.parametrize("bound", [*range(70), 255, 256, 257, 1023, 1024, 4095,
                                   90_000, 100_003, 250_001])
def test_leading_block_lengths_equal_the_level_fill(bound):
    """The whole store equals the level fill's, and lam equals penney's on
    |v| <= 20, read beyond the bound where the bound is smaller."""
    scheme = penney_standard()
    lam = _leading_block_lengths(bound)
    assert (lam.bound, lam.data) == reference_leading_block_lengths(bound)
    for v in range(-20, 21):
        assert lam[v] == leading_digit_length(v, scheme)


def reference_length_formula(bound, digit_sum_failures=None):
    """Check i as a loop over the sweep that computes each z's base -4
    digits from scratch and hands them to penney.substitute_digits and
    penney.formula_length: the reference for the outward recurrence."""
    t0 = time.perf_counter()
    scheme = penney_standard()
    counterexamples = []
    for z, direct in cnskit.verify._direct_expansions(bound):
        if digit_sum_failures is not None:
            digit_sum = sum(direct)
            if _breaks_digit_sum(z, digit_sum):
                digit_sum_failures.append([z, digit_sum])
        neg = negabase_digits(z, scheme.c)
        if (direct != penney.substitute_digits(neg, scheme)
                or penney.formula_length(neg, scheme) != len(direct)):
            counterexamples.append([z, format_digits(direct),
                                    convert(z, scheme).digit_string(),
                                    predicted_length(z, scheme)])
    counterexamples.sort()
    params = {"bound": bound, "max_steps": DEFAULT_MAX_STEPS}
    return _finish("length_formula", params, counterexamples, [], t0)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 5, 10_000])
def test_block_substitutions_equal_penney(bound):
    """For each z of the sweep, the outward recurrence gives what penney's
    substitute_digits and formula_length give on z's base -4 digits."""
    scheme = penney_standard()
    pairs = zip(_outward(bound), _block_substitutions(bound, scheme), strict=True)
    for z, (substituted, predicted) in pairs:
        neg = negabase_digits(z, 4)
        assert substituted == penney.substitute_digits(neg, scheme), z
        assert predicted == penney.formula_length(neg, scheme), z


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 5, 17, 300])
def test_length_formula_equals_the_reference_loop(bound, monkeypatch):
    """Check i reports what the per-integer loop reports, rows and
    digit-sum failures included, on the sweep as it is and on one
    corrupted at integers near zero and beyond."""
    real_expansions = cnskit.verify._direct_expansions
    corrupted = {0: b"\1", -1: b"\1\1", 3: b"\3", 9: b"\1\0\1", 150: b"\1"}

    def expansions(bound):
        for z, digits in real_expansions(bound):
            yield z, corrupted.get(z, digits)

    for sweep in (real_expansions, expansions):
        monkeypatch.setattr(cnskit.verify, "_direct_expansions", sweep)
        failures, reference_failures = [], []
        report = check_length_formula(bound, digit_sum_failures=failures)
        reference = reference_length_formula(bound, reference_failures)
        assert strip_elapsed(report) == strip_elapsed(reference)
        assert failures == reference_failures
    assert report.params["counterexample_count"] == sum(abs(z) <= bound for z in corrupted)


def corrupt_check_i(monkeypatch, corrupt):
    """Pass the (substitution, formula length) of each z that check i's
    outward recurrence yields through corrupt(z, substitution, length)."""
    real = cnskit.verify._block_substitutions

    def corrupted(bound, scheme):
        for z, pair in zip(_outward(bound), real(bound, scheme)):
            yield corrupt(z, *pair)

    monkeypatch.setattr(cnskit.verify, "_block_substitutions", corrupted)


def corrupt_penney(monkeypatch, name, wrong):
    """Replace penney's raw-digit function name, which convert and
    predicted_length call for a counterexample row, by one that returns
    wrong[z] when given z's base -4 digits."""
    real = getattr(penney, name)
    by_digits = {bytes(negabase_digits(z, 4)): value for z, value in wrong.items()}

    def corrupted(neg, scheme):
        key = bytes(neg)
        return by_digits[key] if key in by_digits else real(neg, scheme)

    monkeypatch.setattr(penney, name, corrupted)


def test_length_formula_reports_corrupted_values_in_ascending_order(monkeypatch):
    """Three wrong substitutions, corrupted out of sweep order, are
    reported in ascending z order, each as [z, direct, substituted,
    predicted].  They are injected where check i substitutes on its hot
    path and where convert does for the row."""
    corrupted = {150: "1", -37: "11", 9: "101"}
    wrong = {z: parse_digits(text) for z, text in corrupted.items()}
    corrupt_check_i(monkeypatch, lambda z, sub, length: (wrong.get(z, sub), length))
    corrupt_penney(monkeypatch, "substitute_digits", wrong)
    report = check_length_formula(400)
    scheme = penney_standard()
    assert report.counterexamples == [
        [z, cns_encode(z, STANDARD_POLY).representation.digit_string(), corrupted[z],
         predicted_length(z, scheme)]
        for z in sorted(corrupted)]
    assert report.params["counterexample_count"] == 3


def test_length_formula_reports_a_wrong_formula_alone(monkeypatch):
    """With substitution left right, a formula off by one at a single z
    is reported at exactly that z, with the wrong prediction."""
    scheme = penney_standard()
    direct = cns_encode(-37, STANDARD_POLY).representation
    wrong = {-37: direct.length + 1}
    corrupt_check_i(monkeypatch, lambda z, sub, length: (sub, wrong.get(z, length)))
    corrupt_penney(monkeypatch, "formula_length", wrong)
    report = check_length_formula(400)
    assert report.counterexamples == [
        [-37, direct.digit_string(), direct.digit_string(), direct.length + 1]]
    assert report.params["counterexample_count"] == 1
    assert convert(-37, scheme).digits == direct.digits


def test_length_formula_reports_a_padded_top_block(monkeypatch):
    """A substitution that keeps the top block's padding differs from the
    direct digits exactly where the top base -4 digit is 1, whose block
    0001 has length 1; check i reports each such z.  Only check i's
    recurrence pads, so each row shows convert's unpadded digits."""
    def padded(z, sub, length):
        return sub.ljust(4 * len(negabase_digits(z, 4)), b"\0"), length

    corrupt_check_i(monkeypatch, padded)
    report = check_length_formula(300)
    padded_zs = [z for z in range(-300, 301) if z and negabase_digits(z, 4)[-1] == 1]
    recorded = cnskit.verify.MAX_RECORDED
    assert report.params["counterexample_count"] == len(padded_zs) > recorded
    assert [row[0] for row in report.counterexamples] == padded_zs[:recorded]
    for z, direct, substituted, predicted in report.counterexamples:
        assert direct == substituted == convert(z, penney_standard()).digit_string()
        assert predicted == len(direct)


def test_length_set_passes(table):
    report = check_length_set(prefix_len=6, lengths=table)
    assert report.passed
    assert report.params["attained"][:6] == [1, 4, 5, 8, 9, 12]


@pytest.fixture(scope="module")
def million_table():
    return compute_length_table(10**6)


def sliced(table, bound):
    """The lengths of |z| <= bound, cut from a table of a wider range."""
    zero = table.bound
    return LengthTable(bound, table.data[zero - bound:zero + bound + 1])


@pytest.mark.parametrize("bound, frontier", [(1000, 21), (300_000, 37), (10**6, 41)])
def test_length_set_passes_wherever_the_range_ends(million_table, bound, frontier):
    """At these ranges one sign already reaches a length (24, 40, 44) that
    the other has not reached yet; only a length below the frontier, the
    lesser of the two signs' largest lengths, counts as missing."""
    report = check_length_set(lengths=sliced(million_table, bound))
    assert report.passed, report.counterexamples
    assert report.params["frontier"] == frontier


@pytest.mark.parametrize("removed, kept", [(16, 13), (17, 12)], ids=["negative", "positive"])
def test_length_set_reports_an_interior_length_removed_from_either_sign(
        million_table, removed, kept):
    """Overwriting every length 16 (attained only below zero) or 17 (only
    above) with another length of its sign leaves a gap below the frontier."""
    table = sliced(million_table, 1000)
    data = table.data.replace(bytes([removed]), bytes([kept]))
    report = check_length_set(lengths=LengthTable(1000, data))
    assert not report.passed
    assert report.counterexamples == [["missing_length", removed]]
    assert report.params["frontier"] == 21


def test_length_set_catches_insufficient_range(table):
    report = check_length_set(prefix_len=99, lengths=table)
    assert not report.passed
    assert ["insufficient_range", len(report.params["attained"]), 99] \
        in report.counterexamples


def test_sign_disjoint_passes(table):
    report = check_sign_disjoint(lengths=table)
    assert report.passed
    assert all(L % 8 in (1, 4) for L in report.params["positive_lengths"])
    assert all(L % 8 in (5, 0) for L in report.params["negative_lengths"])
    assert not (set(report.params["positive_lengths"])
                & set(report.params["negative_lengths"]))


def planted(table, places):
    """A copy of table with the value at z set to L for each (z, L) in places."""
    data = bytearray(table.data)
    for z, L in places:
        data[z + table.bound] = L
    return LengthTable(table.bound, data)


def test_sign_disjoint_reports_a_negative_length_on_a_positive(table):
    """Length 5, attained only below zero, written at z = 7 is both shared
    and 5 mod 8 on the positives."""
    report = check_sign_disjoint(lengths=planted(table, [(7, 5)]))
    assert not report.passed
    assert report.counterexamples == [["shared_length", 5], ["positive_mod8", 5]]
    assert 5 in report.params["positive_lengths"]


def test_boundary_jumps_passes():
    report = check_boundary_jumps(5)
    assert report.passed
    # each witness records the boundary length and the +5 jump
    for length, n, len_n, len_next in report.witnesses_of_equality:
        assert len_next == len_n + 5
        assert len_n % 4 == 0


def test_pair_subsequences_passes(table):
    report = check_pair_subsequences(2, lengths=table)
    assert report.passed
    assert ["positive", 1, 4] in report.witnesses_of_equality
    assert ["negative", 5, 8] in report.witnesses_of_equality


@pytest.mark.parametrize("side, removed, kept", [("negative", 13, 16), ("positive", 9, 12)])
def test_pair_subsequences_reports_a_length_removed_from_one_sign(table, side, removed, kept):
    """Overwriting every length 13 (attained only below zero) or 9 (only
    above) with the next length of its sign breaks that sign's sequence
    at index 2, and only that sign's."""
    data = table.data.replace(bytes([removed]), bytes([kept]))
    report = check_pair_subsequences(2, lengths=LengthTable(table.bound, data))
    assert not report.passed
    assert report.counterexamples == [[side, 2, kept, removed]]


def test_gap3_passes(table):
    report = check_gap3(lengths=table)
    assert report.passed


def test_gap3_reports_a_step_of_one_below_zero(table):
    """-11 and -12 have length 8 and -13 has 13: a 9 at -12 is a step of
    1 from -11, and the step of 4 on to -13 stands."""
    assert (table[-11], table[-12], table[-13]) == (8, 8, 13)
    report = check_gap3(lengths=planted(table, [(-12, 9)]))
    assert not report.passed
    assert report.counterexamples == [["negative", -12, 8, 9]]


def test_sweep_checks_read_the_bound_from_the_table():
    table = compute_length_table(100)
    assert check_gap3(lengths=table).passed
    assert check_length_set(lengths=table).params["bound"] == 100


def test_lambda_bounds_passes_and_pins_witnesses():
    report = check_lambda_bounds(samples=500, grid_bound=60)
    assert report.passed
    assert report.witnesses_of_equality[0] == [4, 5, -2]
    assert report.witnesses_of_equality[1] == [2, 410, 7]
    assert report.params["zero_pair_values_observed"] == [1, 4]


def test_additive_bounds_reports_known_sum_violations(table):
    """The stated sum slack of 2 is falsified at exactly four grid pairs;
    the product slack of 10 has no violations anywhere probed."""
    report = check_additive_bounds(samples=500, lengths=table)
    assert not report.passed
    assert report.counterexamples == [
        ["sum", 1, 3, 1, 4, 9],
        ["sum", 1, 51, 1, 12, 17],
        ["sum", 3, 1, 4, 1, 9],
        ["sum", 51, 1, 12, 1, 17],
    ]
    assert not any(kind == "product" for kind, *_ in report.counterexamples)
    assert report.params["max_sum_excess"] == 4
    assert report.params["max_product_excess"] <= 10


def test_digit_sums_passes():
    report = check_digit_sums(300, trace_bound=10)
    assert report.passed
    assert "stabilized_traces" in report.params


def test_digit_sum_probe_values():
    probe = digit_sum_probe(2)
    assert (probe.digit_sum, probe.s_k_derived) == (2, 0)
    probe = digit_sum_probe(-1)
    assert (probe.digit_sum, probe.s_k_derived) == (4, -2)
    probe = digit_sum_probe(20)
    assert (probe.digit_sum, probe.s_k_derived) == (5, 6)
    probe = digit_sum_probe(0)
    assert (probe.digit_sum, probe.s_k_derived) == (0, 0)
    assert probe.stabilized


def test_digit_sum_probe_trace_is_exact_and_unstable():
    """Iterating the averaging recurrence with exact rationals from z = 4
    never becomes constant; it converges to 8/5 without reaching it."""
    probe = digit_sum_probe(4, max_iter=12)
    assert probe.recurrence_trace[:13] == [
        Fraction(4), Fraction(0), Fraction(2), Fraction(2), Fraction(1),
        Fraction(2), Fraction(3, 2), Fraction(3, 2), Fraction(7, 4),
        Fraction(3, 2), Fraction(13, 8), Fraction(13, 8), Fraction(25, 16)]
    assert not probe.stabilized
    tail = probe.recurrence_trace[-1]
    assert abs(tail - Fraction(8, 5)) < Fraction(1, 10)


def test_scheme_counterexample_passes():
    report = check_scheme_counterexample()
    assert report.passed
    assert ["block_too_long", 56, 7] in report.witnesses_of_equality
    assert [56, "1470140"] in report.witnesses_of_equality


def test_run_suite_order_and_selection():
    reports = run_suite(["iv", "remark", "ix"], bound=100)
    assert [r.check_id for r in reports] == [
        "boundary_jumps", "digit_sums", "scheme_counterexample"]
    with pytest.raises(ValueError):
        run_suite(["nope"])


def test_run_suite_calls_the_module_level_check(monkeypatch):
    """A wrapper patched onto cnskit.verify.check_gap3 is what run_suite
    calls; tracing a verify run relies on this."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return check_gap3(*args, **kwargs)

    monkeypatch.setattr(cnskit.verify, "check_gap3", wrapper)
    reports = run_suite(["vi"], bound=100)
    assert calls == [()]
    assert [r.check_id for r in reports] == ["gap3"]


def test_run_suite_small_all_is_deterministic():
    # sweep must reach 30000 to attain four length pairs of each sign
    kwargs = dict(bound=30_000, samples=200, grid_bound=40)
    first = run_suite(["all"], **kwargs)
    second = run_suite(["all"], **kwargs)
    assert [strip_elapsed(r) for r in first] == [strip_elapsed(r) for r in second]
    by_id = {r.check_id: r for r in first}
    assert len(first) == 10
    # the one expected failure: grid pairs (1, 3) and swaps break the sum slack
    assert not by_id["additive_bounds"].passed
    assert all(r.passed for r in first if r.check_id != "additive_bounds")


def test_report_json_shape():
    report = check_boundary_jumps(3)
    data = report.to_json_dict()
    assert list(data) == ["check_id", "params", "passed", "counterexamples",
                          "witnesses", "elapsed_ms"]
    assert json.loads(json.dumps(data)) == data


def test_seed_changes_sample_stream_but_not_grid_verdict():
    a = check_lambda_bounds(samples=300, seed=DEFAULT_SEED, grid_bound=30)
    b = check_lambda_bounds(samples=300, seed=DEFAULT_SEED + 1, grid_bound=30)
    assert a.passed and b.passed
    assert a.params["seed"] != b.params["seed"]
