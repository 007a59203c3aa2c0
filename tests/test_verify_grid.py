"""Checks vii and viii, which take their grid a row at a time, report exactly
what probing every grid pair one at a time reports.

The reference functions below are the per-pair loops those checks ran
before: every grid pair, then every seeded pair, through one probe.  Both
sides read the same length table or leading-block store, so a corrupted
store changes both alike.
"""

import random

import pytest

import cnskit.verify as verify
from cnskit.verify import (MAX_RECORDED, SAMPLE_BOUND, LengthTable, check_additive_bounds,
                           check_lambda_bounds, compute_length_table)

SAMPLES = 50
SEED = 5


def reference_sweep(probe, grid_bound, samples, seed):
    nonzero = [v for v in range(-grid_bound, grid_bound + 1) if v]
    for x in nonzero:
        for y in nonzero:
            probe(x, y)
    for x, y in verify._sample_pairs(samples, seed, SAMPLE_BOUND):
        probe(x, y)


@pytest.mark.parametrize("bound", [1, 7, SAMPLE_BOUND])
@pytest.mark.parametrize("seed", [0, 5, verify.DEFAULT_SEED, 2**40 + 3])
def test_sample_pairs_draw_as_randint(seed, bound):
    """Each coordinate is the integer randint(-bound, bound) draws from the
    same generator, zeros redrawn in pairs; 25,000 pairs make at least
    50,000 draws."""
    rng = random.Random(seed)
    expected = []
    for _ in range(25_000):
        x = y = 0
        while not (x and y):
            x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        expected.append((x, y))
    assert list(verify._sample_pairs(25_000, seed, bound)) == expected


def reference_lambda_bounds(samples, seed, *, grid_bound):
    lam = verify._leading_block_lengths(grid_bound * grid_bound)
    counterexamples = []
    witnesses = []
    for x, y, expected in ((4, 5, -2), (2, 410, 7)):
        value = lam[x] + lam[y] - lam[x * y]
        witnesses.append([x, y, value])
        if value != expected:
            counterexamples.append([x, y, value, f"expected {expected}"])
    equality_hits = []

    def probe(x, y):
        value = lam[x] + lam[y] - lam[x * y]
        if not -2 <= value <= 7:
            counterexamples.append([x, y, value])
        elif value in (-2, 7) and len(equality_hits) < MAX_RECORDED:
            equality_hits.append([x, y, value])

    reference_sweep(probe, grid_bound, samples, seed)
    witnesses.extend(equality_hits)
    zero_pair_values = {lam[y] for y in range(-grid_bound, grid_bound + 1) if y}
    zero_pair_values.add(lam[0])
    params = {"grid_bound": grid_bound, "samples": samples, "seed": seed,
              "sample_bound": SAMPLE_BOUND,
              "zero_pair_values_observed": sorted(zero_pair_values)}
    return verify._finish("lambda_bounds", params, counterexamples, witnesses, 0.0)


def reference_additive_bounds(samples, seed, *, grid_bound, lengths):
    counterexamples = []
    max_sum_excess = None
    max_product_excess = None

    def probe(x, y):
        nonlocal max_sum_excess, max_product_excess
        lx, ly = lengths[x], lengths[y]
        sum_excess = lengths[x + y] - lx - ly
        product_excess = lengths[x * y] - lx - ly
        if max_sum_excess is None or sum_excess > max_sum_excess:
            max_sum_excess = sum_excess
        if max_product_excess is None or product_excess > max_product_excess:
            max_product_excess = product_excess
        if sum_excess > 2:
            counterexamples.append(["sum", x, y, lx, ly, lx + ly + sum_excess])
        if product_excess > 10:
            counterexamples.append(["product", x, y, lx, ly,
                                    lx + ly + product_excess])

    reference_sweep(probe, grid_bound, samples, seed)
    params = {"grid_bound": grid_bound, "samples": samples, "seed": seed,
              "sample_bound": SAMPLE_BOUND,
              "max_sum_excess": max_sum_excess,
              "max_product_excess": max_product_excess}
    return verify._finish("additive_bounds", params, counterexamples, [], 0.0)


def strip_elapsed(report):
    data = report.to_json_dict()
    data.pop("elapsed_ms")
    return data


def assert_additive_bounds_match(table, grid_bound, samples=SAMPLES):
    got = check_additive_bounds(samples, SEED, grid_bound=grid_bound, lengths=table)
    want = reference_additive_bounds(samples, SEED, grid_bound=grid_bound, lengths=table)
    assert strip_elapsed(got) == strip_elapsed(want)
    return got


def assert_lambda_bounds_match(grid_bound, samples=SAMPLES):
    got = check_lambda_bounds(samples, SEED, grid_bound=grid_bound)
    want = reference_lambda_bounds(samples, SEED, grid_bound=grid_bound)
    assert strip_elapsed(got) == strip_elapsed(want)
    return got


@pytest.fixture(scope="module")
def full_table():
    return compute_length_table(100_000)


TABLE_BOUNDS = [1, 50, 299, 300, 301, 600, 2000, 89_999, 90_000, 100_000]

# on the 300 grid, tables below 89,999 send most rows to the pair loop, which
# walks down for them: seconds a case.  The golden run at --range 2000
# covers that path on this grid.
GRID_CASES = ([(table_bound, grid_bound) for table_bound in TABLE_BOUNDS
               for grid_bound in (0, 1, 30)]
              + [(table_bound, 300) for table_bound in TABLE_BOUNDS if table_bound >= 89_999])


@pytest.mark.parametrize("table_bound, grid_bound", GRID_CASES)
def test_additive_bounds_rows_equal_the_pair_loop(full_table, table_bound, grid_bound):
    """A table smaller than grid_bound^2 or than 2 * grid_bound leaves some
    rows to the per-pair path; every size reports as the pair loop does."""
    offset = 100_000 - table_bound
    table = LengthTable(table_bound, full_table.data[offset:len(full_table.data) - offset])
    assert_additive_bounds_match(table, grid_bound)


@pytest.mark.parametrize("grid_bound", [0, 1, 2, 30, 300])
def test_lambda_bounds_rows_equal_the_pair_loop(grid_bound):
    assert_lambda_bounds_match(grid_bound)


def corrupt(data, zero, places):
    """A copy of data with data[zero + v] = value for each place (v, value)
    that lies in it."""
    data = bytearray(data)
    for v, value in places:
        if -zero <= v < len(data) - zero:
            data[zero + v] = value
    return data


def row_end_places(grid_bound, at, value):
    """One entry at(x, y) per row end y = -grid_bound, grid_bound of rows
    x at both ends of the grid and next to zero, negative and positive."""
    rows = (-grid_bound, -grid_bound + 1, -2, -1, 1, 2, grid_bound - 1, grid_bound)
    return [(at(x, y), value) for x in rows for y in (-grid_bound, grid_bound)]


def random_places(rng, reach, count, values):
    return [(rng.randint(-reach, reach), rng.choice(values)) for _ in range(count)]


def additive_corruptions(grid_bound, lengths):
    g = grid_bound
    rng = random.Random(g)
    rows = (-g, -2, 3, g)
    # lengths one over each slack at the row ends, and exactly at it
    just_over = [(x + y, lengths[x] + lengths[y] + 3) for x in rows for y in (-g, g)]
    just_over += [(x * y, lengths[x] + lengths[y] + 11) for x in rows for y in (-g, g)]
    at_slack = [(x + 1, lengths[x] + lengths[1] + 2) for x in rows]
    at_slack += [(x * 2, lengths[x] + lengths[2] + 10) for x in rows]
    return {
        "sum_row_ends": row_end_places(g, lambda x, y: x + y, 60),
        "product_row_ends": row_end_places(g, lambda x, y: x * y, 60),
        "just_over_the_slacks": just_over,
        "at_the_slacks": at_slack,
        "short_members": [(x, 0) for x in (-g, -7, 3, g)],
        "many_products": random_places(rng, g * g, 4 * MAX_RECORDED, (0, 30, 60, 255)),
        "many_sums": random_places(rng, 2 * g, 4 * MAX_RECORDED, (0, 20, 60)),
    }


@pytest.mark.parametrize("table_bound, grid_bound", [(2000, 30), (600, 30), (100_000, 300)])
@pytest.mark.parametrize("case", ["sum_row_ends", "product_row_ends", "just_over_the_slacks",
                                  "at_the_slacks", "short_members", "many_products",
                                  "many_sums"])
def test_additive_bounds_rows_equal_the_pair_loop_on_corrupted_tables(
        full_table, table_bound, grid_bound, case):
    offset = 100_000 - table_bound
    data = full_table.data[offset:len(full_table.data) - offset]
    places = additive_corruptions(grid_bound, full_table)[case]
    table = LengthTable(table_bound, corrupt(data, table_bound, places))
    report = assert_additive_bounds_match(table, grid_bound)
    assert not report.passed
    if case.startswith("many"):
        assert report.params["counterexample_count"] > MAX_RECORDED


def lambda_corruptions(grid_bound, lam):
    g = grid_bound
    rng = random.Random(g)
    # a stored lam(xy) that makes the pair at a row end read -2, and members
    # stored as 8, which make pairs read 7 and more
    low_hits = [(x * y, lam[x] + lam[y] + 2)
                for x in (-g, -g + 1, -2, 2, g - 1, g) for y in (-g, g)]
    high_members = [(x, 8) for x in (-g, -3, 2, g)]
    return {
        "violations_at_row_ends": row_end_places(g, lambda x, y: x * y, 60),
        "hits_at_row_ends": low_hits,
        "high_members": high_members,
        "many": random_places(rng, g * g, 6 * MAX_RECORDED, (0, 1, 2, 3, 4, 5, 8, 9, 60)),
        "many_members": random_places(rng, g, 2 * MAX_RECORDED, (0, 1, 4, 8, 9)),
    }


@pytest.mark.parametrize("grid_bound", [2, 30, 300])
@pytest.mark.parametrize("case", ["violations_at_row_ends", "hits_at_row_ends",
                                  "high_members", "many", "many_members"])
def test_lambda_bounds_rows_equal_the_pair_loop_on_corrupted_stores(
        monkeypatch, grid_bound, case):
    real = verify._leading_block_lengths
    lam = real(grid_bound * grid_bound)
    data = corrupt(lam.data, lam.bound, lambda_corruptions(grid_bound, lam)[case])

    def leading_block_lengths(bound):
        assert bound == grid_bound * grid_bound
        return type(lam)(lam.bound, data)

    monkeypatch.setattr(verify, "_leading_block_lengths", leading_block_lengths)
    report = assert_lambda_bounds_match(grid_bound)
    if case in ("violations_at_row_ends", "many"):
        assert not report.passed
    if case == "many":
        assert report.params["counterexample_count"] > MAX_RECORDED


def test_lambda_bounds_rows_keep_sparse_hits_in_order(monkeypatch):
    """With fewer than MAX_RECORDED hits on the whole grid, every row that
    holds one is scanned, and the witnesses come in row order."""
    lam = verify._leading_block_lengths(30 * 30)
    # the true grid holds more than MAX_RECORDED hits in its first row; a
    # store of 4s reads lam(x) + lam(y) - lam(xy) = 4 on every pair, and
    # three products planted out of row order read -2, -2 and 7 on eight
    # pairs in six rows
    planted = [(30 * 30, 10), (-29 * 30, 10), (7 * -7, 1)]
    data = corrupt(bytearray([4]) * len(lam.data), lam.bound, planted)
    monkeypatch.setattr(verify, "_leading_block_lengths",
                        lambda bound: type(lam)(lam.bound, data))
    report = assert_lambda_bounds_match(30, samples=0)
    assert report.witnesses_of_equality[2:] == [
        [-30, -30, -2], [-30, 29, -2], [-29, 30, -2], [-7, 7, 7],
        [7, -7, 7], [29, -30, -2], [30, -29, -2], [30, 30, -2]]
