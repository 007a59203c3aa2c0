"""The benchmark counts a corrupted expansion as failed, at the tiny sizes
of perfbench/selftest.py, with the digits corrupted as they are stored."""

import sys
from pathlib import Path

import cnskit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_selftest(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("selftest", "run", "checks", "library", "speed", "suite", "layers",
                   "spans"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    import selftest
    return selftest


def with_lowest_digit(rep, digit):
    return cnskit.Representation(rep.base, bytes([digit]) + rep.digits[1:])


def test_flipped_convert_digit_counts_as_failed(monkeypatch):
    selftest = perfbench_selftest(monkeypatch)
    convert = cnskit.convert

    def flipped(z, scheme):
        rep = convert(z, scheme)
        return with_lowest_digit(rep, 1 - rep.digits[0])

    monkeypatch.setattr(cnskit, "convert", flipped)
    result, record = selftest.tiny("encode-mix", False)
    assert not result["correct"]
    assert result["failed"] > 0 and record["error_rate"] > 0


def test_bumped_bigint_digit_counts_as_failed(monkeypatch):
    selftest = perfbench_selftest(monkeypatch)
    encode_negabase = cnskit.encode_negabase

    def bumped(z, b):
        rep = encode_negabase(z, b)
        return with_lowest_digit(rep, (rep.digits[0] + 1) % b)

    monkeypatch.setattr(cnskit, "encode_negabase", bumped)
    result, record = selftest.tiny("bigint", False)
    assert result["failed"] > 0 and record["error_rate"] > 0


def test_checker_rejects_a_flipped_digit(monkeypatch):
    perfbench_selftest(monkeypatch)
    import checks

    p = (2, 2, 1)
    rep = cnskit.cns_encode(820, cnskit.IntPoly(p)).representation
    assert type(rep.digits) is bytes
    assert checks.expansion_ok(rep.digits, 820, p)
    assert not checks.expansion_ok(with_lowest_digit(rep, 1 - rep.digits[0]).digits, 820, p)
