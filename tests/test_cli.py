"""End-to-end command line checks: output bytes, exit codes, JSON shapes."""

import contextlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnskit
from cnskit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_plain(capsys):
    code, out, err = run(capsys, "encode", "--value", "3")
    assert (code, out, err) == (0, "1101\n", "")


def test_encode_json(capsys):
    code, out, _ = run(capsys, "encode", "--value", "3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "poly": "2,2,1", "value": 3, "digits": "1101", "length": 4}


def test_encode_pretty(capsys):
    code, out, _ = run(capsys, "encode", "--value", "3", "--pretty")
    assert (code, out) == (0, "(1101)_p\n")


def test_encode_not_representable(capsys):
    code, out, err = run(capsys, "encode", "--poly", "2,-2,1", "--value", "2")
    assert code == 1
    assert out == ""
    assert "not representable" in err
    assert "(-1, 1)" in err


def test_encode_budget_exhausted(capsys):
    code, _, err = run(capsys, "encode", "--value", "820", "--max-steps", "3")
    assert code == 3
    assert "within 3 steps" in err


def test_encode_rejects_bad_base(capsys):
    code, _, err = run(capsys, "encode", "--poly", "1,1", "--value", "5")
    assert code == 2
    assert "|p(0)| > 1" in err


def test_decode_round_trip(capsys):
    code, out, _ = run(capsys, "decode", "--digits", "1101")
    assert (code, out) == (0, "3\n")


def test_decode_non_constant_residue(capsys):
    code, out, err = run(capsys, "decode", "--digits", "10")
    assert code == 1
    assert out == ""
    assert "non-constant residue" in err


def test_negabase_value_and_digits(capsys):
    code, out, _ = run(capsys, "negabase", "--base", "4", "--value", "820")
    assert (code, out) == (0, "1303030\n")
    code, out, _ = run(capsys, "negabase", "--base", "4", "--digits", "1303030")
    assert (code, out) == (0, "820\n")


def test_negabase_pretty(capsys):
    code, out, _ = run(capsys, "negabase", "--base", "4", "--value", "820",
                       "--pretty")
    assert (code, out) == (0, "(1303030)_-4\n")


def test_convert_json_has_prediction(capsys):
    code, out, _ = run(capsys, "convert", "--value", "820", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == "1110100001101000011010000"
    assert payload["predicted_length"] == payload["length"] == 25


@pytest.mark.parametrize("value", [0, 1, -1, 410, -820,
                                   -(3 << cnskit.negabase.FAST_PATH_BITS) - 5])
def test_convert_reads_the_base_c_digits_once(capsys, monkeypatch, value):
    """convert --json gives convert's digits and a prediction equal to
    their count, from one computation of the base -4 digits; the last
    value is above FAST_PATH_BITS bits, so its digits take the mask path."""
    rep = cnskit.convert(value, cnskit.penney_standard())
    real = cnskit.negabase.negabase_digits
    calls = []

    def counted(z, b):
        calls.append(z)
        return real(z, b)

    for module in (cnskit.cli, cnskit.penney):
        monkeypatch.setattr(module, "negabase_digits", counted)
    code, out, _ = run(capsys, "convert", "--value", str(value), "--json")
    assert (code, calls) == (0, [value])
    payload = json.loads(out)
    assert payload["digits"] == rep.digit_string()
    assert payload["predicted_length"] == payload["length"] == rep.length


def test_scheme_table(capsys):
    code, out, _ = run(capsys, "scheme", "--poly", "2,2,1", "--c", "4",
                       "--d", "4")
    assert code == 0
    assert out == ("base 2,2,1 c 4 d 4\n"
                   "0 = 0000 (length 1)\n"
                   "1 = 0001 (length 1)\n"
                   "2 = 1100 (length 4)\n"
                   "3 = 1101 (length 4)\n")


def test_scheme_violation_exit(capsys):
    code, out, _ = run(capsys, "scheme", "--poly", "8,4,1", "--c", "64",
                       "--d", "4")
    assert code == 1
    assert out == "violation digit 56 needs 7 digits, more than the block width\n"


def test_scheme_violation_json(capsys):
    code, out, _ = run(capsys, "scheme", "--poly", "8,4,1", "--c", "64",
                       "--d", "4", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["violation"] == {
        "kind": "block_too_long", "digit": 56, "block_length": 7}


def test_lift(capsys):
    code, out, _ = run(capsys, "lift", "--digits", "1101", "--k", "2")
    assert (code, out) == (0, "1010001\n")


def test_lift_json_names_composed_base(capsys):
    code, out, _ = run(capsys, "lift", "--digits", "1101", "--k", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lifted_poly"] == "2,0,2,0,1"
    assert payload["lifted_digits"] == "1010001"


def test_seq_one_value_per_line(capsys):
    code, out, _ = run(capsys, "seq", "--name", "a", "--count", "5")
    assert (code, out) == (0, "0\n1\n4\n5\n8\n")


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "--name", "c", "--count", "5", "--json")
    assert json.loads(out) == {"name": "c", "values": [1, 7, 11, 29, 37]}
    assert code == 0


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_seq_json_is_the_bytes_of_json_dumps(capsys, name):
    """The values are written as they come, in the bytes json.dumps
    writes for the whole object."""
    for count in (1, 2, 50):
        code, out, _ = run(capsys, "seq", "--name", name, "--count", str(count), "--json")
        values = cnskit.seq_values(cnskit.SequenceId(name), count)
        assert (code, out) == (0, json.dumps({"name": name, "values": values}) + "\n")


def test_seq_streams_its_values():
    """seq --count 10^12 writes its first 1,000 values within seconds, in a
    child that could not hold them all, and is then killed (after 60 s at
    the latest, so a child that writes nothing ends the reads)."""
    argv, env = cli_argv("seq", "--name", "a", "--count", str(10**12))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=env, preexec_fn=address_space_limit(800_000))
    deadline = threading.Timer(60, proc.kill)
    deadline.start()
    try:
        start = time.monotonic()
        lines = [proc.stdout.readline() for _ in range(1000)]
        elapsed = time.monotonic() - start
    finally:
        deadline.cancel()
        proc.kill()
        proc.communicate()
    assert lines == [f"{cnskit.seq_a(n)}\n" for n in range(1000)]
    assert elapsed < 10


def test_closed_pipe_exits_0_quietly():
    """A reader that leaves after one line, as `cnskit seq ... | head -1`
    does, ends the run with exit 0 and nothing on stderr."""
    argv, env = cli_argv("seq", "--name", "a", "--count", str(10**6))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    deadline = threading.Timer(60, proc.kill)
    deadline.start()
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    finally:
        deadline.cancel()
        proc.kill()
    assert first == f"{cnskit.seq_a(0)}\n"
    assert (code, err) == (0, "")


def test_unwritable_report_exits_2(tmp_path):
    """An OSError other than a closed pipe still exits 2 with one line."""
    argv, env = cli_argv("verify", "--suite", "iv",
                         "--report", str(tmp_path / "missing" / "checks.jsonl"))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_seq_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "seq", "--name", "z", "--count", "5")
    assert code == 2
    assert "invalid choice" in err


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "iv", "--range", "300")
    assert (code, out) == (0, "PASS boundary_jumps\n")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "iv,x")
    assert code == 2
    assert "unknown suite 'x'" in err


def test_verify_viii_reports_failure(capsys):
    """The additive sum slack claim is false, so this exits nonzero."""
    code, out, _ = run(capsys, "verify", "--suite", "viii", "--samples", "200")
    assert code == 1
    assert out.startswith("FAIL additive_bounds counterexamples=4")
    assert "[['sum', 1, 3, 1, 4, 9]" in out


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "checks.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "iv,remark",
                       "--range", "300", "--report", str(path))
    assert code == 0
    assert out == "PASS boundary_jumps\nPASS scheme_counterexample\n"
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["check_id"] for r in records] == [
        "boundary_jumps", "scheme_counterexample"]
    for record in records:
        assert list(record) == ["check_id", "params", "passed",
                                "counterexamples", "witnesses", "elapsed_ms"]
        assert record["passed"] is True


def verify_records(capsys, tmp_path, *argv):
    """Exit code and report lines, without elapsed_ms, of one verify run."""
    path = tmp_path / "checks.jsonl"
    code, _, _ = run(capsys, "verify", *argv, "--report", str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        del record["elapsed_ms"]
    return code, records


def golden_records(name):
    golden = (Path(__file__).parent / "data" / name).read_text()
    return [json.loads(line) for line in golden.splitlines()]


def test_verify_report_matches_the_golden_file(tmp_path, capsys):
    """Every report line of a small full run, apart from elapsed_ms, equals
    the checked-in record; a change to any check's output shows here."""
    code, records = verify_records(capsys, tmp_path, "--suite", "all", "--range", "2000",
                                   "--samples", "200")
    assert code == 1
    assert records == golden_records("verify_small.jsonl")


def test_verify_default_report_matches_the_golden_file(tmp_path, capsys):
    """The same at the default arguments, where every grid row of checks
    vii and viii lies in its store and is compared as a whole."""
    code, records = verify_records(capsys, tmp_path, "--suite", "all")
    assert code == 1
    assert records == golden_records("verify_default.jsonl")


@pytest.mark.parametrize("bound", [[], ["--range", "2000"]], ids=["default", "2000"])
def test_verify_digit_sums_line_is_one_with_or_without_check_i(tmp_path, capsys, bound):
    """Check ix reads the digit sums that check i's sweep recorded when both
    run, and sweeps on its own otherwise; its report line is the same."""
    lines = []
    for suite in ("ix", "i,ix", "all"):
        code, records = verify_records(capsys, tmp_path, "--suite", suite, *bound)
        lines.append(records[-2] if suite == "all" else records[-1])
    assert lines[0]["check_id"] == "digit_sums"
    assert lines[0] == lines[1] == lines[2]


@pytest.mark.parametrize("argv", [
    # the first integer of the sweep exhausts the default budget
    ["verify", "--suite", "i", "--range", str(2**5000)],
    ["verify", "--suite", "ix", "--range", str(2**5000)],
    ["scheme", "--max-steps", "1"],
    ["convert", "--value", "5", "--max-steps", "1"],
    ["verify", "--suite", "ii", "--range", str(2**5000)],
])
def test_budget_exhaustion_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: no decision for ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite", ["i", "ix"])
def test_a_sweep_beyond_the_budget_exits_3_in_one_line(suite):
    """The sweep walks the bottom of the range first, and that integer
    exhausts the step budget: the run exits 3 at once with one line, at
    --jobs 2 as at the default, since verify runs in one process whatever
    --jobs says.  The process group is killed whatever happens."""
    src = str(Path(cnskit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "cnskit.cli", "verify", "--suite", suite,
            "--range", str(2**5000), "--jobs", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert (proc.returncode, out) == (3, "")
    assert err.startswith("error: no decision for ")
    assert err.count("\n") == 1


def python_argv(*argv):
    """argv and environment that run Python with cnskit of this source tree
    importable, in a fresh interpreter."""
    src = str(Path(cnskit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, *argv], env


def cli_argv(*argv):
    """argv and environment that run the cnskit CLI of this source tree in a
    fresh interpreter."""
    return python_argv("-m", "cnskit.cli", *argv)


def test_verify_leaves_no_process_behind():
    """Right after the CLI exits, no process it started is left in its
    process group.  The group is killed whatever happens."""
    argv, env = cli_argv("verify", "--suite", "i,ix", "--range", "300", "--jobs", "2")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert (proc.returncode, out, err) == (0, "PASS length_formula\nPASS digit_sums\n", "")


def address_space_limit(kib):
    """A preexec_fn that caps the child's address space, as `ulimit -v kib`."""
    def limit():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, hard))
    return limit


@pytest.mark.parametrize("suite", ["ii", "ix"])
def test_unallocatable_range_exits_2(suite):
    """A range whose byte store does not fit in memory exits 2 with one
    line, not with a MemoryError traceback and the exit code of a failed
    check.  Only the child runs under the memory limit."""
    argv, env = cli_argv("verify", "--suite", suite, "--range", "1000000000000")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=address_space_limit(4_000_000))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_huge_block_width_is_no_divisibility():
    """scheme and convert at d = 10^8 report the violation without writing
    out the 10^8 coefficients of X^d + c.  One child runs both, under a
    memory limit and a timeout that hold for it alone."""
    code = ("from cnskit.cli import main\n"
            "for argv in (['scheme', '--d', '100000000'],\n"
            "             ['convert', '--d', '100000000', '--value', '5']):\n"
            "    print(main(argv))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=address_space_limit(800_000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "violation no divisibility\n1\n" * 2, "")


def test_scheme_of_too_many_block_digits_exits_2():
    """scheme and convert at c = 4^25, d = 100 (a valid scheme of 4^25
    blocks) exit 2 with one line each, instead of encoding every digit.
    One child runs both, under a memory limit and a timeout that hold for
    it alone."""
    code = ("from cnskit.cli import main\n"
            f"for command in (['scheme'], ['convert', '--value', '5']):\n"
            f"    print(main(command + ['--c', '{4**25}', '--d', '100']))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=address_space_limit(800_000))
    assert (proc.returncode, proc.stdout) == (0, "2\n2\n")
    assert proc.stderr == ("error: c * d = 112589990684262400 block digits, "
                           "more than the 4194304 a scheme may hold\n") * 2


def test_encode_budget_grows_with_the_value():
    """Without --max-steps, encode settles 2^6000, whose expansion is
    longer than the library's 10,000-step default, and its digits are
    convert's.  One child runs both commands."""
    code = ("from cnskit.cli import main\n"
            "for command in ('encode', 'convert'):\n"
            f"    print(main([command, '--value', '{2**6000}']))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    encoded, encode_code, converted, convert_code = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, encode_code, convert_code) == (0, "", "0", "0")
    assert len(encoded) > 10_000
    assert encoded == converted


def test_encode_budget_grows_with_the_degree():
    """Without --max-steps, encode settles 2^5000 over X^6 + 2X^3 + 2,
    whose 30,001 digits are the lift by k = 3 of its 10,001 digits over
    X^2 + 2X + 2: a budget of 4 * bits + 64 steps would run out.  One
    child runs all three commands."""
    code = ("from cnskit.cli import main\n"
            "import contextlib, io\n"
            "def run(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(list(argv))\n"
            "    return code, out.getvalue().strip()\n"
            f"code, quadratic = run('encode', '--value', '{2**5000}')\n"
            "print(code, len(quadratic))\n"
            "print(*run('lift', '--digits', quadratic, '--k', '3'))\n"
            f"print(*run('encode', '--poly', '2,0,0,2,0,0,1', '--value', '{2**5000}'))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    first, lifted, sextic = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, first) == (0, "", "0 10001")
    assert lifted.startswith("0 ") and len(lifted) == 2 + 30_001
    assert sextic == lifted


def test_unequal_norms_are_no_divisibility():
    """X^2 + X + 3 cannot divide X^d + 4 for d = 10^8, since 3^d != 4^2;
    the norm test says so before any residue of X^d is formed."""
    argv, env = cli_argv("scheme", "--poly", "3,1,1", "--d", "100000000")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=address_space_limit(800_000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "violation no divisibility\n", "")


@pytest.mark.parametrize("argv", [
    ["lift", "--digits", "1101", "--k", "100000000000"],
], ids=["lift"])
def test_out_of_memory_exits_2(argv):
    """A result that does not fit in memory exits 2 with one line, not
    with a MemoryError traceback and the exit code of a failed check.
    Only the child runs under the memory limit."""
    argv, env = cli_argv(*argv)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=address_space_limit(800_000))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_out_of_memory_while_parsing_exits_2():
    """A value whose parse does not fit in memory exits 2 with one line,
    although no argument has been parsed to name the command by.  The
    child builds a hexadecimal value of 4 * 10^7 digits, then caps its
    address space 15 MiB above what it uses: the integer needs 20 MiB."""
    code = ("import resource, sys\n"
            "from cnskit.cli import main\n"
            "value = '0x' + 'f' * 40_000_000\n"
            "with open('/proc/self/statm') as statm:\n"
            "    used = int(statm.read().split()[0]) * resource.getpagesize()\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (used + 15 * 2**20, hard))\n"
            "sys.exit(main(['encode', '--value', value]))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_sample_pairs_are_drawn_lazily():
    """The first 5 of 10^9 sample pairs are the 5 pairs of a request for 5,
    taken in a child whose memory could not hold 10^9 pairs."""
    code = ("from itertools import islice\n"
            "from cnskit.verify import DEFAULT_SEED, SAMPLE_BOUND, _sample_pairs\n"
            "first = list(islice(_sample_pairs(10**9, DEFAULT_SEED, SAMPLE_BOUND), 5))\n"
            "print(first == list(_sample_pairs(5, DEFAULT_SEED, SAMPLE_BOUND)))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=address_space_limit(800_000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_jobs_changes_no_output(tmp_path, capsys):
    """--jobs is accepted and has no effect: stdout and report lines at
    --jobs 1 and 2 are identical apart from elapsed_ms."""
    runs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs-{jobs}.jsonl"
        code, out, err = run(capsys, "verify", "--suite", "i,ii,iii,iv,v,vi,ix,remark",
                             "--range", "300", "--jobs", jobs, "--report", str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            del record["elapsed_ms"]
        runs.append((code, out, err, records))
    assert runs[0] == runs[1]
    assert len(runs[0][3]) == 8


def test_huge_integer_is_abbreviated_in_the_error(capsys):
    code, out, err = run(capsys, "encode", "--value", str(2**6000), "--max-steps", "10000")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert len(err) < 200
    assert "(1807 digits)" in err


def test_decode_example_error_is_unchanged(capsys):
    code, out, err = run(capsys, "decode", "--digits", "10")
    assert (code, out) == (1, "")
    assert err == "error: digits '10' denote the non-constant residue (0, 1) over 2,2,1\n"


@pytest.mark.parametrize("digits", ["1" * 3000, "1" + "0" * 30_001],
                         ids=["3000_ones", "x_to_the_30001"])
def test_decode_error_abbreviates_digits_and_residue(capsys, digits):
    code, out, err = run(capsys, "decode", "--digits", digits)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "non-constant residue" in err


@pytest.mark.parametrize("argv, text", [
    (["encode", "--poly=-3," + "0," * 2000 + "1", "--value=-1"], "not representable"),
    (["decode", "--poly=2," + "0," * 2000 + "1", "--digits=10"], "non-constant residue"),
], ids=["encode", "decode"])
def test_error_abbreviates_a_long_polynomial_and_residue(capsys, argv, text):
    """Over a base of 2,002 coefficients, the one error line names the
    polynomial and the residue by their leading coefficients and count."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert len(err.encode()) < 300
    assert text in err
    assert "(2002 coefficients)" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", ""],
    ["verify", "--suite", ","],
    ["verify", "--suite", "iv", "--report", "{missing}/checks.jsonl"],
    # 2 * bound + 1 bytes of table overflow an index
    ["verify", "--suite", "ii", "--range", str(2**70)],
])
def test_verify_fails_before_any_check(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_stdout_is_reproducible(capsys):
    argv = ["verify", "--suite", "vii", "--samples", "300"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    [],
    ["encode"],
    ["negabase", "--base", "1", "--value", "5"],
    ["encode", "--value", "notanint"],
    ["scheme", "--poly", "2,2,1", "--c", "4", "--d", "0"],
    ["scheme", "--poly", "2;2;1", "--c", "4", "--d", "4"],
    ["verify", "--max-steps", "5"],
])
def test_invalid_input_exits_2(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


GOOD_POLY = st.sampled_from(["2,2,1", "8,4,1", "2,-2,1", "2,0,2,0,1", "3,3,1"])
POLY = st.one_of(GOOD_POLY, GOOD_POLY, st.sampled_from(["1,1", "3,2", "2;2;1", ""]),
                 st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(
                     lambda coeffs: ",".join(map(str, coeffs + [1]))))
VALUE = st.integers(-10**6, 10**6) | st.integers(-2**200, 2**200)
DIGITS = st.text("01", min_size=1, max_size=12) | st.text("0123456789.x", max_size=12)
MAX_STEPS = st.integers(1, 2000)
SCHEME = {"--poly": POLY, "--c": st.sampled_from([4, 64]) | st.integers(0, 70),
          "--d": st.sampled_from([4, 8]) | st.integers(0, 8), "--max-steps": MAX_STEPS}
OUTPUT_FLAGS = st.sampled_from([[], ["--json"], ["--pretty"], ["--json", "--pretty"]])
JSON_FLAG = st.sampled_from([[], ["--json"]])
# vii and viii are left out: their pair grid ignores --range and takes
# about a second per run
SUITE = st.lists(st.sampled_from(
    ["i", "ii", "iii", "iv", "v", "vi", "ix", "remark", "x", ""]), max_size=3).map(",".join)


def command(name, flags, switches=st.just([])):
    """argv of one subcommand: each flag with a drawn value, then the switches."""
    return st.tuples(st.fixed_dictionaries(flags), switches).map(
        lambda drawn: [name, *(arg for flag, value in drawn[0].items()
                               for arg in (flag, str(value))), *drawn[1]])


ARGV = st.one_of(
    command("encode", {"--poly": POLY, "--value": VALUE, "--max-steps": MAX_STEPS},
            OUTPUT_FLAGS),
    command("decode", {"--poly": POLY, "--digits": DIGITS}, JSON_FLAG),
    command("negabase", {"--base": st.integers(0, 20), "--value": VALUE}, OUTPUT_FLAGS),
    command("negabase", {"--base": st.integers(0, 20), "--digits": DIGITS}, OUTPUT_FLAGS),
    command("convert", {**SCHEME, "--value": VALUE}, OUTPUT_FLAGS),
    command("scheme", SCHEME, JSON_FLAG),
    command("lift", {"--poly": POLY, "--digits": DIGITS, "--k": st.integers(0, 8)},
            OUTPUT_FLAGS),
    command("seq", {"--name": st.sampled_from("abcz"), "--count": st.integers(0, 50)},
            JSON_FLAG),
    command("verify", {"--suite": SUITE, "--range": st.integers(0, 300),
                       "--samples": st.integers(1, 50)}),
)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(ARGV)
@settings(max_examples=300, deadline=None)
def test_argv_fuzz(argv):
    code, out, err = run_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 3 or (code == 1 and not out):
        assert err.startswith("error: ") and err.count("\n") == 1
    assert run_quietly(argv) == (code, out, err)


def cli_output(*argv):
    """stdout of the CLI in a fresh interpreter, which must exit 0 quietly."""
    args, env = cli_argv(*argv)
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), argv[0]
    return proc.stdout.rstrip("\n")


def test_integers_of_2_to_the_14_bits_round_trip_in_a_child():
    """A 2^14-bit integer, of 4,933 decimal digits, above Python's default
    limit of 4,300, goes through encode and back through decode, and
    through negabase and back through negabase --digits, each in a fresh
    interpreter."""
    z = -(random.Random(14).getrandbits(2**14) | 1 << (2**14 - 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for str(z) and json.loads in this process
    try:
        value = str(z)
        digits = cli_output("encode", f"--value={value}")
        assert len(digits) > 32_000
        assert cli_output("decode", "--digits", digits) == value
        payload = json.loads(cli_output("negabase", "--base", "4", f"--value={value}", "--json"))
        assert payload["value"] == z
        assert cli_output("negabase", "--base", "4", "--digits", payload["digits"]) == value
    finally:
        sys.set_int_max_str_digits(limit)


def test_hexadecimal_integers_of_2_to_the_17_bits_round_trip_in_a_child():
    """A 2^17-bit integer, of 39,457 decimal digits, given as -0x... goes
    through encode and back through decode in one fresh interpreter."""
    z = -(random.Random(17).getrandbits(2**17) | 1 << (2**17 - 1))
    code = ("from cnskit.cli import main\n"
            "import contextlib, io\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    encoded = main(['encode', '--value={z:#x}'])\n"
            "digits = out.getvalue().strip()\n"
            "print(encoded, len(digits))\n"
            "print(main(['decode', '--digits', digits]))\n")
    argv, env = python_argv("-c", code)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    encoded, value, decoded = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, decoded) == (0, "", "0")
    assert encoded.startswith("0 ") and int(encoded.split()[1]) > 2**18 - 100
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for int(value) in this process
    try:
        assert int(value) == z
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value, expected", [
    ("0x334", "820"), ("-0x334", "-820"), ("0x_33_4", "820"), ("-0xFFff", "-65535"),
    ("007", "7")])
def test_value_reads_decimal_and_hexadecimal(capsys, value, expected):
    assert (run(capsys, "encode", f"--value={value}", "--json")
            == run(capsys, "encode", "--value", expected, "--json"))


@pytest.mark.parametrize("value", ["0X1f", "+0x1f", "0o17", "0b101", "x1f", "0x", "-0x-1"])
def test_value_takes_no_other_prefix(capsys, value):
    code, out, err = run(capsys, "encode", f"--value={value}")
    assert (code, out) == (2, "")
    assert f"invalid int value: {value!r}" in err


@pytest.mark.parametrize("command", [["encode"], ["negabase", "--base", "4"], ["convert"]])
@pytest.mark.parametrize("value", ["-0x1f", "-0x_1_f", "-0xzz", "-0x"])
def test_negative_hexadecimal_value_may_be_a_separate_word(capsys, command, value):
    """--value -0x... reads as --value=-0x... does, bad text after -0x
    included, and not as a flag with its value missing."""
    code, out, err = run(capsys, *command, "--value", value)
    assert (code, out, err) == run(capsys, *command, f"--value={value}")
    if value.endswith("f"):
        assert (code, out) == run(capsys, *command, "--value", "-31")[:2]
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert f"invalid int value: {value!r}" in err


@pytest.mark.parametrize("argv", [
    ["encode", "--value", "7"], ["decode", "--digits", "10101"], ["convert", "--value", "7"],
    ["scheme"], ["lift", "--digits", "11", "--k", "2"]], ids=lambda argv: argv[0])
def test_negative_poly_may_be_a_separate_word(capsys, argv):
    """--poly -2,0,1 reads as --poly=-2,0,1 does, and not as a flag with
    its value missing."""
    code, out, err = run(capsys, *argv, "--poly", "-2,0,1")
    assert (code, out, err) == run(capsys, *argv, "--poly=-2,0,1")
    assert code in (0, 1) and out


@pytest.mark.parametrize("command", [["convert"], ["negabase", "--base", "4"]])
def test_hexadecimal_value_beyond_the_ceiling(capsys, command):
    """Hexadecimal is read beyond the ceiling, and --json, which prints
    the value in decimal, exits 2 in one line naming the ceiling."""
    value = "0x" + "f" * 90_000  # 108,371 decimal digits
    code, out, err = run(capsys, *command, "--value", value)
    assert (code, err) == (0, "") and len(out) > 180_000
    code, out, err = run(capsys, *command, "--value", value, "--json")
    assert (code, out) == (2, "")
    assert err == ("error: a result of more than 100000 digits: "
                   "62869359117783580749... (108371 digits)\n")


@pytest.mark.parametrize("command", [["encode"], ["convert"], ["negabase", "--base", "4"]])
@pytest.mark.parametrize("value", ["1" * 100_001, "x" * 200_000], ids=["digits", "text"])
def test_value_beyond_the_ceiling_exits_2_in_one_line(capsys, command, value):
    code, out, err = run(capsys, *command, "--value", value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert "100000 digits" in err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_result_beyond_the_ceiling_exits_2_in_one_line(capsys, flags):
    """18,000 dotted base -10^6 digits denote a value of 108,000 decimal
    digits: one line names the CLI's ceiling, not a Python call."""
    digits = ".".join(["999999"] * 18_000)
    code, out, err = run(capsys, "negabase", "--base", "1000000", "--digits", digits, *flags)
    assert (code, out) == (2, "")
    assert err == ("error: a result of more than 100000 digits: "
                   "-99999800000199999800... (108000 digits)\n")


def test_the_process_limit_is_restored(capsys):
    """main reads 5,000 digits under a limit of 4,321, and leaves 4,321,
    whether the command succeeds or fails."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        assert run(capsys, "encode", "--value", "9" * 5000)[0] == 0
        assert sys.get_int_max_str_digits() == 4321
        assert run(capsys, "encode", "--value", "abc")[0] == 2
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)


def rejection(id, code, *argv, stdout=None):
    """A row of the exit table: argv exits with code and one stderr line
    starting "error: ", or, given a stdout prefix, with one stdout line
    starting with it and nothing on stderr."""
    return pytest.param(list(argv), code, stdout, id=id)


# one row per subcommand and class of input in MANUAL's exit table; the
# classes a child under a memory limit shows are in test_out_of_memory_exits_2
EXIT_TABLE = [
    # 2, rejected by the parser
    rejection("no-subcommand", 2),
    rejection("unknown-subcommand", 2, "bogus"),
    rejection("unknown-flag", 2, "encode", "--value", "3", "--bogus"),
    rejection("encode-missing-value", 2, "encode"),
    rejection("encode-bad-value", 2, "encode", "--value", "abc"),
    rejection("encode-bad-budget", 2, "encode", "--value", "5", "--max-steps", "0"),
    rejection("encode-malformed-poly", 2, "encode", "--value", "5", "--poly", "2,,1"),
    rejection("encode-empty-poly", 2, "encode", "--value", "5", "--poly", ""),
    rejection("decode-missing-digits", 2, "decode"),
    rejection("negabase-bad-base", 2, "negabase", "--base", "0", "--value", "5"),
    rejection("negabase-no-direction", 2, "negabase", "--base", "4"),
    rejection("negabase-both-directions", 2, "negabase", "--base", "4", "--value", "1",
              "--digits", "1"),
    rejection("negabase-digits-pretty", 2, "negabase", "--base", "4", "--digits", "12",
              "--pretty"),
    rejection("convert-bad-c", 2, "convert", "--c", "0", "--value", "3"),
    rejection("scheme-bad-d", 2, "scheme", "--d", "-1"),
    rejection("lift-bad-k", 2, "lift", "--digits", "1101", "--k", "0"),
    rejection("seq-unknown-name", 2, "seq", "--name", "z", "--count", "5"),
    rejection("seq-bad-count", 2, "seq", "--name", "a", "--count", "0"),
    rejection("verify-bad-range", 2, "verify", "--range", "0"),
    rejection("verify-bad-seed", 2, "verify", "--seed", "x"),
    # 2, rejected by the library
    rejection("encode-non-monic", 2, "encode", "--poly", "2,2,2", "--value", "3"),
    rejection("encode-unit-constant", 2, "encode", "--poly", "1,2,1", "--value", "3"),
    rejection("decode-malformed-digits", 2, "decode", "--digits", "1x"),
    rejection("negabase-digit-out-of-range", 2, "negabase", "--base", "4", "--digits", "19"),
    rejection("lift-empty-digits", 2, "lift", "--digits", "", "--k", "2"),
    rejection("scheme-too-large", 2, "scheme", "--c", "1125899906842624", "--d", "100"),
    rejection("verify-empty-suite", 2, "verify", "--suite", ","),
    rejection("verify-unknown-suite", 2, "verify", "--suite", "x"),
    rejection("verify-unwritable-report", 2, "verify", "--suite", "iv", "--report",
              "{tmp}/missing/checks.jsonl"),
    rejection("verify-range-beyond-the-store", 2, "verify", "--suite", "ii", "--range",
              str(2**70)),
    # 1
    rejection("encode-not-representable", 1, "encode", "--poly", "2,-2,1", "--value", "2"),
    rejection("decode-non-constant", 1, "decode", "--digits", "10"),
    rejection("convert-violation", 1, "convert", "--poly", "8,4,1", "--c", "64", "--d", "4",
              "--value", "3", stdout="violation "),
    rejection("scheme-violation", 1, "scheme", "--poly", "8,4,1", "--c", "64", "--d", "4",
              stdout="violation "),
    rejection("verify-failure", 1, "verify", "--suite", "viii", "--range", "300",
              "--samples", "1", stdout="FAIL additive_bounds "),
    # 3
    rejection("encode-budget", 3, "encode", "--value", "820", "--max-steps", "3"),
    rejection("convert-budget", 3, "convert", "--max-steps", "1", "--value", "3"),
    rejection("scheme-budget", 3, "scheme", "--max-steps", "1"),
    rejection("verify-range-beyond-the-budget", 3, "verify", "--suite", "ii", "--range",
              str(2**5000)),
]


@pytest.mark.parametrize("argv, code, stdout", EXIT_TABLE)
def test_every_rejection_is_one_line(capsys, tmp_path, argv, code, stdout):
    """The documented exit code and one line: an error: line on stderr
    with nothing on stdout, or the documented stdout line with nothing
    on stderr; never the usage text or a traceback."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if stdout is None:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        assert out.startswith(stdout) and out.count("\n") == 1, out
