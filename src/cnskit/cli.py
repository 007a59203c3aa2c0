"""Command-line frontend over the expansion library.

All behavior is flag-driven and deterministic: identical argv produces
byte-identical standard output.  Results go to stdout, diagnostics to
stderr.  Exit codes: 0 success (and, for verify, all checks passed),
1 verification failure, unrepresentable value, non-constant decode or
scheme violation, 2 invalid input or a request too large for memory,
3 step budget exhausted.  A reader that closes stdout early ends the
run with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import NoReturn, Sequence

from .cns import (DEFAULT_MAX_STEPS, NotRepresentableError, StepBudgetError, brief,
                  brief_coeffs, cns_decode, cns_encode, decode_negabase, expansion_of)
from .negabase import CnsBase, NegaBase, Representation, encode_negabase, negabase_digits
from .penney import (STANDARD_POLY, SchemeViolation, build_scheme, formula_length,
                     substitute_digits)
from .poly import IntPoly, compose_x_power
from .trinomial import SequenceId, lift_representation, seq_terms
from .verify import DEFAULT_SEED, SAMPLE_COUNT, run_suite

MAX_DECIMAL_DIGITS = 100_000  # the most read or printed; both take quadratic time
# words argparse reads as values, not flags: -0x1f and -2,0,1 as well as -31
_NEGATIVE_VALUE = re.compile(r"^-(\d+(,-?\d+)*|\d*\.\d+|0x\w*)$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections end in main's one error: line
    and exit 2, without the usage text; add_subparsers builds its
    subparsers from this class too."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _poly_arg(text: str) -> IntPoly:
    try:
        return IntPoly.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str) -> int:
    """int(text), or int(text, 16) after 0x or -0x, a parse in linear time
    that no digit ceiling limits; bad text beyond MAX_DECIMAL_DIGITS ends
    the run in one line."""
    try:
        return int(text, 16) if text.startswith(("0x", "-0x")) else int(text)
    except ValueError:
        if len(text) > MAX_DECIMAL_DIGITS:
            raise OverflowError(f"not an integer of at most {MAX_DECIMAL_DIGITS} digits: "
                                f"{brief(text)}")
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of plain text")
    group.add_argument("--pretty", action="store_true",
                       help="wrap digit strings as (digits)_base")


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:  # a hexadecimal --value may lie beyond the ceiling
        _decimal(payload.get("value", 0))
    print(json.dumps(payload) if args.json else text)


def _decimal(value: int) -> str:
    """str(value) for a result, in one line naming the ceiling beyond it."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"a result of more than {MAX_DECIMAL_DIGITS} digits: "
                         f"{brief(value)}") from None


def _emit_digits(args: argparse.Namespace, payload: dict, rep: Representation,
                 prefix: str = "") -> None:
    """_emit for an expansion, whose digits and length join the payload."""
    payload[prefix + "digits"] = rep.digit_string()
    payload[prefix + "length"] = rep.length
    _emit(args, payload, rep.pretty() if args.pretty else rep.digit_string())


def _cmd_encode(args: argparse.Namespace) -> int:
    max_steps = args.max_steps
    if max_steps is None:
        # an expansion over X^2 + 2X + 2 has about 2 digits per bit of z,
        # and one over X^(2m) + 2X^m + 2 about 2m
        degree = len(args.poly.coeffs) - 1
        max_steps = max(DEFAULT_MAX_STEPS, 2 * degree * args.value.bit_length() + 64)
    outcome = cns_encode(args.value, args.poly, max_steps)
    rep = expansion_of(outcome, args.value, args.poly)
    _emit_digits(args, {"poly": args.poly.to_string(), "value": args.value}, rep)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    rep = Representation.from_string(CnsBase(args.poly), args.digits)
    residue = cns_decode(rep)
    if not residue.is_constant:
        print(f"error: digits {brief(args.digits)} denote the non-constant residue "
              f"({brief_coeffs(residue.coeffs, ', ')}) over "
              f"{brief_coeffs(args.poly.coeffs, ',')}", file=sys.stderr)
        return 1
    value = residue.constant_value()
    _emit(args, {"poly": args.poly.to_string(), "digits": rep.digit_string(),
                 "value": value}, _decimal(value))
    return 0


def _cmd_negabase(args: argparse.Namespace) -> int:
    if args.value is not None:
        rep = encode_negabase(args.value, args.base)
        _emit_digits(args, {"base": args.base, "value": args.value}, rep)
    elif args.pretty:
        raise ValueError("--pretty wraps a digit string; negabase --digits prints an integer")
    else:
        rep = Representation.from_string(NegaBase(args.base), args.digits)
        value = decode_negabase(rep)
        _emit(args, {"base": args.base, "digits": rep.digit_string(), "value": value},
              _decimal(value))
    return 0


def _scheme_or_fail(args: argparse.Namespace):
    result = build_scheme(args.poly, args.c, args.d, args.max_steps)
    if isinstance(result, SchemeViolation):
        violation = {"kind": result.kind.value, "digit": result.digit,
                     "block_length": result.block_length}
        _emit(args, {"poly": args.poly.to_string(), "c": args.c, "d": args.d,
                     "violation": violation}, f"violation {result.describe()}")
        return None
    return result


def _cmd_convert(args: argparse.Namespace) -> int:
    scheme = _scheme_or_fail(args)
    if scheme is None:
        return 1
    # convert and predicted_length, on one computation of the base -c digits
    neg = negabase_digits(args.value, scheme.c)
    payload = {"poly": args.poly.to_string(), "c": args.c, "d": args.d,
               "value": args.value,
               "predicted_length": formula_length(neg, scheme)}
    _emit_digits(args, payload, Representation(scheme.base, substitute_digits(neg, scheme)))
    return 0


def _cmd_scheme(args: argparse.Namespace) -> int:
    scheme = _scheme_or_fail(args)
    if scheme is None:
        return 1
    table = scheme.to_dict()
    lines = [f"base {args.poly.to_string()} c {scheme.c} d {scheme.d}"]
    for i, block in enumerate(table["blocks"]):
        lines.append(f"{i} = {block} (length {scheme.block_lengths[i]})")
    _emit(args, table, "\n".join(lines))
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    rep = Representation.from_string(CnsBase(args.poly), args.digits)
    lifted = lift_representation(rep, args.k)
    payload = {"poly": args.poly.to_string(), "k": args.k, "digits": rep.digit_string(),
               "lifted_poly": compose_x_power(args.poly, args.k).to_string()}
    _emit_digits(args, payload, lifted, prefix="lifted_")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    """Each value is written as it is computed, so no count is held in
    memory; --json writes the bytes json.dumps would."""
    values = seq_terms(SequenceId(args.name), args.count)
    out = sys.stdout
    if args.json:
        out.write(f'{{"name": {json.dumps(args.name)}, "values": [{next(values)}')
        out.writelines(f", {v}" for v in values)
        out.write("]}\n")
    else:
        out.writelines(f"{v}\n" for v in values)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = []
    for token in args.suite or ["all"]:
        names.extend(part for part in token.split(",") if part)
    # opened first, so an unwritable path fails before any check runs
    with open(args.report or os.devnull, "w", encoding="utf-8") as handle:
        reports = run_suite(names, bound=args.range, samples=args.samples,
                            seed=args.seed)
        for report in reports:
            print(report.summary())
            handle.write(json.dumps(report.to_json_dict()) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cnskit",
        description="Canonical digit expansions over monic integer polynomials.")
    commands = parser.add_subparsers(dest="command", required=True)

    encode = commands.add_parser("encode", help="expand an integer over a base polynomial")
    encode.add_argument("--poly", type=_poly_arg, default=STANDARD_POLY,
                        help=f"coefficients, constant first (default {STANDARD_POLY})")
    encode.add_argument("--value", type=_int_arg, required=True)
    encode.add_argument("--max-steps", type=_positive_int, default=None,
                        help=f"step budget (default the larger of {DEFAULT_MAX_STEPS} "
                             "and 2 * degree * bits of the value + 64)")
    _add_output_flags(encode)
    encode.set_defaults(handler=_cmd_encode)

    decode = commands.add_parser("decode", help="read a digit string back to an integer")
    decode.add_argument("--poly", type=_poly_arg, default=STANDARD_POLY)
    decode.add_argument("--digits", required=True,
                        help="most significant digit first; dot-separate digits above 9")
    decode.add_argument("--json", action="store_true")
    decode.set_defaults(handler=_cmd_decode)

    negabase = commands.add_parser("negabase", help="negative-base expansion of an integer")
    negabase.add_argument("--base", type=_positive_int, required=True,
                          help="positive b for base -b")
    direction = negabase.add_mutually_exclusive_group(required=True)
    direction.add_argument("--value", type=_int_arg)
    direction.add_argument("--digits")
    _add_output_flags(negabase)
    negabase.set_defaults(handler=_cmd_negabase)

    def add_scheme_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--poly", type=_poly_arg, default=STANDARD_POLY)
        sub.add_argument("--c", type=_positive_int, default=4)
        sub.add_argument("--d", type=_positive_int, default=4)
        sub.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)

    conv = commands.add_parser("convert",
                               help="expand via negative-base digits and block substitution")
    add_scheme_flags(conv)
    conv.add_argument("--value", type=_int_arg, required=True)
    _add_output_flags(conv)
    conv.set_defaults(handler=_cmd_convert)

    scheme = commands.add_parser("scheme", help="build and print a block-substitution table")
    add_scheme_flags(scheme)
    scheme.add_argument("--json", action="store_true")
    scheme.set_defaults(handler=_cmd_scheme)

    lift = commands.add_parser("lift",
                               help="reindex digits onto the base with X replaced by X^k")
    lift.add_argument("--poly", type=_poly_arg, default=STANDARD_POLY)
    lift.add_argument("--digits", required=True)
    lift.add_argument("--k", type=_positive_int, required=True)
    _add_output_flags(lift)
    lift.set_defaults(handler=_cmd_lift)

    seq = commands.add_parser("seq", help="print terms of the length sequences")
    seq.add_argument("--name", choices=[s.value for s in SequenceId], required=True)
    seq.add_argument("--count", type=_positive_int, required=True)
    seq.add_argument("--json", action="store_true")
    seq.set_defaults(handler=_cmd_seq)

    verify = commands.add_parser("verify", help="run the claim checks and print PASS/FAIL lines")
    verify.add_argument("--suite", action="append",
                        help="all or any of i,ii,...,ix,remark (repeatable, comma lists ok)")
    verify.add_argument("--range", type=_positive_int, default=None,
                        help="replace the range of i, of the length table and of ix")
    verify.add_argument("--samples", type=_positive_int, default=SAMPLE_COUNT)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--report", default=None,
                        help="also write one JSON object per check to this path")
    verify.add_argument("--jobs", type=_positive_int, default=1,
                        help="accepted for compatibility; the suite runs in one process")
    verify.set_defaults(handler=_cmd_verify)

    for sub in (encode, decode, negabase, conv, scheme, lift):
        sub._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DECIMAL_DIGITS)  # restored on return
    command = "cnskit"  # until the arguments parse, which can run out of memory too
    try:
        args = parser.parse_args(argv)
        command = args.command
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except StepBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotRepresentableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout, as `cnskit seq ... | head -1` does: stop
        # quietly, with stdout on os.devnull so that the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {command} needs more memory than can be allocated", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
