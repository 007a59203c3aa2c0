"""Exact canonical digit expansions over monic integer polynomials.

The package expands rational integers in two related positional systems:
negative integer bases, and polynomial bases where X plays the role of
the radix modulo a monic polynomial with all roots inside the unit
circle's complement.  A block-substitution scheme ties the two together:
when the base polynomial divides X^d + c, every base -c digit can be
replaced by a fixed d-digit block.  Everything is exact integer or
rational arithmetic; there is no floating point anywhere.
"""

from .cns import (DEFAULT_MAX_STEPS, CnsDigits, CnsExhausted,
                  CnsNotRepresentable, CnsOutcome, NotRepresentableError,
                  Residue, StepBudgetError, brute_force_oracle, cns_decode,
                  cns_encode, cns_length, decode_negabase, expansion_of, reduce_digits)
from .negabase import (CnsBase, NegaBase, Representation, encode_negabase,
                       extremal_of_length, format_digits, length_negabase, parse_digits)
from .penney import (PenneyScheme, SchemeViolation, ViolationKind, build_scheme,
                     convert, leading_digit_length, penney_standard,
                     predicted_length, scheme_pairs)
from .poly import (IntPoly, NEG_INFINITY, compose_x_power, divides_xd_plus_c,
                   has_simple_roots, poly_add, poly_divrem, poly_eval, poly_mul)
from .trinomial import (SequenceConsistencyError, SequenceId,
                        lift_representation, seq_a, seq_b, seq_c, seq_values,
                        trinomial_length_set)
from .verify import (DigitSumProbe, VerificationReport, check_additive_bounds,
                     check_boundary_jumps, check_digit_sums, check_gap3,
                     check_lambda_bounds, check_length_formula,
                     check_length_set, check_pair_subsequences,
                     check_scheme_counterexample, check_sign_disjoint,
                     compute_length_table, digit_sum_probe, run_suite)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_STEPS", "CnsDigits", "CnsExhausted", "CnsNotRepresentable",
    "CnsOutcome", "NotRepresentableError", "Residue", "StepBudgetError",
    "brute_force_oracle", "cns_decode", "cns_encode", "cns_length",
    "decode_negabase", "expansion_of", "reduce_digits",
    "CnsBase", "NegaBase", "Representation", "encode_negabase",
    "extremal_of_length", "format_digits", "length_negabase", "parse_digits",
    "PenneyScheme", "SchemeViolation", "ViolationKind", "build_scheme",
    "convert", "leading_digit_length", "penney_standard", "predicted_length",
    "scheme_pairs",
    "IntPoly", "NEG_INFINITY", "compose_x_power", "divides_xd_plus_c",
    "has_simple_roots", "poly_add", "poly_divrem", "poly_eval", "poly_mul",
    "SequenceConsistencyError", "SequenceId", "lift_representation", "seq_a",
    "seq_b", "seq_c", "seq_values", "trinomial_length_set",
    "DigitSumProbe", "VerificationReport", "check_additive_bounds",
    "check_boundary_jumps", "check_digit_sums", "check_gap3",
    "check_lambda_bounds", "check_length_formula", "check_length_set",
    "check_pair_subsequences", "check_scheme_counterexample",
    "check_sign_disjoint", "compute_length_table", "digit_sum_probe",
    "run_suite",
    "__version__",
]
