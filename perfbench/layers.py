"""Where the traced runs cut cnskit into layers.

Each entry patches the name a calling module holds.  verify and penney
bind library functions through ``from .x import y``, so the wrapper has
to replace e.g. ``cnskit.verify.cns_length``; patching
``cnskit.cns.cns_length`` alone would leave their calls untraced.
"""

from __future__ import annotations

from checks import SUITE_ORDER

# spans kept one by one: the phases of a verify run
PHASES = ("cli.main", "verify.run_suite", "verify.table",
          *(f"verify.check.{check_id}" for check_id in SUITE_ORDER))


def digits_out(result) -> int:
    """Digits in an encoder or converter result, 0 for anything else."""
    rep = getattr(result, "representation", result)
    return len(getattr(rep, "digits", ()))


def patch_penney(tracer, cnskit) -> None:
    """Trace the calls the penney layer makes into negabase, cns and poly."""
    penney = cnskit.penney
    tracer.patch(penney, "encode_negabase", "negabase.encode", digits_out)
    tracer.patch(penney, "cns_encode", "cns.encode", digits_out)
    tracer.patch(penney, "build_scheme", "penney.build_scheme")
    tracer.patch(penney, "has_simple_roots", "poly.has_simple_roots")
    tracer.patch(penney, "divides_xd_plus_c", "poly.divides_xd_plus_c")


def patch_verify(tracer, cnskit) -> None:
    """Trace a verify run from the CLI down to the library calls."""
    cli, verify = cnskit.cli, cnskit.verify
    tracer.patch(cli, "run_suite", "verify.run_suite")
    tracer.patch(verify, "compute_length_table", "verify.table", len)
    for check_id in SUITE_ORDER:
        tracer.patch(verify, "check_" + check_id, "verify.check." + check_id)
    tracer.patch(verify, "cns_length", "cns.length", int)
    tracer.patch(verify, "cns_encode", "cns.encode", digits_out)
    tracer.patch(verify, "convert", "penney.convert", digits_out)
    tracer.patch(verify, "predicted_length", "penney.predicted_length")
    tracer.patch(verify, "leading_digit_length", "penney.leading_digit_length")
    tracer.patch(verify, "penney_standard", "penney.standard")
    tracer.patch(verify, "build_scheme", "penney.build_scheme")
    tracer.patch(verify, "length_negabase", "negabase.length")
    tracer.patch(verify, "extremal_of_length", "negabase.extremal")
    tracer.patch(verify, "seq_a", "trinomial.seq_a")
    patch_penney(tracer, cnskit)
