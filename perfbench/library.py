"""The library workloads: encode-mix and bigint.

Both are closed loops with one caller that calls cnskit's public
functions directly, in passes over a fixed list of seeded inputs.  Each
call is timed on its own; its output is checked after the pass, outside
the timed region.  The first pass is checked in full and also warms the
interpreter up, so its timings are not used; every later pass must
reproduce the first pass's outputs and counters exactly.

In a traced run the passes alternate between untraced and traced, and
the ratio of their times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import resource
import statistics
import time

import checks
import layers
import speed
from spans import Profile, Tracer, median_metrics

MIX_BOUND = 100_000
BIGINT_SAMPLE_PERIOD_S = 0.05
# call kinds and their shares of the stream; over X^2-2X+2 half the
# inputs have no expansion, so those calls end in cycle detection.  The
# shares are exact in every seed's stream, so seeds differ only in the
# integers drawn and in their order.
MIX_SHARES = (("quadratic", 0.40), ("generic", 0.10), ("cycle", 0.075),
              ("cycle-base", 0.075), ("convert", 0.20), ("decode", 0.15))
MIX_SPANS = {"quadratic": "cns.encode[quadratic]", "generic": "cns.encode[generic]",
             "cycle": "cns.encode[cycle]", "cycle-base": "cns.encode[cycle-base]",
             "convert": "penney.convert", "decode": "cns.decode"}


def pass_loop(ctx, run_pass, minimum: int) -> None:
    """Call run_pass(index, traced) while the next pass still fits in
    ctx.seconds, and at least minimum times."""
    started = time.perf_counter()
    last = 0.0
    index = 0
    while index < minimum or time.perf_counter() - started + last <= ctx.seconds:
        begun = time.perf_counter()
        run_pass(index, bool(ctx.trace and index % 2))
        last = time.perf_counter() - begun
        index += 1


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nearest_rank(sorted_values, share: float):
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def traced_setup(lib) -> float:
    """Mean seconds of one build_scheme call at reference speed, building
    the standard scheme under tracing."""
    tracer = Tracer()
    layers.patch_penney(tracer, lib)
    factor = speed.INTERPRETER.now()
    try:
        lib.penney_standard()
    finally:
        tracer.unpatch()
    return Profile(tracer.stats).mean("penney.build_scheme") * factor


def write_trace(ctx, traced_passes) -> None:
    """Write the aggregates of the traced passes out, once the run is over."""
    path = ctx.out_dir / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    path.write_text(json.dumps([prof.stats for _, _, prof in traced_passes]), encoding="utf-8")


class Mix:
    """A seeded stream of single library calls with |z| <= MIX_BOUND."""

    def __init__(self, lib, seed: int, n_ops: int):
        self.lib = lib
        self.p2 = lib.IntPoly((2, 2, 1))
        self.p4 = lib.compose_x_power(self.p2, 2)
        self.pc = lib.IntPoly((2, -2, 1))
        self.scheme = lib.penney_standard()
        self.coeffs = {"quadratic": self.p2.coeffs, "generic": self.p4.coeffs,
                       "cycle-base": self.pc.coeffs, "convert": self.p2.coeffs}
        rng = random.Random(seed)
        kinds = [kind for kind, share in MIX_SHARES for _ in range(round(share * n_ops))]
        rng.shuffle(kinds)
        self.ops = []  # (kind, z, args)
        for kind in kinds:
            z = rng.randint(-MIX_BOUND, MIX_BOUND)
            if kind in ("cycle", "cycle-base"):
                while checks.is_representable(z, self.pc.coeffs) != (kind == "cycle-base"):
                    z = rng.randint(-MIX_BOUND, MIX_BOUND)
                args = (z, self.pc)
            elif kind == "quadratic":
                args = (z, self.p2)
            elif kind == "generic":
                args = (z, self.p4)
            elif kind == "convert":
                args = (z, self.scheme)
            else:
                args = (lib.cns_encode(z, self.p2).representation,)
            self.ops.append((kind, z, args))

    def calls(self, tracer: Tracer | None) -> list:
        lib = self.lib
        fns = {kind: lib.cns_encode for kind in ("quadratic", "generic", "cycle", "cycle-base")}
        fns["convert"] = lib.convert
        fns["decode"] = lib.cns_decode
        if tracer is not None:
            fns = {kind: tracer.wrap(MIX_SPANS[kind], fn, layers.digits_out)
                   for kind, fn in fns.items()}
        return [(fns[kind], args) for kind, _, args in self.ops]

    @staticmethod
    def run_pass(calls) -> tuple[list, list[int], float]:
        clock = time.perf_counter_ns
        outputs = []
        latencies = []
        started = clock()
        for fn, args in calls:
            t0 = clock()
            out = fn(*args)
            t1 = clock()
            outputs.append(out)
            latencies.append(t1 - t0)
        return outputs, latencies, (clock() - started) / 1e9

    def output_ok(self, kind: str, z: int, out) -> bool:
        lib = self.lib
        if kind == "decode":
            return getattr(out, "coeffs", None) == (z, 0)
        if kind == "cycle":
            return (isinstance(out, lib.CnsNotRepresentable)
                    and checks.is_cycle_residue(out.cycle.coeffs, self.pc.coeffs))
        rep = out if kind == "convert" else getattr(out, "representation", None)
        if rep is None or not checks.expansion_ok(rep.digits, z, self.coeffs[kind]):
            return False
        if kind in ("generic", "convert"):
            quadratic = lib.cns_encode(z, self.p2).representation
            want = lib.lift_representation(quadratic, 2) if kind == "generic" else quadratic
            return rep.digits == want.digits
        return True

    def counters(self, outputs) -> dict:
        """Deterministic per-pass counts."""
        cycle_base = sum(1 for kind, _, _ in self.ops if kind in ("cycle", "cycle-base"))
        nonrep = sum(1 for out in outputs if isinstance(out, self.lib.CnsNotRepresentable))
        return {"calls": len(outputs), "cycle_base_calls": cycle_base,
                "non_representable": nonrep,
                "digits_emitted": sum(layers.digits_out(out) for out in outputs)}


def run_mix(ctx, tally) -> tuple[dict, dict]:
    lib = ctx.cnskit
    mix = Mix(lib, ctx.seed, ctx.sizes.mix_ops)
    plain_calls = mix.calls(None)
    reference: list = []
    first_counters: dict = {}
    plain, traced_passes = [], []

    def one_pass(index: int, traced: bool) -> None:
        tracer = Tracer() if traced else None
        if tracer is not None:
            layers.patch_penney(tracer, lib)
        factor = speed.INTERPRETER.now()
        try:
            outputs, latencies, wall = mix.run_pass(mix.calls(tracer) if traced else plain_calls)
        finally:
            if tracer is not None:
                tracer.unpatch()
        if index == 0:
            for (kind, z, _), out in zip(mix.ops, outputs):
                reference.append(out if tally.record(mix.output_ok(kind, z, out)) else None)
            first_counters.update(mix.counters(outputs))
            return
        for ref, out in zip(reference, outputs):
            tally.record(ref is not None and out == ref)
        tally.record(mix.counters(outputs) == first_counters)
        if traced:
            traced_passes.append((wall * factor, factor, Profile(tracer.stats)))
        else:
            ordered = sorted(latencies)
            raw = {"wall_s": wall, "p50_us": nearest_rank(ordered, 0.50) / 1e3,
                   "p99_us": nearest_rank(ordered, 0.99) / 1e3}
            plain.append({**speed.scale_times(raw, factor),
                          "ops_per_s": len(latencies) / (wall * factor),
                          "raw_ops_per_s": len(latencies) / wall, "raw_p50_us": raw["p50_us"]})

    pass_loop(ctx, one_pass, 3 if ctx.trace else 2)
    timing = median_metrics(plain)
    share = first_counters["non_representable"] / max(1, first_counters["cycle_base_calls"])
    info = {"passes": 1 + len(plain) + len(traced_passes), "counters": first_counters,
            "nonrep_share": share, "p99_us": timing["p99_us"],
            "raw": {"latency_p50_ms": timing["raw_p50_us"] / 1e3,
                    "ops_per_s": timing["raw_ops_per_s"]}}
    if not ctx.trace:
        return {"latency_p50_ms": timing["p50_us"] / 1e3,
                "ops_per_s": timing["ops_per_s"],
                "peak_rss_mb": peak_rss_mib()}, info
    per_pass = []
    for wall, factor, prof in traced_passes:
        per_pass.append(speed.scale_times({
            "cns.encode_quadratic_us": prof.mean("cns.encode[quadratic]") * 1e6,
            "cns.encode_generic_us": prof.mean("cns.encode[generic]") * 1e6,
            "cns.encode_cycle_us": prof.mean("cns.encode[cycle]") * 1e6,
            "cns.decode_us": prof.mean("cns.decode") * 1e6,
            "penney.convert_us": prof.mean("penney.convert") * 1e6,
            "cns.encode_calls": prof.calls("cns.encode"),
            "cns.encode_self_s": prof.self_time("cns.encode"),
            "cns.digits_emitted": prof.units("cns.encode"),
        }, factor) | {"trace_overhead_ratio": wall / timing["wall_s"]})
    write_trace(ctx, traced_passes)
    tally.record(len({repr(prof.counts()) for _, _, prof in traced_passes}) == 1)
    metrics = median_metrics(per_pass)
    metrics.update({"penney.build_scheme_us": traced_setup(lib) * 1e6,
                    "mix.nonrep_share": share, "mix.p99_us": info["p99_us"]})
    return metrics, info


class BigInts:
    """Seeded random integers of a few sizes, both signs."""

    def __init__(self, lib, seed: int, labels, shift: int, per_size: int):
        self.lib = lib
        self.p = lib.IntPoly((2, 2, 1))
        self.scheme = lib.penney_standard()
        rng = random.Random(seed)
        self.inputs = []  # (label, bits, [z, ...])
        for label in labels:
            bits = label >> shift
            values = []
            for _ in range(per_size):
                magnitude = rng.getrandbits(bits) | (1 << (bits - 1))
                values.append(magnitude if rng.random() < 0.5 else -magnitude)
            self.inputs.append((label, bits, values))

    def calls(self, tracer: Tracer | None) -> list:
        """Per size: (label, values, encode, convert, negabase, decode)."""
        lib, p, scheme = self.lib, self.p, self.scheme
        out = []
        for label, bits, values in self.inputs:
            # an explicit budget: the default step count runs out near
            # 5000 bits, while an expansion has about 2 digits per bit
            budget = 4 * bits + 64
            fns = {"cns.encode": lambda z, b=budget: lib.cns_encode(z, p, b),
                   "penney.convert": lambda z: lib.convert(z, scheme),
                   "negabase.encode": lambda z: lib.encode_negabase(z, 4),
                   "cns.decode": lib.cns_decode}
            if tracer is not None:
                fns = {name: tracer.wrap(f"{name}[{label}]", fn, layers.digits_out)
                       for name, fn in fns.items()}
            out.append((label, values, *fns.values()))
        return out

    def run_round(self, calls, index: int, tally, sampler: speed.Sampler | None) -> dict:
        """Time every call on the index-th integer of each size, then
        check the outputs; returns seconds per label, unscaled and less
        the speed samples, digit counts and the speed factor."""
        clock = time.perf_counter
        first = len(sampler.samples) if sampler else 0
        before = speed.BIG_DIVISION.now() if sampler is None else None
        seconds = {}
        digits = {}
        for label, values, encode, convert, negabase, decode in calls:
            z = values[index % len(values)]
            spent = sampler.spent if sampler else 0.0
            t0 = clock()
            enc = encode(z)
            t1 = clock()
            conv = convert(z)
            t2 = clock()
            neg = negabase(z)
            t3 = clock()
            rep = getattr(enc, "representation", None)
            dec = decode(rep) if rep is not None else None
            t4 = clock()
            seconds[label] = t4 - t0 - ((sampler.spent - spent) if sampler else 0.0)
            tally.record(rep is not None)
            tally.record(rep is not None and conv.digits == rep.digits)
            tally.record(checks.negabase_value(neg.digits, 4) == z)
            tally.record(getattr(dec, "coeffs", None) == (z, 0))
            digits[label] = (rep.length if rep is not None else 0) + neg.length
        factor = sampler.factor(first) if sampler else before
        if factor is None:  # a round too short to be sampled
            factor = speed.BIG_DIVISION.now()
        return {"seconds": seconds, "digits": digits, "factor": factor}


def run_bigint(ctx, tally) -> tuple[dict, dict]:
    lib = ctx.cnskit
    sizes = ctx.sizes
    ints = BigInts(lib, ctx.seed, sizes.bigint_labels, sizes.bigint_shift,
                   sizes.bigint_per_size)
    headline = max(sizes.bigint_labels)
    plain_calls = ints.calls(None)
    chains: list[tuple[float, float]] = []  # (seconds, factor)
    plain_walls, traced_passes = [], []
    first_counters: dict = {}

    def one_pass(index: int, traced: bool) -> None:
        tracer = Tracer() if traced else None
        if tracer is not None:
            layers.patch_penney(tracer, lib)
        counters: dict = {}
        wall = 0.0
        factors = []
        try:
            calls = ints.calls(tracer) if traced else plain_calls
            # untraced rounds sample the speed while they compute; the
            # samples would land inside the traced spans
            sampler = None if traced else speed.Sampler(BIGINT_SAMPLE_PERIOD_S,
                                                        speed.BIG_DIVISION)
            for i in range(sizes.bigint_per_size):
                with sampler or contextlib.nullcontext():
                    result = ints.run_round(calls, i, tally, sampler)
                for label, count in result["digits"].items():
                    counters[label] = counters.get(label, 0) + count
                wall += sum(result["seconds"].values()) * result["factor"]
                factors.append(result["factor"])
                # the very first round warms up and is not timed
                if not traced and (index, i) != (0, 0):
                    chains.append((result["seconds"][headline], result["factor"]))
        finally:
            if tracer is not None:
                tracer.unpatch()
        if index == 0:
            first_counters.update(counters)
        else:
            tally.record(counters == first_counters)
        if traced:
            traced_passes.append((wall, statistics.median(factors), Profile(tracer.stats)))
        else:
            plain_walls.append(wall)

    pass_loop(ctx, one_pass, 2)
    info = {"passes": len(plain_walls) + len(traced_passes), "rounds_timed": len(chains),
            "counters": {str(k): v for k, v in first_counters.items()}}
    if not ctx.trace:
        scaled = [seconds * factor for seconds, factor in chains]
        raw = [seconds for seconds, _ in chains]
        info["raw"] = {"latency_p50_ms": statistics.median(raw) * 1e3,
                       "ops_per_s": len(raw) / sum(raw)}
        return {"latency_p50_ms": statistics.median(scaled) * 1e3,
                "ops_per_s": len(scaled) / sum(scaled),
                "peak_rss_mb": peak_rss_mib()}, info
    per_pass = []
    for wall, factor, prof in traced_passes:
        values = {"cns.encode_calls": prof.calls("cns.encode"),
                  "cns.encode_self_s": prof.self_time("cns.encode"),
                  "cns.digits_emitted": prof.units("cns.encode")}
        for label in sizes.bigint_labels:
            convert = f"penney.convert[{label}]"
            values[f"cns.encode_{label}_s"] = prof.mean(f"cns.encode[{label}]")
            values[f"cns.decode_{label}_s"] = prof.mean(f"cns.decode[{label}]")
            values[f"negabase.encode_{label}_s"] = prof.mean(f"negabase.encode[{label}]")
            values[f"penney.convert_{label}_s"] = (prof.self_time(convert)
                                                   / max(1, prof.calls(convert)))
        per_pass.append(speed.scale_times(values, factor)
                        | {"trace_overhead_ratio": wall / statistics.median(plain_walls)})
    write_trace(ctx, traced_passes)
    tally.record(len({repr(prof.counts()) for _, _, prof in traced_passes}) == 1)
    metrics = median_metrics(per_pass)
    metrics["penney.build_scheme_us"] = traced_setup(lib) * 1e6
    return metrics, info
