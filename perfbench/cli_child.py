"""Run the cnskit CLI in this process, sampling the machine's speed.

    python3 perfbench/cli_child.py SPEED_JSON TRACE_JSON|- CLI_ARG...

Runs cnskit.cli.main(CLI_ARG...) in a fresh process, as
`python3 -m cnskit.cli` would.  Meanwhile a speed.Sampler times a short
calibration loop after every SAMPLE_PERIOD_S of CPU time the process
spends; the loop times go to SPEED_JSON.  Unless TRACE_JSON is "-",
the layers of layers.patch_verify are traced and the spans and per-path
aggregates are written there when the CLI returns.  Exits with the CLI's
exit code.  cnskit is imported from src/ next to this directory.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import cnskit.cli  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

SAMPLE_PERIOD_S = 0.2


def main(argv: list[str]) -> int:
    speed_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    run = cnskit.cli.main
    tracer = None
    if trace_path != "-":
        tracer = Tracer(record=layers.PHASES)
        layers.patch_verify(tracer, cnskit)
        run = tracer.wrap("cli.main", run)
    # pool workers fork from this process but do not inherit the timer
    with speed.Sampler(SAMPLE_PERIOD_S, speed.INTERPRETER_SAMPLE) as sampler:
        code = run(cli_args)
    Path(speed_path).write_text(json.dumps(sampler.samples), encoding="utf-8")
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
