"""The names the benchmark's traced runs patch still exist in cnskit."""

import sys
from pathlib import Path

import cnskit.cli
import cnskit.penney
import cnskit.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class LookupTracer:
    """Looks up each name a traced run would patch, and patches nothing."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name, units=None):
        getattr(owner, attr)  # a name gone from cnskit raises here
        self.patched.append((owner.__name__, attr))


def test_every_name_the_benchmark_patches_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("layers", "checks"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    import layers

    tracer = LookupTracer()
    layers.patch_verify(tracer, cnskit)
    owners = {owner for owner, _ in tracer.patched}
    assert owners == {"cnskit.cli", "cnskit.verify", "cnskit.penney"}
    assert ("cnskit.penney", "divides_xd_plus_c") in tracer.patched
