"""The benchmark tracer finds every package name it wraps, and unwraps them."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_restores_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracing import Recorder

    rec = Recorder(traced=True, burnin=0)
    try:
        # a name the tracer wraps and the package lost raises AttributeError
        rec.install()
        installed = list(rec._installed)
    finally:
        rec.uninstall()
    assert installed
    for owner, attr, fn in installed:
        assert vars(owner)[attr] is fn, f"{owner!r}.{attr} not restored"
