"""The benchmark's Tracer still finds every name it wraps.

perfbench/tracing.py replaces module and class attributes by name (for
example ksgeom.reach.side_of and ksgeom.demos.side_of) and puts the
originals back on uninstall; a name renamed or deleted in src/ breaks
``perfbench/run.py --trace 1``. This test reads perfbench/ and changes
nothing there.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_every_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a KeyError names a wrapped attribute src/ no longer has
        wrapped = list(tracer._originals)
        assert len(wrapped) == 21
        assert all(owner.__dict__[attr] is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in wrapped)
