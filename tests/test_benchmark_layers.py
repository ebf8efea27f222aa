"""The benchmark's tracer must find every function it wraps by name.

perfbench/spans.py wraps the public functions of each zeropair module at
run time and raises TraceError when one of them is missing, which would
stop every traced benchmark run.  Installing and uninstalling it here
catches a rename on the program side.
"""

import importlib.util
import sys
from pathlib import Path

from zeropair import zeros

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_layer_resolves_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    original = zeros.zeros_for_modulus
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zeros.zeros_for_modulus is not original
        assert zeros.zeros_for_modulus.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert zeros.zeros_for_modulus is original
