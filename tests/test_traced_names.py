"""The benchmark's span tracer (perfbench/spans.py) wraps library
functions by name, so a renamed or deleted traced name fails here rather
than only when the benchmark self-test next runs."""

import importlib.util
from pathlib import Path

from cmvkit import coeffs, spectral

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

FREE2 = coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                coeffs.make_constant(0.0))


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_resolvent_spans():
    original = spectral.build_gz_context
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        ctx = spectral.build_gz_context(FREE2, 0.5, 100)
        spectral.gz_entry(ctx, 2, 0)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"spectral.build_gz_context", "spectral.gz_entry"} <= names
    assert spectral.build_gz_context is original
