"""The benchmark's span tracer wraps package functions by name; each must exist.

A hook whose target is missing is skipped by the tracer, which would leave
its layer's per-layer figures at zero; this test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Hooks on names the package no longer has, which stay in the tracer until
# the benchmark drops them; traced runs list them as "hook not found".
RETIRED = {"lzwmetrics.cli.binarize_median"}


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    names = [(module, attr) for module, attr, _, _ in spans.HOOKS]
    return [name for name in names if ".".join(name) not in RETIRED]


@pytest.mark.parametrize("target", _hooks(), ids=".".join)
def test_hook_resolves_in_the_package(target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr, None))
