"""The public names and the benchmark's span targets resolve.

`bench/spans.py` wraps `SPAN_TARGETS` by attribute path when a run is
traced, so a target that a refactor renamed or moved would only show up
as a `KeyError` under `--trace 1`.  This test reads that list; it changes
nothing under `bench/`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fwlop

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("fwlop_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


@pytest.mark.parametrize("name", fwlop.__all__)
def test_public_name_resolves(name):
    assert getattr(fwlop, name) is not None


@pytest.mark.parametrize(
    "module_name, path",
    [(module, path) for _, module, path in _span_targets()],
    ids=lambda value: value,
)
def test_span_target_resolves(module_name, path):
    module = importlib.import_module(f"fwlop.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))
