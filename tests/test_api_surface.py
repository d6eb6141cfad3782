"""The public names and the benchmark's span targets resolve, and the
names README lists as removed stay gone.

`bench/spans.py` wraps `SPAN_TARGETS` by attribute path when a run is
traced, so a target that a refactor renamed or moved would only show up
as a `KeyError` under `--trace 1`.  This test reads that list; it changes
nothing under `bench/`.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import fwlop

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def _removed_names():
    """The backticked names before the colon of each bullet under README's
    "Removed names", module paths `fwlop.*` aside; `f(d)` reads as `f`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Removed names\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for bullet in section.split("\n- ")[1:]:
        for token in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0]):
            if not token.startswith("fwlop."):
                names.append(token.split("(", 1)[0])
    return names


REMOVED = _removed_names()
MODULES = ["fwlop"] + [
    f"fwlop.{info.name}" for info in pkgutil.iter_modules(fwlop.__path__)
]


def test_removed_names_are_read_from_the_readme():
    assert {"AmbientContext", "Section", "FrameDerivation", "psi_values"} <= set(
        REMOVED
    )
    assert {
        "Poly.monomials", "Poly.substitute", "Poly.constant_term",
        "base_var", "fiber_var", "dual_var",
    } <= set(REMOVED)
    assert {
        "MultiIndex.entries", "MultiIndex.multiplicity", "MultiIndex.sub_multisets",
    } <= set(REMOVED)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone_from_every_module(name):
    owner, _, attr = name.rpartition(".")
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if owner:
            assert not hasattr(getattr(module, owner, None), attr), module_name
        else:
            assert not hasattr(module, name), module_name
