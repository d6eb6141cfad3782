"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the fwlop modules at
run time, from outside the package: nothing under ``src/`` is edited and an
untraced run installs no wrapper at all.  Each span records its layer name,
start, end, parent span and the id of the benchmark operation it belongs
to.  Spans stay in memory (flat arrays) and are written out once, when the
run ends.  Self time is computed from the spans afterwards: a span's
duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array

# (span name, module, attribute path inside that module).  The span name's
# first component is the layer (fwlop module) the call belongs to.
SPAN_TARGETS = [
    ("symcore.poly_mul", "symcore", "Poly.__mul__"),
    ("symcore.poly_add", "symcore", "Poly.__add__"),
    ("symcore.poly_add", "symcore", "Poly.__sub__"),
    ("symcore.partial", "symcore", "Poly.partial"),
    ("symcore.partial", "symcore", "Poly.partial_multi"),
    ("symcore.parse", "symcore", "parse_poly"),
    ("symcore.print", "symcore", "poly_to_str"),
    ("diffop.compose", "diffop", "DiffOp.compose"),
    ("diffop.commutator", "diffop", "DiffOp.commutator"),
    ("diffop.apply", "diffop", "DiffOp.apply"),
    ("diffop.recover", "diffop", "DiffOp.recover_coefficients"),
    ("diffop.grade", "diffop", "DiffOp.grade_decompose"),
    ("diffop.doc", "diffop", "diffop_from_doc"),
    ("diffop.doc", "diffop", "diffop_to_doc"),
    ("multivec.eval", "multivec", "SymMultivector.eval"),
    ("multivec.poisson", "multivec", "poisson"),
    ("multivec.sym_product", "multivec", "sym_product"),
    ("multivec.hamiltonian", "multivec", "hamiltonian_field"),
    ("multivec.laplacian", "multivec", "fwl_metric_laplacian"),
    ("multivec.multiderivation", "multivec", "multiderivation_D"),
    ("multivec.multiderivation", "multivec", "multiderivation_l"),
    ("lbundle.a_iso", "lbundle", "a_iso"),
    ("lbundle.a_inverse", "lbundle", "a_inverse"),
    ("lbundle.pair_bracket", "lbundle", "pair_bracket"),
    ("lbundle.pair_product", "lbundle", "pair_product"),
    ("linearize.linearize_do", "linearize", "linearize_do"),
    ("verify.run_suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
]

LAYERS = ["symcore", "diffop", "multivec", "lbundle", "linearize", "verify", "cli"]


class SpanRecorder:
    """Records spans while ``active``; wrappers pass straight through otherwise.

    The benchmark switches ``active`` on around each timed operation only,
    so exactness checks and input generation leave no spans.
    """

    def __init__(self):
        self.names = sorted({name for name, _, _ in SPAN_TARGETS})
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised = set()
        self.op_id = -1
        self.active = False
        self._stack = []
        self._undo = []

    # -- installing wrappers -----------------------------------------------

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        rec = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            stack.append(sid)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.raised.add(sid)
                raise
            finally:
                rec.end[sid] = clock()
                stack.pop()

        return wrapper

    def install(self, package):
        """Wrap every target of the imported fwlop ``package``.

        A module-level function is replaced in every fwlop module that
        imported it by name, so calls between modules are seen too.
        """
        modules = [
            getattr(package, attr)
            for attr in dir(package)
            if type(getattr(package, attr)) is type(package)
        ] + [package]
        for name, module_name, path in SPAN_TARGETS:
            module = getattr(package, module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading the spans ---------------------------------------------------

    def __len__(self):
        return len(self.start)

    def summary(self, scale) -> dict:
        """Per span name: calls, self seconds, spans with no child, raised.

        A span's self time is multiplied by ``scale[op]`` of its operation
        (the harness's host-speed calibration factor).
        """
        count = len(self.start)
        child_time = [0.0] * count
        child_count = [0] * count
        for sid in range(count):
            parent = self.parent[sid]
            if parent >= 0:
                child_time[parent] += self.end[sid] - self.start[sid]
                child_count[parent] += 1
        out = {
            name: {"calls": 0, "self_s": 0.0, "leaf": 0, "raised": 0}
            for name in self.names
        }
        for sid in range(count):
            row = out[self.names[self.name_id[sid]]]
            row["calls"] += 1
            own = self.end[sid] - self.start[sid] - child_time[sid]
            row["self_s"] += own * scale[self.op[sid]]
            if child_count[sid] == 0:
                row["leaf"] += 1
            if sid in self.raised:
                row["raised"] += 1
        return out

    def write(self, path):
        """Write every span as one tab-separated line (raw wall times)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\top\traised\n")
            origin = self.start[0] if len(self.start) else 0.0
            for sid in range(len(self.start)):
                handle.write(
                    f"{sid}\t{self.names[self.name_id[sid]]}\t"
                    f"{self.start[sid] - origin:.9f}\t{self.end[sid] - origin:.9f}\t"
                    f"{self.parent[sid]}\t{self.op[sid]}\t{int(sid in self.raised)}\n"
                )


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from a span summary."""
    metrics = {}

    def calls(name):
        metrics[name + ".calls"] = (summary[name]["calls"], "count")

    def self_s(name):
        metrics[name + ".self_s"] = (summary[name]["self_s"], "s")

    for name in [
        "symcore.poly_mul",
        "symcore.poly_add",
        "symcore.partial",
        "symcore.parse",
        "symcore.print",
        "cli.main",
        "diffop.compose",
        "diffop.apply",
        "diffop.recover",
        "diffop.grade",
        "multivec.poisson",
        "multivec.sym_product",
        "lbundle.pair_bracket",
        "lbundle.pair_product",
        "multivec.hamiltonian",
        "multivec.laplacian",
        "lbundle.a_iso",
        "lbundle.a_inverse",
        "linearize.linearize_do",
        "verify.run_suite",
    ]:
        calls(name)
        self_s(name)
    self_s("diffop.doc")
    calls("diffop.commutator")
    calls("multivec.eval")
    calls("multivec.multiderivation")

    evals = summary["multivec.eval"]
    # A cached evaluation returns without calling into any traced layer.
    metrics["multivec.eval.hit_ratio"] = (
        evals["leaf"] / evals["calls"] if evals["calls"] else 0.0,
        "ratio",
    )
    metrics["cli.escaped_exceptions"] = (summary["cli.main"]["raised"], "count")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    total = sum(layer_self.values())
    span_names = {name.split(".")[0]: [] for name in summary}
    for name in summary:
        span_names[name.split(".")[0]].append(name)
    for layer in LAYERS:
        # A layer with a single traced function already reports it above.
        if len(span_names[layer]) > 1:
            metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.self_share"] = (
            layer_self[layer] / total if total else 0.0,
            "ratio",
        )
    return metrics
