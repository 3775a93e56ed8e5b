"""Span recorders wrapped around perfectnt's public functions and methods.

The wrappers live only here: `Tracer.install()` replaces each target in
every perfectnt module namespace that holds it (modules import names
directly, so patching the defining module alone would miss callers), and
`Tracer.uninstall()` puts the originals back, so untraced operations run
the unmodified program.

A span is (span id, parent span id, op id, name, start ns, end ns, self ns,
raised). Self time is the span's duration minus the time its child spans
cover. Counts are computed from argument and result shapes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, count name, count function)
TARGETS = (
    ("gf.is_prime", "perfectnt.gf", "is_prime", None, None),
    ("poly.divmod", "perfectnt.poly", "FieldPoly.__divmod__", None, None),
    ("poly.cyclic_mul", "perfectnt.poly", "CyclicRing.mul", None, None),
    ("matrix.rref", "perfectnt.matrix", "rref", "matrix.rref.elim_ops",
     lambda args, res: args[0].rows * args[0].cols * res[1]),
    ("matrix.determinant", "perfectnt.matrix", "determinant", None, None),
    ("matrix.inverse", "perfectnt.matrix", "inverse", None, None),
    ("matrix.mat_vec", "perfectnt.matrix", "FieldMatrix.mat_vec", None, None),
    ("matrix.matmul", "perfectnt.matrix", "FieldMatrix.__matmul__", "matrix.matmul.macs",
     lambda args, res: args[0].rows * args[0].cols * args[1].cols),
    ("matrix.char_poly", "perfectnt.matrix", "char_poly", None, None),
    ("matrix.multiplicative_order", "perfectnt.matrix", "multiplicative_order", None, None),
    ("matrix.parse_matrix", "perfectnt.matrix", "parse_matrix", None, None),
    ("matrix.format_matrix_text", "perfectnt.matrix", "format_matrix_text", None, None),
    ("codes.cyclic_hamming_spec", "perfectnt.codes", "cyclic_hamming_spec", None, None),
    ("codes.all_codewords", "perfectnt.codes", "all_codewords", "codes.all_codewords.words",
     lambda args, res: res.shape[0]),
    ("transforms.build", "perfectnt.transforms", "build_standard", None, None),
    ("transforms.build", "perfectnt.transforms", "build_cyclic", None, None),
    ("transforms.build", "perfectnt.transforms", "build_extended_golay", None, None),
    ("transforms.build", "perfectnt.transforms", "build_appendix_systematic", None, None),
    ("transforms.eigenspace", "perfectnt.transforms", "eigenspace", None, None),
    ("transforms.apply", "perfectnt.transforms", "TransformSpec.apply", None, None),
    ("transforms.apply", "perfectnt.transforms", "TransformSpec.apply_inverse", None, None),
    ("transforms.verify_properties", "perfectnt.transforms", "verify_properties", None, None),
    ("verify.run_target", "perfectnt.verify", "run_target", None, None),
    ("cli.main", "perfectnt.cli", "main", None, None),
)

GOLDEN_TARGETS = (
    "hamming74", "hamming13", "hamming7-cyclic", "golay23-cyclic",
    "golay11-cyclic", "golay11-systematic", "extended-golay12", "control63",
)
LAYERS = ("gf", "poly", "matrix", "codes", "transforms", "verify", "cli")

GV, LB, AS = "golden-verify", "large-build", "apply-stream"

# Per-layer metric -> (unit, end-to-end metrics it should move, workloads).
# The end-to-end names are the detailed ones of the result document; GATED
# maps each to the BENCHMARK.json metric that carries it.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "matrix.rref.calls": ("count", ("eigen_pass_s", "invert_file_s"), (LB,)),
    "matrix.rref.self_s": ("s", ("eigen_pass_s", "invert_file_s"), (LB,)),
    "matrix.rref.elim_ops": ("count", ("eigen_pass_s", "invert_file_s"), (LB,)),
    "matrix.determinant.calls": ("count", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "matrix.determinant.self_s": ("s", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "matrix.inverse.calls": ("count", ("gen_pass_s", "invert_file_s"), (LB,)),
    "matrix.inverse.self_s": ("s", ("gen_pass_s", "invert_file_s"), (LB,)),
    "matrix.mat_vec.calls": ("count", ("apply_us_p1", "apply_us_p50", "apply_us_p99"), (AS,)),
    "matrix.mat_vec.self_s": ("s", ("apply_us_p1", "apply_us_p50", "apply_us_p99"), (AS,)),
    "matrix.matmul.calls": ("count", ("batch_call_us_p1", "batch_vec_per_s"), (AS,)),
    "matrix.matmul.self_s": ("s", ("batch_call_us_p1", "batch_vec_per_s"), (AS,)),
    "matrix.matmul.macs": ("count", ("batch_call_us_p1", "batch_vec_per_s"), (AS,)),
    "matrix.char_poly.self_s": ("s", ("verify_s",), (GV,)),
    "matrix.multiplicative_order.self_s": ("s", ("verify_s",), (GV,)),
    "matrix.parse_matrix.self_s": ("s", ("invert_file_s",), (LB,)),
    "matrix.format_matrix_text.self_s": ("s", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "poly.cyclic_mul.calls": ("count", ("verify_s",), (GV,)),
    "poly.cyclic_mul.self_s": ("s", ("verify_s",), (GV,)),
    "poly.divmod.calls": ("count", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "poly.divmod.self_s": ("s", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "codes.cyclic_hamming_spec.self_s": ("s", ("gen_pass_s", "eigen_pass_s"), (LB,)),
    "codes.all_codewords.self_s": ("s", ("verify_s",), (GV,)),
    "codes.all_codewords.words": ("count", ("verify_s",), (GV,)),
    "transforms.build.self_s": ("s", ("gen_pass_s", "setup_s"), (LB, AS)),
    "transforms.eigenspace.self_s": ("s", ("verify_s",), (GV,)),
    "transforms.apply.self_s": ("s", ("apply_us_p1", "apply_us_p50"), (AS,)),
    "transforms.verify_properties.self_s": ("s", ("verify_s",), (GV,)),
    **{f"verify.run_target.{t}.self_s": ("s", ("verify_s",), (GV,)) for t in GOLDEN_TARGETS},
    "gf.is_prime.calls": ("count", ("setup_s", "invert_file_s"), (GV, LB, AS)),
    "gf.is_prime.self_s": ("s", ("setup_s", "invert_file_s"), (GV, LB, AS)),
    "cli.import_s": ("s", ("setup_s", "verify_s", "gen_pass_s", "eigen_pass_s", "invert_file_s"), (GV, LB)),
    "cli.main.self_s": ("s", ("verify_s", "gen_pass_s", "eigen_pass_s", "invert_file_s"), (GV, LB)),
    **{f"{layer}.raised": ("count", ("fail_frac",), (GV, LB, AS)) for layer in LAYERS},
}
GATED = {
    "setup_s": "setup_s",
    **dict.fromkeys(("verify_s", "gen_pass_s", "eigen_pass_s", "invert_file_s", "apply_us_p1"), "latency_s"),
    **dict.fromkeys(("batch_call_us_p1",), "throughput_per_s"),
}


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed; aggregates them per span name."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_name, count_fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = f"{name}.{args[0].name}" if name == "verify.run_target" else name
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            raised = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((
                    frame[0], parent[0] if parent else None, tracer.op_id, span_name,
                    start, end, end - start - frame[1], raised,
                ))
            if count_name:
                tracer.counts[count_name] += count_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "perfectnt" or n.startswith("perfectnt.")]
        for name, module_name, path, count_name, count_fn in TARGETS:
            if module_name not in sys.modules:  # never imported, so never called
                continue
            owner, attr = _resolve(sys.modules[module_name], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count_name, count_fn)
            holders = [owner] if "." in path else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every LAYER_METRICS value except cli.import_s, per traced operation."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        raised: dict[str, int] = defaultdict(int)
        for _, _, _, name, _, _, own, exc in self.spans:
            calls[name] += 1
            self_ns[name] += own
            raised[name.split(".")[0]] += exc
        out = {}
        for metric in LAYER_METRICS:
            if metric == "cli.import_s":
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                total = calls[base]
            elif kind == "self_s":
                total = self_ns[base] / 1e9
            elif kind == "raised":
                total = raised[base]
            else:
                total = self.counts[metric]
            out[metric] = total / ops
        return out

    def write_spans(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns", "self_ns", "raised"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(fields) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
