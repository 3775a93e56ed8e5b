"""In-process runner, started by run.py as a child process.

Usage: python3 bench/worker.py '<json config>'

The config names the workload, seed, seconds, trace flag, work directory
and whether to stop after set-up. The worker sets up, prints "READY",
runs operations until the seconds are spent and prints one JSON line
with the raw samples. With tracing on, operations alternate between
untraced and traced so that the two can be compared on the same inputs
in the same process; per-layer metrics cover the traced ones only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer

SAMPLED_ROWS = 8  # batch rows compared with the single-vector path
FREIVALDS_COLUMNS = 16  # random projections checking the whole batch


def call_cli(argv: list[str]) -> tuple[int, bytes]:
    import perfectnt.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = perfectnt.cli.main(argv)
    return rc, buf.getvalue().encode("utf-8")


class GoldenVerify:
    """One op: `perfectnt verify --seed S --trials 1000`."""

    def __init__(self, seed: int, work: Path):
        import perfectnt.cli  # noqa: F401  (set-up cost: the import)

        self.rng = random.Random(seed)

    def op(self):
        argv = wl.verify_argv(self.rng)
        start = time.perf_counter()
        rc, out = call_cli(argv)
        return [("verify", time.perf_counter() - start)], [(rc, out)]

    def check(self, outputs) -> list[str]:
        (rc, out), = outputs
        err = f"verify: exit {rc}" if rc != 0 else wl.check_verify(out)
        return [err] if err else []


class LargeBuild:
    """One op: a round of gen/eigen on N=255 and N=400, and invert on the N=400 file."""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.path = str(work / f"hamming400-seed{seed}.txt")
        lam = self.rng.choice(wl.HAMMING400_LAMBDAS)
        rc, _ = call_cli(wl.gen400_argv(lam, self.path))
        text = Path(self.path).read_text(encoding="utf-8")
        if rc != 0 or wl.sha256(text.encode()) != wl.DIGESTS[f"gen-hamming400-lambda{lam}"]:
            raise SystemExit("set-up: the N=400 matrix file differs from the recorded digest")
        self.matrix = wl.read_matrix_file(text)

    def op(self):
        samples, outputs = [], []
        for kind, argv, expect in wl.large_build_round(self.rng, self.path):
            start = time.perf_counter()
            rc, out = call_cli(argv)
            samples.append((kind, time.perf_counter() - start))
            outputs.append((kind, rc, out, expect))
        return samples, outputs

    def check(self, outputs) -> list[str]:
        errors = []
        for kind, rc, out, expect in outputs:
            err = f"{kind}: exit {rc}" if rc != 0 else wl.check_large_build(kind, out, expect, self.matrix)
            if err:
                errors.append(err)
        return errors


class ApplyStream:
    """One op: per transform, single-vector round trips then batched products."""

    def __init__(self, seed: int, work: Path):
        from perfectnt.codes import cyclic_hamming_spec, hamming_parity_check
        from perfectnt.matrix import FieldMatrix
        from perfectnt.transforms import build_cyclic, build_standard

        self.FieldMatrix = FieldMatrix
        self.rng = np.random.default_rng(seed)
        lam = int(self.rng.choice(list(wl.HAMMING400_LAMBDAS)))
        self.transforms = []
        for label, t in (
            ("hamming400", build_standard(hamming_parity_check(7, 4), lam)),
            ("cyclic255", build_cyclic(cyclic_hamming_spec(2, 8), 1)),
        ):
            self.transforms.append((label, t, t.matrix.transpose()))

    def op(self):
        samples, outputs = [], []
        for label, t, mt in self.transforms:
            p, n = t.field.p, t.n
            singles = self.rng.integers(0, p, size=(wl.SINGLES_PER_TRANSFORM, n), dtype=np.int64)
            batch = self.rng.integers(0, p, size=(wl.BATCH, n), dtype=np.int64)
            backs = []
            for v in singles:
                start = time.perf_counter()
                back = t.apply_inverse(t.apply(v))
                samples.append((f"single.{label}", time.perf_counter() - start))
                backs.append(back)
            products = []
            for rows in np.split(batch, wl.BATCH // wl.BATCH_CALL):
                start = time.perf_counter()
                product = self.FieldMatrix(t.field, rows) @ mt
                samples.append((f"batch.{label}", time.perf_counter() - start))
                products.append(product.data)
            outputs.append((label, t, singles, backs, batch, np.vstack(products)))
        return samples, outputs

    def check(self, outputs) -> list[str]:
        errors = []
        for label, t, singles, backs, batch, product in outputs:
            p = t.field.p
            for v, back in zip(singles, backs):
                if not np.array_equal(back, v):
                    errors.append(f"single.{label}: apply_inverse(apply(v)) != v")
            rows = self.rng.choice(wl.BATCH, size=SAMPLED_ROWS, replace=False)
            r = self.rng.integers(0, p, size=(t.n, FREIVALDS_COLUMNS), dtype=np.int64)
            if product.shape != batch.shape:
                errors.append(f"batch.{label}: product has shape {product.shape}")
            elif any(not np.array_equal(product[i], t.apply(batch[i])) for i in rows):
                errors.append(f"batch.{label}: a row differs from the single-vector result")
            elif not np.array_equal((product @ r) % p, (batch @ ((t.matrix.data.T @ r) % p)) % p):
                errors.append(f"batch.{label}: product fails the random-projection check")
        return errors


RUNNERS = {"golden-verify": GoldenVerify, "large-build": LargeBuild, "apply-stream": ApplyStream}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    work = Path(cfg["work"])
    runner = RUNNERS[cfg["workload"]](cfg["seed"], work)
    print("READY", flush=True)
    if cfg["setup_only"]:
        return
    tracer = Tracer() if cfg["trace"] else None
    samples = {"untraced": defaultdict(list), "traced": defaultdict(list)}
    ops = {"untraced": 0, "traced": 0}
    attempted, errors = 0, []
    deadline = time.perf_counter() + cfg["seconds"]
    i = 0
    # a traced run always completes at least one traced operation
    while time.perf_counter() < deadline or (tracer and ops["traced"] == 0):
        traced = tracer is not None and i % 2 == 1
        mode = "traced" if traced else "untraced"
        if traced:
            tracer.op_id = i
            tracer.install()
        try:
            op_samples, outputs = runner.op()
        finally:
            if traced:
                tracer.uninstall()
        for kind, seconds in op_samples:
            samples[mode][kind].append(seconds)
        attempted += len(op_samples)
        errors += runner.check(outputs)
        ops[mode] += 1
        i += 1
    result = {"samples": samples, "ops": ops, "attempted": attempted,
              "failed": len(errors), "errors": errors[:20]}
    if tracer:
        result["layer"] = tracer.layer_metrics(ops["traced"])
        spans = work / f"spans-{cfg['workload']}-seed{cfg['seed']}.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
