#!/usr/bin/env python3
"""perfectnt benchmark: cold-CLI golden verify, large-N build, apply stream.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is golden-verify, large-build, apply-stream, or all (the three in
turn). With --trace 0 the end-to-end metrics are measured with nothing
wrapped: golden-verify and large-build run the real CLI in a fresh
interpreter per command, apply-stream runs library calls in one child
process. With --trace 1 the same seeded operations run in-process with
span recorders around each layer (bench/tracing.py), alternating with
untraced operations, and the per-layer metrics are printed together with
the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
the gated metrics. The full document (every metric with its unit, sample
count and workload, the machine, and the errors) is written to
.bench_work/ and its path printed above that line. Exit status is 2 when
the program is not in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child.
PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import GATED, LAYER_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
IMPORT_PROBES = 5  # cold import / bare interpreter pairs for cli.import_s
CHILD_TIMEOUT_S = 60  # a command, or a worker past its measuring time, is killed after this

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    PYTHONIOENCODING="utf-8",
    PYTHONHASHSEED="0",
)


class Child:
    """A finished child process: exit code, stdout, wall time, peak RSS."""

    def __init__(self, rc: int, out: bytes, seconds: float, rss_mb: float, ready_s: float | None):
        self.rc, self.out, self.seconds, self.rss_mb, self.ready_s = rc, out, seconds, rss_mb, ready_s

    def error(self, what: str) -> str | None:
        if self.rc == 0:
            return None
        err = (WORK / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
        return f"{what}: exit {self.rc}: {err.splitlines()[-1] if err else ''}"


def run_child(args: list[str], ready: bool = False, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run `python3 <args>` to completion; time it and read its rusage.

    With ready=True the first stdout line is the child's "READY" and the
    time until it arrives is recorded as ready_s.
    """
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        ready_s = None
        try:
            if ready:
                proc.stdout.readline()
                ready_s = time.perf_counter() - start
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    seconds = time.perf_counter() - start
    return Child(proc.returncode, out, seconds, usage.ru_maxrss / 1024, ready_s)


def run_cli(argv: list[str]) -> Child:
    return run_child(["-m", "perfectnt.cli", *argv])


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[Child, dict]:
    cfg = dict(workload=workload, seed=seed, seconds=seconds, trace=trace,
               setup_only=setup_only, work=str(WORK))
    child = run_child([str(HERE / "worker.py"), json.dumps(cfg)], ready=True,
                      timeout=seconds + CHILD_TIMEOUT_S)
    err = child.error(f"{workload} worker")
    if err:
        raise SystemExit(err)
    lines = child.out.decode().splitlines()
    return child, (json.loads(lines[-1]) if lines else {})


def metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def percentile_metrics(name: str, xs: list[float], scale: float, unit: str) -> dict:
    """p50, plus p1 and p99 only when at least ten samples lie beyond them."""
    out = {f"{name}_p50": metric(median(xs) * scale, unit, len(xs))}
    if len(xs) >= 1000:
        for q in (1, 99):
            out[f"{name}_p{q}"] = metric(float(np.percentile(xs, q)) * scale, unit, len(xs))
    return out


def cold_import_probe() -> Child:
    child = run_child(["-c", "import perfectnt.cli"])
    err = child.error("import perfectnt.cli")
    if err:
        raise SystemExit(err)
    return child


# -- untraced workloads --------------------------------------------------------


def golden_verify(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    setups = [cold_import_probe().seconds for _ in range(SETUP_REPEATS)]
    times, rss, errors = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        child = run_cli(wl.verify_argv(rng))
        times.append(child.seconds)
        rss.append(child.rss_mb)
        err = child.error("verify") or wl.check_verify(child.out)
        if err:
            errors.append(err)
    n = len(times)
    detail = {
        "verify_s": metric(median(times), "s", n),
        "peak_rss_mb": metric(median(rss), "MB", n),
    }
    gated = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "latency_s": metric(sum(times) / n, "s", n, means="mean cold verify"),
        "throughput_per_s": metric(n / sum(times), "1/s", n, means="cold verify runs per second"),
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return dict(gated=gated, detail=detail, attempted=n, failed=len(errors), errors=errors)


def large_build_setup(lam: int, path: Path) -> tuple[float, tuple]:
    start = time.perf_counter()
    cold_import_probe()
    child = run_cli(wl.gen400_argv(lam, str(path)))
    text = path.read_text(encoding="utf-8") if child.rc == 0 else ""
    if child.rc != 0 or wl.sha256(text.encode()) != wl.DIGESTS[f"gen-hamming400-lambda{lam}"]:
        raise SystemExit(child.error("set-up gen") or "set-up: N=400 file differs from the recorded digest")
    matrix = wl.read_matrix_file(text)
    return time.perf_counter() - start, matrix


def large_build(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    path = WORK / f"hamming400-seed{seed}.txt"
    lam = rng.choice(wl.HAMMING400_LAMBDAS)
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, matrix = large_build_setup(lam, path)
        setups.append(elapsed)
    times = {kind: [] for kind in wl.LARGE_BUILD_KINDS}
    rss = {kind: [] for kind in wl.LARGE_BUILD_KINDS}
    rounds, errors = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total = 0.0
        for kind, argv, expect in wl.large_build_round(rng, str(path)):
            child = run_cli(argv)
            times[kind].append(child.seconds)
            rss[kind].append(child.rss_mb)
            total += child.seconds
            err = child.error(kind) or wl.check_large_build(kind, child.out, expect, matrix)
            if err:
                errors.append(err)
        rounds.append(total)
    n = len(rounds)
    med = {kind: median(xs) for kind, xs in times.items()}
    detail = {f"{kind}_s": metric(med[kind], "s", n) for kind in wl.LARGE_BUILD_KINDS}
    detail.update(
        gen_pass_s=metric(med["gen255"] + med["gen400"], "s", n, means="sum of per-command medians"),
        eigen_pass_s=metric(med["eigen255"] + med["eigen400"], "s", n, means="sum of per-command medians"),
        invert_file_s=metric(med["invert400"], "s", n),
        peak_rss_mb=metric(max(median(xs) for xs in rss.values()), "MB", n,
                           means="largest per-command median"),
    )
    gated = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "latency_s": metric(sum(rounds) / n, "s", n, means="mean round of five cold commands"),
        "throughput_per_s": metric(n / sum(rounds), "1/s", n, means="rounds of five cold commands per second"),
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return dict(gated=gated, detail=detail, attempted=n * len(wl.LARGE_BUILD_KINDS),
                failed=len(errors), errors=errors)


def apply_stream(seed: int, seconds: float) -> dict:
    setups = [run_worker("apply-stream", seed, 0, 0, True)[0].ready_s for _ in range(SETUP_REPEATS - 1)]
    child, res = run_worker("apply-stream", seed, seconds, 0, False)
    setups.append(child.ready_s)
    samples = res["samples"]["untraced"]
    detail = {}
    for label in ("hamming400", "cyclic255"):
        for name, m in percentile_metrics("apply_us", samples[f"single.{label}"], 1e6, "us").items():
            detail[f"{name}.{label}"] = m
        calls = samples[f"batch.{label}"]
        for name, m in percentile_metrics("batch_call_us", calls, 1e6, "us").items():
            detail[f"{name}.{label}"] = m
        detail[f"batch_vec_per_s.{label}"] = metric(wl.BATCH_CALL / median(calls), "1/s", len(calls),
                                                    means="at the median call time")
    nsingle = len(samples["single.hamming400"])
    ncall = len(samples["batch.hamming400"])
    labels = ("hamming400", "cyclic255")
    p1_single = sum(float(np.percentile(samples[f"single.{label}"], 1)) for label in labels)
    p1_call = sum(float(np.percentile(samples[f"batch.{label}"], 1)) for label in labels)
    detail["peak_rss_mb"] = metric(child.rss_mb, "MB", 1, means="worker process ru_maxrss")
    gated = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "latency_s": metric(p1_single, "s", nsingle,
                            means="1st-percentile round trip on hamming400 plus the same on cyclic255"),
        "throughput_per_s": metric(2 * wl.BATCH_CALL / p1_call, "1/s", ncall,
                                   means="one 64-vector call on each transform, at 1st-percentile times"),
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return dict(gated=gated, detail=detail, attempted=res["attempted"], failed=res["failed"],
                errors=res["errors"])


# -- traced run ------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float) -> dict:
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(run_child(["-c", "pass"]).seconds)
        imported.append(cold_import_probe().seconds)
    _, res = run_worker(workload, seed, seconds, 1, False)
    values = dict(res["layer"], **{"cli.import_s": median(imported) - median(bare)})
    ops = res["ops"]["traced"]
    gated = {
        name: metric(values[name], unit, IMPORT_PROBES if name == "cli.import_s" else ops,
                     moves=list(moves), moves_gated=sorted({GATED[m] for m in moves if m in GATED}),
                     on=list(on))
        for name, (unit, moves, on) in LAYER_METRICS.items()
    }
    overhead = {}  # mean time per operation kind, in-process, without and with spans
    for kind, traced_s in res["samples"]["traced"].items():
        untraced_s = res["samples"]["untraced"][kind]
        u, t = sum(untraced_s) / len(untraced_s), sum(traced_s) / len(traced_s)
        overhead[kind] = {"untraced_s": u, "traced_s": t, "diff_s": t - u, "ratio": t / u,
                          "samples": [len(untraced_s), len(traced_s)]}
    detail = {"tracing_overhead": overhead, "spans_file": res["spans_file"],
              "ops": res["ops"]}
    return dict(gated=gated, detail=detail, attempted=res["attempted"], failed=res["failed"],
                errors=res["errors"])


# -- reporting -------------------------------------------------------------------


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned_threads": {var: PINNED_THREADS for var in THREAD_VARS},
        "platform": platform.platform(),
    }


UNTRACED = {"golden-verify": golden_verify, "large-build": large_build, "apply-stream": apply_stream}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = traced(workload, seed, seconds) if trace else UNTRACED[workload](seed, seconds)
    res["detail"]["fail_frac"] = metric(res["failed"] / res["attempted"], "1", res["attempted"])
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "gated": res["gated"], "detail": res["detail"], "errors": res["errors"],
    }
    path = WORK / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for section in ("gated", "detail"):
        for name, m in doc[section].items():
            if isinstance(m, dict) and "value" in m:
                print(f"{workload} {section} {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for kind, o in doc["detail"].get("tracing_overhead", {}).items():
        print(f"{workload} tracing overhead {kind}: {o['untraced_s']:.6g} s -> {o['traced_s']:.6g} s "
              f"({o['ratio'] - 1:+.1%})")
    for err in doc["errors"]:
        print(f"{workload} error: {err}")
    print(f"{workload} document: {path.relative_to(ROOT)}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "perfectnt" / "cli.py").is_file():
        print(f"error: no perfectnt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = wl.WORKLOADS if args.workload == "all" else [args.workload]
    docs = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for doc in docs:
        measured = {k: m["unit"] for k, m in doc["gated"].items()}
        if measured != declared:
            raise SystemExit(f"{doc['workload']}: metrics {measured} differ from BENCHMARK.json {declared}")

    def short(m):
        return {"value": m["value"], "unit": m["unit"]}

    if args.workload == "all":
        metrics = {f"{d['workload']}/{k}": short(m) for d in docs for k, m in d["gated"].items()}
    else:
        metrics = {k: short(m) for k, m in docs[0]["gated"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
