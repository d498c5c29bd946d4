"""Benchmark for mubc: one workload at one seed, in one process.

Run from the repository root:

    python3 bench/run.py --workload golden-families --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): ``reproduce``, ``oracle-pairs`` and
``golden-families``. The loop is closed with one client: the next item
starts when the previous one has finished and been checked.

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics. ``--trace 1`` wraps each layer's public functions (see
tracing.py), runs the workload for the same time, then replays the same
items untraced to measure the tracing overhead on scaled item times (see
below), and prints the per-layer metrics. Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, input properties and (traced) spans, goes to
``bench/out/``.

Host speed. On a shared host the speed of the same work can drift by tens
of percent within a minute, with other tenants' load. A fixed kernel
of interpreter and numpy work that never touches mubc (``host_kernel_s``)
runs before the first item and after every item; each item's time is
scaled by REFERENCE_KERNEL_S over the mean of the two kernel times around
it; each set-up probe is scaled the same way. ``setup_s``, ``items_per_s``
and the latency percentiles are these scaled figures: time at the host
speed where the kernel takes REFERENCE_KERNEL_S. The unscaled figures are
printed and recorded beside them. Kernel time is not item time. Scaling
cannot see a slowdown that slows the kernel as much as the items (say, a
thread of the program holding the interpreter lock between items); the
unscaled figures do.

mubc is imported from ``src/`` next to this directory and nowhere else; the
benchmark exits 2 without a result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
REFERENCE_KERNEL_S = 0.004
SHOWN_ERRORS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Loop:
    """What one pass of the closed loop did."""

    items: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    kernels: list = field(default_factory=list)  # host kernel before item 0 and after each item
    infos: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0


def run_items(workload, items, seconds=None, tracer=None) -> Loop:
    """Run items one after another until `seconds` pass (at least one item),
    or, with seconds=None, until `items` is exhausted. Any exception, wrong
    answer or non-convergence counts the item as failed."""
    loop = Loop(kernels=[host_kernel_s()])
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    for item in items:
        t0 = perf_counter()
        try:
            if tracer is None:
                correct, info = workload.run(item)
            else:
                correct, info = tracer.run_item(len(loop.items), workload.run, item)
        except Exception as exc:  # a raising item is a failed item, not a crashed run
            correct, info = False, None
            loop.errors.append(f"item {len(loop.items)}: {exc!r}")
        loop.latencies.append(perf_counter() - t0)
        loop.kernels.append(host_kernel_s())
        loop.items.append(item)
        loop.failed += not correct
        if info is not None:
            loop.infos.append(info)
        if deadline is not None and perf_counter() >= deadline:
            break
    loop.wall = perf_counter() - start
    return loop


def host_kernel_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work outside mubc."""
    import numpy

    start = perf_counter()
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) % 1000003
    z = numpy.exp(1j * numpy.linspace(0.0, 3.0, 4096))
    for _ in range(20):
        acc += int(numpy.exp(z * 0.5).sum().real)
    return perf_counter() - start


def scaled(times: list, kernels: list) -> list:
    """Times scaled to the reference host speed, each by the mean of the
    kernel times taken just before and just after it (see the module notes)."""
    return [t * REFERENCE_KERNEL_S / ((a + b) / 2.0) for t, a, b in zip(times, kernels, kernels[1:])]


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of import plus first-call set-up:
    scaled to the reference host speed like the items, and unscaled."""
    samples = []
    kernels = [host_kernel_s()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        kernels.append(host_kernel_s())
    return statistics.median(scaled(samples, kernels)), statistics.median(samples)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    import numpy

    libs = sorted(Path(numpy.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/ (paths and bytes): names the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def latency_metrics(latencies: list) -> dict:
    ms = [x * 1000.0 for x in latencies]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mubc" / "__init__.py").is_file():
        print(f"error: no mubc source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        # one client on a small box; OpenBLAS would otherwise start up to 64 threads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mubc
    import workloads

    if not Path(mubc.__file__).resolve().is_relative_to(SRC):
        print(f"error: mubc imported from {mubc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_s, unscaled_setup_s = (None, None) if args.trace else measure_setup()
    env = environment()
    items = workload.inputs(args.seed)
    workloads.warm_up()

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            loop = run_items(workload, items, args.seconds, tracer)
        finally:
            tracer.uninstall()
        replay = run_items(workload, iter(loop.items))
        metrics = tracer.metrics()
        traced_s = sum(scaled(loop.latencies, loop.kernels))
        metrics["trace.overhead_frac"] = (traced_s / sum(scaled(replay.latencies, replay.kernels)) - 1.0, "frac")
        shares = {k: v / sum(loop.latencies) for k, v in tracer.layer_self_seconds().items()}
        record["layer_self_share"] = shares
        record["spans"] = tracer.spans
        record["untraced_replay_item_s"] = sum(replay.latencies)
    else:
        loop = run_items(workload, items, args.seconds)
        item_s = scaled(loop.latencies, loop.kernels)
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(item_s) / sum(item_s), "1/s"),
            **latency_metrics(item_s),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        unscaled = {
            "setup_s": unscaled_setup_s,
            "items_per_s": len(loop.latencies) / sum(loop.latencies),
            **{name: value for name, (value, _) in latency_metrics(loop.latencies).items()},
        }
        record["unscaled"] = unscaled

    attempted = len(loop.items)
    properties = workload.describe(loop.infos)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record.update(
        environment=env,
        properties=properties,
        attempted=attempted,
        failed=loop.failed,
        failed_frac=loop.failed / attempted,
        wall_s=loop.wall,
        latencies_s=loop.latencies,
        host_kernel_s=loop.kernels,
        errors=loop.errors,
        metrics=reported,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print("properties " + json.dumps(properties))
    print(
        f"items {attempted}  failed {loop.failed}  failed_frac {loop.failed / attempted:.6g}  "
        f"latency samples {len(loop.latencies)}  wall {loop.wall:.3f} s"
    )
    for line in loop.errors[:SHOWN_ERRORS]:
        print(f"error {line}")
    print(f"host kernel median {statistics.median(loop.kernels) * 1000:.3f} ms (reference {REFERENCE_KERNEL_S * 1000:g} ms)")
    if args.trace:
        print("layer self-time share " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    else:
        print("unscaled " + json.dumps(unscaled))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
