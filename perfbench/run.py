"""Benchmark for topclf: four workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 15 --trace 0

``perfbench`` must sit at the root of a checkout, beside ``src``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run and its
overhead.  ``--smoke`` shrinks every input so all checks run in seconds.
The last line of standard output is the result object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-full", "train-sgd", "eval-cli", "grid-manifest")
# one BLAS/OpenMP thread: the grid pool and the neighbours own the other core
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = {"train-full": 3, "train-sgd": 3, "eval-cli": 5, "grid-manifest": 5}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Own peak RSS plus that of the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    seconds: float = 0.0
    cpu: float = 0.0
    per_unit_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def units_per_s(self) -> float:
        return self.units / self.seconds if self.seconds else 0.0


def run_phase(ops, seconds: float) -> Phase:
    """Whole cycles of ``ops`` until ``seconds`` of wall time have passed."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        for op in ops:
            phase.attempted += op.units
            c0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.failed += op.units
                phase.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            t1, c1 = time.perf_counter(), _cpu_seconds()
            phase.units += op.units
            phase.seconds += t1 - t0
            phase.cpu += c1 - c0
            phase.per_unit_ms.append((t1 - t0) * 1e3 / op.units)
            try:
                op.check(out)
            except Exception as exc:  # a malformed output fails its check
                phase.errors.append(f"check {op.label}: {type(exc).__name__}: {exc}")
        if time.perf_counter() - start >= seconds:
            return phase


def measure_setup(root: Path, workload: str, cache: Path, samples: int) -> tuple[float, bool]:
    """Median set-up seconds over fresh interpreters, and whether all loads matched."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(root / "src")]
    if workload.startswith("train"):
        cmd.append(str(cache))
    times, ok = [], True
    for _ in range(samples):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(doc["seconds"])
        ok = ok and doc["ok"]
    return statistics.median(times), ok


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "topclf" / "__init__.py").is_file():
        print(f"error: no topclf sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(src))
    import topclf

    if Path(topclf.__file__).resolve().parent != (src / "topclf").resolve():
        print(f"error: imported topclf from {topclf.__file__}, not {src}", file=sys.stderr)
        return 2

    import inputs
    import tracer
    import workloads

    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    cache = inputs.ensure(root, args.workload, args.seed, args.smoke)
    out_root = root / ".perfbench_out" / args.workload
    ops = workloads.build(args.workload, cache, out_root, sizes)
    warm = run_phase(ops[:1], 0.0)  # untimed: lazy imports and first-touch pages

    if args.trace == 0:
        phase = run_phase(ops, args.seconds)
        peak = _peak_rss_mb()  # before any set-up child is reaped
    else:
        plain = run_phase(ops, args.seconds / 2)
        spans, undo = tracer.install(tracer.Tracer())
        try:
            phase = run_phase(ops, args.seconds / 2)
        finally:
            undo()
        phase.errors.extend(plain.errors)
    errors = warm.errors + phase.errors
    for line in errors:
        print(line, file=sys.stderr)
    if not phase.units or (args.trace and not plain.units):
        print("error: every operation failed", file=sys.stderr)
        return 1

    if args.trace == 0:
        samples = 1 if args.smoke else SETUP_SAMPLES[args.workload]
        setup_s, loads_ok = measure_setup(root, args.workload, cache, samples)
        if not loads_ok:
            errors.append("check setup: load_csv did not reproduce the generated arrays")
            print(errors[-1], file=sys.stderr)
        metrics = {
            "units_per_s": _metric(phase.units_per_s, "1/s"),
            "unit_ms_p50": _metric(statistics.median(phase.per_unit_ms), "ms"),
            "cpu_ms_per_unit": _metric(phase.cpu * 1e3 / phase.units, "ms"),
            "peak_rss_mb": _metric(peak, "MiB"),
            "setup_s": _metric(setup_s, "s"),
        }
    else:
        summary = spans.summary(phase.units)
        summary["trace.overhead_pct"] = 100.0 * (plain.units_per_s / phase.units_per_s - 1.0)
        spans.write_jsonl(out_root / "spans.jsonl")
        metrics = {name: _metric(summary[name], unit) for name, unit in tracer.metric_units().items()}

    result = {
        "correct": not any(e.startswith("check") for e in errors),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
