#!/usr/bin/env python3
"""memtrack benchmark: one seeded workload per process.

    python3 bench/run.py --workload {train,eval,track} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when the correctness gate passed.  Full results, with
the machine record, go to ``.bench_work/results/``.
"""

import os

# One process, no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "eval", "track"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    """Hash of the program and benchmark sources, which key the digests."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def compare_digests(path: Path, digests: dict, gate) -> None:
    """Fail when an output differs from an earlier run of the same seed and code."""
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in digests.items():
        gate.check(earlier.get(key, value) == value,
                   f"{key}: output differs from an earlier run of this seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**earlier, **digests}, sort_keys=True, indent=1))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "memtrack" / "__init__.py").is_file():
        print(f"memtrack sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    machine = machine_record()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(run_dir))
    try:
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            result = workloads.measure_traced(workload, args.seconds,
                                              str(WORK / "traces" / f"{tag}.npz"))
        else:
            result = workloads.measure(workload, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    compare_digests(WORK / "digests" / f"{args.workload}-seed{args.seed}-"
                    f"{machine['source_digest']}.json", workload.digests, workload.gate)

    gate = workload.gate
    metrics = result["metrics"]
    if args.trace == 0:
        for name, (value, _) in metrics.items():
            gate.check(value is not None and math.isfinite(value) and value > 0,
                       f"end-to-end metric {name} = {value}")
    correct = not gate.failures
    metrics = {name: (value if value is not None and math.isfinite(value) else None, unit)
               for name, (value, unit) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "correct": correct,
              "failures": gate.failures, "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": result["detail"]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# machine: {json.dumps(machine)}")
    for failure in gate.failures:
        print(f"# FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        shown = "unavailable" if value is None else f"{value:.6g}"
        source = result["detail"].get("source", {}).get(name, "")
        print(f"# {name:45s} {shown:>14s} {unit:8s} {source}")
    detail = result["detail"]
    for clock in ("ref", "cpu", "wall"):
        for key, value in detail.get(clock, {}).items():
            print(f"# {clock + ' ' + key:45s} {value}")
    for key in ("calls", "host_scale", "train_best_val_loss", "eval_baseline_rmse_m",
                "eval_learned_rmse_m", "eval_baseline_iou"):
        if key in detail:
            print(f"# {key:45s} {detail[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
