"""Set-up, measured loop and correctness gate of each workload.

Every workload is a closed loop with one client: the next ``memtrack`` CLI
call starts when the previous one has returned.  The calls go through
``memtrack.cli.main`` in this process, so the benchmark sees only the
command line and the files it writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import memtrack
from memtrack import cli, filtering, network, ops, simulate, store
from memtrack.models import ScenarioConfig, nominal_cv_model

from . import layers
from .hostspeed import HostSpeed
from .tracer import SkipCounter, Tracer, aggregate, package_modules, range_mask, self_times

SETUP_REPEATS = 3

# (name, unit) of the end-to-end metrics.  Every workload reports all of
# them; what an operation is depends on the workload (see README.md).  Times
# are CPU seconds of this process scaled to the reference host's speed
# (hostspeed.py); raw CPU and wall figures go to the results file.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_ref_s", "1/s"),
              ("call_ref_ms_p50", "ms"), ("rmse_m", "m"))
MEMORY_DIM = 64          # the CLI's default train.memory_dim
TRAIN_EPOCHS = 1


@dataclass(frozen=True)
class DataSpec:
    cases: int
    steps: int
    sigma_w: float
    sigma_v: float
    train_fraction: float


# A small dataset on which set-up warms every CLI path once.
WARM = DataSpec(cases=4, steps=4, sigma_w=0.4, sigma_v=0.6, train_fraction=0.5)
DATA = {
    "train": DataSpec(cases=10, steps=140, sigma_w=0.4, sigma_v=0.6, train_fraction=1.0),
    "eval": DataSpec(cases=5, steps=60, sigma_w=1.0, sigma_v=1.2, train_fraction=0.8),
    "track": DataSpec(cases=100, steps=140, sigma_w=0.4, sigma_v=0.6, train_fraction=0.8),
}


def percentile(samples, q: float):
    """The q-th percentile (0 < q < 100) with the sample count it rests on.

    Returns (value, count), with value None unless at least ten samples
    lie above the percentile, i.e. unless count * (1 - q/100) >= 10.
    """
    n = len(samples)
    if n == 0 or n * (1.0 - q / 100.0) < 10.0 - 1e-9:
        return None, n
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q)), n


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Call(NamedTuple):
    """One measured CLI call."""
    wall: float        # seconds
    start: float       # CPU clock at the start
    cpu: float         # CPU seconds
    attempted: int     # operations
    failed: int


def run_cli(argv, cpu_clock=time.thread_time):
    """One in-process ``memtrack`` call: (exit code, wall s, CPU s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), cpu_clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    cpu = cpu_clock() - c0
    return rc, time.perf_counter() - t0, cpu, out.getvalue(), err.getvalue()


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


class Gate:
    """Collects correctness failures; the run is correct when there are none."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, ok, message: str) -> bool:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)
        return bool(ok)

    def same(self, digests: dict, key: str, value: str) -> None:
        """Record a digest; a second, different value for the key fails."""
        seen = digests.setdefault(key, value)
        self.check(seen == value, f"{key}: output differs between calls of one seed")


def make_dataset(spec: DataSpec, seed: int, path: str):
    cfg = ScenarioConfig(steps=spec.steps, cases=spec.cases, sigma_w=spec.sigma_w,
                         sigma_v=spec.sigma_v, train_fraction=spec.train_fraction, seed=seed)
    dataset = simulate.generate_dataset(cfg)
    store.write_dataset(dataset, path)
    return dataset


def zero_compensation_oracle(dataset, gate: Gate) -> None:
    """forward_sequence with zero_params must equal run_filter bit for bit."""
    cfg = dataset.config
    model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
    tracker = filtering.TrackerConfig()
    frames = dataset.cases[0].frames
    base_s, base_e, _ = filtering.run_filter(frames, model, tracker)
    net_s, net_e, _ = network.forward_sequence(network.zero_params(MEMORY_DIM), frames,
                                               model, tracker)
    same = len(base_s) == len(net_s) and all(
        np.array_equal(ops.value(a.mean), ops.value(b.mean))
        and np.array_equal(ops.value(a.cov), ops.value(b.cov))
        and np.array_equal(ops.value(x.param), ops.value(y.param)) and x.dof == y.dof
        for a, b, x, y in zip(base_s, net_s, base_e, net_e))
    gate.check(same, "zero-compensation forward_sequence differs from run_filter")


class Workload:
    """Shared set-up and loop; subclasses define the calls and their checks."""

    name = ""
    datasets = 1     # calls cycle through this many seeded datasets
    min_calls = 1    # a run makes at least this many calls

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.spec = DATA[self.name]
        self.gate = Gate()
        self.digests: dict[str, str] = {}
        self.data_paths = [os.path.join(work, f"{self.name}-{k}.mtds")
                           for k in range(self.datasets)]
        self.data_path = self.data_paths[0]
        self.warm_path = os.path.join(work, "warm.mtds")
        self.ckpt_path = os.path.join(work, "init.mtck")
        self.dataset = None
        self.cpu_clock = time.thread_time     # CPU clock of set-ups and calls

    # -- set-up -----------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Simulate and write the inputs, then warm each CLI path once.

        Returns the (wall, CPU) seconds it took, input digests left out.
        """
        t0, c0 = time.perf_counter(), self.cpu_clock()
        make_dataset(WARM, self.seed, self.warm_path)
        self.dataset = make_dataset(self.spec, self.seed, self.data_path)
        for k, path in enumerate(self.data_paths[1:], start=1):
            make_dataset(self.spec, self.seed + 1_000_003 * k, path)
        params = network.init_params(MEMORY_DIM, rng_for(self.seed, 0xC4EC))
        store.write_checkpoint(params, self.ckpt_path)
        out = os.path.join(self.work, "warm")
        for argv in (
            ["train", self.warm_path, "--out", out + ".mtck", "--folds", 1, "--epochs", 1],
            ["eval", self.warm_path, "--checkpoint", self.ckpt_path, "--compare",
             "--out", out],
            ["track", self.warm_path, "--case", 0, "--checkpoint", self.ckpt_path,
             "--out", out + ".csv"],
        ):
            rc, _, _, _, err = run_cli(argv, self.cpu_clock)
            self.gate.check(rc == 0, f"warm-up {argv[0]} exited {rc}: {err.strip()[-300:]}")
        elapsed = time.perf_counter() - t0, self.cpu_clock() - c0
        inputs = [(f"input.dataset{k}", path) for k, path in enumerate(self.data_paths)]
        for key, path in inputs + [("input.warm", self.warm_path),
                                   ("input.checkpoint", self.ckpt_path)]:
            self.gate.same(self.digests, key, sha256(path))
        return elapsed

    # -- measured loop ----------------------------------------------------

    def loop(self, seconds: float, counter: SkipCounter, calls: list) -> None:
        """Call the CLI until ``seconds`` have passed and min_calls are made."""
        deadline = time.perf_counter() + seconds
        while len(calls) < self.min_calls or time.perf_counter() < deadline:
            self.call(counter, calls)

    def call(self, counter: SkipCounter, calls: list, tracer=None) -> None:
        """Make call number len(calls), check it, append its ``Call``.

        With a tracer, the checks run inside a ``bench.check`` span, which
        the per-layer tables leave out.
        """
        i = len(calls)
        argv = self.argv(i)
        before = (counter.calls, counter.skipped)
        start = self.cpu_clock()
        rc, wall, cpu, out, err = run_cli(argv, self.cpu_clock)
        ok = self.gate.check(rc == 0, f"{argv[0]} call {i} exited {rc}: {err.strip()[-300:]}")
        attempted, failed = self.operations(counter, before, ok)
        if ok:
            with tracer.span("bench.check", phase="check") if tracer else contextlib.nullcontext():
                self.check(i, out)
        calls.append(Call(wall, start, cpu, attempted, failed))

    def operations(self, counter, before, ok):
        return 1, 0 if ok else 1

    # -- subclass interface -------------------------------------------------

    def argv(self, i: int) -> list:
        raise NotImplementedError

    def check(self, i: int, stdout: str) -> None:
        raise NotImplementedError

    def rmse_m(self) -> float:
        raise NotImplementedError

    def extra(self) -> dict:
        """Workload-specific figures recorded alongside the metrics."""
        return {}


class TrainWorkload(Workload):
    """``memtrack train --folds 1`` with the CLI defaults, one epoch.

    Calls cycle through four seeded datasets, and a run makes at least one
    full cycle: the validation RMSE pools the validation cases of all four,
    so it depends less on one seed's cases.
    """

    name = "train"
    datasets = 4
    min_calls = 4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = os.path.join(work, "trained.mtck")
        n = round(self.spec.train_fraction * self.spec.cases)
        n_val = max(1, round(0.2 * n))           # TrainConfig.val_fraction default
        self.expected_seqs = TRAIN_EPOCHS * (n - n_val)
        self.best_val_loss: dict[int, float] = {}     # dataset -> best val loss
        self.final_val_rmse: dict[int, float] = {}    # dataset -> last-epoch val RMSE

    def argv(self, i):
        return ["train", self.data_paths[i % self.datasets], "--out", self.out,
                "--folds", 1, "--epochs", TRAIN_EPOCHS]

    def operations(self, counter, before, ok):
        seen = counter.calls - before[0]
        skipped = counter.skipped - before[1]
        self.gate.check(not ok or seen == self.expected_seqs,
                        f"skip counter saw {seen} gradient sequences, expected "
                        f"{self.expected_seqs}; is training._sequence_gradients gone?")
        return self.expected_seqs, (skipped if ok else self.expected_seqs)

    def check(self, i, stdout):
        g = self.gate
        params = store.read_checkpoint(self.out)
        again = os.path.join(self.work, "roundtrip.mtck")
        store.write_checkpoint(params, again)
        back = store.read_checkpoint(again)
        g.check(params.arrays.keys() == back.arrays.keys() and all(
            np.array_equal(params.arrays[k], back.arrays[k]) for k in params.arrays)
            and np.array_equal(params.feat_mean, back.feat_mean)
            and np.array_equal(params.feat_std, back.feat_std)
            and all(np.all(np.isfinite(a)) for a in params.arrays.values()),
            "trained checkpoint does not round-trip through read_checkpoint")
        history = self.out + ".history.csv"
        rows = np.loadtxt(history, delimiter=",", skiprows=1, ndmin=2)
        g.check(rows.shape == (TRAIN_EPOCHS, 7),
                f"history has {rows.shape[0]} rows, expected folds x epochs = {TRAIN_EPOCHS}")
        g.check(np.all(np.isfinite(rows)), "history holds non-finite values")
        g.check(np.all((rows[:, 5] >= 0) & (rows[:, 5] <= 1)), "history IoU outside [0, 1]")
        losses = [float(line.rsplit(" ", 1)[1]) for line in stdout.splitlines()
                  if line.startswith("fold ")]
        g.check(len(losses) == 1 and math.isfinite(losses[0]), "no finite best val loss printed")
        k = i % self.datasets
        self.best_val_loss[k] = losses[0] if losses else math.nan
        self.final_val_rmse[k] = float(rows[-1, 4])
        g.same(self.digests, f"train{k}.checkpoint", sha256(self.out))
        g.same(self.digests, f"train{k}.history", sha256(history))

    def rmse_m(self):
        """Pooled over the datasets trained on (equal validation case counts)."""
        vals = list(self.final_val_rmse.values())
        return math.sqrt(sum(v * v for v in vals) / len(vals)) if vals else math.nan

    def extra(self):
        return {"train_best_val_loss": statistics.median(self.best_val_loss.values())
                if self.best_val_loss else math.nan,
                "train_best_val_loss_each": self.best_val_loss,
                "sequences_per_call": self.expected_seqs}


class EvalWorkload(Workload):
    """``memtrack eval --compare --polygon 256`` on the test split.

    Calls cycle through twelve seeded datasets of one test case each: IoU
    cost depends on each case's geometry, so more distinct cases per run
    make the run's cost depend less on the seed.  A run makes at least one
    full cycle, so the pooled accuracy covers every dataset.
    """

    name = "eval"
    datasets = 12
    min_calls = 12
    MODES = ("baseline", "learned")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.prefix = os.path.join(work, "report")
        self.n_test = self.spec.cases - round(self.spec.train_fraction * self.spec.cases)
        self.reports: dict = {}      # (dataset, mode) -> report JSON

    def argv(self, i):
        return ["eval", self.data_paths[i % self.datasets], "--checkpoint", self.ckpt_path,
                "--compare", "--polygon", 256, "--out", self.prefix]

    def operations(self, counter, before, ok):
        n = self.n_test * len(self.MODES)
        return n, 0 if ok else n

    def check(self, i, stdout):
        g = self.gate
        k = i % self.datasets
        for mode in self.MODES:
            with open(f"{self.prefix}.{mode}.json", encoding="utf-8") as fh:
                rep = json.load(fh)
            g.check(all(math.isfinite(v) for v in rep.values()), f"{mode} report not finite")
            g.check(0.0 <= rep["mean_iou"] <= 1.0 and 0.0 <= rep["peak_iou"] <= 1.0,
                    f"{mode} IoU outside [0, 1]")
            series = np.loadtxt(f"{self.prefix}.{mode}.csv", delimiter=",", skiprows=1, ndmin=2)
            g.check(series.shape == (self.n_test * (self.spec.steps - 1), 5),
                    f"{mode} per-step report has shape {series.shape}")
            g.check(np.all(np.isfinite(series)), f"{mode} per-step report not finite")
            g.check(np.all((series[:, 3] >= 0) & (series[:, 3] <= 1)),
                    f"{mode} per-step IoU outside [0, 1]")
            self.reports[k, mode] = rep
            for ext in ("json", "csv"):
                g.same(self.digests, f"eval{k}.{mode}.{ext}",
                       sha256(f"{self.prefix}.{mode}.{ext}"))
        g.same(self.digests, f"eval{k}.compare.csv", sha256(f"{self.prefix}.compare.csv"))

    def _pooled(self, mode, key):
        """Mean of a report figure over the datasets evaluated (equal case counts)."""
        vals = [rep[key] for (_, m), rep in self.reports.items() if m == mode]
        return sum(vals) / len(vals) if vals else math.nan

    def rmse_m(self):
        return math.sqrt(self._pooled("learned", "mean_square_position_error"))

    def extra(self):
        return {"eval_baseline_rmse_m": math.sqrt(self._pooled("baseline",
                                                               "mean_square_position_error")),
                "eval_learned_rmse_m": self.rmse_m(),
                "eval_baseline_iou": self._pooled("baseline", "mean_iou"),
                "eval_learned_iou": self._pooled("learned", "mean_iou"),
                "test_cases": self.n_test * len({k for k, _ in self.reports})}


class TrackWorkload(Workload):
    """Repeated ``memtrack track --case i`` calls, i drawn from the seed.

    The RMSE pools the cases of the first ``min_calls`` calls, so it does
    not depend on how many calls the run had time for.
    """

    name = "track"
    min_calls = 64

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = os.path.join(work, "track.csv")
        self.cases = rng_for(seed, 0x7AC).integers(0, self.spec.cases, size=100_000)
        self.sq_err = {}

    def argv(self, i):
        return ["track", self.data_path, "--case", int(self.cases[i]),
                "--checkpoint", self.ckpt_path, "--out", self.out]

    def check(self, i, stdout):
        g = self.gate
        case = int(self.cases[i])
        rows = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        g.check(rows.shape == (self.spec.steps - 1, 16),
                f"track CSV of case {case} has {rows.shape[0]} rows, "
                f"expected steps - 1 = {self.spec.steps - 1}")
        g.check(np.all(np.isfinite(rows)), f"track CSV of case {case} not finite")
        g.same(self.digests, f"track.case{case}.csv", sha256(self.out))
        g.same(self.digests, f"track.case{case}.points", sha256(self.out + ".points.csv"))
        if i < self.min_calls and case not in self.sq_err and rows.shape[1] == 16:
            err = rows[:, 8:10] - rows[:, 1:3]
            self.sq_err[case] = (float(np.sum(err * err)), err.shape[0])

    def rmse_m(self):
        total = sum(s for s, _ in self.sq_err.values())
        count = sum(n for _, n in self.sq_err.values())
        return math.sqrt(total / count) if count else math.nan

    def extra(self):
        return {"distinct_cases": len(self.sq_err)}


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, TrackWorkload)}


# -- one run ---------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(calls, scales) -> dict:
    """Run figures of the measured calls on three clocks.

    ``ref`` is each call's CPU time times its entry of ``scales``, ``cpu``
    raw CPU time and ``wall`` wall time.  Throughput is time-averaged over
    the run: the host's speed drifts in phases of seconds, which a run-long
    average smooths better than a median of per-call rates.
    """
    attempted = sum(c.attempted for c in calls)
    out = {"attempted": attempted, "failed": sum(c.failed for c in calls),
           "calls": len(calls)}
    for clock, times in (("ref", [c.cpu * k for c, k in zip(calls, scales)]),
                         ("cpu", [c.cpu for c in calls]),
                         ("wall", [c.wall for c in calls])):
        p90, n = percentile(times, 90)
        out[clock] = {"ops_per_s": attempted / sum(times),
                      "call_ms_p50": statistics.median(times) * 1e3,
                      "call_ms_p90": p90 * 1e3 if p90 is not None else None,
                      "call_ms_p90_samples": n}
    return out


def measure(workload: Workload, seconds: float) -> dict:
    """Untraced run: set up SETUP_REPEATS times, then the measured loop.

    The host-speed reference samples throughout both; each set-up and call
    is scaled by the host's speed around it.
    """
    speed = HostSpeed()
    workload.cpu_clock = speed.program_time
    counter = SkipCounter()
    calls = []
    setups = []
    with speed:
        for _ in range(SETUP_REPEATS):
            start = speed.program_time()
            setups.append((start, *workload.setup()))
        zero_compensation_oracle(workload.dataset, workload.gate)
        counter.install(package_modules("memtrack"), memtrack.training, "_sequence_gradients")
        try:
            workload.loop(seconds, counter, calls)
        finally:
            counter.remove()
    setup_ref = [cpu * speed.local_scale(start, cpu) for start, _, cpu in setups]
    summary = _summary(calls, [speed.local_scale(c.start, c.cpu) for c in calls])
    ref = summary["ref"]
    return {
        "metrics": {name: (value, unit) for (name, unit), value in zip(END_TO_END, (
            statistics.median(setup_ref), _peak_rss_mb(),
            ref["ops_per_s"], ref["call_ms_p50"], workload.rmse_m()))},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "detail": {"setup_wall_s_each": [w for _, w, _ in setups],
                   "setup_cpu_s_each": [c for _, _, c in setups],
                   "setup_ref_s_each": setup_ref,
                   "host_block_s": speed.block_s(), "host_blocks": speed.blocks,
                   "host_scale": speed.scale(), "calls": summary["calls"],
                   "call_cpu_s": [c.cpu for c in calls], "call_wall_s": [c.wall for c in calls],
                   "ref": ref, "cpu": summary["cpu"], "wall": summary["wall"],
                   **workload.extra()},
    }


def measure_traced(workload: Workload, seconds: float, trace_path: str) -> dict:
    """Traced run: one traced set-up, then untraced/traced pairs of calls."""
    modules = package_modules("memtrack")
    hooks = layers.hooks(memtrack)
    tracer = Tracer()
    tracer.install(modules, hooks)
    try:
        with tracer.span("bench.setup", phase="setup"):
            workload.setup()
    finally:
        tracer.remove()
    zero_compensation_oracle(workload.dataset, workload.gate)
    counter = SkipCounter()
    counter.install(modules, memtrack.training, "_sequence_gradients")
    # Pairs of the same call, untraced then traced, so the overhead is
    # measured on identical work.
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    try:
        while not traced or time.perf_counter() < deadline:
            workload.call(counter, plain)
            tracer.install(modules, hooks)
            try:
                with tracer.span("bench.loop", phase="loop"):
                    workload.call(counter, traced, tracer)
            finally:
                tracer.remove()
    finally:
        counter.remove()
    tracer.write(trace_path)

    arr = tracer.arrays()
    own = self_times(arr["parent"], arr["start"], arr["end"])
    ranges = {}
    for name, first, last in tracer.ranges:
        ranges.setdefault(name, []).append((first, last))
    size = len(own)
    tables = {
        "setup": aggregate(tracer.names, arr["name_id"], arr["start"], arr["end"], own,
                           range_mask(size, ranges.get("bench.setup", []))),
        "loop": aggregate(tracer.names, arr["name_id"], arr["start"], arr["end"], own,
                          range_mask(size, ranges.get("bench.loop", []),
                                     ranges.get("bench.check", []))),
    }
    values = layers.layer_metrics(tables, tracer.counts, tracer.unavailable)

    traced_wall = sum(c.wall for c in traced)
    plain_wall = sum(c.wall for c in plain)
    named_self = sum(row["self_s"] for name, row in tables["loop"].items()
                     if name != "cli.main" and not name.startswith("bench."))
    values["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "loop")
    values["trace.coverage_frac"] = (named_self / traced_wall, "loop")
    units = {m: u for m, u, *_ in [*layers.LAYER_METRICS, *layers.TRACE_METRICS]}
    both = plain + traced
    return {
        "metrics": {m: (v, units[m]) for m, (v, _) in values.items()},
        "attempted": sum(c.attempted for c in both),
        "failed": sum(c.failed for c in both),
        "detail": {
            "source": {m: src for m, (_, src) in values.items()},
            "spans": size,
            "untraced_walls": [c.wall for c in plain],
            "traced_walls": [c.wall for c in traced],
            "layers": tables,
            "unavailable": tracer.unavailable,
            **workload.extra(),
        },
    }
