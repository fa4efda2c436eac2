"""Operations, output checks, and the timed and traced runs of a workload.

An op is either one ``natgrad.train()`` call (a library op) or one
``python -m natgrad train`` process (a CLI op).  Every op's output is
checked; an op that raises, exits non-zero or fails a check is counted
as failed and the run goes on.  Library ops of a run all start from the
same NetworkParams and Dataset, as a sweep does.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import natgrad
from catalog import END_TO_END, ETA, METHODS, PER_LAYER, Workload
from tracing import LAYERS, Tracer, recording_weights

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CLI_TIMEOUT_S = 150
# A K-FAC step must contract the residual norm by 1 - eta d / n to within
# this share of the predicted decrease eta d / n.
KFAC_TOLERANCE = 0.1
STEP_FUNCTIONS = {"gd": "optim.gd_step", "ngd_exact": "optim.ngd_exact_step", "kfac": "optim.kfac_step"}


def children_cpu_s() -> float:
    """User plus system seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Run:
    """One workload at one seed: its inputs, its ops and their tally."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, src_dir: Path):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict = {}
        self._cli_ops = 0
        self.cli_config_path = work_dir / "config.json"
        self.cli_config_path.write_text(
            json.dumps(workload.cli_config_for(seed), indent=2), encoding="utf-8"
        )
        path = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=f"{src_dir}{os.pathsep}{path}" if path else str(src_dir))
        self.ds = self.params = self.forster = None

    def set_up(self) -> None:
        w = self.w
        ds = natgrad.synth_sphere(w.n, w.d, self.seed)
        self.forster = natgrad.forster_transform(ds.X)
        self.ds = natgrad.Dataset(self.forster.Z, ds.y)
        self.params = natgrad.init_network(w.m, w.d, 1.0, self.seed + 1)

    def _count(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)

    # -- library ops ---------------------------------------------------------

    def library_op(self, method: str, steps: int, around=nullcontext) -> tuple[float, float]:
        """Run train(); return its wall and CPU milliseconds per step.

        ``around`` is entered just around the train() call, so a root
        span covers the library and none of the checks.
        """
        cfg = natgrad.OptimizerConfig(
            method=method, eta=ETA, damping=0.0, max_steps=steps,
            track_lambda_min=self.w.track, track_jacobian_drift=self.w.track,
        )
        wall, cpu = perf_counter(), process_time()
        try:
            with around():
                trace = natgrad.train(self.params, self.ds, cfg)
        except Exception as exc:  # an op that raises is counted, not fatal
            failure, done = f"{method}: {type(exc).__name__}: {exc}", steps
        else:
            failure, done = None, len(trace.records)
        wall, cpu = perf_counter() - wall, process_time() - cpu
        self._count(failure or self._check_trace(method, steps, trace))
        return wall * 1e3 / done, cpu * 1e3 / done

    def _check_trace(self, method: str, steps: int, trace) -> str | None:
        r = [trace.initial_residual_norm] + [rec.residual_norm for rec in trace.records]
        if method == "gd":
            if any(b > a for a, b in zip(r, r[1:])):
                return "gd: a step increased the residual"
        else:
            over = [rec.k for rec in trace.records if rec.residual_norm**2 > rec.predicted_bound]
            if over:
                return f"{method}: residual above the predicted bound at step {over[0]}"
        if method == "kfac":
            predicted = 1.0 - ETA * self.ds.d / self.ds.n
            for k, (a, b) in enumerate(zip(r, r[1:]), start=1):
                if abs(b / a - predicted) > KFAC_TOLERANCE * (1.0 - predicted):
                    return f"kfac: step {k} factor {b / a:.6f}, predicted {predicted:.6f}"
        digest = hashlib.sha256(trace.csv_text().encode()).hexdigest()
        if digest != self._digests.setdefault((method, steps), digest):
            return f"{method}: trace differs from the run's first {method} op"
        return None

    # -- CLI ops -------------------------------------------------------------

    def _cli_argv(self) -> tuple[list[str], Path]:
        self._cli_ops += 1
        out = self.work_dir / f"cli-{self._cli_ops}"
        argv = ["train", "--config", str(self.cli_config_path), "--out", str(out), "--quiet"]
        return argv, out

    def cli_warm_up(self) -> None:
        """``python -m natgrad --version``: starts the interpreter and
        imports the whole package, untimed."""
        proc = subprocess.run(
            [sys.executable, "-m", "natgrad", "--version"], env=self.child_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
        )
        self._count(f"cli --version: exit code {proc.returncode}" if proc.returncode else None)

    def cli_op(self) -> tuple[float, float]:
        """One ``python -m natgrad train`` process; return its wall
        milliseconds, spawn to exit, and the CPU milliseconds it used."""
        argv, out = self._cli_argv()
        cpu, wall = children_cpu_s(), perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "natgrad", *argv], env=self.child_env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failure = f"cli: no exit within {CLI_TIMEOUT_S} s"
        else:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            failure = f"cli: exit code {proc.returncode} {tail}" if proc.returncode else None
        wall, cpu = perf_counter() - wall, children_cpu_s() - cpu
        self._count(failure or self._check_run_dir(out))
        shutil.rmtree(out, ignore_errors=True)
        return wall * 1e3, cpu * 1e3

    def cli_in_process(self, around=nullcontext) -> None:
        """The CLI op's argv through ``natgrad.cli.main`` in this process."""
        argv, out = self._cli_argv()
        try:
            with around():
                code = natgrad.cli.main(argv)
        except Exception as exc:  # an op that raises is counted, not fatal
            failure = f"cli: {type(exc).__name__}: {exc}"
        else:
            failure = f"cli: exit code {code}" if code else None
        self._count(failure or self._check_run_dir(out))
        shutil.rmtree(out, ignore_errors=True)

    def _check_run_dir(self, out: Path) -> str | None:
        """The manifest lists exactly the files written, every trace keeps
        under its predicted bound, and the traces are byte-identical to
        the run's first CLI op."""
        try:
            listed = set(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"])
            present = set(os.listdir(out))
            if listed != present:
                return f"cli: manifest and directory differ on {sorted(listed ^ present)}"
            digest = hashlib.sha256()
            for name in sorted(n for n in present if n.startswith("trace")):
                data = (out / name).read_bytes()
                digest.update(name.encode() + b"\0" + data)
                if name.endswith(".csv"):
                    for row in csv.DictReader(io.StringIO(data.decode())):
                        if row["predicted_bound"] and float(row["residual_norm"]) ** 2 > float(row["predicted_bound"]):
                            return f"cli: {name} step {row['k']} above the predicted bound"
        except (OSError, ValueError, KeyError) as exc:
            return f"cli: unreadable output: {type(exc).__name__}: {exc}"
        if digest.hexdigest() != self._digests.setdefault("cli", digest.hexdigest()):
            return "cli: trace files differ from the run's first CLI op"
        return None


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """The untraced run: returns (end-to-end metrics, their samples).

    Times are CPU time, of this process for a library op and of the
    child for a CLI op.  With one BLAS thread that is the op's wall time
    on a core of its own, minus steal time, the time the host withheld
    the virtual CPU; wall times are kept with the samples.  One set-up
    is a fresh interpreter importing natgrad, the inputs, and a one-step
    warm-up op per method; setup_s is the median of three, each the CPU
    time of this process plus that of the interpreter it started.
    """
    setups, setup_wall_s = [], []
    for _ in range(SETUP_REPEATS):
        wall, cpu = perf_counter(), process_time() + children_cpu_s()
        run.cli_warm_up()
        run.set_up()
        for method in METHODS:
            run.library_op(method, steps=1)
        setups.append(process_time() + children_cpu_s() - cpu)
        setup_wall_s.append(perf_counter() - wall)

    ops = METHODS + ("cli",)
    wall_ms: dict[str, list[float]] = {op: [] for op in ops}
    cpu_ms: dict[str, list[float]] = {op: [] for op in ops}
    deadline = perf_counter() + seconds
    while True:
        for op in ops:
            wall, cpu = run.cli_op() if op == "cli" else run.library_op(op, run.w.steps)
            wall_ms[op].append(wall)
            cpu_ms[op].append(cpu)
        if perf_counter() >= deadline:
            break

    names = {m: f"{m}.step_cpu_ms.p50" for m in METHODS} | {"cli": "cli.op_cpu_ms.p50"}
    metrics = {names[op]: statistics.median(cpu_ms[op]) for op in ops}
    metrics["setup_s"] = statistics.median(setups)
    # Only this process: a spawned child's ru_maxrss starts from the RSS of
    # the parent it was spawned from, so the CLI children's peak is not theirs.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {names[op]: cpu_ms[op] for op in ops}
    samples["setup_s"] = setups
    samples["wall_ms"] = wall_ms
    samples["setup_wall_s"] = setup_wall_s
    return metrics, samples


def _per_label(stats, divisor: float, prefix: str) -> dict:
    out = {}
    for label, s in stats.items():
        out[f"{prefix}{label}.ms"] = s.ms / divisor
        out[f"{prefix}{label}.self_ms"] = s.self_ms / divisor
        out[f"{prefix}{label}.calls"] = s.calls / divisor
    return out


def _layers_self_ms(stats, divisor: float) -> dict:
    """Self time of each layer: the sum over its labels."""
    return {
        layer: sum(s.self_ms for label, s in stats.items() if label.startswith(layer + ".")) / divisor
        for layer in LAYERS + ("linalg",)
    }


def _op_layer_metrics(method: str, stats, layers: dict, steps: int) -> dict:
    """Per-step layer metrics of one traced library op."""
    out = _per_label(stats, steps, f"{method}.")
    out.update({f"{method}.{layer}.self_ms": ms for layer, ms in layers.items()})
    if method in STEP_FUNCTIONS:
        out[f"{method}.optim.step.self_ms"] = stats[STEP_FUNCTIONS[method]].self_ms / steps
    cg = stats["optim.cg_solve"].results
    if cg:
        out[f"{method}.optim.cg_solve.iters"] = sum(it for it, _ in cg) / steps
        out[f"{method}.optim.cg_solve.converged_share"] = sum(ok for _, ok in cg) / len(cg)
    return out


def _flip_fractions(X: np.ndarray, weights: list) -> tuple[float, float]:
    """Mean per-step share of activation-pattern entries that flip, and
    the share that differs between the first and last weights."""
    first = prev = X @ weights[0].T >= 0.0
    per_step = []
    for w in weights[1:]:
        cur = X @ w.T >= 0.0
        per_step.append(float(np.mean(cur != prev)))
        prev = cur
    return statistics.fmean(per_step), float(np.mean(prev != first))


def _median_of(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """The traced run: returns (per-layer metrics, the median self time
    per step of each layer for each method)."""
    tracer = Tracer()
    with tracer.installed(), tracer.root("setup") as root:
        run.set_up()
    setup = tracer.summary(root)
    metrics = {
        "setup.data.synth_sphere.ms": setup["data.synth_sphere"].ms,
        "setup.forster.ms": setup["forster.forster_transform"].ms,
        "setup.forster.iterations": run.forster.iterations,
    }
    for method in METHODS:
        run.library_op(method, steps=1)
    run.cli_in_process()

    steps = run.w.steps
    untraced: dict[str, list[float]] = {m: [] for m in METHODS}
    traced: dict[str, list[float]] = {m: [] for m in METHODS}
    op_rows: dict[str, list[dict]] = {m: [] for m in METHODS}
    layer_rows: dict[str, list[dict]] = {m: [] for m in METHODS}
    cli_rows: list[dict] = []
    deadline = perf_counter() + seconds
    while True:
        for method in METHODS:
            untraced[method].append(run.library_op(method, steps)[0])
            with tracer.installed():
                ms, _ = run.library_op(method, steps, around=lambda: tracer.root(f"op.{method}"))
            traced[method].append(ms)
            stats = tracer.summary(tracer.roots[-1])
            layer_rows[method].append(_layers_self_ms(stats, steps))
            op_rows[method].append(_op_layer_metrics(method, stats, layer_rows[method][-1], steps))
        with tracer.installed():
            run.cli_in_process(around=lambda: tracer.root("op.cli"))
        row = _per_label(tracer.summary(tracer.roots[-1]), 1, "cli.")
        cli_rows.append({k.replace("cli.cli.", "cli.", 1): v for k, v in row.items()})
        if perf_counter() >= deadline:
            break
    tracer.dump(spans_path)

    for method in METHODS:
        metrics.update(_median_of(op_rows[method]))
        metrics[f"{method}.trace_overhead_ms"] = (
            statistics.median(traced[method]) - statistics.median(untraced[method])
        )
        with recording_weights(natgrad) as weights:
            run.library_op(method, steps)
        step, cum = _flip_fractions(run.ds.X, weights)
        metrics[f"{method}.network.flip_frac.step"] = step
        metrics[f"{method}.network.flip_frac.cum"] = cum
        tracemalloc.start()
        try:
            run.library_op(method, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics[f"{method}.optim.train.peak_mb"] = peak / 2**20
    metrics.update(_median_of(cli_rows))

    import_ms = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import natgrad"], env=run.child_env, check=True, timeout=CLI_TIMEOUT_S)
        import_ms.append((perf_counter() - start) * 1e3)
    metrics["cli.import_ms"] = statistics.median(import_ms)
    return metrics, {m: _median_of(layer_rows[m]) for m in METHODS}


def select(metrics: dict, catalog_rows) -> dict:
    """The catalog's metrics, in catalog order; a missing one is a bug."""
    missing = [row.name for row in catalog_rows if row.name not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {row.name: {"value": float(metrics[row.name]), "unit": row.unit} for row in catalog_rows}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path, src_dir: Path) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work_dir = out_dir / f"{tag}-{os.getpid()}"
    work_dir.mkdir()
    try:
        run = Run(workload, seed, work_dir, src_dir)
        if trace:
            metrics, layers = measure_traced(run, seconds, out_dir / f"{tag}-spans.json")
            metrics, samples = select(metrics, PER_LAYER), {}
        else:
            metrics, samples = measure(run, seconds)
            metrics, layers = select(metrics, END_TO_END), {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
        "samples": samples,
        "layer_self_ms": layers,
        "failures": run.failures[:20],
    }
