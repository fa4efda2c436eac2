"""Workloads and metrics of the natgrad benchmark.

BENCHMARK.json is this file's ``benchmark_json()``; the self-tests check
that the two agree.  Each per-layer metric also records the end-to-end
metric it should move and the workloads where it weighs most and least,
so that a performance claim can name both beforehand.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

METHODS = ("gd", "ngd_exact", "ngd_cg", "kfac")
ETA = 0.5
DEFAULT_SEED = 1
RUN_SECONDS = 30

# The README's full experiment config, verbatim; the benchmark replaces
# only the two seeds, and --out replaces output.dir.
README_CONFIG = {
    "data": {"synth": {"n": 16, "d": 8, "seed": 1, "target_model": "random_pm1"}},
    "preprocess": {"forster": False, "normalize": False},
    "model": {"m": 4096, "nu": 1.0, "seed": 5},
    "optimizer": {
        "method": "ngd_exact", "eta": 0.5, "damping": 0.0,
        "max_steps": 20, "loss": "squared",
        "track_lambda_min": True, "track_jacobian_drift": True,
    },
    "output": {"dir": "runs/demo", "formats": ["csv", "json"]},
    "sweeps": {"eta": [0.25, 0.5, 0.75]},
}


def shape_config(n: int, d: int, m: int, steps: int) -> dict:
    """CLI config running the library op's ngd_exact at a workload's shape."""
    return {
        "data": {"synth": {"n": n, "d": d, "seed": 0}},
        "preprocess": {"forster": True},
        "model": {"m": m, "nu": 1.0, "seed": 1},
        "optimizer": {"method": "ngd_exact", "eta": ETA, "damping": 0.0, "max_steps": steps},
        "output": {"formats": ["csv", "json"]},
    }


@dataclass(frozen=True)
class Workload:
    """Library ops run train() at (n, d, m) for `steps` steps on Forster-
    transformed data, with both diagnostics on when `track`; the CLI op
    runs `python -m natgrad train` on cli_config."""

    name: str
    why: str
    n: int
    d: int
    m: int
    steps: int
    track: bool
    cli_config: dict

    def cli_config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.cli_config)
        cfg["data"]["synth"]["seed"] = seed
        cfg["model"]["seed"] = seed + 1
        return cfg


WORKLOADS = (
    Workload(
        "large_n",
        "n large against m: a step is mostly the n x n Gram and numpy.linalg "
        "(eigvalsh guard, solve, K-FAC pinv); activation flips are dense",
        1024, 32, 4096, 3, False, shape_config(1024, 32, 4096, 3),
    ),
    Workload(
        "wide_m",
        "m large against n: a step is mostly the network layer (forward, "
        "activation pattern, grad_matrix); Gram and solve are cheap and flips sparse",
        128, 32, 32768, 3, False, shape_config(128, 32, 32768, 3),
    ),
    Workload(
        "readme_cli",
        "the README config: tiny n, diagnostics on, a 3-cell sweep with CSV/JSON "
        "artifacts; per-call overhead, config parsing, I/O and process start dominate",
        16, 8, 4096, 20, True, README_CONFIG,
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    most_least: str


# Bounds: on a shared 2-vCPU virtual machine the run medians of op times
# spread by 5-15% (interquartile range over ten seeds), so a time may
# worsen by a quarter before it counts; peak RSS repeats to 0.2%.
END_TO_END = tuple(
    [EndToEnd(f"{m}.step_cpu_ms.p50", "ms", "lower", 0.25) for m in METHODS]
    + [
        EndToEnd("cli.op_cpu_ms.p50", "ms", "lower", 0.25),
        EndToEnd("setup_s", "s", "lower", 0.25),
        EndToEnd("peak_rss_mb", "MB", "lower", 0.02),
    ]
)

ALL = METHODS
STEP = "{m}.step_cpu_ms.p50"
CLI = "cli.op_cpu_ms.p50"

# (name template, unit, better, methods, moves, most / least).  Method
# metrics are per step of a library op; cli.* metrics are per CLI op.
_PER_METHOD = (
    ("network.forward.ms", "ms", "lower", ALL, STEP, "wide_m / large_n"),
    ("network.forward.calls", "count", "lower", ALL, STEP, "wide_m / large_n"),
    ("network.activation_pattern.ms", "ms", "lower", ALL, STEP, "wide_m / large_n"),
    ("network.activation_pattern.calls", "count", "lower", ALL, STEP, "wide_m / large_n"),
    ("network.grad_matrix.ms", "ms", "lower", ("gd", "ngd_exact", "ngd_cg"), STEP, "wide_m / large_n"),
    ("network.self_ms", "ms", "lower", ALL, STEP, "wide_m / large_n"),
    ("optim.step.self_ms", "ms", "lower", ("gd", "ngd_exact", "kfac"), STEP, "large_n / wide_m"),
    ("optim.train.self_ms", "ms", "lower", ALL, STEP, "ngd_cg on large_n / wide_m"),
    ("optim.cg_solve.ms", "ms", "lower", ("ngd_cg",), STEP, "large_n / wide_m"),
    ("optim.cg_solve.iters", "count", "lower", ("ngd_cg",), STEP, "large_n / wide_m"),
    ("optim.cg_solve.converged_share", "fraction", "higher", ("ngd_cg",), STEP, "large_n / wide_m"),
    ("linalg.self_ms", "ms", "lower", ALL, STEP, "large_n / wide_m"),
    ("linalg.eigvalsh.ms", "ms", "lower", ("ngd_exact", "kfac"), STEP, "large_n / wide_m"),
    ("linalg.eigvalsh.calls", "count", "lower", ("ngd_exact", "kfac"), STEP, "large_n / wide_m"),
    ("linalg.solve.ms", "ms", "lower", ("ngd_exact", "kfac"), STEP,
     "ngd_exact on large_n, kfac on wide_m / ngd_exact on wide_m"),
    ("linalg.pinv.ms", "ms", "lower", ("kfac",), STEP, "large_n / wide_m"),
    # natgrad calls no cholesky today, so this count is constant 0: it is
    # kept so that a factorization moved into these steps shows.
    ("linalg.cholesky.calls", "count", "lower", ("ngd_exact", "kfac"), STEP, "large_n / wide_m"),
    ("linalg.norm.ms", "ms", "lower", ALL, STEP, "wide_m / large_n"),
    ("data.validate.ms", "ms", "lower", ALL, STEP, "large_n / readme_cli"),
    ("theory.rate_predictor.ms", "ms", "lower", ("ngd_exact", "ngd_cg", "kfac"), STEP,
     "readme_cli / large_n"),
    ("network.flip_frac.step", "fraction", "lower", ALL, "none: a workload property",
     "dense on large_n / sparse on wide_m"),
    ("network.flip_frac.cum", "fraction", "lower", ALL, "none: a workload property",
     "dense on large_n / sparse on wide_m"),
    ("optim.train.peak_mb", "MB", "lower", ALL, "peak_rss_mb", "wide_m / readme_cli"),
    ("trace_overhead_ms", "ms", "lower", ALL, "none", "readme_cli / large_n"),
)

_SETUP = (
    ("setup.data.synth_sphere.ms", "ms", "lower", "setup_s", "large_n / readme_cli"),
    ("setup.forster.ms", "ms", "lower", "setup_s", "large_n / readme_cli"),
    ("setup.forster.iterations", "count", "lower", "setup_s", "readme_cli / large_n"),
)

OVERHEAD = "readme_cli / large_n"
HEAVY = "large_n / readme_cli"
_CLI = (
    ("cli.import_ms", "ms", "lower", OVERHEAD),
    ("cli.load_config.ms", "ms", "lower", OVERHEAD),
    ("cli.run_experiment.self_ms", "ms", "lower", OVERHEAD),
    ("cli.data.save_csv.ms", "ms", "lower", HEAVY),
    ("cli.optim.csv_text.ms", "ms", "lower", OVERHEAD),
    ("cli.optim.json_dict.ms", "ms", "lower", OVERHEAD),
    ("cli.optim.train.ms", "ms", "lower", HEAVY),
    ("cli.optim.train.self_ms", "ms", "lower", "readme_cli (diagnostics) / wide_m"),
    ("cli.network.activation_pattern.calls", "count", "lower", OVERHEAD),
    ("cli.linalg.eigvalsh.calls", "count", "lower", OVERHEAD),
    ("cli.theory.check_conditions.ms", "ms", "lower", HEAVY),
    ("cli.gram.finite_gram.ms", "ms", "lower", HEAVY),
    ("cli.gram.min_eig.ms", "ms", "lower", HEAVY),
    ("cli.network.init.ms", "ms", "lower", "wide_m / readme_cli"),
)

PER_LAYER = tuple(
    [
        PerLayer(f"{m}.{name}", unit, better, moves.format(m=m), most_least)
        for name, unit, better, methods, moves, most_least in _PER_METHOD
        for m in METHODS
        if m in methods
    ]
    + [PerLayer(*row) for row in _SETUP]
    + [PerLayer(name, unit, better, CLI, most_least) for name, unit, better, most_least in _CLI]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": e.name, "unit": e.unit, "better": e.better, "bound": e.bound}
            for e in END_TO_END
        ],
        "per_layer": [
            {"name": p.name, "unit": p.unit, "better": p.better} for p in PER_LAYER
        ],
    }
