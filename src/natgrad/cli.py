"""Experiment driver: deterministic pipelines around the library.

Subcommands:

    gen-data    draw a unit-sphere dataset and write it as CSV
    forster     transform a dataset so X^T X = (n/d) I with unit-norm rows
    gram        print the spectrum of the limiting Gram of a dataset
    train       run preprocess -> init -> train -> condition check, write artifacts
    compare     train several configurations on shared data, tabulate rates
    verify      print a consolidated condition / bound / rate report
    linearized  emit closed-form frozen-Jacobian trajectories as CSV
    report      merge one output directory's artifacts into report.json

Configuration is a JSON object with blocks data, preprocess, model,
optimizer, output, sweeps (see parse_config).  Scalar flags override
config fields (--seed beats model.seed, --out beats output.dir), and every
override is recorded in the manifest.  Identical configuration produces
byte-identical artifacts; the only timestamp lives in manifest.json.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, 3 I/O or file-format error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import forster as forster_mod
from . import gram as gram_mod
from . import linearized as lin_mod
from . import network, optim, theory
from ._version import __version__
from .data import Dataset
from .errors import FormatError, NumericalError, SingularMatrixError

COMPARE_THRESHOLD = 1e-3
SWEEP_KEY_ORDER = ("eta", "m", "seed")
FORMATS = ("csv", "json")

CONDITION_SCOPE_NOTE = (
    "condition 2 is monitored at the logged iterates only; the drift "
    "constant is not certified over the full optimization ball"
)
OVERPARAM_NOTE = (
    "order-of-magnitude heuristic with all hidden constants set to 1; "
    "desk-scale runs rely on the measured condition report instead"
)


class ConfigError(ValueError):
    """Configuration schema violation; message starts with the field path."""


# ---------------------------------------------------------------------------
# configuration schema


def _check_keys(block: dict, allowed: tuple[str, ...], path: str) -> None:
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {extra}; allowed: {sorted(allowed)}")


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(
    value, path: str, minimum: float | None = None, positive: bool = False
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and out <= 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    return out


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _parse_data(block, path: str) -> dict:
    block = _as_mapping(block, path)
    _check_keys(block, ("path", "synth", "label_column"), path)
    has_path = "path" in block
    has_synth = "synth" in block
    if has_path == has_synth:
        raise ConfigError(f"{path}: exactly one of 'path' or 'synth' is required")
    if has_path:
        out: dict = {"path": _as_str(block["path"], f"{path}.path")}
        label = block.get("label_column", -1)
        if not (isinstance(label, str) or (isinstance(label, int) and not isinstance(label, bool))):
            raise ConfigError(f"{path}.label_column: expected an integer or column name")
        out["label_column"] = label
        return out
    if "label_column" in block:
        raise ConfigError(f"{path}.label_column: only valid with 'path'")
    synth = _as_mapping(block["synth"], f"{path}.synth")
    _check_keys(synth, ("n", "d", "seed", "target_model"), f"{path}.synth")
    model = synth.get("target_model", "random_pm1")
    if model not in data_mod.TARGET_MODELS:
        raise ConfigError(
            f"{path}.synth.target_model: expected one of {list(data_mod.TARGET_MODELS)}, "
            f"got {model!r}"
        )
    return {
        "synth": {
            "n": _as_int(synth.get("n", 16), f"{path}.synth.n", minimum=2),
            "d": _as_int(synth.get("d", 8), f"{path}.synth.d", minimum=2),
            "seed": _as_int(synth.get("seed", 0), f"{path}.synth.seed"),
            "target_model": model,
        }
    }


def _parse_loss(value, path: str) -> tuple[optim.LossSpec, object]:
    if value == "squared" or value is None:
        return optim.squared_loss(), "squared"
    if isinstance(value, dict):
        _check_keys(value, ("kind", "mu"), path)
        kind = value.get("kind")
        if kind == "squared":
            return optim.squared_loss(), "squared"
        if kind == "logcosh":
            mu = _as_float(value.get("mu", 0.5), f"{path}.mu", positive=True)
            return optim.logcosh_loss(mu), {"kind": "logcosh", "mu": mu}
        raise ConfigError(f"{path}.kind: expected 'squared' or 'logcosh', got {kind!r}")
    raise ConfigError(f"{path}: expected 'squared' or an object with kind/mu")


def _parse_optimizer(block, path: str) -> tuple[optim.OptimizerConfig, dict]:
    block = _as_mapping(block, path)
    allowed = (
        "method", "eta", "damping", "cg_iters", "cg_tol", "max_steps",
        "loss", "track_lambda_min", "track_jacobian_drift",
    )
    _check_keys(block, allowed, path)
    method = block.get("method", "ngd_exact")
    if method not in optim.METHODS:
        raise ConfigError(
            f"{path}.method: expected one of {list(optim.METHODS)}, got {method!r}"
        )
    damping = block.get("damping", None)
    if damping is not None:
        damping = _as_float(damping, f"{path}.damping", minimum=0.0)
    loss, loss_desc = _parse_loss(block.get("loss"), f"{path}.loss")
    kwargs = {
        "method": method,
        "eta": _as_float(block.get("eta", 0.5), f"{path}.eta", minimum=0.0),
        "damping": damping,
        "cg_iters": _as_int(block.get("cg_iters", 100), f"{path}.cg_iters", minimum=1),
        "cg_tol": _as_float(block.get("cg_tol", 1e-10), f"{path}.cg_tol", positive=True),
        "max_steps": _as_int(block.get("max_steps", 100), f"{path}.max_steps", minimum=1),
        "track_lambda_min": _as_bool(
            block.get("track_lambda_min", False), f"{path}.track_lambda_min"
        ),
        "track_jacobian_drift": _as_bool(
            block.get("track_jacobian_drift", False), f"{path}.track_jacobian_drift"
        ),
    }
    try:
        cfg = optim.OptimizerConfig(loss=loss, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    normalized = dict(kwargs)
    normalized["loss"] = loss_desc
    return cfg, normalized


def _parse_sweeps(block, path: str) -> dict:
    block = _as_mapping(block, path)
    _check_keys(block, SWEEP_KEY_ORDER, path)
    out: dict = {}
    for key in SWEEP_KEY_ORDER:
        if key not in block:
            continue
        values = block[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.{key}: expected a non-empty list")
        if key == "eta":
            out[key] = [_as_float(v, f"{path}.eta[{i}]", minimum=0.0) for i, v in enumerate(values)]
        elif key == "m":
            out[key] = [_as_int(v, f"{path}.m[{i}]", minimum=1) for i, v in enumerate(values)]
        else:
            out[key] = [_as_int(v, f"{path}.seed[{i}]") for i, v in enumerate(values)]
    return out


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: plain blocks plus the built OptimizerConfig."""

    data: dict
    preprocess: dict
    model: dict
    optimizer: optim.OptimizerConfig
    optimizer_dict: dict
    output: dict
    sweeps: dict

    def canonical(self) -> dict:
        return {
            "data": json.loads(json.dumps(self.data)),
            "preprocess": dict(self.preprocess),
            "model": dict(self.model),
            "optimizer": dict(self.optimizer_dict),
            "output": {
                "dir": self.output["dir"],
                "formats": list(self.output["formats"]),
            },
            "sweeps": {k: list(v) for k, v in self.sweeps.items()},
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object against the experiment schema.

    Blocks: data (path or synth block, required), preprocess (forster,
    normalize), model (m, nu, seed), optimizer (method, eta, damping,
    cg_iters, cg_tol, max_steps, loss, tracking flags), output (dir,
    formats), sweeps (lists over eta / m / seed).  Violations raise
    ConfigError with the offending field path.
    """
    raw = _as_mapping(raw, "config")
    _check_keys(raw, ("data", "preprocess", "model", "optimizer", "output", "sweeps"), "config")
    if "data" not in raw:
        raise ConfigError("config.data: required")
    data_block = _parse_data(raw["data"], "config.data")

    pre = _as_mapping(raw.get("preprocess", {}), "config.preprocess")
    _check_keys(pre, ("forster", "normalize"), "config.preprocess")
    preprocess = {
        "forster": _as_bool(pre.get("forster", False), "config.preprocess.forster"),
        "normalize": _as_bool(pre.get("normalize", False), "config.preprocess.normalize"),
    }

    mod = _as_mapping(raw.get("model", {}), "config.model")
    _check_keys(mod, ("m", "nu", "seed"), "config.model")
    model = {
        "m": _as_int(mod.get("m", 1024), "config.model.m", minimum=1),
        "nu": _as_float(mod.get("nu", 1.0), "config.model.nu", positive=True),
        "seed": _as_int(mod.get("seed", 0), "config.model.seed"),
    }

    ocfg, odict = _parse_optimizer(raw.get("optimizer", {}), "config.optimizer")

    out = _as_mapping(raw.get("output", {}), "config.output")
    _check_keys(out, ("dir", "formats"), "config.output")
    out_dir = out.get("dir")
    if out_dir is not None:
        out_dir = _as_str(out_dir, "config.output.dir")
    formats = out.get("formats", list(FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError("config.output.formats: expected a non-empty list")
    for fmt in formats:
        if fmt not in FORMATS:
            raise ConfigError(
                f"config.output.formats: expected a subset of {list(FORMATS)}, got {fmt!r}"
            )
    output = {"dir": out_dir, "formats": sorted(set(formats))}

    sweeps = _parse_sweeps(raw.get("sweeps", {}), "config.sweeps")
    return ExperimentConfig(
        data=data_block,
        preprocess=preprocess,
        model=model,
        optimizer=ocfg,
        optimizer_dict=odict,
        output=output,
        sweeps=sweeps,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config: root must be a JSON object")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# artifact helpers


def _sanitize(obj):
    """Make obj JSON-safe: numpy to native, non-finite floats to null."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _sanitize(float(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_via(writer, path: Path) -> None:
    """Run writer(tmp_path) then rename over path, so readers never see a
    half-written artifact."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def build_dataset(
    cfg: ExperimentConfig, apply_forster: bool = True
) -> tuple[Dataset, forster_mod.ForsterResult | None]:
    """Materialize the config's dataset, with preprocessing applied."""
    if "path" in cfg.data:
        ds = data_mod.load_csv(
            cfg.data["path"],
            label_column=cfg.data["label_column"],
            normalize=cfg.preprocess["normalize"],
        )
    else:
        s = cfg.data["synth"]
        ds = data_mod.synth_sphere(s["n"], s["d"], s["seed"], s["target_model"])
    result = None
    if apply_forster and cfg.preprocess["forster"]:
        result = forster_mod.forster_transform(ds.X)
        ds = Dataset(result.Z, ds.y)
    return ds, result


def _forster_sidecar(result: forster_mod.ForsterResult) -> dict:
    return {
        "iterations": result.iterations,
        "final_error": result.final_error,
        "rescale_skipped": result.rescale_skipped,
        "A": result.A.tolist(),
    }


def _sweep_cells(sweeps: dict) -> list[dict]:
    keys = [k for k in SWEEP_KEY_ORDER if k in sweeps]
    if not keys:
        return [{}]
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(sweeps[k] for k in keys))
    ]


def _fmt_value(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _cell_name(cell: dict) -> str:
    if not cell:
        return "run"
    return "__".join(f"{k}={_fmt_value(cell[k])}" for k in SWEEP_KEY_ORDER if k in cell)


def run_experiment(cfg: ExperimentConfig, overrides: dict, quiet: bool = False) -> Path:
    """Execute the full pipeline for cfg (including any sweeps) and write
    artifacts into the output directory.  Returns the manifest path."""
    if cfg.output["dir"] is None:
        raise ConfigError("config.output.dir: required (or pass --out)")
    out_dir = Path(cfg.output["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    ds, fr = build_dataset(cfg)
    artifacts: list[str] = []
    _atomic_via(lambda p: data_mod.save_csv(ds, p), out_dir / "data.csv")
    artifacts.append("data.csv")
    if fr is not None:
        _atomic_write_text(out_dir / "forster.json", _dump_json(_forster_sidecar(fr)))
        artifacts.append("forster.json")

    sweeping = bool(cfg.sweeps)
    formats = cfg.output["formats"]
    runs = []
    for cell in _sweep_cells(cfg.sweeps):
        name = _cell_name(cell)
        suffix = f"__{name}" if sweeping else ""
        m = cell.get("m", cfg.model["m"])
        seed = cell.get("seed", cfg.model["seed"])
        ocfg = cfg.optimizer
        if "eta" in cell:
            ocfg = dataclasses.replace(ocfg, eta=cell["eta"])

        params = network.init(m, ds.d, cfg.model["nu"], seed)
        trace = optim.train(params, ds, ocfg)
        report = theory.check_conditions(
            params, trace.final_params, ds, kappa=ocfg.loss.kappa
        )

        files: dict = {}
        if "csv" in formats:
            fname = f"trace{suffix}.csv"
            _atomic_write_text(out_dir / fname, trace.csv_text())
            files["trace_csv"] = fname
        if "json" in formats:
            fname = f"trace{suffix}.json"
            _atomic_write_text(out_dir / fname, _dump_json(trace.json_dict()))
            files["trace_json"] = fname
        cname = f"conditions{suffix}.json"
        _atomic_write_text(
            out_dir / cname,
            _dump_json({"report": dataclasses.asdict(report), "scope": CONDITION_SCOPE_NOTE}),
        )
        files["conditions"] = cname
        artifacts.extend(files.values())

        runs.append(
            {
                "name": name,
                "eta": ocfg.eta,
                "m": m,
                "seed": seed,
                "method": ocfg.method,
                "steps": len(trace.records),
                "initial_residual_norm": trace.initial_residual_norm,
                "final_residual_norm": trace.final_residual_norm,
                "condition1_holds": report.condition1_holds,
                "condition2_holds": report.condition2_holds,
                "files": files,
            }
        )
        if not quiet:
            print(
                f"[{name}] method={ocfg.method} eta={ocfg.eta} steps={len(trace.records)} "
                f"final_residual={trace.final_residual_norm:.6e}"
            )

    manifest = {
        "artifacts": sorted(set(artifacts + ["manifest.json"])),
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "data": {
            "n": ds.n,
            "d": ds.d,
            "source": cfg.data.get("path", "synth"),
            "forster_applied": fr is not None,
            "forster_iterations": None if fr is None else fr.iterations,
        },
        "overrides": overrides,
        "runs": runs,
        "version": __version__,
    }
    manifest_path = out_dir / "manifest.json"
    _atomic_write_text(manifest_path, _dump_json(manifest))
    if not quiet:
        print(f"wrote {len(manifest['artifacts'])} artifact(s) to {out_dir}")
    return manifest_path


# ---------------------------------------------------------------------------
# subcommand handlers


def _apply_overrides(cfg: ExperimentConfig, args) -> tuple[ExperimentConfig, dict]:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, model={**cfg.model, "seed": args.seed})
        overrides["model.seed"] = args.seed
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, output={**cfg.output, "dir": args.out})
        overrides["output.dir"] = args.out
    return cfg, overrides


def cmd_gen_data(args) -> int:
    if not args.out:
        print("natgrad gen-data: --out is required", file=sys.stderr)
        return 1
    seed = 0 if args.seed is None else args.seed
    ds = data_mod.synth_sphere(args.n, args.d, seed, args.target_model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "data.csv"
    _atomic_via(lambda p: data_mod.save_csv(ds, p), path)
    rep = data_mod.validate(ds)
    print(
        _dump_json(
            {
                "path": str(path),
                "n": ds.n,
                "d": ds.d,
                "seed": seed,
                "target_model": args.target_model,
                "validation": dataclasses.asdict(rep),
            }
        ),
        end="",
    )
    return 0


def _dataset_from_args(args, apply_forster: bool) -> tuple[Dataset, ExperimentConfig | None]:
    if bool(args.config) == bool(args.data):
        raise ConfigError("exactly one of --config or --data is required")
    if args.config:
        cfg = load_config(args.config)
        ds, _ = build_dataset(cfg, apply_forster=apply_forster)
        return ds, cfg
    ds = data_mod.load_csv(
        args.data, label_column=args.label_column, normalize=args.normalize
    )
    return ds, None


def cmd_forster(args) -> int:
    if not args.out:
        print("natgrad forster: --out is required", file=sys.stderr)
        return 1
    ds, _ = _dataset_from_args(args, apply_forster=False)
    result = forster_mod.forster_transform(ds.X, tol=args.tol, max_iter=args.max_iter)
    transformed = Dataset(result.Z, ds.y)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_via(lambda p: data_mod.save_csv(transformed, p), out_dir / "forster_data.csv")
    _atomic_write_text(out_dir / "forster.json", _dump_json(_forster_sidecar(result)))
    recon = forster_mod.normalize_rows(ds.X @ result.A)
    summary = {
        "iterations": result.iterations,
        "final_error": result.final_error,
        "rescale_skipped": result.rescale_skipped,
        "max_reconstruction_error": float(np.max(np.abs(recon - result.Z))),
        "out": str(out_dir),
    }
    if not args.quiet:
        print(_dump_json(summary), end="")
    return 0


def cmd_gram(args) -> int:
    ds, _ = _dataset_from_args(args, apply_forster=True)
    G = gram_mod.limiting_gram(ds)
    lam_min = gram_mod.min_eig(G)
    lam_max = gram_mod.max_eig(G)
    if args.export:
        _atomic_via(G.to_csv, Path(args.export))
    print(
        _dump_json(
            {
                "n": ds.n,
                "d": ds.d,
                "kind": G.kind,
                "lambda_min": lam_min,
                "lambda_max": lam_max,
                "condition_number": lam_max / lam_min if lam_min > 0 else math.inf,
            }
        ),
        end="",
    )
    return 0


def cmd_train(args) -> int:
    cfg, overrides = _apply_overrides(load_config(args.config), args)
    run_experiment(cfg, overrides, quiet=args.quiet)
    return 0


def cmd_compare(args) -> int:
    if len(args.config) < 2:
        print("natgrad compare: need at least two --config files", file=sys.stderr)
        return 1
    cfgs = []
    for path in args.config:
        cfg, _ = _apply_overrides(load_config(path), argparse.Namespace(seed=args.seed, out=None))
        cfgs.append(cfg)
    ref = cfgs[0]
    for i, cfg in enumerate(cfgs[1:], start=2):
        if (
            cfg.data != ref.data
            or cfg.preprocess != ref.preprocess
            or cfg.model["seed"] != ref.model["seed"]
        ):
            print(
                f"natgrad compare: config #{i} does not share the data block, "
                "preprocessing, and model seed with the first config",
                file=sys.stderr,
            )
            return 1

    ds, _ = build_dataset(ref)
    rows = []
    for cfg in cfgs:
        params = network.init(cfg.model["m"], ds.d, cfg.model["nu"], cfg.model["seed"])
        trace = optim.train(params, ds, cfg.optimizer)
        k = len(trace.records)
        r0 = trace.initial_residual_norm
        rk = trace.final_residual_norm
        observed = (rk / r0) ** (1.0 / k) if r0 > 0 and k > 0 else math.nan
        predicted = optim.predicted_factor(cfg.optimizer, ds)
        rows.append(
            {
                "method": cfg.optimizer.method,
                "eta": cfg.optimizer.eta,
                "steps_to_threshold": trace.steps_to_threshold(COMPARE_THRESHOLD),
                "final_residual": rk,
                "predicted_factor": predicted,
                "observed_gm_factor": observed,
            }
        )

    headers = (
        "method", "eta", f"steps_to_{COMPARE_THRESHOLD:g}",
        "final_residual", "predicted_factor", "observed_gm_factor",
    )
    def _show(row):
        return (
            row["method"],
            f"{row['eta']:g}",
            "-" if row["steps_to_threshold"] is None else str(row["steps_to_threshold"]),
            f"{row['final_residual']:.6e}",
            "-" if math.isnan(row["predicted_factor"]) else f"{row['predicted_factor']:.6g}",
            "-" if math.isnan(row["observed_gm_factor"]) else f"{row['observed_gm_factor']:.6g}",
        )

    table = [headers] + [_show(r) for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        cols = (
            "method", "eta", "steps_to_threshold", "final_residual",
            "predicted_factor", "observed_gm_factor",
        )
        lines = [",".join(cols)]
        for row in rows:
            cells = [row["method"]]
            cells.append(repr(float(row["eta"])))
            cells.append("" if row["steps_to_threshold"] is None else str(row["steps_to_threshold"]))
            cells.append(repr(float(row["final_residual"])))
            for key in ("predicted_factor", "observed_gm_factor"):
                v = row[key]
                cells.append("" if math.isnan(v) else repr(float(v)))
            lines.append(",".join(cells))
        _atomic_write_text(out_dir / "comparison.csv", "\n".join(lines) + "\n")
        _atomic_write_text(
            out_dir / "comparison.json",
            _dump_json({"threshold": COMPARE_THRESHOLD, "rows": rows}),
        )
        if not args.quiet:
            print(f"wrote comparison.csv and comparison.json to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    cfg, _ = _apply_overrides(load_config(args.config), args)
    ds, fr = build_dataset(cfg)
    params = network.init(cfg.model["m"], ds.d, cfg.model["nu"], cfg.model["seed"])
    trace = optim.train(params, ds, cfg.optimizer)
    report = theory.check_conditions(
        params, trace.final_params, ds, kappa=cfg.optimizer.loss.kappa
    )
    lam0_inf = gram_mod.min_eig(gram_mod.limiting_gram(ds))
    try:
        bound = dataclasses.asdict(theory.generalization_bound(ds))
    except SingularMatrixError as exc:
        bound = {"error": str(exc)}
    overparam = (
        theory.overparam_requirement(ds.n, lam0_inf, cfg.model["nu"], 0.1)
        if lam0_inf > 0
        else None
    )
    doc = {
        "config_hash": cfg.config_hash(),
        "conditions": dataclasses.asdict(report),
        "condition_scope": CONDITION_SCOPE_NOTE,
        "forster_applied": fr is not None,
        "generalization_bound": bound,
        "lambda_min_limiting_gram": lam0_inf,
        "overparam": {
            "suggested_m": overparam,
            "delta": 0.1,
            "note": OVERPARAM_NOTE,
        },
        "trace": {
            "method": cfg.optimizer.method,
            "eta": cfg.optimizer.eta,
            "steps": len(trace.records),
            "initial_residual_norm": trace.initial_residual_norm,
            "final_residual_norm": trace.final_residual_norm,
            "steps_to_threshold": trace.steps_to_threshold(COMPARE_THRESHOLD),
            "threshold": COMPARE_THRESHOLD,
        },
    }
    print(_dump_json(doc), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(out_dir / "verify.json", _dump_json(doc))
    return 0


def cmd_linearized(args) -> int:
    if args.points < 2:
        print("natgrad linearized: --points must be >= 2", file=sys.stderr)
        return 1
    cfg, _ = _apply_overrides(load_config(args.config), args)
    if cfg.output["dir"] is None:
        raise ConfigError("config.output.dir: required (or pass --out)")
    ds, _ = build_dataset(cfg)
    params = network.init(cfg.model["m"], ds.d, cfg.model["nu"], cfg.model["seed"])
    jv = network.jacobian(params, ds.X)
    lm = lin_mod.LinearizedModel(
        jv.dense(), params.w.ravel(), network.forward(params, ds.X), ds.y
    )
    t_star = lin_mod.t_infinity(lm)
    ts = np.concatenate([[0.0], np.geomspace(1e-2, t_star, args.points - 1)])
    lines = ["t,residual_gd,residual_ngd,weight_gap"]
    for t in ts:
        w_gd = lin_mod.gd_trajectory(lm, float(t))
        w_ngd = lin_mod.ngd_trajectory(lm, float(t))
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    t,
                    np.linalg.norm(ds.y - lin_mod.outputs_at(lm, w_gd)),
                    np.linalg.norm(ds.y - lin_mod.outputs_at(lm, w_ngd)),
                    np.linalg.norm(w_gd - w_ngd),
                )
            )
        )
    out_dir = Path(cfg.output["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "linearized.csv"
    _atomic_write_text(path, "\n".join(lines) + "\n")
    limit = lin_mod.limit_weights(lm)
    gap = float(np.linalg.norm(lin_mod.gd_trajectory(lm, t_star) - lin_mod.ngd_trajectory(lm, t_star)))
    if not args.quiet:
        print(
            _dump_json(
                {
                    "path": str(path),
                    "t_star": t_star,
                    "points": int(ts.size),
                    "limit_gap": gap,
                    "limit_residual": float(
                        np.linalg.norm(ds.y - lin_mod.outputs_at(lm, limit))
                    ),
                }
            ),
            end="",
        )
    return 0


def _trace_summary_from_csv(path: Path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    records = len(lines) - 1
    final = None
    if records > 0:
        final = float(lines[-1].split(",")[1])
    return {"steps": records, "final_residual_norm": final, "source": path.name}


def cmd_report(args) -> int:
    if not args.out:
        print("natgrad report: --out (the run directory) is required", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"natgrad report: no manifest.json in {out_dir}", file=sys.stderr)
        return 3
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)

    experiments = []
    for run in manifest.get("runs", []):
        files = run.get("files", {})
        entry = dict(run)
        if "trace_json" in files and (out_dir / files["trace_json"]).exists():
            with open(out_dir / files["trace_json"], "r", encoding="utf-8") as fh:
                entry["trace"] = json.load(fh)
        elif "trace_csv" in files and (out_dir / files["trace_csv"]).exists():
            entry["trace"] = _trace_summary_from_csv(out_dir / files["trace_csv"])
        else:
            entry["trace"] = None
        cpath = files.get("conditions")
        if cpath and (out_dir / cpath).exists():
            with open(out_dir / cpath, "r", encoding="utf-8") as fh:
                entry["conditions"] = json.load(fh)
        else:
            entry["conditions"] = None
        experiments.append(entry)
    experiments.sort(
        key=lambda e: (
            e.get("eta") if e.get("eta") is not None else -1.0,
            e.get("m") or 0,
            e.get("seed") or 0,
            e.get("name") or "",
        )
    )

    doc = {
        "config_hash": manifest.get("config_hash"),
        "version": manifest.get("version"),
        "experiments": experiments,
    }
    _atomic_write_text(out_dir / "report.json", _dump_json(doc))
    # keep the manifest's artifact list exhaustive
    arts = set(manifest.get("artifacts", []))
    if "report.json" not in arts:
        manifest["artifacts"] = sorted(arts | {"report.json"})
        _atomic_write_text(manifest_path, _dump_json(manifest))
    if not args.quiet:
        print(_dump_json(doc), end="")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this driver reserves 2
    for numerical failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _label_column_arg(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="natgrad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="<command>", parser_class=_Parser)
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N", help="seed override")
    common.add_argument("--quiet", action="store_true", help="suppress informational output")

    p = sub.add_parser("gen-data", parents=[common], help="write a synthetic unit-sphere dataset")
    p.add_argument("--n", type=int, default=16, help="number of examples")
    p.add_argument("--d", type=int, default=8, help="input dimension")
    p.add_argument(
        "--target-model",
        choices=data_mod.TARGET_MODELS,
        default="random_pm1",
        help="how targets are generated",
    )
    p.set_defaults(func=cmd_gen_data)

    data_source = argparse.ArgumentParser(add_help=False)
    data_source.add_argument("--config", metavar="PATH", help="experiment config JSON")
    data_source.add_argument("--data", metavar="PATH", help="dataset CSV")
    data_source.add_argument(
        "--label-column",
        type=_label_column_arg,
        default=-1,
        help="label column index or header name (with --data)",
    )
    data_source.add_argument(
        "--normalize", action="store_true", help="normalize input rows (with --data)"
    )

    p = sub.add_parser(
        "forster", parents=[common, data_source],
        help="transform inputs so X^T X = (n/d) I with unit rows",
    )
    p.add_argument("--tol", type=float, default=forster_mod.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=forster_mod.DEFAULT_MAX_ITER)
    p.set_defaults(func=cmd_forster)

    p = sub.add_parser(
        "gram", parents=[common, data_source],
        help="print the limiting Gram spectrum of a dataset",
    )
    p.add_argument("--export", metavar="PATH", help="also write the Gram matrix as CSV")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("train", parents=[common], help="run a training experiment")
    p.add_argument("--config", metavar="PATH", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "compare", parents=[common],
        help="train several configs on shared data and tabulate rates",
    )
    p.add_argument(
        "--config", metavar="PATH", action="append", default=[],
        help="repeatable; at least two configs sharing data and seed",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "verify", parents=[common],
        help="print a consolidated condition / bound / rate report",
    )
    p.add_argument("--config", metavar="PATH", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "linearized", parents=[common],
        help="emit closed-form frozen-Jacobian trajectories as CSV",
    )
    p.add_argument("--config", metavar="PATH", required=True)
    p.add_argument("--points", type=int, default=50, help="number of time points")
    p.set_defaults(func=cmd_linearized)

    p = sub.add_parser(
        "report", parents=[common],
        help="merge a run directory's artifacts into report.json",
    )
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"natgrad: config error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, json.JSONDecodeError) as exc:
        print(f"natgrad: input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"natgrad: i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"natgrad: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"natgrad: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
