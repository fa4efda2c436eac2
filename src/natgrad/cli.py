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
optimizer, output, sweeps (see SCHEMA and parse_config).  Every subcommand
that reads a dataset takes it from --config (compare takes several), and
only train runs a config's sweeps: compare, verify and linearized refuse a
config that has one.  Scalar flags override config fields (--seed beats
model.seed, --out beats output.dir), and every override is recorded in the
manifest.  Identical configuration produces byte-identical artifacts; the
only timestamp lives in manifest.json.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, 3 I/O or file-format error.  train runs every cell before it
writes a file, so a failed run leaves its output directory as it found it.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
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
    """Configuration or command-line usage error; the message starts with
    the field path or the subcommand's name."""


# ---------------------------------------------------------------------------
# configuration schema


def _object(value, allowed, path: str) -> dict:
    """value, checked to be an object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    extra = sorted(set(value) - set(allowed))
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {extra}; allowed: {sorted(allowed)}")
    return value


def _data(raw, path: str) -> dict:
    """Exactly one of a CSV `path` (with its `label_column`) or a `synth` block."""
    block = _object(raw, ("path", "synth", "label_column"), path)
    if ("path" in block) == ("synth" in block):
        raise ConfigError(f"{path}: exactly one of 'path' or 'synth' is required")
    if "synth" in block:
        if "label_column" in block:
            raise ConfigError(f"{path}.label_column: only valid with 'path'")
        return {"synth": _block(block["synth"], SCHEMA["data.synth"], f"{path}.synth")}
    label = block.get("label_column", -1)
    if not isinstance(label, (int, str)) or isinstance(label, bool):
        raise ConfigError(f"{path}.label_column: expected an integer or column name")
    return {"path": _coerce(block["path"], "str", f"{path}.path"), "label_column": label}


def _loss(value, path: str):
    """'squared', or {"kind": "squared"} / {"kind": "logcosh", "mu": 0.5}."""
    if value in (None, "squared"):
        return "squared"
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected 'squared' or an object with kind/mu")
    kind = _object(value, ("kind", "mu"), path).get("kind")
    if kind == "squared":
        return "squared"
    if kind == "logcosh":
        return {"kind": "logcosh", "mu": _coerce(value.get("mu", 0.5), "float", f"{path}.mu")}
    raise ConfigError(f"{path}.kind: expected 'squared' or 'logcosh', got {kind!r}")


def _formats(value, path: str) -> list:
    if not isinstance(value, list) or not value or any(f not in FORMATS for f in value):
        raise ConfigError(f"{path}: expected a non-empty subset of {list(FORMATS)}, got {value!r}")
    return sorted(set(value))


# Every settable field but the data block's: block -> field -> (kind,
# default[, inclusive lower bound]).  A kind is "bool", "int", "float" (any
# finite number, stored as float), "positive" (a float > 0), "str"
# (non-empty), a tuple of allowed values, or a function (value, path) ->
# canonical value.  A field whose default is None also takes null.  The
# optimizer's method and ranges are checked once, by optim.OptimizerConfig
# (and logcosh's mu by optim.logcosh_loss).
SCHEMA = {
    "preprocess": {"forster": ("bool", False), "normalize": ("bool", False)},
    "model": {"m": ("int", 1024, 1), "nu": ("positive", 1.0), "seed": ("int", 0)},
    "optimizer": {
        "method": ("str", "ngd_exact"),
        "eta": ("float", 0.5),
        "damping": ("float", None),
        "cg_iters": ("int", 100),
        "cg_tol": ("float", 1e-10),
        "max_steps": ("int", 100),
        "loss": (_loss, "squared"),
        "track_lambda_min": ("bool", False),
        "track_jacobian_drift": ("bool", False),
    },
    "output": {"dir": ("str", None), "formats": (_formats, list(FORMATS))},
    "data.synth": {
        "n": ("int", 16, 2),
        "d": ("int", 8, 2),
        "seed": ("int", 0),
        "target_model": (data_mod.TARGET_MODELS, "random_pm1"),
    },
}
# Sweep key -> the block holding the field it sweeps; a sweep is a
# non-empty list of distinct values of that field.
SWEEPS = {"eta": "optimizer", "m": "model", "seed": "model"}
BLOCKS = ("data", "preprocess", "model", "optimizer", "output", "sweeps")

_EXPECTED = {
    "bool": ("true/false", bool),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
    "positive": ("a number", (int, float)),
    "str": ("a non-empty string", str),
}


def _coerce(value, kind, path: str, bound=None):
    """Check one value against a field's kind and bound; return its
    canonical form."""
    if callable(kind):
        return kind(value, path)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path}: expected one of {list(kind)}, got {value!r}")
        return value
    what, types = _EXPECTED[kind]
    if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool") or value == "":
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    if kind in ("float", "positive"):
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
        if kind == "positive" and value <= 0:
            raise ConfigError(f"{path}: must be > 0, got {value!r}")
    if bound is not None and value < bound:
        raise ConfigError(f"{path}: must be >= {bound}, got {value!r}")
    return value


def _block(raw, spec: dict, path: str) -> dict:
    """Coerce one block through its table; absent fields take their default."""
    block = _object(raw, spec, path)
    out = {}
    for key, (kind, default, *bound) in spec.items():
        value = block.get(key, default)
        if value is not None or default is not None:
            value = _coerce(value, kind, f"{path}.{key}", *bound)
        out[key] = value
    return out


def _sweeps(raw, path: str) -> dict:
    block = _object(raw, SWEEPS, path)
    out = {}
    for key, home in SWEEPS.items():
        if key not in block:
            continue
        values = block[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.{key}: expected a non-empty list")
        kind, _, *bound = SCHEMA[home][key]
        out[key] = [_coerce(v, kind, f"{path}.{key}[{i}]", *bound) for i, v in enumerate(values)]
        repeats = [v for i, v in enumerate(out[key]) if v in out[key][:i]]
        if repeats:
            raise ConfigError(f"{path}.{key}: duplicate value {repeats[0]!r}")
    return out


def _optimizer_config(block: dict, path: str) -> optim.OptimizerConfig:
    loss = block["loss"]
    try:
        spec = optim.squared_loss() if loss == "squared" else optim.logcosh_loss(loss["mu"])
        return optim.OptimizerConfig(**{**block, "loss": spec})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: the coerced blocks, which are the canonical
    form config_hash() hashes, and the OptimizerConfig built from the
    optimizer block."""

    data: dict
    preprocess: dict
    model: dict
    optimizer: dict
    output: dict
    sweeps: dict
    optimizer_config: optim.OptimizerConfig

    def canonical(self) -> dict:
        return {name: getattr(self, name) for name in BLOCKS}

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object against the experiment schema.

    Blocks: data (path or synth block, required), then preprocess, model,
    optimizer and output as SCHEMA lists them, and sweeps (lists over
    eta / m / seed).  Violations raise ConfigError with the offending
    field path.
    """
    raw = _object(raw, BLOCKS, "config")
    if "data" not in raw:
        raise ConfigError("config.data: required")
    blocks = {"data": _data(raw["data"], "config.data")}
    for name in ("preprocess", "model", "optimizer", "output"):
        blocks[name] = _block(raw.get(name, {}), SCHEMA[name], f"config.{name}")
    blocks["sweeps"] = _sweeps(raw.get("sweeps", {}), "config.sweeps")
    ocfg = _optimizer_config(blocks["optimizer"], "config.optimizer")
    for i, eta in enumerate(blocks["sweeps"].get("eta", [])):
        _optimizer_config({**blocks["optimizer"], "eta": eta}, f"config.sweeps.eta[{i}]")
    return ExperimentConfig(**blocks, optimizer_config=ocfg)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config: root must be a JSON object")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# artifact helpers


def _dump_json(obj) -> str:
    return json.dumps(data_mod.jsonable(obj), indent=2, sort_keys=True) + "\n"


def _atomic_via(writer, path: Path) -> None:
    """Run writer(tmp_path) then rename over path, so readers never see a
    half-written artifact.  Creates path's directory if it is missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_via(lambda tmp: Path(tmp).write_text(text, encoding="utf-8", newline=""), path)


def build_dataset(
    cfg: ExperimentConfig, raw: bool = False
) -> tuple[Dataset, forster_mod.ForsterResult | None]:
    """Materialize the config's dataset, with its preprocessing applied and
    validated (unit-norm, non-parallel rows; ValueError otherwise).  raw
    gives the rows as read, for forster, which normalizes its own input."""
    if "path" in cfg.data:
        ds = data_mod.load_csv(
            cfg.data["path"],
            label_column=cfg.data["label_column"],
            normalize=cfg.preprocess["normalize"],
        )
    else:
        s = cfg.data["synth"]
        ds = data_mod.synth_sphere(s["n"], s["d"], s["seed"], s["target_model"])
    if raw:
        return ds, None
    result = None
    if cfg.preprocess["forster"]:
        result = forster_mod.forster_transform(ds.X)
        ds = Dataset(result.Z, ds.y)
    data_mod.require_valid(ds)
    return ds, result


def _init_params(model: dict, ds: Dataset) -> network.NetworkParams:
    """W(0) drawn from a model block's m, nu and seed."""
    return network.init(model["m"], ds.d, model["nu"], model["seed"])


def _forster_sidecar(result: forster_mod.ForsterResult) -> dict:
    return {
        "iterations": result.iterations,
        "final_error": result.final_error,
        "rescale_skipped": result.rescale_skipped,
        "A": result.A.tolist(),
    }


def _sweep_cells(sweeps: dict) -> list[dict]:
    keys = [k for k in SWEEPS if k in sweeps]
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(sweeps[k] for k in keys))
    ]


def _cell_name(cell: dict) -> str:
    """key=value pairs in SWEEPS order (the order _sweep_cells builds)."""
    if not cell:
        return "run"
    return "__".join(f"{k}={v}" for k, v in zip(cell, data_mod.cells(cell.values())))


def _run_cell(
    cfg: ExperimentConfig, cell: dict, ds: Dataset
) -> tuple[optim.ConvergenceTrace, theory.ConditionReport]:
    """Train one sweep cell from W(0) and check the conditions at its final
    iterate.  A cell's m and seed replace the model block's, its eta the
    optimizer's."""
    ocfg = cfg.optimizer_config
    if "eta" in cell:
        ocfg = dataclasses.replace(ocfg, eta=cell["eta"])
    trace = optim.train(_init_params({**cfg.model, **cell}, ds), ds, ocfg)
    return trace, theory.check_conditions(trace.final_params, ds, kappa=ocfg.loss.kappa)


def run_experiment(cfg: ExperimentConfig, overrides: dict, quiet: bool = False) -> None:
    """Execute the full pipeline for cfg (including any sweeps) and write
    artifacts into the output directory."""
    if cfg.output["dir"] is None:
        raise ConfigError("config.output.dir: required (or pass --out)")
    ds, fr = build_dataset(cfg)
    # every cell trains before the first write, so a malformed dataset or a
    # failed cell leaves no file behind and no earlier run half-replaced
    results = [(cell, *_run_cell(cfg, cell, ds)) for cell in _sweep_cells(cfg.sweeps)]
    out_dir = Path(cfg.output["dir"])
    artifacts: list[str] = []
    _atomic_via(lambda p: data_mod.save_csv(ds, p), out_dir / "data.csv")
    artifacts.append("data.csv")
    if fr is not None:
        _atomic_write_text(out_dir / "forster.json", _dump_json(_forster_sidecar(fr)))
        artifacts.append("forster.json")

    sweeping = bool(cfg.sweeps)
    formats = cfg.output["formats"]
    runs = []
    for cell, trace, report in results:
        name = _cell_name(cell)
        suffix = f"__{name}" if sweeping else ""
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

        summary = trace.summary()
        runs.append(
            {
                "name": name,
                **summary,
                "m": trace.final_params.m,
                "seed": trace.final_params.seed,
                "condition1_holds": report.condition1_holds,
                "condition2_holds": report.condition2_holds,
                "files": files,
            }
        )
        if not quiet:
            print(
                f"[{name}] method={summary['method']} eta={summary['eta']} "
                f"steps={summary['steps']} final_residual={summary['final_residual_norm']:.6e}"
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
    _atomic_write_text(out_dir / "manifest.json", _dump_json(manifest))
    if not quiet:
        print(f"wrote {len(manifest['artifacts'])} artifact(s) to {out_dir}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _apply_overrides(
    cfg: ExperimentConfig, seed: int | None = None, out: str | None = None
) -> tuple[ExperimentConfig, dict]:
    overrides: dict = {}
    if seed is not None:
        cfg = dataclasses.replace(cfg, model={**cfg.model, "seed": seed})
        overrides["model.seed"] = seed
    if out:
        cfg = dataclasses.replace(cfg, output={**cfg.output, "dir": out})
        overrides["output.dir"] = out
    return cfg, overrides


def _load_one_cell(path, command: str) -> ExperimentConfig:
    """The config at path, refused if it sweeps: a sweep has many cells,
    and only train runs more than one."""
    cfg = load_config(path)
    if cfg.sweeps:
        raise ConfigError(f"{command}: config.sweeps: only train runs a sweep")
    return cfg


def cmd_gen_data(args) -> None:
    if not args.out:
        raise ConfigError("gen-data: --out is required")
    seed = 0 if args.seed is None else args.seed
    ds = data_mod.synth_sphere(args.n, args.d, seed, args.target_model)
    path = Path(args.out) / "data.csv"
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


def cmd_forster(args) -> None:
    if not args.out:
        raise ConfigError("forster: --out is required")
    ds, _ = build_dataset(load_config(args.config), raw=True)
    result = forster_mod.forster_transform(ds.X, tol=args.tol, max_iter=args.max_iter)
    transformed = Dataset(result.Z, ds.y)
    out_dir = Path(args.out)
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


def cmd_gram(args) -> None:
    ds, _ = build_dataset(load_config(args.config))
    G = gram_mod.limiting_gram(ds)
    eigs = gram_mod.spectrum(G)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if args.export:
        _atomic_write_text(Path(args.export), gram_mod.csv_text(G))
    print(
        _dump_json(
            {
                "n": ds.n,
                "d": ds.d,
                "kind": "limiting",
                "lambda_min": lam_min,
                "lambda_max": lam_max,
                "condition_number": lam_max / lam_min if lam_min > 0 else math.inf,
            }
        ),
        end="",
    )


def cmd_train(args) -> None:
    cfg, overrides = _apply_overrides(load_config(args.config), args.seed, args.out)
    run_experiment(cfg, overrides, quiet=args.quiet)


def cmd_compare(args) -> None:
    if len(args.config) < 2:
        raise ConfigError("compare: need at least two --config files")
    cfgs = []
    for path in args.config:
        cfgs.append(_apply_overrides(_load_one_cell(path, "compare"), args.seed)[0])
    ref = cfgs[0]
    for i, cfg in enumerate(cfgs[1:], start=2):
        if (
            cfg.data != ref.data
            or cfg.preprocess != ref.preprocess
            or cfg.model["seed"] != ref.model["seed"]
        ):
            raise ConfigError(
                f"compare: config #{i} does not share the data block, "
                "preprocessing, and model seed with the first config"
            )

    ds, _ = build_dataset(ref)
    rows = []
    for cfg in cfgs:
        ocfg = cfg.optimizer_config
        trace = optim.train(_init_params(cfg.model, ds), ds, ocfg)
        k = len(trace.records)
        r0 = trace.initial_residual_norm
        rk = trace.final_residual_norm
        # per-step factor on ||u - y||^2, the quantity predicted_factor bounds
        observed = (rk / r0) ** (2.0 / k) if r0 > 0 and k > 0 else math.nan
        predicted = optim.predicted_factor(ocfg, ds)
        rows.append(
            {
                "method": ocfg.method,
                "eta": ocfg.eta,
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
        table = data_mod.csv_table(rows[0], (row.values() for row in rows))
        _atomic_write_text(out_dir / "comparison.csv", table)
        _atomic_write_text(
            out_dir / "comparison.json",
            _dump_json({"threshold": COMPARE_THRESHOLD, "rows": rows}),
        )
        if not args.quiet:
            print(f"wrote comparison.csv and comparison.json to {out_dir}")


def cmd_verify(args) -> None:
    cfg, _ = _apply_overrides(_load_one_cell(args.config, "verify"), args.seed, args.out)
    ds, fr = build_dataset(cfg)
    trace, report = _run_cell(cfg, {}, ds)
    Ginf = gram_mod.limiting_gram(ds)
    lam0_inf = gram_mod.min_eig(Ginf)
    try:
        bound = dataclasses.asdict(theory.generalization_bound(Ginf, ds.y))
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
            **trace.summary(),
            "steps_to_threshold": trace.steps_to_threshold(COMPARE_THRESHOLD),
            "threshold": COMPARE_THRESHOLD,
        },
    }
    print(_dump_json(doc), end="")
    if args.out:
        _atomic_write_text(Path(args.out) / "verify.json", _dump_json(doc))


def cmd_linearized(args) -> None:
    if args.points < 2:
        raise ConfigError("linearized: --points must be >= 2")
    cfg, _ = _apply_overrides(_load_one_cell(args.config, "linearized"), args.seed, args.out)
    if cfg.output["dir"] is None:
        raise ConfigError("config.output.dir: required (or pass --out)")
    ds, _ = build_dataset(cfg)
    params = _init_params(cfg.model, ds)
    u0, S0 = network.forward(params, ds.X)
    lm = lin_mod.LinearizedModel(network.JacobianView(ds.X, S0, params.a), params.w, u0, ds.y)
    t_star = lin_mod.t_infinity(lm)
    ts = np.concatenate([[0.0], np.geomspace(1e-2, t_star, args.points - 1)])
    ts[-1] = t_star  # geomspace with one sample returns its start, 1e-2
    rows = []
    for t in ts:
        w_gd = lin_mod.gd_trajectory(lm, float(t))
        w_ngd = lin_mod.ngd_trajectory(lm, float(t))
        rows.append((
            t,
            np.linalg.norm(ds.y - lin_mod.outputs_at(lm, w_gd)),
            np.linalg.norm(ds.y - lin_mod.outputs_at(lm, w_ngd)),
            np.linalg.norm(w_gd - w_ngd),
        ))
    path = Path(cfg.output["dir"]) / "linearized.csv"
    header = ("t", "residual_gd", "residual_ngd", "weight_gap")
    _atomic_write_text(path, data_mod.csv_table(header, rows))
    limit = lin_mod.limit_weights(lm)
    if not args.quiet:
        print(
            _dump_json(
                {
                    "path": str(path),
                    "t_star": t_star,
                    "points": int(ts.size),
                    "limit_gap": rows[-1][3],  # the weight gap at t_star
                    "limit_residual": float(
                        np.linalg.norm(ds.y - lin_mod.outputs_at(lm, limit))
                    ),
                }
            ),
            end="",
        )


def _trace_summary_from_csv(path: Path) -> dict:
    """Step count and last residual_norm of a trace CSV; FormatError on a
    row without a numeric residual_norm."""
    norms = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                norms.append(float(row["residual_norm"]))
            except (KeyError, TypeError, ValueError):
                raise FormatError(
                    f"{path}: line {reader.line_num} has no numeric residual_norm"
                ) from None
    final = norms[-1] if norms else None
    return {"steps": len(norms), "final_residual_norm": final, "source": path.name}


def _strings(value, kind: type) -> bool:
    """value is a kind (list or dict) whose items (or values) are all strings."""
    items = value.values() if isinstance(value, dict) else value
    return isinstance(value, kind) and all(isinstance(v, str) for v in items)


def cmd_report(args) -> None:
    if not args.out:
        raise ConfigError("report: --out (the run directory) is required")
    out_dir = Path(args.out)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"report: no manifest.json in {out_dir}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    runs = manifest.get("runs", []) if isinstance(manifest, dict) else None
    if not (
        isinstance(runs, list)
        and all(isinstance(run, dict) and _strings(run.get("files", {}), dict) for run in runs)
        and _strings(manifest.get("artifacts", []), list)
    ):
        raise FormatError(
            f"{manifest_path}: expected an object whose 'runs' is a list of objects, "
            "each run's 'files' an object of strings, and 'artifacts' a list of strings"
        )

    experiments = []
    for run in runs:
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
    try:
        experiments.sort(
            key=lambda e: (
                e.get("eta") if e.get("eta") is not None else -1.0,
                e.get("m") or 0,
                e.get("seed") or 0,
                e.get("name") or "",
            )
        )
    except TypeError as exc:  # e.g. a string eta beside a numeric one
        raise FormatError(
            f"{manifest_path}: runs mix value types in eta, m, seed or name ({exc})"
        ) from None

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


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="natgrad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="<command>")
    sub.required = True

    # each subcommand takes only the scalar flags its handler reads
    config, out, seed, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", metavar="PATH", required=True, help="experiment config JSON")
    out.add_argument("--out", metavar="DIR", help="output directory")
    seed.add_argument("--seed", type=int, metavar="N", help="seed override")
    quiet.add_argument("--quiet", action="store_true", help="suppress informational output")

    p = sub.add_parser(
        "gen-data", parents=[out, seed], help="write a synthetic unit-sphere dataset"
    )
    p.add_argument("--n", type=int, default=16, help="number of examples")
    p.add_argument("--d", type=int, default=8, help="input dimension")
    p.add_argument(
        "--target-model",
        choices=data_mod.TARGET_MODELS,
        default="random_pm1",
        help="how targets are generated",
    )
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser(
        "forster", parents=[config, out, quiet],
        help="transform inputs so X^T X = (n/d) I with unit rows",
    )
    p.add_argument("--tol", type=float, default=forster_mod.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=forster_mod.DEFAULT_MAX_ITER)
    p.set_defaults(func=cmd_forster)

    p = sub.add_parser(
        "gram", parents=[config], help="print the limiting Gram spectrum of a dataset"
    )
    p.add_argument("--export", metavar="PATH", help="also write the Gram matrix as CSV")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser(
        "train", parents=[config, out, seed, quiet], help="run a training experiment"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "compare", parents=[out, seed, quiet],
        help="train several configs on shared data and tabulate rates",
    )
    p.add_argument(
        "--config", metavar="PATH", action="append", default=[],
        help="repeatable; at least two configs sharing data and seed",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "verify", parents=[config, out, seed],
        help="print a consolidated condition / bound / rate report",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "linearized", parents=[config, out, seed, quiet],
        help="emit closed-form frozen-Jacobian trajectories as CSV",
    )
    p.add_argument("--points", type=int, default=50, help="number of time points")
    p.set_defaults(func=cmd_linearized)

    p = sub.add_parser(
        "report", parents=[out, quiet],
        help="merge a run directory's artifacts into report.json",
    )
    p.set_defaults(func=cmd_report)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning on the CLI's stderr as one natgrad: line, without
    the library's file path and source line."""
    print(f"natgrad: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; this driver reserves 2 for
        # numerical failures, so usage errors exit 1 instead
        return 1 if exc.code else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args.func(args)
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
    return 0


def entry() -> None:
    sys.exit(main())
