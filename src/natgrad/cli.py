"""Experiment driver: deterministic pipelines around the library.

Subcommands:

    gen-data    write a config's dataset as CSV (and forster.json, as train does)
    gram        print the limiting Gram's spectrum, generalization bound and width
    train       run preprocess -> init -> train -> condition check, write artifacts
    linearized  emit closed-form frozen-Jacobian trajectories as CSV
    report      merge one output directory's artifacts into report.json

Configuration is a JSON object with blocks data, preprocess, model,
optimizer, output, sweeps (see SCHEMA and parse_config).  Every subcommand
that makes a dataset takes it from --config through build_dataset, and
only train runs a config's sweeps: linearized refuses a config that has
one.  Each of train's runs carries its predicted and observed per-step
factors on ||u - y||^2 in the manifest, so an eta sweep is a rate table.
--out beats output.dir, and train records it in the manifest; seeds come
only from model.seed and sweeps.seed.  Identical configuration produces
byte-identical artifacts; the only timestamp lives in manifest.json.

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

RESIDUAL_THRESHOLD = 1e-3  # the ||u - y|| of each run's steps_to_threshold
OVERPARAM_DELTA = 0.1  # gram's failure probability for the suggested width
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
    "model": {"m": ("int", 1024, 1), "nu": ("positive", 1.0), "seed": ("int", 0, 0)},
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
        "seed": ("int", 0, 0),
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


def build_dataset(cfg: ExperimentConfig) -> tuple[Dataset, forster_mod.ForsterResult | None]:
    """Materialize the config's dataset, with its preprocessing applied and
    validated (unit-norm, non-parallel rows; ValueError otherwise), and the
    Forster result when preprocess.forster transformed it."""
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
    if cfg.preprocess["forster"]:
        _require_no_parallel_rows(ds.X)
        result = forster_mod.forster_transform(ds.X)
        ds = Dataset(result.Z, ds.y)
    data_mod.require_valid(ds)
    return ds, result


def _require_no_parallel_rows(X: np.ndarray) -> None:
    """Raise ValueError if two rows are exactly parallel: equal or opposite
    once normalized.  The Forster transform is an invertible linear map
    followed by row normalization, so it keeps them parallel, and it would
    spend its whole iteration budget on them.  Nearly parallel rows are left
    to the check after the transform, which may have spread them apart."""
    Z = forster_mod.normalize_rows(X)
    lead = Z[np.arange(len(Z)), np.argmax(Z != 0, axis=1)]  # first nonzero entry
    seen: dict[bytes, int] = {}
    for i, row in enumerate(Z * np.where(lead < 0, -1.0, 1.0)[:, None] + 0.0):  # + 0.0: no -0.0
        j = seen.setdefault(row.tobytes(), i)
        if j != i:
            raise ValueError(f"dataset failed validation: rows {j} and {i} (0-based) are exactly parallel")


def _init_params(model: dict, ds: Dataset) -> network.NetworkParams:
    """W(0) drawn from a model block's m, nu and seed."""
    return network.init(model["m"], ds.d, model["nu"], model["seed"])


def _write_dataset(out_dir: Path, ds: Dataset, fr: forster_mod.ForsterResult | None) -> list[str]:
    """Write data.csv and, when the Forster transform made ds, forster.json;
    return the names written."""
    _atomic_via(lambda p: data_mod.save_csv(ds, p), out_dir / "data.csv")
    if fr is None:
        return ["data.csv"]
    sidecar = {
        "iterations": fr.iterations,
        "final_error": fr.final_error,
        "rescale_skipped": fr.rescale_skipped,
        "A": fr.A.tolist(),
    }
    _atomic_write_text(out_dir / "forster.json", _dump_json(sidecar))
    return ["data.csv", "forster.json"]


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
) -> tuple[optim.ConvergenceTrace, theory.ConditionReport, dict]:
    """Train one sweep cell from W(0), check the conditions at its final
    iterate and measure its rate.  A cell's m and seed replace the model
    block's, its eta the optimizer's."""
    ocfg = cfg.optimizer_config
    if "eta" in cell:
        ocfg = dataclasses.replace(ocfg, eta=cell["eta"])
    trace = optim.train(_init_params({**cfg.model, **cell}, ds), ds, ocfg)
    report = theory.check_conditions(trace.final_params, ds, kappa=ocfg.loss.kappa, trace=trace)
    k, r0, rk = len(trace.records), trace.initial_residual_norm, trace.final_residual_norm
    rates = {
        "predicted_factor": optim.predicted_factor(ocfg, ds),
        # per-step factor on ||u - y||^2, the quantity predicted_factor bounds
        "observed_gm_factor": (rk / r0) ** (2.0 / k) if r0 > 0 and k > 0 else math.nan,
        "steps_to_threshold": trace.steps_to_threshold(RESIDUAL_THRESHOLD),
    }
    return trace, report, rates


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
    artifacts = _write_dataset(out_dir, ds, fr)

    sweeping = bool(cfg.sweeps)
    formats = cfg.output["formats"]
    runs = []
    for cell, trace, report, rates in results:
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
                **rates,
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
        "threshold": RESIDUAL_THRESHOLD,
        "version": __version__,
    }
    _atomic_write_text(out_dir / "manifest.json", _dump_json(manifest))
    if not quiet:
        print(f"wrote {len(manifest['artifacts'])} artifact(s) to {out_dir}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _apply_overrides(cfg: ExperimentConfig, out: str | None) -> tuple[ExperimentConfig, dict]:
    """cfg with --out, when given, as its output.dir, and the overrides
    applied, as the manifest records them."""
    if not out:
        return cfg, {}
    return dataclasses.replace(cfg, output={**cfg.output, "dir": out}), {"output.dir": out}


def cmd_gen_data(args) -> None:
    if not args.out:
        raise ConfigError("gen-data: --out is required")
    if not args.config:
        raise ConfigError("gen-data: --config is required")
    cfg = load_config(args.config)
    ds, fr = build_dataset(cfg)
    out_dir = Path(args.out)
    _write_dataset(out_dir, ds, fr)
    doc = {
        "path": str(out_dir / "data.csv"),
        "n": ds.n,
        "d": ds.d,
        "data": cfg.data,
        "validation": dataclasses.asdict(data_mod.validate(ds)),
    }
    print(_dump_json(doc), end="")


def cmd_gram(args) -> None:
    cfg = load_config(args.config)
    ds, _ = build_dataset(cfg)
    G = gram_mod.limiting_gram(ds)
    eigs = gram_mod.spectrum(G)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    try:
        bound = dataclasses.asdict(theory.generalization_bound(G, ds.y))
    except SingularMatrixError as exc:
        bound = {"error": str(exc)}
    suggested_m = (
        theory.overparam_requirement(ds.n, lam_min, cfg.model["nu"], OVERPARAM_DELTA)
        if lam_min > 0
        else None
    )
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
                "generalization_bound": bound,
                "overparam": {
                    "suggested_m": suggested_m,
                    "delta": OVERPARAM_DELTA,
                    "note": OVERPARAM_NOTE,
                },
            }
        ),
        end="",
    )


def cmd_train(args) -> None:
    cfg, overrides = _apply_overrides(load_config(args.config), args.out)
    run_experiment(cfg, overrides, quiet=args.quiet)


def cmd_linearized(args) -> None:
    if args.points < 2:
        raise ConfigError("linearized: --points must be >= 2")
    cfg = load_config(args.config)
    if cfg.sweeps:  # a sweep has many cells, and only train runs more than one
        raise ConfigError("linearized: config.sweeps: only train runs a sweep")
    cfg, _ = _apply_overrides(cfg, args.out)
    if cfg.output["dir"] is None:
        raise ConfigError("config.output.dir: required (or pass --out)")
    ds, _ = build_dataset(cfg)
    params = _init_params(cfg.model, ds)
    u0, S0 = network.forward(params, ds.X)
    lm = lin_mod.LinearizedModel(network.JacobianView(ds.X, S0, params.a), params.w, u0, ds.y)
    t_star = lin_mod.t_infinity(lm)
    ts = np.concatenate([[0.0], np.geomspace(1e-2, t_star, args.points - 1)])
    ts[-1] = t_star  # geomspace with one sample returns its start, 1e-2
    rows = [(t, *lin_mod.flow_norms(lm, float(t))) for t in ts]
    path = Path(cfg.output["dir"]) / "linearized.csv"
    header = ("t", "residual_gd", "residual_ngd", "weight_gap")
    _atomic_write_text(path, data_mod.csv_table(header, rows))
    if not args.quiet:
        limit = lin_mod.limit_weights(lm)
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
    config, out, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", metavar="PATH", required=True, help="experiment config JSON")
    out.add_argument("--out", metavar="DIR", help="output directory")
    quiet.add_argument("--quiet", action="store_true", help="suppress informational output")

    # --out is checked before --config, so a bare gen-data names --out first
    p = sub.add_parser("gen-data", parents=[out], help="write a config's dataset as CSV")
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser(
        "gram", parents=[config],
        help="print the limiting Gram spectrum, generalization bound and width",
    )
    p.add_argument("--export", metavar="PATH", help="also write the Gram matrix as CSV")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser(
        "train", parents=[config, out, quiet], help="run a training experiment"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "linearized", parents=[config, out, quiet],
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


def _show_warning(message) -> None:
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
        # library warnings are held until the command succeeds, so that a
        # failure is its one error line alone; each distinct one prints once
        with warnings.catch_warnings(record=True) as caught:
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
    for message in dict.fromkeys(str(w.message) for w in caught):
        _show_warning(message)
    return 0


def entry() -> None:
    sys.exit(main())
