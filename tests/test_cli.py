"""Command-line driver: subcommands, exit codes, artifact contracts."""
import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natgrad as ng
from natgrad.cli import build_dataset, build_parser, main, parse_config
from test_forster import NO_POSITION

TRACE_HEADER = (
    "k,residual_norm,loss,weight_drift,per_unit_max_drift,"
    "predicted_bound,lambda_min_G,jacobian_drift,cg_stagnated"
)


def base_config(out_dir):
    return {
        "data": {"synth": {"n": 8, "d": 4, "seed": 0}},
        "model": {"m": 64, "nu": 1.0, "seed": 0},
        "optimizer": {"method": "ngd_exact", "eta": 0.5, "damping": 0.0, "max_steps": 5},
        "output": {"dir": str(out_dir)},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parser-level behavior


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert ng.__version__ in capsys.readouterr().out


# every option each subcommand takes; their count is the CLI's number of
# settable values
CLI_FLAGS = {
    "gen-data": ("--config", "--out"),
    "gram": ("--config", "--export"),
    "train": ("--config", "--out", "--quiet"),
    "linearized": ("--config", "--out", "--points", "--quiet"),
    "report": ("--out", "--quiet"),
}


def test_cli_flag_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = {
        name: tuple(sorted(
            flag for action in sub._actions for flag in action.option_strings
            if not isinstance(action, argparse._HelpAction)
        ))
        for name, sub in commands.choices.items()
    }
    assert table == CLI_FLAGS
    assert sum(len(flags) for flags in table.values()) == 13


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["forster", "--config", "c.json", "--out", "o"]) == 1  # gen-data's job
    assert main(["compare", "--config", "c.json", "--config", "g.json"]) == 1  # train's manifest
    assert main(["verify", "--config", "c.json"]) == 1  # train's artifacts and gram
    assert main(["train"]) == 1  # --config required
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("gram", "--out"), ("gram", "--seed"), ("gram", "--quiet"), ("report", "--seed"),
        ("gen-data", "--quiet"),
        *(("gen-data", flag) for flag in ("--seed", "--n", "--d", "--target-model")),
        *(("gram", flag) for flag in ("--data", "--label-column", "--normalize")),
        *((command, "--seed") for command in ("train", "linearized")),
    ],
)
def test_flags_a_command_ignores_are_rejected(tmp_path, capsys, command, flag):
    # each invocation is valid without the flag; a flag its handler never
    # reads is a usage error rather than silently dropped
    run_dir = tmp_path / "run"
    cfgp = write_config(tmp_path, base_config(run_dir))
    argv = {
        "gram": ["--config", cfgp],
        "report": ["--out", str(run_dir)],
        "gen-data": ["--config", cfgp, "--out", str(tmp_path / "g")],
        "train": ["--config", cfgp, "--quiet"],
        "linearized": ["--config", cfgp, "--points", "3", "--quiet"],
    }[command]
    if command == "report":
        assert main(["train", "--config", cfgp, "--quiet"]) == 0
    if flag in ("--quiet", "--normalize"):
        extra = [flag]
    else:
        extra = [flag, str(tmp_path / "x") if flag in ("--out", "--data") else "1"]
    assert main([command, *argv, *extra]) == 1
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_valid_csv(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, {"data": {"synth": {"n": 10, "d": 5, "seed": 3}}})
    assert main(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 10 and doc["d"] == 5
    assert doc["data"] == {"synth": {"n": 10, "d": 5, "seed": 3, "target_model": "random_pm1"}}
    assert doc["validation"]["passed"] is True
    ds = ng.load_csv(out / "data.csv")
    assert ds.n == 10 and ds.d == 5
    assert ng.validate(ds).passed


def test_gen_data_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    cfgp = write_config(tmp_path, {"data": {"synth": {"seed": 5}}})
    main(["gen-data", "--config", cfgp, "--out", str(a)])
    main(["gen-data", "--config", cfgp, "--out", str(b)])
    capsys.readouterr()
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


@pytest.mark.parametrize("forster", [False, True])
def test_gen_data_writes_the_data_train_writes(tmp_path, capsys, forster):
    # the one dataset path: gen-data writes build_dataset's rows and Forster
    # sidecar, as train does, and reads only the data and preprocess blocks
    # of any config
    cfg = {**base_config(tmp_path / "run"), "preprocess": {"forster": forster},
           "sweeps": {"eta": [0.25, 0.5]}}
    cfgp = write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", cfgp, "--out", str(tmp_path / "g")]) == 0
    assert main(["train", "--config", cfgp, "--quiet"]) == 0
    capsys.readouterr()
    names = ["data.csv", "forster.json"] if forster else ["data.csv"]
    assert sorted(p.name for p in (tmp_path / "g").iterdir()) == names
    for name in names:
        assert (tmp_path / "g" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_gen_data_requires_out(tmp_path, capsys):
    assert main(["gen-data"]) == 1
    assert "--out is required" in capsys.readouterr().err
    assert main(["gen-data", "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == "natgrad: config error: gen-data: --config is required\n"
    assert not (tmp_path / "g").exists()


def test_gen_data_rejects_tiny_n(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"data": {"synth": {"n": 1}}})
    assert main(["gen-data", "--config", cfgp, "--out", str(tmp_path / "g")]) == 1
    assert "natgrad: config error: config.data.synth.n: must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_data_warns_once_about_large_targets(tmp_path, capsys):
    # the rows are validated for the file and again for the printed margins
    ds = ng.synth_sphere(8, 4, seed=0)
    ng.save_csv(ng.Dataset(ds.X, 100.0 * ds.y), tmp_path / "big.csv")
    cfgp = write_config(tmp_path, {"data": {"path": str(tmp_path / "big.csv")}})
    assert main(["gen-data", "--config", cfgp, "--out", str(tmp_path / "g")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["validation"]["max_abs_target"] == 100.0
    assert captured.err == "natgrad: warning: targets reach |y| = 100; expected order one\n"


def test_gen_data_refuses_data_that_fails_validation(tmp_path, capsys):
    # 2000 points on the unit circle: some pair is closer than the
    # parallel-rows tolerance, so no file is written
    cfgp = write_config(tmp_path, {"data": {"synth": {"n": 2000, "d": 2, "seed": 0}}})
    assert main(["gen-data", "--config", cfgp, "--out", str(tmp_path / "g")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("natgrad: error: dataset failed validation: ")
    assert not (tmp_path / "g").exists()


# ---------------------------------------------------------------------------
# forster


def csv_config(tmp_path, ds, name="data", normalize=False, **data):
    """A config file whose dataset is ds, saved as name.csv; data adds
    data-block keys."""
    src = tmp_path / f"{name}.csv"
    ng.save_csv(ds, src)
    cfg = {"data": {"path": str(src), **data}, "preprocess": {"normalize": normalize}}
    return write_config(tmp_path, cfg, f"{name}.json")


def test_forster_from_csv(tmp_path, capsys):
    # gen-data on a Forster config writes the transformed rows and the map
    # that makes them, the same bytes train writes
    raw = ng.synth_sphere(24, 6, seed=0)
    skewed = ng.Dataset(raw.X * np.array([1, 1, 1, 1, 0.2, 0.1]), raw.y)
    src = tmp_path / "raw.csv"
    ng.save_csv(skewed, src)
    cfg = {"data": {"path": str(src)}, "preprocess": {"forster": True, "normalize": True},
           "model": {"m": 64}, "optimizer": {"max_steps": 2},
           "output": {"dir": str(tmp_path / "t")}}
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["passed"] is True
    ds = ng.load_csv(out / "data.csv")
    assert np.allclose(ds.X.T @ ds.X, (24 / 6) * np.eye(6), atol=1e-7)
    assert np.array_equal(ds.y, raw.y)
    sidecar = read_json(out / "forster.json")
    assert sidecar["iterations"] >= 1 and sidecar["final_error"] <= 1e-8
    assert len(sidecar["A"]) == 6
    recon = ng.normalize_rows(ng.normalize_rows(skewed.X) @ np.array(sidecar["A"]))
    assert np.max(np.abs(recon - ds.X)) < 1e-8
    assert main(["train", "--config", cfgp, "--quiet"]) == 0
    for name in ("data.csv", "forster.json"):
        assert (out / name).read_bytes() == (tmp_path / "t" / name).read_bytes()


def test_forster_from_config_transforms_once(tmp_path, capsys):
    # a synth config with preprocess.forster transforms the drawn rows once,
    # giving the same files as a config naming them saved to a CSV
    cfg = base_config(tmp_path / "unused")
    cfg["preprocess"] = {"forster": True}
    cfgp = write_config(tmp_path, cfg)
    src = tmp_path / "raw.csv"
    ng.save_csv(ng.synth_sphere(8, 4, seed=0), src)
    raw = write_config(
        tmp_path, {"data": {"path": str(src)}, "preprocess": {"forster": True}}, "raw.json"
    )
    assert main(["gen-data", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert main(["gen-data", "--config", raw, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("data.csv", "forster.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_forster_exhausted_budget_exits_two(tmp_path, capsys):
    # four of six rows in one plane of R^3, the most that radial isotropic
    # position allows (n k / d = 4): the transform only creeps towards it,
    # and runs out its 10 000 iterations
    X = np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1], [0.5, 0.2, 1]])
    src = tmp_path / "plane.csv"
    ng.save_csv(ng.Dataset(X, np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])), src)
    cfg = {"data": {"path": str(src)}, "preprocess": {"forster": True, "normalize": True}}
    out = tmp_path / "o"
    assert main(["gen-data", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("natgrad: numerical failure: no convergence to tol=1.0e-08")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("rows", ["3_of_4_in_a_plane", "5_of_8_in_a_plane"])
def test_forster_with_no_position_exits_two(tmp_path, capsys, command, rows):
    # inputs whose transform converges on rows that are no image of the
    # input: exit 2, one stderr line, no file
    X = np.array(NO_POSITION[rows], dtype=float)
    src = tmp_path / "crowded.csv"
    ng.save_csv(ng.Dataset(X, np.resize([1.0, -1.0], len(X))), src)
    cfg = {"data": {"path": str(src)}, "preprocess": {"forster": True, "normalize": True}}
    out = tmp_path / "o"
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("natgrad: numerical failure: converged rows are not the image")
    assert captured.err.endswith("the input may have no radial isotropic position\n")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["gram"]], ids=["gram"])
def test_gram_and_forster_need_config(tmp_path, capsys, argv):
    assert main(argv) == 1
    assert "the following arguments are required: --config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gram


def test_gram_reports_spectrum(tmp_path, capsys):
    ds = ng.synth_sphere(12, 6, seed=0)
    cfgp = csv_config(tmp_path, ds, "d", label_column="y")
    src = tmp_path / "d.csv"
    export = tmp_path / "new" / "gram.csv"  # gram creates the missing directory
    rc = main(["gram", "--config", cfgp, "--export", str(export)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "limiting"
    assert doc["n"] == 12 and doc["d"] == 6
    assert 0 < doc["lambda_min"] <= doc["lambda_max"]
    assert doc["condition_number"] == pytest.approx(doc["lambda_max"] / doc["lambda_min"])
    M = np.loadtxt(export, delimiter=",")
    assert M.shape == (12, 12)
    assert np.allclose(np.diag(M), 0.5)
    # every entry round-trips exactly (repr), one "\r\n"-ended line per row
    assert np.array_equal(M, ng.limiting_gram(ng.load_csv(src, label_column="y")))
    assert export.read_bytes().count(b"\r\n") == 12
    assert [p.name for p in export.parent.iterdir()] == ["gram.csv"]  # no temp file left


def test_gram_reports_bound_and_width(tmp_path, capsys):
    # the limiting Gram's generalization bound and the width the theory asks
    # for at the config's nu, from the spectrum gram prints
    cfg = base_config(tmp_path / "unused")
    cfg["model"]["nu"] = 0.5
    assert main(["gram", "--config", write_config(tmp_path, cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    ds, _ = build_dataset(parse_config(cfg))
    G = ng.limiting_gram(ds)
    gb = doc["generalization_bound"]
    assert gb == dataclasses.asdict(ng.generalization_bound(G, ds.y))
    assert gb["total"] == pytest.approx(gb["quad_term"] + gb["conf_term"] + gb["epsilon"])
    assert doc["overparam"]["delta"] == 0.1 and doc["overparam"]["note"]
    assert doc["overparam"]["suggested_m"] == ng.overparam_requirement(
        ds.n, doc["lambda_min"], 0.5, 0.1
    )


def test_gram_with_underflowing_nu(tmp_path, capsys):
    # nu**2 underflows to 0 in the width requirement: no float width is
    # enough, so suggested_m is null (+inf) and gram still exits 0
    cfg = base_config(tmp_path / "unused")
    cfg["model"]["nu"] = 1e-300
    assert main(["gram", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["overparam"]["suggested_m"] is None


def test_gram_from_config_applies_preprocessing(tmp_path, capsys):
    cfg = base_config(tmp_path / "unused")
    cfg["preprocess"] = {"forster": True}
    cfgp = write_config(tmp_path, cfg)
    assert main(["gram", "--config", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    ds, fr = build_dataset(parse_config(cfg))
    assert fr is not None
    eigs = ng.spectrum(ng.limiting_gram(ds))
    assert (doc["n"], doc["d"]) == (8, 4)
    assert doc["lambda_min"] == eigs[0] and doc["lambda_max"] == eigs[-1]


@pytest.mark.parametrize("defect", ["norm3", "duplicate"])
def test_gram_validates_its_dataset(tmp_path, capsys, defect):
    # limiting_gram assumes unit, non-parallel rows: rows of norm 3 gave a
    # negative lambda_min for the PSD G_inf, and a repeated row exited 0
    ds = ng.synth_sphere(8, 4, seed=0)
    X = 3.0 * ds.X if defect == "norm3" else np.vstack([ds.X[:1], ds.X[:-1]])
    cfgp = csv_config(tmp_path, ng.Dataset(X, ds.y), defect)
    assert main(["gram", "--config", cfgp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("natgrad: error: dataset failed validation: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["gram", "train"])
def test_forster_config_with_a_duplicate_row_fails_validation_before_the_transform(
    tmp_path, capsys, command
):
    # the Forster transform keeps parallel rows parallel, so it used to spend
    # its whole 10 000-iteration budget and exit 2 with "no convergence"
    ds = ng.synth_sphere(6, 3, seed=0)
    X = np.vstack([ds.X[:1], ds.X[:-1]])
    src = tmp_path / "dup.csv"
    ng.save_csv(ng.Dataset(X, ds.y), src)
    out = tmp_path / "out"
    cfg = {"data": {"path": str(src)}, "preprocess": {"forster": True},
           "output": {"dir": str(out)}}
    start = time.perf_counter()
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("natgrad: error: dataset failed validation: ")
    assert not out.exists()


def test_forster_config_with_a_nearly_parallel_pair_passes_after_the_transform(tmp_path, capsys):
    # rows 0 and 1 are 1.3e-6 rad apart, a gap 1 - |cos| of 8.4e-13, under
    # validate()'s 1e-12; the transform spreads them to a gap of 6.9e-12
    ds = ng.synth_sphere(16, 4, seed=0)
    X = ds.X.copy()
    v = X[3] - (X[3] @ X[0]) * X[0]
    X[1] = X[0] + 1.3e-6 * v / np.linalg.norm(v)
    assert not ng.validate(ng.Dataset(ng.normalize_rows(X), ds.y)).passed
    src = tmp_path / "near.csv"
    ng.save_csv(ng.Dataset(X, ds.y), src)
    cfg = {"data": {"path": str(src)}, "preprocess": {"forster": True},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["gram", "--config", write_config(tmp_path, cfg)]) == 0


def test_non_finite_data_cells_exit_three(tmp_path, capsys):
    """A nan or inf cell is a format error, whichever command reads it."""
    def lines(rows):
        return "".join(",".join(row) + "\n" for row in rows)

    ds = ng.synth_sphere(8, 4, seed=0)
    rows = [[repr(v) for v in row] for row in np.column_stack([ds.X, ds.y]).tolist()]
    rows[1][0] = "nan"  # file row 3, below the header
    nan_feature = tmp_path / "nan.csv"
    nan_feature.write_text("x0,x1,x2,x3,y\n" + lines(rows))
    cfgp = write_config(tmp_path, {"data": {"path": str(nan_feature)}}, "nan.json")
    assert main(["gram", "--config", cfgp]) == 3
    assert "row 3, column 1: could not parse 'nan'" in capsys.readouterr().err

    rows[1][0], rows[2][4] = repr(ds.X[1, 0].item()), "inf"  # no header: row 3 is rows[2]
    inf_label = tmp_path / "inf.csv"
    inf_label.write_text(lines(rows))
    cfg = base_config(tmp_path / "run")
    cfg["data"] = {"path": str(inf_label)}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 3
    assert "row 3, column 5: could not parse 'inf'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # the data is read before the run directory is made


# ---------------------------------------------------------------------------
# train


def test_train_writes_complete_artifact_set(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, base_config(out))
    assert main(["train", "--config", cfgp, "--quiet"]) == 0
    capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    on_disk = {p.name for p in out.iterdir()}
    assert set(manifest["artifacts"]) == on_disk
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert len(manifest["config_hash"]) == 64
    assert manifest["data"] == {
        "n": 8, "d": 4, "source": "synth",
        "forster_applied": False, "forster_iterations": None,
    }
    assert manifest["version"] == ng.__version__

    trace_lines = (out / "trace.csv").read_text().strip().split("\n")
    assert trace_lines[0] == TRACE_HEADER
    assert len(trace_lines) == 1 + 5

    tj = read_json(out / "trace.json")
    assert tj["steps"] == 5
    cond = read_json(out / "conditions.json")
    assert cond["report"]["condition1_holds"] is True
    assert "scope" in cond

    run = manifest["runs"][0]
    assert run["name"] == "run"
    assert run["method"] == "ngd_exact"
    assert run["files"] == {
        "trace_csv": "trace.csv", "trace_json": "trace.json",
        "conditions": "conditions.json",
    }


def assert_failed_train_writes_nothing(tmp_path, cfg, capsys) -> str:
    """Train cfg, which fails numerically, into a fresh directory and over a
    prior run; return the first failure's stderr."""
    cfgp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfgp, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert not Path(cfg["output"]["dir"]).exists()
    prior = tmp_path / "prior"
    assert main(["train", "--config", write_config(tmp_path, base_config(prior), "ok.json"),
                 "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in prior.iterdir()}
    assert main(["train", "--config", cfgp, "--out", str(prior), "--quiet"]) == 2
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in prior.iterdir()} == before
    return err


def test_train_singular_gram_exits_two(tmp_path, capsys):
    cfg = base_config(tmp_path / "run")
    cfg["data"]["synth"] = {"n": 12, "d": 2, "seed": 25}
    cfg["model"] = {"m": 4, "nu": 1.0, "seed": 26}  # m d = 8 < n = 12
    err = assert_failed_train_writes_nothing(tmp_path, cfg, capsys)
    assert "at step 1: output Gram is numerically singular" in err


def test_train_kfac_rank_deficient_inputs_exit_two(tmp_path, capsys):
    cfg = base_config(tmp_path / "run")
    cfg["data"]["synth"] = {"n": 4, "d": 6, "seed": 0}  # rank(X) = 4 < d = 6
    cfg["optimizer"] = {"method": "kfac", "eta": 0.5, "max_steps": 3}
    err = assert_failed_train_writes_nothing(tmp_path, cfg, capsys)
    assert "at step 1: input factor X^T X is rank deficient" in err
    assert len(err.splitlines()) == 1  # the error alone: no step-size warning


def test_train_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_config(tmp_path, base_config(out))
    main(["train", "--config", cfgp, "--quiet"])
    first = {
        name: (out / name).read_bytes()
        for name in ("data.csv", "trace.csv", "trace.json", "conditions.json")
    }
    manifest1 = read_json(out / "manifest.json")
    main(["train", "--config", cfgp, "--quiet"])
    capsys.readouterr()
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    manifest2 = read_json(out / "manifest.json")
    manifest1.pop("created")
    manifest2.pop("created")
    assert manifest1 == manifest2


def test_train_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """The README config at 1 and at 2 BLAS threads, into the same path one
    run after the other, writes the same bytes; only the manifest's
    created differs."""
    cfgp = write_config(tmp_path, README_CONFIG)
    src = str(Path(ng.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "natgrad", "train", "--config", cfgp, "--quiet"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / README_CONFIG["output"]["dir"]
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        manifest = json.loads(files.pop("manifest.json"))
        manifest.pop("created")
        runs.append((files, manifest))
    assert len(runs[0][0]) == 10  # data.csv and three cells of trace csv/json and conditions
    assert runs[0] == runs[1]


def test_train_seed_and_out_overrides(tmp_path, capsys):
    # --out is the one override; the seed comes from model.seed
    cfg = base_config(tmp_path / "ignored")
    cfg["model"]["seed"] = 7
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "actual"
    assert main(["train", "--config", cfgp, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    assert manifest["overrides"] == {"output.dir": str(out)}
    assert manifest["runs"][0]["seed"] == 7
    assert not (tmp_path / "ignored").exists()


def test_train_sweep_names_cells(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = base_config(out)
    cfg["sweeps"] = {"eta": [0.25, 0.5], "seed": [0, 1]}
    cfgp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfgp, "--quiet"]) == 0
    capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    names = [run["name"] for run in manifest["runs"]]
    assert names == [
        "eta=0.25__seed=0", "eta=0.25__seed=1",
        "eta=0.5__seed=0", "eta=0.5__seed=1",
    ]
    for name in names:
        assert (out / f"trace__{name}.csv").exists()
        assert (out / f"conditions__{name}.json").exists()
    assert {p.name for p in out.iterdir()} == set(manifest["artifacts"])
    etas = {run["name"]: run["eta"] for run in manifest["runs"]}
    assert etas["eta=0.25__seed=1"] == 0.25


@pytest.mark.parametrize(
    "sweeps, message",
    [
        ({"eta": [0.5, 0.5]}, "config.sweeps.eta: duplicate value 0.5"),
        ({"eta": [1, 0.25, 1.0]}, "config.sweeps.eta: duplicate value 1.0"),
        ({"m": [8, 16, 8]}, "config.sweeps.m: duplicate value 8"),
        ({"eta": [0.5], "seed": [3, 3]}, "config.sweeps.seed: duplicate value 3"),
    ],
    ids=["eta", "eta_int_and_float", "m", "seed"],
)
def test_train_sweep_rejects_duplicate_values(tmp_path, capsys, sweeps, message):
    """Two equal values would name two cells alike, and the second cell's
    artifacts would overwrite the first's."""
    out = tmp_path / "sweep"
    cfg = {**base_config(out), "sweeps": sweeps}
    assert main(["train", "--config", write_config(tmp_path, cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == f"natgrad: config error: {message}\n"
    assert not out.exists()


def test_train_forster_preprocessing_recorded(tmp_path, capsys):
    out = tmp_path / "fo"
    cfg = base_config(out)
    cfg["preprocess"] = {"forster": True}
    cfgp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfgp, "--quiet"]) == 0
    capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    assert manifest["data"]["forster_applied"] is True
    assert "forster.json" in manifest["artifacts"]
    ds = ng.load_csv(out / "data.csv")
    assert np.allclose(ds.X.T @ ds.X, 2.0 * np.eye(4), atol=1e-7)


def test_train_requires_output_dir(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["output"]
    cfgp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfgp, "--quiet"]) == 1
    assert "output.dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration schema and exit codes


SCHEMA_VIOLATIONS = [
    # (blocks replacing base_config's, block path the message starts
    # with, field it names)
    ({"data": None}, "config.data", "required"),  # None: drop the block
    ({"typo": {}}, "config", "typo"),
    ({"data": {"synth": {"n": 8, "d": 4}, "path": "x.csv"}}, "config.data", "synth"),
    ({"data": {"synth": {"n": 1, "d": 4}}}, "config.data.synth", "n"),
    ({"data": {"synth": {"d": 4.0}}}, "config.data.synth", "d"),
    ({"data": {"synth": {"target_model": "xor"}}}, "config.data.synth", "target_model"),
    ({"data": {"synth": {"n": 8, "d": 4}, "label_column": 0}}, "config.data", "label_column"),
    ({"data": {"path": "x.csv", "label_column": 1.5}}, "config.data", "label_column"),
    ({"preprocess": {"forster": 1}}, "config.preprocess", "forster"),
    ({"model": {"m": 0}}, "config.model", "m"),
    ({"model": {"nu": 0}}, "config.model", "nu"),
    ({"model": {"nu": 10**400}}, "config.model", "nu"),
    ({"model": {"seed": "0"}}, "config.model", "seed"),
    ({"model": {"seed": -1}}, "config.model", "seed"),
    ({"data": {"synth": {"seed": -3}}}, "config.data.synth", "seed"),
    ({"optimizer": {"method": "adam"}}, "config.optimizer", "method"),
    ({"optimizer": {"eta": -1.0}}, "config.optimizer", "eta"),
    ({"optimizer": {"eta": float("inf")}}, "config.optimizer", "eta"),
    ({"optimizer": {"damping": -1e-3}}, "config.optimizer", "damping"),
    ({"optimizer": {"cg_iters": 0}}, "config.optimizer", "cg_iters"),
    ({"optimizer": {"cg_tol": 0}}, "config.optimizer", "cg_tol"),
    ({"optimizer": {"max_steps": 0}}, "config.optimizer", "max_steps"),
    ({"optimizer": {"track_lambda_min": "yes"}}, "config.optimizer", "track_lambda_min"),
    ({"optimizer": {"loss": {"kind": "hinge"}}}, "config.optimizer", "kind"),
    ({"optimizer": {"loss": {"kind": "logcosh", "mu": 0}}}, "config.optimizer", "mu"),
    ({"optimizer": {"method": "kfac", "loss": {"kind": "logcosh"}}}, "config.optimizer", "kfac"),
    ({"output": {"dir": "o", "formats": ["xml"]}}, "config.output", "formats"),
    ({"output": {"dir": ""}}, "config.output", "dir"),
    ({"sweeps": {"eta": []}}, "config.sweeps", "eta"),
    ({"sweeps": {"eta": [0.5, -1]}}, "config.sweeps", "eta"),
    ({"sweeps": {"m": [8, 0]}}, "config.sweeps", "m"),
    ({"sweeps": {"seed": [True]}}, "config.sweeps", "seed"),
    ({"sweeps": {"seed": [1, -2]}}, "config.sweeps", "seed"),
    ({"sweeps": {"gamma": [1]}}, "config.sweeps", "gamma"),
]


def test_config_schema_violations_exit_one(tmp_path, capsys):
    for i, (patch, block, field) in enumerate(SCHEMA_VIOLATIONS):
        cfg = {k: v for k, v in {**base_config(tmp_path), **patch}.items() if v is not None}
        cfgp = write_config(tmp_path, cfg, name=f"bad{i}.json")
        assert main(["train", "--config", cfgp, "--quiet"]) == 1, f"case {i}"
        err = capsys.readouterr().err
        prefix = f"natgrad: config error: {block}"
        assert err.startswith(prefix), f"case {i}: {err}"
        assert re.search(rf"\b{field}\b", err[len(prefix):]), f"case {i}: {err}"


def test_malformed_json_exits_three(tmp_path, capsys):
    cfgp = tmp_path / "broken.json"
    cfgp.write_text("{not json")
    assert main(["train", "--config", str(cfgp)]) == 3
    assert "input error" in capsys.readouterr().err


def test_missing_files_exit_three(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 3
    cfg = base_config(tmp_path / "o")
    cfg["data"] = {"path": str(tmp_path / "absent.csv")}
    cfgp = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfgp, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "i/o error" in err


def test_non_object_config_root(tmp_path, capsys):
    cfgp = tmp_path / "list.json"
    cfgp.write_text("[1, 2]")
    assert main(["train", "--config", str(cfgp)]) == 1
    assert "root must be a JSON object" in capsys.readouterr().err


def test_config_hash_is_key_order_invariant(tmp_path):
    cfg = base_config(tmp_path)
    reordered = json.loads(json.dumps(cfg))
    reordered["optimizer"] = dict(reversed(list(cfg["optimizer"].items())))
    assert parse_config(cfg).config_hash() == parse_config(reordered).config_hash()
    changed = json.loads(json.dumps(cfg))
    changed["optimizer"]["eta"] = 0.25
    assert parse_config(changed).config_hash() != parse_config(cfg).config_hash()


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


@pytest.mark.parametrize(
    "raw, digest",
    [
        (README_CONFIG, "b7bf73a5914e2c209f4a8cdcb1707efc53a351cadc5c12d7218c8b8694dd3c9b"),
        ({"data": {"synth": {}}}, "849af80cf1642e0b4edaea8e93490c932f6fb4b696ab014ed2a1dba7ee567fa9"),
        (
            {
                "data": {"path": "x.csv", "label_column": "y"},
                "optimizer": {
                    "method": "ngd_cg", "loss": {"kind": "logcosh", "mu": 2}, "eta": 1,
                },
                "sweeps": {"m": [8, 16], "seed": [1]},
            },
            "cbca95ef37c9e3bc650e1e231c0206b8b2c4ced2a33fb5fd2f83e94d7597c5a7",
        ),
    ],
    ids=["readme", "defaults", "path_logcosh_sweeps"],
)
def test_config_hash_golden(raw, digest):
    """The canonical form, and so every recorded config_hash, is pinned."""
    assert parse_config(raw).config_hash() == digest


def test_config_defaults():
    cfg = parse_config({"data": {"synth": {}}})
    assert cfg.model == {"m": 1024, "nu": 1.0, "seed": 0}
    assert cfg.data["synth"] == {"n": 16, "d": 8, "seed": 0, "target_model": "random_pm1"}
    assert cfg.output == {"dir": None, "formats": ["csv", "json"]}
    assert cfg.optimizer == {
        "method": "ngd_exact", "eta": 0.5, "damping": None, "cg_iters": 100,
        "cg_tol": 1e-10, "max_steps": 100, "loss": "squared",
        "track_lambda_min": False, "track_jacobian_drift": False,
    }
    assert cfg.optimizer_config.method == "ngd_exact"
    assert cfg.optimizer_config.eta == 0.5
    assert cfg.optimizer_config.loss.kind == "squared"
    assert cfg.sweeps == {}


# ---------------------------------------------------------------------------
# rates in train's manifest


def test_compare_tabulates_methods(tmp_path, capsys):
    # a method comparison is one train per config on shared data; each
    # manifest run holds one row of the table: method, eta, steps to the
    # threshold, final residual, predicted and observed factors
    shared = base_config(tmp_path / "unused")
    del shared["output"]
    gd_cfg = json.loads(json.dumps(shared))
    gd_cfg["optimizer"] = {"method": "gd", "eta": 0.5, "max_steps": 5}
    rows = []
    for name, cfg in (("ngd", shared), ("gd", gd_cfg)):
        out = tmp_path / name
        argv = ["train", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]
        assert main(argv) == 0
        first = capsys.readouterr().out.strip().split("\n")[0]
        assert first.startswith(f"[run] method={cfg['optimizer']['method']} eta=0.5 ")
        manifest = read_json(out / "manifest.json")
        assert manifest["threshold"] == 1e-3
        (run,) = manifest["runs"]
        rows.append((manifest["data"], run))
    assert rows[0][0] == rows[1][0]  # both runs saw the same dataset
    table = [run for _, run in rows]
    for key in ("method", "eta", "steps_to_threshold", "final_residual_norm",
                "predicted_factor", "observed_gm_factor"):
        assert all(key in run for run in table)
    assert [run["method"] for run in table] == ["ngd_exact", "gd"]
    assert table[0]["predicted_factor"] == 0.5
    assert table[1]["predicted_factor"] is None  # no geometric prediction for gd


@pytest.mark.filterwarnings("ignore:eta = 0.5 exceeds lambda_min:UserWarning")
def test_compare_factors_are_on_squared_residual(tmp_path, capsys):
    # the README data: each run's observed_gm_factor is the per-step factor
    # on ||u - y||^2, the same quantity predicted_factor bounds; one train
    # per method, and gd has no predicted factor
    shared = {
        "data": {"synth": {"n": 16, "d": 8, "seed": 1}},
        "model": {"m": 4096, "nu": 1.0, "seed": 5},
    }
    for method in ("ngd_exact", "kfac", "gd"):
        cfg = {**shared, "optimizer": {"method": method, "damping": 0.0, "max_steps": 10}}
        out = tmp_path / method
        assert main(["train", "--config", write_config(tmp_path, cfg, f"{method}.json"),
                     "--out", str(out), "--quiet"]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["threshold"] == 1e-3
        (run,) = manifest["runs"]
        assert run["method"] == method
        ds, _ = build_dataset(parse_config(cfg))
        trace = ng.train(ng.init_network(4096, ds.d, 1.0, seed=5), ds,
                         parse_config(cfg).optimizer_config)
        k = len(trace.records)
        ratio = trace.final_residual_norm / trace.initial_residual_norm
        assert run["observed_gm_factor"] == ratio ** (2.0 / k)
        assert run["steps_to_threshold"] == trace.steps_to_threshold(1e-3)
        if method == "gd":
            assert run["predicted_factor"] is None  # no geometric prediction
        else:
            lam_max = np.linalg.eigvalsh(ds.X.T @ ds.X)[-1]
            predicted = 0.5 if method == "ngd_exact" else 1.0 - 0.5 / lam_max
            assert run["predicted_factor"] == pytest.approx(predicted, rel=1e-12)
            assert run["observed_gm_factor"] <= run["predicted_factor"]
        assert main(["report", "--out", str(out), "--quiet"]) == 0
        (entry,) = read_json(out / "report.json")["experiments"]
        assert {key: entry[key] for key in run} == run
    capsys.readouterr()


def test_library_warning_printed_as_natgrad_line(tmp_path, capsys):
    """A library UserWarning reaches stderr as one natgrad: line, without
    the library's file path or source line."""
    kfac_cfg = base_config(tmp_path / "run")
    ds = ng.synth_sphere(8, 4, seed=0)
    lam_min = float(np.linalg.eigvalsh(ds.X.T @ ds.X)[0])
    kfac_cfg["optimizer"] = {"method": "kfac", "eta": 2.0 * lam_min, "damping": 0.0, "max_steps": 5}
    assert lam_min < kfac_cfg["optimizer"]["eta"] < 1.0
    assert main(["train", "--config", write_config(tmp_path, kfac_cfg), "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "natgrad: warning: eta = " in err
    assert "exceeds lambda_min(X^T X)" in err
    assert ".py:" not in err and "warnings.warn" not in err


@pytest.mark.parametrize("command", ["linearized"])
def test_single_run_commands_refuse_sweeps(tmp_path, capsys, command):
    """Only train runs a sweep; the others would silently run the base
    cell, which need not be one of the sweep's cells."""
    out = tmp_path / "out"
    cfg = {**base_config(tmp_path / "unused"), "sweeps": {"eta": [0.25, 0.75]}}
    cfgp = write_config(tmp_path, cfg)
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"natgrad: config error: {command}: config.sweeps: only train runs a sweep\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train"])
def test_overflowing_residual_exits_two(tmp_path, capsys, command):
    # outputs near 1e300 square past float range: divergence at step 0,
    # one stderr line and nothing written
    cfg = base_config(tmp_path / "run")
    cfg["model"]["nu"] = 1e300
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "natgrad: numerical failure: training diverged at step 0: residual norm is inf\n"
    )
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# linearized


def test_linearized_trajectory_csv(tmp_path, capsys):
    out = tmp_path / "lin"
    cfg = {
        "data": {"synth": {"n": 6, "d": 3, "seed": 0}},
        "model": {"m": 32, "nu": 1.0, "seed": 0},
        "output": {"dir": str(out)},
    }
    cfgp = write_config(tmp_path, cfg)
    assert main(["linearized", "--config", cfgp, "--points", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == 12
    assert doc["limit_residual"] < 1e-8
    assert doc["limit_gap"] < 1e-8

    lines = (out / "linearized.csv").read_text().strip().split("\n")
    assert lines[0] == "t,residual_gd,residual_ngd,weight_gap"
    assert len(lines) == 1 + 12
    first = [float(c) for c in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == first[2]  # both flows start from the same residual
    assert first[3] == 0.0
    last = [float(c) for c in lines[-1].split(",")]
    assert last[1] < 1e-9 and last[2] < 1e-9
    # gd decays monotonically, ngd too
    res_gd = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(res_gd, res_gd[1:]))


def test_linearized_peak_memory_below_dense_jacobian(tmp_path):
    n, d, m = 64, 16, 4096
    cfg = {
        "data": {"synth": {"n": n, "d": d, "seed": 0}},
        "model": {"m": m, "nu": 1.0, "seed": 1},
        "output": {"dir": str(tmp_path / "lin")},
    }
    cfgp = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["linearized", "--config", cfgp, "--quiet"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * m * d * 8, f"peak {peak / 2**20:.1f} MiB"  # the dense J alone: 33.5 MB


@pytest.mark.parametrize("quiet", [True, False])
def test_linearized_rows_form_no_weights(tmp_path, capsys, monkeypatch, quiet):
    """The rows come from n-sized vectors in the eigenbasis: no product
    with the Jacobian per time point.  Only the printed summary's
    limit_residual forms weights, one J^T and one J product."""
    calls = {"grad_matrix": 0, "apply_weights": 0}
    for name in calls:
        original = getattr(ng.network.JacobianView, name)

        def counted(self, v, name=name, original=original):
            calls[name] += 1
            return original(self, v)

        monkeypatch.setattr(ng.network.JacobianView, name, counted)
    cfgp = write_config(tmp_path, base_config(tmp_path / "lin"))
    argv = ["linearized", "--config", cfgp, "--points", "50"] + ["--quiet"] * quiet
    assert main(argv) == 0
    capsys.readouterr()
    assert len((tmp_path / "lin" / "linearized.csv").read_text().splitlines()) == 1 + 50
    expected = 0 if quiet else 1
    assert calls == {"grad_matrix": expected, "apply_weights": expected}


def test_linearized_two_points_end_at_t_star(tmp_path, capsys):
    cfgp = write_config(tmp_path, base_config(tmp_path / "lin"))
    assert main(["linearized", "--config", cfgp, "--points", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lines = (tmp_path / "lin" / "linearized.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[2].split(",")[0]) == doc["t_star"]
    assert float(lines[2].split(",")[3]) == doc["limit_gap"]


def test_linearized_needs_two_points(tmp_path, capsys):
    cfgp = write_config(tmp_path, base_config(tmp_path / "x"))
    assert main(["linearized", "--config", cfgp, "--points", "1"]) == 1
    assert "--points" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_merges_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["sweeps"] = {"eta": [0.5, 0.25]}
    cfgp = write_config(tmp_path, cfg)
    main(["train", "--config", cfgp, "--quiet"])
    assert main(["report", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    doc = read_json(out / "report.json")
    assert doc["config_hash"] == read_json(out / "manifest.json")["config_hash"]
    etas = [e["eta"] for e in doc["experiments"]]
    assert etas == sorted(etas)  # sorted ascending regardless of sweep order
    assert all(e["trace"]["steps"] == 5 for e in doc["experiments"])
    assert all(e["conditions"]["report"] is not None for e in doc["experiments"])
    manifest = read_json(out / "manifest.json")
    assert "report.json" in manifest["artifacts"]
    assert {p.name for p in out.iterdir()} == set(manifest["artifacts"])


def test_report_summarizes_csv_only_traces(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["output"]["formats"] = ["csv"]
    cfg["sweeps"] = {"eta": [0.5, 0.25]}
    assert main(["train", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
    assert main(["report", "--out", str(out), "--quiet"]) == 0
    experiments = read_json(out / "report.json")["experiments"]
    assert [e["eta"] for e in experiments] == [0.25, 0.5]
    for e in experiments:
        source = e["files"]["trace_csv"]
        assert source == f"trace__{e['name']}.csv"
        rows = (out / source).read_text().strip().split("\n")
        assert e["trace"] == {
            "steps": 5,
            "final_residual_norm": float(rows[-1].split(",")[1]),
            "source": source,
        }


def test_report_missing_manifest_exits_three(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 3
    assert capsys.readouterr().err.startswith("natgrad: input error: report: no manifest.json")
    assert main(["report"]) == 1  # --out required
    assert capsys.readouterr().err.startswith("natgrad: config error: report: --out")


@pytest.mark.parametrize(
    "manifest",
    [
        [1, 2],
        {"runs": 5},
        {"runs": [{"name": "run"}, 3]},
        {"runs": [], "artifacts": 5},
        {"runs": [], "artifacts": [1]},
        {"runs": [{"files": [1]}]},
        {"runs": [{"files": {"trace_json": 7}}]},
        {"runs": [{"eta": "a"}, {"eta": 0.5}]},
        {"runs": [{"eta": 0.5, "m": "x"}, {"eta": 0.5, "m": 3}]},
        {"runs": [{"seed": [1]}, {"seed": 2}]},
        {"runs": [{"name": "b"}, {"name": 1}]},
    ],
    ids=[
        "root_list",
        "runs_number",
        "run_number",
        "artifacts_number",
        "artifact_number",
        "files_list",
        "file_number",
        "eta_mixed",
        "m_mixed",
        "seed_mixed",
        "name_mixed",
    ],
)
def test_report_malformed_manifest_exits_three(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("natgrad: input error: ") and "manifest.json" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "last_row, line",
    [("7", 3), ("1,abc", 3), ("\n\n2,", 5)],
    ids=["truncated", "non_numeric", "blank_norm"],
)
def test_report_malformed_trace_csv_exits_three(tmp_path, capsys, last_row, line):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"runs": [{"name": "run", "files": {"trace_csv": "trace.csv"}}]})
    )
    (tmp_path / "trace.csv").write_text(f"{TRACE_HEADER}\n1,0.5,,,,,,,\n{last_row}\n")
    assert main(["report", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("natgrad: input error: ")
    assert f"trace.csv: line {line} has no numeric residual_norm" in err
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# declared entry point

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_console_script(*args):
    """Run the ``natgrad`` script declared in ``[project.scripts]``.

    Builds the launcher pip writes for a console script from the declared
    ``module:attr`` target, so no installed script on PATH is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["natgrad"]
    module, attr = target.split(":")
    launcher = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'natgrad'; sys.exit({attr}())"
    )
    return subprocess.run(
        [sys.executable, "-c", launcher, *args],
        capture_output=True, text=True, timeout=60,
    )


def test_console_script_runs():
    proc = run_console_script("--version")
    assert proc.returncode == 0
    assert ng.__version__ in proc.stdout


def test_console_script_exit_code_passthrough():
    proc = run_console_script("gen-data")
    assert proc.returncode == 1
    assert proc.stderr == "natgrad: config error: gen-data: --out is required\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "natgrad", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# edge-case configs through main, in process


@st.composite
def edge_runs(draw):
    """(command, config, dataset written as CSV or None): train or gram,
    each method, nu at 1e-300, 1 and 1e150, m from 1, d above n, and CSV
    rows with a duplicate, an antipodal pair or labels near 1e200."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**16))
    rows = draw(st.sampled_from(["synth", "plain", "duplicate", "antipodal"]))
    cfg = {
        "data": {"synth": {"n": n, "d": d, "seed": seed}},
        "preprocess": {"forster": draw(st.booleans())},
        "model": {
            "m": draw(st.sampled_from([1, 2, 16])),
            "nu": draw(st.sampled_from([1e-300, 1.0, 1e150])),
            "seed": seed,
        },
        "optimizer": {
            "method": draw(st.sampled_from(["gd", "ngd_exact", "ngd_cg", "kfac"])),
            "eta": draw(st.sampled_from([0.5, 1.0])),
            "damping": draw(st.sampled_from([0.0, None])),
            "max_steps": 3,
            "track_lambda_min": draw(st.booleans()),
            "track_jacobian_drift": draw(st.booleans()),
        },
    }
    if rows == "synth":
        return draw(st.sampled_from(["train", "gram"])), cfg, None
    ds = ng.synth_sphere(n, d, seed)
    X = ds.X.copy()
    if rows != "plain":
        X[-1] = X[0] if rows == "duplicate" else -X[0]
    y = ds.y * draw(st.sampled_from([1.0, 1.7e200]))
    return draw(st.sampled_from(["train", "gram"])), cfg, ng.Dataset(X, y)


def finite_float(text):
    value = float(text)
    assert math.isfinite(value), f"non-finite number {text!r}"
    return value


def assert_finite_artifact(path):
    """Every number in a JSON or CSV artifact is finite; a missing one is
    null or an empty cell."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_float=finite_float, parse_constant=finite_float)
        return
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if cell:
                finite_float(cell)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edge_runs())
def test_edge_configs_succeed_with_finite_artifacts_or_fail_in_one_line(run):
    command, cfg, ds = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if ds is not None:
            ng.save_csv(ds, tmp / "data_in.csv")
            cfg = {**cfg, "data": {"path": str(tmp / "data_in.csv")}}
        (tmp / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp / "out"
        argv = [command, "--config", str(tmp / "cfg.json")] + (
            ["--out", str(out_dir), "--quiet"] if command == "train"
            else ["--export", str(out_dir / "gram.csv")]
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            for path in sorted(out_dir.iterdir()):
                assert_finite_artifact(path)
            if command == "gram":
                json.loads(stdout.getvalue(), parse_float=finite_float,
                           parse_constant=finite_float)
        else:
            assert code in (1, 2, 3)
            err = stderr.getvalue()
            assert err.endswith("\n") and len(err.splitlines()) == 1, err


def test_train_cell_forms_no_pattern_at_the_final_iterate(tmp_path, capsys, monkeypatch):
    """The condition check reads the run's packed last pattern: per cell,
    the network is evaluated once per iterate and once more at w0 for the
    check, and no separate activation pattern is formed."""
    at_w0, patterns = [], []
    forward, activation_pattern = ng.network.forward, ng.network.activation_pattern

    def counted_forward(p, X):
        at_w0.append(np.array_equal(p.w, p.w0))
        return forward(p, X)

    def counted_pattern(p, X):
        patterns.append(p)
        return activation_pattern(p, X)

    monkeypatch.setattr(ng.network, "forward", counted_forward)
    monkeypatch.setattr(ng.network, "activation_pattern", counted_pattern)
    cfg = base_config(tmp_path / "run")
    cfg["sweeps"] = {"eta": [0.25, 0.5]}
    assert main(["train", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
    assert at_w0.count(True) == 2 * 2  # train's first forward and the check's
    assert len(at_w0) == 2 * (1 + 5 + 1)  # one per iterate, steps included, and the check's
    assert patterns == []
