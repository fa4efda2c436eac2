"""Smoke tests: every script in demos/ runs to completion from the source
tree, and so do the README's quickstart, its example config and its
command lines."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from natgrad.cli import parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_from_source(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def readme_blocks(language):
    """Every fenced code block in language in the README."""
    return re.findall(
        rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
        re.MULTILINE | re.DOTALL,
    )


def readme_block(language):
    """The README's one fenced code block in language."""
    blocks = readme_blocks(language)
    assert len(blocks) == 1, f"expected one {language} block, found {len(blocks)}"
    return blocks[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_from_source([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    proc = run_from_source(["-c", readme_block("python")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_config_parses():
    cfg = parse_config(json.loads(readme_block("json")))
    assert cfg.sweeps == {"eta": [0.25, 0.5, 0.75]}


def test_readme_commands_run(tmp_path):
    """Every `natgrad ...` line of the README's sh blocks exits 0, given
    the config files the README names: config.json (its json block),
    one.json (config.json without sweeps) and gd.json (one.json with
    method gd)."""
    config = json.loads(readme_block("json"))
    one = {key: value for key, value in config.items() if key != "sweeps"}
    gd = {**one, "optimizer": {**one["optimizer"], "method": "gd"}}
    for name, cfg in (("config.json", config), ("one.json", one), ("gd.json", gd)):
        (tmp_path / name).write_text(json.dumps(cfg), encoding="utf-8")
    lines = [
        line.split()
        for block in readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("natgrad ")
    ]
    assert len(lines) == 6
    for line in lines:
        proc = run_from_source(["-m", "natgrad", *line[1:]], tmp_path)
        assert proc.returncode == 0, f"{' '.join(line)}: {proc.stderr}"
