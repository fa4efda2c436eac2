"""Smoke tests: every script in demos/ runs to completion from the source
tree, and so do the README's quickstart and its example config."""
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


def readme_block(language):
    """The README's one fenced code block in language."""
    blocks = re.findall(
        rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
        re.MULTILINE | re.DOTALL,
    )
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
