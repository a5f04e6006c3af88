"""The committed byte-identity list: every canonical file of the recipe, rebuilt and hashed."""

import difflib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DRIVER = ROOT / "tools" / "byteset.py"
LIST = ROOT / "tools" / "byteset.sha256"


def load_driver():
    spec = importlib.util.spec_from_file_location("byteset", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_outputs_match_the_committed_list():
    lines = LIST.read_text(encoding="utf-8").splitlines()
    pinned = dict(m.groups() for m in map(re.compile(r"# (\w+): (.*)").fullmatch, lines) if m)
    here = load_driver().environment()
    assert set(pinned) == set(here)
    differ = [f"{key} is {here[key]!r}, the list was made with {value!r}"
              for key, value in pinned.items() if here[key] != value]
    if differ:
        pytest.skip("; ".join(differ))
    expect = [line for line in lines if not line.startswith("#")]
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, str(DRIVER), str(ROOT), str(Path(tmp) / "out")],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = done.stdout.splitlines()
    assert got == expect, "\n".join(difflib.unified_diff(expect, got, "byteset.sha256", "rebuilt", lineterm=""))
