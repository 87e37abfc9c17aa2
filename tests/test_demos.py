"""Every shipped demo runs to the end at the size it ships with."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = Path(__file__).resolve().parents[1] / "demos"
_SRC = _DEMOS.with_name("src")


@pytest.mark.parametrize("demo", sorted(p.name for p in _DEMOS.glob("[0-9]*.py")))
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path, so whatever a demo writes next to itself lands there
    script = shutil.copy(_DEMOS / demo, tmp_path)
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    got = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout
    if demo.startswith("01_"):
        for name in ("echo_trace_raw.csv", "echo_trace_isolated.csv"):
            lines = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()
            assert lines[0].startswith("# rotecho ")
            assert lines[1] == "time_ps,alignment"
            assert len(lines) > 100
