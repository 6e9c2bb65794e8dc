"""The benchmark's traced replay still binds every name it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_replay_runs_a_decision_and_a_scan(tmp_path):
    spec = {"ops": [
        {"kind": "decide", "label": "2,2", "D": 2, "m": 2},
        {"kind": "cli", "label": "scan", "argv": ["scan", "--m", "3", "--xmax", "12"],
         "cache_dir": str(tmp_path / "cache")},
    ]}
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_replay.py"), str(spec_path),
         str(out_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(out_path.read_text(encoding="utf-8"))
    decide, scan = out["results"]
    assert (decide["ok"], decide["a"], decide["b"]) == (True, "3", "1")
    assert scan["exit"] == 0
    assert out["metrics"]["theorems.value_attained.calls"] == 1 + 7  # D=2, then D <= 12
