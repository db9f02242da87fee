"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import os
import re
import subprocess
import sys

import quditphase as qp
from quditphase.scenarios import TraceRecord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qp.__file__)))


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_emit_figure_data_writes_preset_trace(tmp_path):
    out = _run_script("emit_figure_data.py", "--presets", "frac22",
                      "--out-dir", str(tmp_path))
    assert "frac22" in out
    rec = TraceRecord.from_csv((tmp_path / "frac22.csv").read_text())
    assert rec.columns["t"].size == qp.figure_preset("frac22").build().grid.steps + 1


def test_sweep_entanglement_matches_closed_form():
    out = _run_script("sweep_entanglement.py", "--points", "3")
    m = re.search(r"max engine-vs-closed-form residual: (\S+)", out)
    assert m, out
    assert float(m.group(1)) < 1e-10


def test_many_segments_prints_median():
    out = _run_script("many_segments.py", "--segments", "6", "--repeats", "1")
    assert re.fullmatch(r"6 segments, 13 samples: median \d+\.\d ms over 1 runs\n", out), out
