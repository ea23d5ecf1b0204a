"""The demo scripts run to completion and print exactly their expected output.

``demos/03_toy_training.py`` is left out: it trains for about 30 s.  The
expected stdout of each checked demo is ``demo_stdout/<script stem>.txt``;
the demos are deterministic, so any byte that moves is a behaviour change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("script", ["01_corpus_mappings.py", "02_selection_sharpening.py",
                                    "04_metric_tour.py"])
def test_demo_exits_zero(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    expected = (EXPECTED / script).with_suffix(".txt").read_text(encoding="utf-8")
    assert done.stdout == expected
