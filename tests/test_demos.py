"""The runnable examples: each script in demos/ and the library example in
README.md run as documented and agree with the enumeration oracle."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dworkzeta import verify_against_oracle

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_matches_oracle(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    matches = [line for line in proc.stdout.splitlines() if "match:" in line]
    assert matches, proc.stdout
    assert all(line.rstrip().endswith("match: True") for line in matches), \
        proc.stdout


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    zf = namespace["zf"]
    assert zf.numerator == [1, 2, 13]
    assert zf.denominator == [1, -13]
    assert capsys.readouterr().out.startswith("[1, 2, 13] [1, -13]\n")
    verify_against_oracle(namespace["prob"], zf, 3)
