"""The README's python example runs as printed.

The block is read out of README.md and run in a fresh interpreter, so a
change to the package that alters the example's output, or breaks one of
its imports, shows up here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import isogenion

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(isogenion.__file__).resolve().parent.parent

PRINTED = [
    '{"conductor_ratio": {"2": 1}, "corresponds": false, "formula_index": [12, 16], '
    '"oracle_index": [12, 16], "sample_degrees": [6, 8], "source_j": 29, "target_j": 25}',
    "6",
]


def test_the_readme_example_prints_its_report_and_rB():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == PRINTED
