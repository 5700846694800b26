"""The library example in README.md runs and prints what it documents."""

import math
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first ```python block under the '## Library' heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_steers_to_zero(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", library_example()],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    smallest_gap, final_norm = proc.stdout.split()
    print(f"README example: smallest_gap={smallest_gap} final_state_norm={final_norm}")
    assert float(smallest_gap) > math.pi / 2.0
    assert float(final_norm) < 1e-9
