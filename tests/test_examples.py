"""The experiment scripts and README's library and CLI examples run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import readme_commands

ROOT = Path(__file__).resolve().parents[1]


def readme_python_example():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    return block


def readme_cli_examples():
    """A script that runs README's ``optioncast`` commands through ``cli.main``,
    in order, and exits non-zero at the first that fails."""
    return (f"import sys\nfrom optioncast import cli\nfor argv in {readme_commands()!r}:\n"
            "    if cli.main(argv) != 0:\n        sys.exit(f'failed: optioncast {argv}')\n")


EXAMPLES = {
    "run_pipeline": [str(ROOT / "scripts" / "run_pipeline.py"),
                     "--days", "40", "--epochs", "1", "--hidden", "4"],
    "fusion_gap_demo": [str(ROOT / "scripts" / "fusion_gap_demo.py"), "--samples", "2000"],
    "binomial_projection": [str(ROOT / "scripts" / "binomial_projection.py")],
    "count_lines": [str(ROOT / "scripts" / "count_lines.py")],
    "readme_python": ["-c", readme_python_example()],
    "readme_cli": ["-c", readme_cli_examples()],
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(tmp_path, name):
    # Run from an empty directory, so run_pipeline's default --out-dir lands there.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *EXAMPLES[name]], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
