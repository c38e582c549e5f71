"""Third-party static-analysis baselines: ruff and mypy stay at zero.

The tools are optional locally (they are not runtime dependencies); the
tests skip when missing and CI's ``static-analysis`` job installs and
enforces them.  The in-tree analyzer, ``repro lint``, needs nothing
installed: every one of its rules is enforced over the production tree
by ``tests/sanitize/test_lint.py::test_production_tree_is_lint_clean``.
"""

import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(*argv):
    return subprocess.run(argv, cwd=REPO, capture_output=True, text=True)


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_baseline_is_zero():
    proc = run_tool("ruff", "check", "src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_baseline_is_zero():
    proc = run_tool(sys.executable, "-m", "mypy",
                    "--config-file", "pyproject.toml")
    assert proc.returncode == 0, proc.stdout + proc.stderr
