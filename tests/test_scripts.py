"""Each experiment script runs to completion at its smallest size.

The scripts import library names directly, so this catches a rename or a
deletion in src/ that would otherwise break them silently.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--max-degree", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
