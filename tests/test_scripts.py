"""Each experiment script runs to completion at a small size.

The scripts import library names directly, so this catches a rename or a
deletion in src/ that would otherwise break them silently.  Each runs at
--max-degree 1, except the commutativity sweep: below degree 2 every
commutator vanishes whatever the operator, so it runs at 3.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
# Each script as it is, and the Gram script once more on the monomial basis,
# whose minors take the certificate past the invariants' 1 x 1 blocks.
RUNS = [pytest.param(path, (), id=path.name) for path in sorted(SCRIPT_DIR.glob("*.py"))]
RUNS.append(pytest.param(SCRIPT_DIR / "gram_positivity.py", ("--full",),
                         id="gram_positivity.py --full"))
MAX_DEGREE = {"commutativity_sweep.py": "3"}


@pytest.mark.parametrize("script,extra", RUNS)
def test_script_exits_zero(script, extra):
    max_degree = MAX_DEGREE.get(script.name, "1")
    proc = subprocess.run([sys.executable, str(script), "--max-degree", max_degree, *extra],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
