"""The fingerprint script runs and prints one well-formed line each.

``identity_check.py`` imports package internals, so a refactor that
removes one breaks the script; this keeps it in the test run.  It
does not compare against another checkout (see the script's
docstring for that).
"""

import re
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).with_name("identity_check.py")


def test_identity_check_prints_unique_fingerprints():
    out = subprocess.run([sys.executable, str(_SCRIPT)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) >= 331
    bad = [ln for ln in lines if not re.fullmatch(r"\S+ [0-9a-f]{64}", ln)]
    assert not bad, bad[:5]
    labels = [ln.split()[0] for ln in lines]
    assert len(set(labels)) == len(labels)
