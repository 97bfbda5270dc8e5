"""Demo outputs: every ``demos/*.py`` script must print the same bytes.

Each line of ``golden/demos.txt`` is ``sha256 exit name``, where the digest
covers the script's stdout when run in a fresh interpreter with
``PYTHONPATH=src``.

Regenerate the fixture only for an intended output change:

    python tests/test_demos.py --write
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "golden" / "demos.txt"


def render_demos() -> list:
    """One fixture line per demo: digest, exit code, file name."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, timeout=300
        )
        lines.append(f"{hashlib.sha256(proc.stdout).hexdigest()} {proc.returncode} {path.name}")
    return lines


def test_demo_outputs():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = render_demos()
    assert [a.split(" ", 2)[2] for a in actual] == [e.split(" ", 2)[2] for e in expected], (
        "demo list changed; regenerate the fixture"
    )
    changed = [a.split(" ", 2)[2] for a, e in zip(actual, expected) if a != e]
    assert not changed, "output or exit code changed for: " + ", ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_demos.py --write")
    lines = render_demos()
    FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} demos to {FIXTURE.relative_to(ROOT)}")
