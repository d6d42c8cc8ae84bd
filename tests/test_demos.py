"""The shipped demos run to completion against the current API, and print
exactly what they printed when their output was last reviewed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# sha256 of each demo's stdout; a change to what a demo prints must be
# reviewed and the digest updated with it
STDOUT_SHA256 = {
    "canonical_forms.py":
        "9286be875e173eb42c645722bb801fd3d6e0c974ca105d08df34571f75978629",
    "catalogue_tour.py":
        "c0238ec94de21d2b28aa9fe1c9f4772563b43b127ad9c0dedf6694080802ef0f",
    "witness_search.py":
        "c25055bc0b4611f247763bbcb7bf1d3ed6de647f1b43d683667b1470b24db5d5",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo], proc.stdout
