"""Backend-seam lint as a tier-1 test.

Runs ``tools/check_backend.py`` (the same script CI or a human can run
directly) so kernel modules cannot regress to direct ``np.*`` math that
would silently bypass the selected array backend
(:mod:`repro.nn.backend`), and so no ``global`` statement — the way a
process-global execution switch would return — appears under
``src/repro/nn/``.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_backend.py")


def test_backend_seam_check_passes():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, CHECKER], capture_output=True, text=True, env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"backend-seam check failed:\n{result.stdout}\n{result.stderr}"
    )


def test_lint_actually_detects_violations(tmp_path):
    """The tokenizer must flag a real ``np.exp`` call and honour the
    string/comment and allowlist exemptions."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import check_backend
    finally:
        sys.path.pop(0)
    sample = tmp_path / "kernel.py"
    sample.write_text(
        '"""Docstring may say np.exp freely."""\n'
        "import numpy as np\n"
        "x = np.asarray([1.0])      # allowed: construction edge\n"
        "y = np.exp(x)              # violation\n"
        "z = some.np.thing          # not the module\n"
    )
    problems = check_backend.check_module(
        os.path.relpath(sample, check_backend.REPO_ROOT))
    assert problems == [f"{os.path.relpath(sample, check_backend.REPO_ROOT)}"
                        f":4: np.exp"]


def test_lint_detects_global_statements(tmp_path):
    """A ``global`` statement is flagged wherever it sits; the word in a
    docstring or comment is not."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import check_backend
    finally:
        sys.path.pop(0)
    sample = tmp_path / "switches.py"
    sample.write_text(
        '"""A global flag would break scoping."""\n'
        "_ENABLED = True  # global default\n"
        "def set_enabled(value):\n"
        "    global _ENABLED\n"
        "    _ENABLED = value\n"
    )
    path = os.path.relpath(sample, check_backend.REPO_ROOT)
    assert check_backend.check_no_globals(path) == [f"{path}:4: global _ENABLED"]
    assert check_backend.check_nn_globals() == []
