"""The command-line checks of the CI workflow's no-extras job, run here too."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_extras_script_passes_under_bash_e(tmp_path):
    # `caslens` and `python` on PATH run this interpreter on this tree's src.
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("caslens", "-m caslens.cli "), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command}"$@"\n', encoding="utf-8")
        shim.chmod(0o755)
    src = str(ROOT / "src")
    env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # The script works in a directory of its own under TMPDIR and removes it.
    work, temp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    temp.mkdir()
    env["TMPDIR"] = str(temp)
    run = subprocess.run(["bash", "-e", str(ROOT / "ci" / "no-extras.sh")], cwd=work, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, f"stdout:\n{run.stdout}\nstderr:\n{run.stderr}"
    assert run.stdout.rstrip().endswith("== All checks passed")
    assert not any(work.iterdir()) and not any(temp.iterdir())
