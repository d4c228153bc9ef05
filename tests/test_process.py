"""The process layer: what every `caslens` command pays for at import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules `import caslens.cli` must not load: `dataclasses` and the chain it
#: pulls in, `typing`, and `tempfile` (which only a file output imports).
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "typing", "tempfile")


def test_the_command_line_imports_no_heavy_standard_module():
    # -S keeps site's own imports out of the list, which, unlike wall time,
    # is the same on every run.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import caslens.cli, sys; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = set(ast.literal_eval(run.stdout))
    assert "caslens.cli" in loaded
    assert [name for name in NOT_IMPORTED if name in loaded] == []
