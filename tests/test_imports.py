"""Cold-start guard: what each entry point loads at import."""

import os
import subprocess
import sys
from pathlib import Path

import qkron

SRC = str(Path(qkron.__file__).resolve().parents[1])


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement, names):
    script = f"import sys\n{statement}\nprint(sorted(n for n in {names!r} if n in sys.modules))"
    return _python("-c", script)


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_after("import qkron", ["dataclasses", "inspect"]) == "[]\n"


def test_cli_import_leaves_verify_unloaded():
    names = ["dataclasses", "inspect", "qkron.verify"]
    assert _loaded_after("import qkron.cli", names) == "[]\n"


def test_verify_commands_load_verify_on_demand():
    run = "from qkron.cli import main\nassert main({argv!r}) == 0"
    for argv in (["verify", "--list"], ["verify", "--suite", "cn", "--format", "json"],
                 ["verify", "--suite", "bridge", "--r", "2", "--n", "5"]):
        out = _loaded_after(run.format(argv=argv), ["inspect", "qkron.verify"])
        assert out.endswith("['qkron.verify']\n")
