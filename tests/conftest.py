import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import qkron

settings.register_profile(
    "qkron",
    max_examples=int(os.environ.get("QKRON_EXAMPLES", "200")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("qkron")


@pytest.fixture
def child_vmhwm_kb():
    """The peak RSS (VmHWM, kB) of a fresh interpreter that runs code.  The
    child's ru_maxrss would include the peak of this process, which it
    inherits across fork and exec, so the child reads its own VmHWM."""

    def run(code):
        code += ("; print(next(line.split()[1] for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:')))")
        env = {**os.environ, "PYTHONPATH": str(Path(qkron.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=600)
        return int(out.stdout)

    return run
