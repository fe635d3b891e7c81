"""What importing the serve layer loads: neither the columnar kernels
nor their compiled cores.  The server resolves the cores when it
starts, before it listens, and imports the kernels at the first BLBP or
ITTAGE step, so importing it pays for neither."""

import subprocess
import sys


def test_server_import_leaves_the_kernels_unloaded():
    probe = (
        "import sys, repro.serve.server; "
        "print(sorted(m for m in ('repro.sim.kernel', 'repro.sim.native') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
