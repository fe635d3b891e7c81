"""What a serve child imports: it steps sessions on the scalar path, so
it never loads the columnar kernels or their compiled cores."""

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
