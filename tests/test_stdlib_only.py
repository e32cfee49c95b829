"""The package must run on the Python standard library alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter; prints the verb's result, then every loaded
# module that is neither standard library nor the package
_PROBE = """
import io
import sys
sys.path.insert(0, sys.argv[1])
import latticevc
from latticevc import cli
out = io.StringIO()
print(cli.run(["ssp", "fig1"], out=out), out.getvalue(), end="")
for name in sorted(sys.modules):
    top = name.partition(".")[0]
    if top not in sys.stdlib_module_names | {"latticevc", "__main__"}:
        print("outside the standard library:", name)
"""


def test_package_loads_only_the_standard_library():
    # -S leaves site-packages off the path and -I ignores PYTHONPATH, so a
    # third-party import fails, and one that slipped through is listed
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 CertifiedSSP (RcMuVanishingOnce)\n"
