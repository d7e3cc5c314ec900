"""The benchmark's tracer wraps modgraph entry points by name, so deleting or
renaming one breaks `bench/run.py --trace 1`; installing it here catches that."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR, SRC_DIR = ROOT / "bench", ROOT / "src"


def test_bench_tracer_installs_on_the_package():
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(SRC_DIR)!r}, {str(BENCH_DIR)!r}]",
        "from tracing import Tracer, install",
        "install(Tracer())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
