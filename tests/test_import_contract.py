"""What ``import repro`` costs: the standard library, numpy and nothing else.

Every process that serves, recovers or benchmarks imports the package, so
a heavy dependency imported at module load inflates each one of them.
scipy has one user, ``Hypergraph.fractional_edge_cover``, which imports it
on its first solve; these tests pin that, in a fresh interpreter so the
rest of the suite cannot have loaded anything first.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# top-level modules already present when the interpreter starts (site
# hooks such as .pth files) are not the package's doing, so only modules
# that appear during the import are judged
CHILD = """
import json, sys
before = set(sys.modules)
import repro, repro.serve, repro.workloads
loaded = sorted({name.split(".")[0] for name in set(sys.modules) - before})
scipy_after_import = "scipy" in sys.modules

from repro.core import build_hypergraph
from repro.workloads.synthetic import triangle_query
cover = build_hypergraph(triangle_query()).fractional_edge_cover_number()
print(json.dumps({
    "loaded": loaded,
    "scipy_after_import": scipy_after_import,
    "cover": cover,
    "scipy_after_solve": "scipy" in sys.modules,
}))
"""


def run_child():
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_only_stdlib_and_numpy():
    report = run_child()
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    assert sorted(set(report["loaded"]) - allowed) == []
    assert not report["scipy_after_import"]
    # the LP still solves, and loads scipy only now
    assert abs(report["cover"] - 1.5) < 1e-6
    assert report["scipy_after_solve"]
