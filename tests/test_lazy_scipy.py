"""No solve path imports SciPy.

Every solver runs on NumPy and plain Python: the GP step is a closed form,
``minlp`` packs with bin completion and ``minlp+g`` is a candidate-II
decomposition with a split search.  Importing SciPy would cost a server
tens of MB and half a second on its first exact request, so a fresh
interpreter must still be free of it after solving each method through the
service and after one exact fleet allocation.  Checked in a subprocess,
since any earlier test in this process may already have imported SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from repro.core.exact import ExactSettings
from repro.fleet.allocator import allocate_fleet
from repro.reporting.experiments import case_study
from repro.service.batch import SolveRequest
from repro.service.server import AllocationService
from repro.workloads.tenants import synthetic_fleet

service = AllocationService(start_job_workers=False)
loaded = {"import": "scipy" in sys.modules}
for method, settings in (("gp+a", None), ("minlp", None), ("minlp+g", ExactSettings(max_nodes=3))):
    request = SolveRequest(case_study("alex-16", 70.0), method, exact_settings=settings)
    outcome, _ = service.solve_request(request)
    assert outcome.succeeded, method
    loaded[method] = "scipy" in sys.modules
fleet = allocate_fleet(synthetic_fleet(num_tenants=2, class_counts=(2, 1), seed=3), mode="exact")
assert fleet.succeeded, "the exact fleet allocation failed"
loaded["fleet-exact"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_no_solve_path_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == {
        "import": False,
        "gp+a": False,
        "minlp": False,
        "minlp+g": False,
        "fleet-exact": False,
    }
