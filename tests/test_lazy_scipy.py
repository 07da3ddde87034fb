"""SciPy loads on a process's first LP, never at import.

Importing SciPy's HiGHS bindings roughly doubles a server's start-up time
and memory, so a process that only answers GP+A and MINLP (min-II) requests
must never import it; its first MINLP+G solve, whose node relaxations are
LPs, loads it.  Checked in a fresh interpreter, since any earlier test in
this process may already have imported SciPy.
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
from repro.reporting.experiments import case_study
from repro.service.batch import SolveRequest
from repro.service.server import AllocationService

service = AllocationService(start_job_workers=False)
loaded = {"import": "scipy" in sys.modules}
for method, settings in (("gp+a", None), ("minlp", None), ("minlp+g", ExactSettings(max_nodes=3))):
    request = SolveRequest(case_study("alex-16", 70.0), method, exact_settings=settings)
    outcome, _ = service.solve_request(request)
    assert outcome.succeeded, method
    loaded[method] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loads_on_the_first_lp_only():
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
    assert loaded == {"import": False, "gp+a": False, "minlp": False, "minlp+g": True}
