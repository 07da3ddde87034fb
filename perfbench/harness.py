"""Server lifecycle, scraping and environment stamping for the benchmark.

Everything here talks to the system only through its CLI (``python -m repro
serve``) and its public HTTP surface (``ServiceClient``, ``/stats``,
``/metrics``).  Servers run in their own process group so that a router's
worker processes and a server's per-batch process pools are stopped together.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Scratch space for router data directories and temporary files; inside the
#: checkout and listed in ``.gitignore``.
WORK = ROOT / ".perfbench_work"
#: Fixed hash seed for every spawned server, so set and dict layouts (and the
#: timings that depend on them) do not vary from run to run.
HASH_SEED = "0"
#: Readiness probe interval: fine enough that setup time is not quantized.
PROBE_SECONDS = 0.005


def client(url: str, timeout_seconds: float = 60.0):
    """A retry-free :class:`ServiceClient`: a shed request (429/503) or a
    dropped connection raises at once, so it is counted as a failed op and
    never timed, backoff included, as a result."""
    from repro.service import RetryPolicy, ServiceClient

    return ServiceClient(url, timeout_seconds=timeout_seconds,
                         retry_policy=RetryPolicy(retries=0))


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class Server:
    """One running ``repro serve`` process group."""

    process: subprocess.Popen
    url: str
    work_dir: Path
    worker_processes: int = 1
    ready_seconds: float = 0.0
    fill_seconds: float = 0.0

    @property
    def setup_seconds(self) -> float:
        return self.ready_seconds + self.fill_seconds

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and every live descendant."""
        return sum(_vm_hwm_kb(pid) for pid in _group_pids(self.process.pid)) / 1024.0

    def stop(self, timeout_seconds: float = 20.0) -> None:
        """Kill the whole process group and wait until every member is gone."""
        pgid = self.process.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=timeout_seconds)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel stuck
            pass
        deadline = time.monotonic() + timeout_seconds
        while _group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        shutil.rmtree(self.work_dir, ignore_errors=True)


def spawn_server(worker_processes: int = 1) -> Server:
    """Start ``repro serve`` and return once it answers ``/health``.

    ``ready_seconds`` runs from the spawn to the first answered request; the
    probe is a retry-free client polled every :data:`PROBE_SECONDS`.
    """
    from repro.service import ServiceError

    port = free_port()
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"server-{os.getpid()}-{port}"
    work_dir.mkdir()
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SOURCE)
    environment["PYTHONHASHSEED"] = HASH_SEED
    environment["TMPDIR"] = str(work_dir)
    command = [sys.executable, "-m", "repro", "serve", "--port", str(port), "--quiet"]
    if worker_processes > 1:
        command += [
            "--worker-processes", str(worker_processes),
            "--data-dir", str(work_dir / "data"),
        ]
    start = time.perf_counter()
    process = subprocess.Popen(
        command,
        env=environment,
        cwd=work_dir,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    server = Server(
        process=process,
        url=f"http://127.0.0.1:{port}",
        work_dir=work_dir,
        worker_processes=worker_processes,
    )
    probe = client(server.url, timeout_seconds=5.0)
    deadline = start + 120.0
    while True:
        try:
            probe.health()
            break
        except ServiceError:
            if process.poll() is not None or time.perf_counter() > deadline:
                server.stop()
                raise RuntimeError(f"server {' '.join(command[2:])} did not start")
            time.sleep(PROBE_SECONDS)
    server.ready_seconds = time.perf_counter() - start
    return server


def _group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of one process group."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# --------------------------------------------------------------------------- #
# /metrics
# --------------------------------------------------------------------------- #
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def metric_total(text: str, name: str) -> float:
    """Sum of every sample of ``name`` (all labels, all workers)."""
    total = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and match.group(1) == name:
            total += float(match.group(3))
    return total


def histogram_delta(before: str, after: str, family: str) -> tuple[float, float]:
    """(count, sum seconds) a histogram family gained between two scrapes."""
    count = metric_total(after, f"{family}_count") - metric_total(before, f"{family}_count")
    seconds = metric_total(after, f"{family}_sum") - metric_total(before, f"{family}_sum")
    return count, seconds


# --------------------------------------------------------------------------- #
# Environment stamp
# --------------------------------------------------------------------------- #
def _version(module: str) -> str | None:
    if importlib.util.find_spec(module) is None:
        return None
    return getattr(__import__(module), "__version__", "unknown")


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes), the revision in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


#: Stamp keys that identify the code, not the environment: two results may
#: differ in these and still be compared.
REVISION_KEYS = ("git_revision", "source_digest")


def environment_stamp() -> dict:
    """Where a result was measured, including the backends actually in use."""
    from repro.core.relaxations import highspy_available
    from repro.minlp._packcore import resolve_backend

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = []
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba") is not None,
        "highspy": _version("highspy") is not None,
        "lp_backend": (
            ("highspy" if _version("highspy") else "scipy-vendored-highs")
            if highspy_available() else "scipy-linprog"
        ),
        "packer_backend": resolve_backend(),
        "python_hash_seed": HASH_SEED,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def environment_differences(first: dict, second: dict) -> list[str]:
    """Stamp keys (other than the code revision) on which two results differ."""
    keys = (set(first) | set(second)) - set(REVISION_KEYS)
    return sorted(key for key in keys if first.get(key) != second.get(key))
