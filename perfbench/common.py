"""Paths, provenance, statistics and process probes shared by the workloads.

:func:`ensure_source` puts the checkout's ``src/`` first on ``sys.path``,
so the benchmark always measures the source tree it sits next to, never
an installed copy.
"""

from __future__ import annotations

import datetime
import hashlib
import http.client
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for data directories and column files; deleted per run.
WORK = ROOT / ".perfbench_work"
#: Spans and full result documents of the last run of each workload.
OUT = ROOT / ".perfbench_out"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def ensure_source() -> None:
    """Make ``src/`` importable, or raise :class:`SourceMissing`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> dict[str, str]:
    """Environment for child processes: ``src/`` and the benchmark importable."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# -- provenance ---------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content.

    The benchmark may run in a checkout that is not a git repository, so
    the digest identifies the measured code where no commit sha exists.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What was measured, where and when: recorded with every result."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100, linear interpolation); NaN if empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def beyond(n: int, q: float) -> int:
    """Samples that lie beyond the ``q``-th percentile of ``n`` samples."""
    return int(n - np.ceil(n * q / 100.0))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


# -- process probes -----------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may hold spaces; fields resume after its ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_calibration_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed pure-Python + numpy task, in ms.

    Not a metric: a record of how fast the host ran this run, so a reader
    can tell a slow program from a slow host.  Shared hosts drift by tens
    of percent over minutes.
    """
    values = np.random.default_rng(0).random(100_000)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(600_000):
            total += i * i
        for _ in range(40):
            np.sort(values)
        times.append(time.perf_counter() - started)
    return float(np.median(times)) * 1e3


# -- HTTP ---------------------------------------------------------------------


def http_call(
    port: int, method: str, path: str, body: Any = None, timeout: float = 120.0
) -> tuple[int, bytes]:
    """One request on a fresh loopback connection; returns (status, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def http_json(port: int, method: str, path: str, body: Any = None) -> Any:
    status, raw = http_call(port, method, path, body)
    if status != 200 and status != 201:
        raise RuntimeError(f"{method} {path} answered {status}: {raw[:200]!r}")
    return json.loads(raw)


def wait_until(predicate, timeout: float, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False
