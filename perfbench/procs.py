"""Child processes of the benchmark: the service under load and the
fresh-interpreter set-up probes.  Every process started here is
stopped and waited for before the function that started it returns.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent


def child_env(root: Path) -> dict:
    """Environment whose ``PYTHONPATH`` points at the checkout's
    sources (and nothing else), with BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("MKL_NUM_THREADS", "1")
    return env


def free_port() -> int:
    """A currently unused localhost TCP port."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def cpu_split():
    """``(service, load)`` CPU sets.  With two or more CPUs the service
    gets one to itself and the load generator the others, so the two
    never take turns on a core; with one CPU both get it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def time_setup_probe(root: Path, workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import the program and
    build and warm the workload's inputs (``run.py --setup-only``)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=120,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            "set-up probe failed: " + proc.stderr.decode()[-2000:]
        )
    return elapsed


class Server:
    """``python -m repro.serve`` (or the tracing launcher) in its own
    process on a free localhost port, with 2 worker threads, confined
    to ``cpus``."""

    def __init__(self, root: Path, workdir: Path, cpus: set,
                 trace_out: Path = None):
        self.root = root
        self.workdir = workdir
        self.cpus = cpus
        self.trace_out = trace_out
        self.proc = None
        self.port = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "Server":
        self.port = free_port()
        serve_args = [
            "--host", "127.0.0.1", "--port", str(self.port),
            "--workers", "2",
        ]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            cmd = [
                sys.executable, str(HERE / "serve_launch.py"),
                "--trace-out", str(self.trace_out), "--",
            ] + serve_args
        self._log = open(self.workdir / f"serve-{self.port}.log", "w+b")
        # the child inherits the CPU mask of the thread that starts it
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=child_env(self.root),
                stdout=subprocess.DEVNULL, stderr=self._log,
            )
        finally:
            os.sched_setaffinity(0, own)
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                self._log.seek(0)
                err = self._log.read().decode()[-2000:]
                self.stop()
                raise RuntimeError(f"service exited during start: {err}")
            try:
                status, _ = self.request("GET", "/healthz", timeout=2)
                if status == 200:
                    return self
            except OSError:
                pass
            sleep(0.02)
        self.stop()
        raise RuntimeError("service did not become healthy in time")

    def request(self, method, path, body=None, timeout=30):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            conn.request(method, path, body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get_json(self, path):
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def metrics(self) -> dict:
        """``/metrics`` counters summed over their label sets."""
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        out: dict = {}
        for line in payload.decode().splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            out[name] = out.get(name, 0.0) + float(value)
        return out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the service and wait.

        SIGTERM, not SIGINT: a process started in the background may
        inherit SIGINT ignored, and Python then never turns it into
        ``KeyboardInterrupt``.  The tracing launcher maps SIGTERM onto
        the service's own Ctrl-C shutdown so its spans get written.
        """
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()
        log = Path(self._log.name)
        if log.stat().st_size == 0:
            log.unlink()
        self.proc = None
