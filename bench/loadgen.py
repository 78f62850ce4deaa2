"""The harness's own load generator: processes, connections, percentiles.

End-to-end runs touch the program only through what is in this file: CLI
subprocesses (``python -m repro ...``) and persistent HTTP connections.
Nothing here imports ``repro``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401 — the harness's one median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: A percentile is reported as supported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Seconds a server gets to drain after SIGTERM before it is killed.
DRAIN_SECONDS = 10.0

REQUEST_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def highest_supported(n: int, candidates: Sequence[float] = (50, 75, 90, 95, 99)) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    supported = [q for q in candidates if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND]
    return max(supported) if supported else None


# ----------------------------------------------------------------------
# CLI subprocesses
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment of every program process: the checkout's ``src`` on the
    path, scratch files (the parallel builder's spill directory) under
    ``bench/out`` so nothing is written outside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def run_cli(args: Sequence[str], log: Path, timeout: float = 170.0) -> float:
    """Run ``python -m repro <args>`` to completion; returns its wall time.

    Output goes to ``log``; a non-zero exit raises with the log's tail.
    """
    started = time.perf_counter()
    with open(log, "ab") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            stdout=sink,
            stderr=subprocess.STDOUT,
            env=child_env(),
            timeout=timeout,
        )
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-800:]
        raise RuntimeError(f"repro {' '.join(args)} exited {proc.returncode}:\n{tail}")
    return seconds


class Server:
    """One ``repro serve`` process on an ephemeral port.

    The URL is read from the server's first stdout line; stderr (the access
    log) is kept in ``bench/out``. ``stop`` expects every client connection
    to be closed already — the drain joins handler threads, and an idle
    keep-alive connection holds its thread until the client hangs up.
    """

    def __init__(self, data: Path, model: Path, extra: Sequence[str] = (), name: str = "serve"):
        self.killed = False
        self.spawned = time.perf_counter()
        self._stderr = open(OUT / f"{name}.stderr.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data", str(data),
             "--model", str(model), "--port", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=child_env(),
        )
        line = self.proc.stdout.readline().decode(errors="replace")
        if " on http://" not in line:
            self.kill()
            raise RuntimeError(f"server did not announce a URL: {line!r}")
        address = line.split(" on http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> bool:
        """SIGTERM, wait for the drain, SIGKILL after ten seconds.

        Returns False when the server had to be killed or exited non-zero —
        the caller counts that as one failed operation.
        """
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(DRAIN_SECONDS)
            except subprocess.TimeoutExpired:
                clean = False
                self.kill()
        clean = clean and self.proc.returncode == 0
        self._close_files()
        return clean

    def kill(self) -> None:
        self.killed = True
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_files()

    def _close_files(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class Connection:
    """A persistent HTTP/1.1 connection with ``TCP_NODELAY`` set."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(
        self, method: str, path: str, body: bytes = b"", content_type: str = "application/json"
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": content_type} if body else {}
        self._conn.request(method, path, body=body or None, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@dataclass
class Request:
    """One generated request and the key its golden answer is stored under."""

    key: str
    method: str
    path: str
    body: bytes = b""
    content_type: str = "application/json"


@dataclass
class Sample:
    """One completed (or failed) request: latency in ms and the outcome."""

    key: str
    ms: float
    ok: bool
    error: str = ""
    doc: Optional[dict] = None


def send(conn: Connection, request: Request, started: Optional[float] = None) -> Sample:
    """Send one request; time it from ``started`` (default: now).

    A transport error, a non-200 status or an undecodable body is a failed
    sample, never an exception: failures are counted, not fatal.
    """
    started = time.perf_counter() if started is None else started
    try:
        status, payload = conn.request(
            request.method, request.path, request.body, request.content_type
        )
        ms = (time.perf_counter() - started) * 1e3
        if status != 200:
            return Sample(request.key, ms, False, f"http_{status}")
        return Sample(request.key, ms, True, doc=json.loads(payload))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        ms = (time.perf_counter() - started) * 1e3
        return Sample(request.key, ms, False, f"{type(exc).__name__}: {exc}")


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0


def closed_loop(
    server: Server,
    requests: Sequence[Request],
    clients: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> LoopResult:
    """``clients`` threads, one persistent connection each; a client sends
    its next request only after the previous reply.

    Requests are taken in list order from one shared cursor (cycling when
    the list is exhausted) until ``seconds`` have passed or ``count``
    requests were started. Connections are closed before returning.
    """
    result = LoopResult()
    cursor = [0]
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None

    def client() -> None:
        try:
            conn = server.connect()
        except OSError as exc:
            with lock:
                result.samples.append(Sample("connect", 0.0, False, str(exc)))
            return
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if count is not None and index >= count:
                        return
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    cursor[0] += 1
                sample = send(conn, requests[index % len(requests)])
                with lock:
                    result.samples.append(sample)
                if not sample.ok:
                    # the connection state is unknown after a failure
                    conn.close()
                    conn = server.connect()
        except OSError as exc:
            with lock:
                result.samples.append(Sample("connect", 0.0, False, str(exc)))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    return result


class OpenLoopPoller(threading.Thread):
    """Sends ``requests`` (cycled) on a fixed schedule over one connection.

    Each request is timed from when it was *due*, so a stall is charged to
    every request it delayed; ``lag_ms`` records how late the generator
    itself ran. Runs until :meth:`finish` is called.
    """

    def __init__(self, server: Server, requests: Sequence[Request], rate: float):
        super().__init__()
        self._server = server
        self._requests = list(requests)
        self._interval = 1.0 / rate
        self._stop_event = threading.Event()
        self.samples: List[Sample] = []
        self.lag_ms: List[float] = []

    def run(self) -> None:
        try:
            conn = self._server.connect()
        except OSError as exc:
            self.samples.append(Sample("connect", 0.0, False, str(exc)))
            return
        try:
            origin = time.perf_counter()
            index = 0
            while not self._stop_event.is_set():
                due = origin + index * self._interval
                delay = due - time.perf_counter()
                if delay > 0 and self._stop_event.wait(delay):
                    break
                self.lag_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
                sample = send(conn, self._requests[index % len(self._requests)], started=due)
                self.samples.append(sample)
                if not sample.ok:
                    conn.close()
                    conn = self._server.connect()
                index += 1
        except OSError as exc:
            self.samples.append(Sample("connect", 0.0, False, str(exc)))
        finally:
            conn.close()

    def finish(self) -> None:
        self._stop_event.set()
        self.join()


def wait_until_ready(server: Server, probe: Callable[[Connection], bool], timeout: float = 60.0) -> float:
    """Poll ``probe`` on fresh connections until it holds; returns seconds
    since the server was spawned."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if server.proc.poll() is not None:
            raise RuntimeError(f"server exited {server.proc.returncode} during start-up")
        try:
            conn = server.connect()
        except OSError:
            time.sleep(0.01)
            continue
        try:
            if probe(conn):
                return time.perf_counter() - server.spawned
        finally:
            conn.close()
        time.sleep(0.01)
    raise RuntimeError("server did not become ready")
