"""The HTTP face of the query service: sockets, threads, clean shutdown.

:class:`QueryServer` owns a ``ThreadingHTTPServer`` whose handler is a
thin adapter over :class:`~repro.serve.handlers.ServeApp` — parse the
request line and headers, hand everything to ``app.respond`` (dispatch
plus gzip/OpenMetrics content negotiation), write the response. All
behavior worth testing lives in the app; the adapter only moves bytes.

Shutdown is graceful by construction: handler threads are non-daemonic
and ``block_on_close`` is set, so :meth:`QueryServer.stop` (or SIGTERM /
SIGINT via :func:`install_signal_handlers`) stops accepting new
connections, then joins every in-flight request before returning. The
stdlib's ``shutdown()`` deadlocks when called from the ``serve_forever``
thread itself, which a signal handler effectively is — so the handlers
hop to a helper thread first.
"""

from __future__ import annotations

import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.serve.handlers import ServeApp

__all__ = ["QueryServer", "build_handler", "install_signal_handlers"]

#: Refuse request bodies beyond this size (a query spec is a few hundred
#: bytes; anything larger is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20


def build_handler(app: ServeApp) -> type:
    """A ``BaseHTTPRequestHandler`` subclass bound to ``app``.

    The subclass is created per app instance so the stdlib server (which
    instantiates the handler class itself, one per connection) can reach
    the app without globals.
    """

    class _RequestHandler(BaseHTTPRequestHandler):
        # HTTP/1.1 enables keep-alive for repeat scrapers of /metrics;
        # dispatch always produces a body, so Content-Length is always set.
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def _respond(self, body: bytes = b"") -> None:
            parts = urlsplit(self.path)
            params = dict(parse_qsl(parts.query))
            response = app.respond(
                self.command,
                parts.path,
                params,
                body,
                request_id=self.headers.get("X-Request-Id"),
                headers=dict(self.headers.items()),
            )
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.payload)))
            self.send_header("X-Request-Id", response.request_id)
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(response.payload)

        def do_GET(self) -> None:  # noqa: N802 — stdlib handler contract
            self._respond()

        def do_POST(self) -> None:  # noqa: N802 — stdlib handler contract
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                self.send_error(413, "request body too large")
                return
            self._respond(self.rfile.read(length) if length else b"")

        def log_message(self, format: str, *args) -> None:
            # Access logging is RequestContext's job (logfmt, correlation
            # ids); the stdlib's stderr lines would just duplicate it.
            pass

    return _RequestHandler


class QueryServer:
    """A threaded HTTP server wrapping one :class:`ServeApp`.

    ``port=0`` binds an ephemeral port (the resolved one is on
    :attr:`port` after construction) — tests and the in-process benchmark
    rely on this to avoid collisions.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 8321):
        self._app = app
        self._httpd = ThreadingHTTPServer((host, port), build_handler(app))
        # non-daemonic + block_on_close: server_close() joins in-flight
        # request threads, which is the whole graceful-drain guarantee
        self._httpd.daemon_threads = False
        self._httpd.block_on_close = True
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    @property
    def app(self) -> ServeApp:
        """The application this server fronts."""
        return self._app

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._httpd.server_address[1]

    def url(self, path: str = "") -> str:
        """Absolute URL for ``path`` on this server (for clients/tests)."""
        host, port = self.address
        return f"http://{host}:{port}{path}"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` is called."""
        obs.get_logger("repro.serve").info(
            "listening",
            extra={"host": self.address[0], "port": self.port},
        )
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()  # joins in-flight handler threads
            self._stopped.set()
            obs.get_logger("repro.serve").info(
                "stopped", extra={"port": self.port}
            )

    def start_background(self) -> None:
        """Serve on a new thread; returns once the server is accepting."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Drain in-flight requests and stop; True if fully stopped.

        Safe to call from any thread, including (indirectly) a signal
        handler: the actual ``shutdown()`` runs on a helper thread because
        calling it from the serving thread deadlocks by stdlib design.
        """
        threading.Thread(
            target=self._httpd.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()
        if self._thread is not None:
            self._thread.join(timeout)
            return not self._thread.is_alive()
        return self._stopped.wait(timeout) if timeout is not None else True


def install_signal_handlers(server: QueryServer) -> None:
    """Route SIGTERM and SIGINT to a graceful ``server.stop()``.

    Only callable from the main thread (a CPython restriction on
    ``signal.signal``); the CLI entry point qualifies, tests drive
    ``stop()`` directly instead.
    """

    def _handle(signum, frame):
        obs.get_logger("repro.serve").info(
            "signal received, draining", extra={"signal": signum}
        )
        server.stop()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
