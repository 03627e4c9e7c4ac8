"""The HTTP face of the job queue: ``ThreadingHTTPServer`` + JSON.

Stdlib only — no web framework.  Endpoints (all JSON unless noted):

========  =======================  =========================================
method    path                     body / response
========  =======================  =========================================
GET       ``/healthz``             liveness: ``{"status": "ok", ...}``
GET       ``/jobs``                every job record, submission order
POST      ``/jobs``                submit a spec; 202 with the job record
GET       ``/jobs/<id>``           one record, including its result payload
POST      ``/jobs/<id>/cancel``    request cancellation
GET       ``/jobs/<id>/events``    heartbeat stream (NDJSON; ``?since=N``
                                   skips the first N records)
GET       ``/metrics``             OpenMetrics text: service + all jobs
========  =======================  =========================================

The server binds ``127.0.0.1`` by default — it runs simulations on
behalf of whoever can reach it, so exposure beyond the host is an
explicit operator decision (``--host``).  Request handling threads only
read registry state and enqueue work; all simulation happens on the
:class:`repro.service.jobs.JobRegistry` worker threads.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.ledger import read_heartbeat_lines
from repro.service.jobs import JobRegistry

#: The content type OpenMetrics scrapers negotiate.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Cap on accepted request bodies; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`JobRegistry`."""

    server_version = "repro360-serve/1"
    protocol_version = "HTTP/1.1"

    # The ThreadingHTTPServer instance carries the registry (see
    # ServiceServer) — fetch it per request.
    @property
    def registry(self) -> JobRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------- responses

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload) -> None:
        self._send(
            code,
            (json.dumps(payload, indent=1) + "\n").encode(),
            "application/json",
        )

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _count(self) -> None:
        self.registry.count_request()

    # ---------------------------------------------------------- routing

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._count()
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._json(200, {"status": "ok", "jobs": len(self.registry.list())})
        elif url.path == "/metrics":
            from repro.metrics.export import metrics_to_openmetrics

            text = metrics_to_openmetrics(self.registry.service_registry())
            self._send(200, text.encode(), OPENMETRICS_CONTENT_TYPE)
        elif url.path == "/jobs":
            self._json(200, {"jobs": [job.to_dict() for job in self.registry.list()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self.registry.get(parts[1])
            if job is None:
                self._error(404, f"no such job: {parts[1]}")
            else:
                self._json(200, job.to_dict(include_result=True))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._events(parts[1], url.query)
        else:
            self._error(404, f"no such endpoint: {url.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._count()
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/jobs":
            self._submit()
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            job = self.registry.get(parts[1])
            if job is None:
                self._error(404, f"no such job: {parts[1]}")
            else:
                cancelled = self.registry.cancel(parts[1])
                self._json(200, {"id": parts[1], "cancelled": cancelled})
        else:
            self._error(404, f"no such endpoint: {url.path}")

    # --------------------------------------------------------- handlers

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        return self.rfile.read(length)

    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            self._error(400, "missing or oversized request body")
            return
        try:
            spec = json.loads(body or b"{}")
        except ValueError as error:
            self._error(400, f"request body is not JSON: {error}")
            return
        try:
            job = self.registry.submit(spec)
        except ValueError as error:
            self._error(400, str(error))
            return
        except RuntimeError as error:
            self._error(503, str(error))
            return
        self._json(202, job.to_dict())

    def _events(self, job_id: str, query: str) -> None:
        job = self.registry.get(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
            return
        since = 0
        params = parse_qs(query)
        if "since" in params:
            try:
                since = max(0, int(params["since"][0]))
            except ValueError:
                self._error(400, "since must be an integer record count")
                return
        lines: list = []
        if job.run_dir is not None:
            # The run may be appending while we read: torn lines drop.
            lines = [line for line, _ in read_heartbeat_lines(job.run_dir)]
        body = "\n".join(lines[since:])
        if body:
            body += "\n"
        self._send(200, body.encode(), "application/x-ndjson")


class ServiceServer:
    """Own one ``ThreadingHTTPServer`` + registry; start/stop cleanly.

    ``port=0`` binds an ephemeral port; read it back from :attr:`port`
    (``repro360 serve`` prints the resolved URL on stdout so scripts can
    capture it).
    """

    def __init__(
        self,
        registry: JobRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self.httpd.registry = registry  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro360 serve`` loop)."""
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.registry.close()
