"""Dependency-free read-only HTTP app over the run repository.

``repro serve`` binds a :class:`DashboardServer`; every endpoint is plain
``http.server`` + JSON so the dashboard works wherever the simulator does:

====================  =====================================================
``GET /``             single-page dashboard (HTML, no external assets)
``GET /summary``      repository counts (stat tiles)
``GET /runs``         run summaries; filters ``kind``/``fp``/``label``/
                      ``source``/``limit``
``GET /runs/<id>``    full run detail (stats, sim-rate, QoS, views) plus a
                      pre-rendered text report when telemetry views exist
``GET /compare``      cross-run sim-rate trend groups (``fp``/``label``)
====================  =====================================================

A malformed numeric query value (``?limit=abc``) answers 400; any method
other than GET answers 405 with ``Allow: GET``.  Every error body is JSON
``{"error": ...}``.  The server is threaded (one request per thread) and
the repository opens a connection per call, so dashboard reads never
block a concurrent ``repro campaign --db`` or ``repro db ingest`` writer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .repository import RunRepository


def _first(query: dict, key: str, default: Optional[str] = None):
    values = query.get(key)
    return values[0] if values else default


class _BadQuery(ValueError):
    """A query parameter failed to parse; answered as 400."""


def _int_param(query: dict, key: str, default: int) -> int:
    raw = _first(query, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _BadQuery("query parameter %r must be an integer, got %r"
                        % (key, raw)) from None


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`DashboardServer`."""

    app: "DashboardServer"  # injected per-server subclass
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - quiet by design
        if self.app.verbose:
            super().log_message(fmt, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 405:
            self.send_header("Allow", "GET")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    def __getattr__(self, name: str):
        # http.server dispatches ``do_<METHOD>`` and answers 501 with an
        # HTML page when the handler lacks one; every method but GET gets
        # the JSON 405 instead.
        if name.startswith("do_"):
            return self._not_allowed
        raise AttributeError(name)

    def _not_allowed(self) -> None:
        # The request body (if any) is left unread, so do not reuse the
        # connection for another request.
        self.close_connection = True
        self._error(405, "method %s not allowed; the server is read-only "
                    "(GET only)" % self.command)

    # -- GET ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        try:
            if route == "/" or route == "/index.html":
                from .dashboard import DASHBOARD_HTML
                self._send(200, DASHBOARD_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif route == "/summary":
                self._json(self.app.repository.counts())
            elif route == "/runs":
                self._json({"runs": self.app.repository.list_runs(
                    kind=_first(query, "kind"),
                    fingerprint=_first(query, "fp"),
                    label=_first(query, "label"),
                    source=_first(query, "source"),
                    limit=_int_param(query, "limit", 200))})
            elif route.startswith("/runs/"):
                self._run_detail(route[len("/runs/"):])
            elif route == "/compare":
                self._json({"groups": self.app.repository.compare(
                    fingerprint=_first(query, "fp"),
                    label=_first(query, "label"),
                    limit=_int_param(query, "limit", 1000))})
            else:
                self._error(404, "no such endpoint: %s" % route)
        except _BadQuery as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        except Exception as exc:  # defensive: surface, don't kill the thread
            try:
                self._error(500, "%s: %s" % (type(exc).__name__, exc))
            except (BrokenPipeError, ConnectionResetError,
                    OSError):  # pragma: no cover
                pass

    def _run_detail(self, raw_id: str) -> None:
        try:
            run_id = int(raw_id)
        except ValueError:
            self._error(400, "run id must be an integer")
            return
        detail = self.app.repository.get(run_id)
        if detail is None:
            self._error(404, "no run %d" % run_id)
            return
        if detail.get("views"):
            from ..harness.report import render_telemetry_views
            detail["report"] = render_telemetry_views(detail["views"])
        self._json(detail)


class DashboardServer:
    """Threaded ``http.server`` app; ``port=0`` binds an ephemeral port."""

    def __init__(self, repository: RunRepository,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False) -> None:
        self.repository = repository
        self.verbose = verbose
        app = self

        class Handler(_Handler):
            pass

        Handler.app = app
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "DashboardServer":
        """Serve on a background thread (tests / embedding)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-dashboard",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (``repro serve``)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
