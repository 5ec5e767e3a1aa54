"""Stdlib HTTP API over the artifact store and sweep fleet.

No new runtime dependencies: the server is
:class:`http.server.ThreadingHTTPServer` (one thread per connection —
request handling is store reads plus queue bookkeeping; the heavy
simulation work runs on the single fleet worker thread).

Routes::

    POST /v1/sweeps            submit a sweep; in-flight dedup; 202 + job
    GET  /v1/jobs/<id>         job status (queued/running/done/failed)
    GET  /v1/figures/<name>    rendered figure text (fig1..fig5)
    GET  /v1/tables/<name>     rendered table text (tab1..tab3)
    GET  /v1/artifacts/<key>   raw stored artifact envelope body
    GET  /v1/status            service + store + queue summary
    GET  /metrics              Prometheus text exposition (0.0.4)

Figure/table GETs take the sweep parameters as query string
(``?instructions=12000&stride=3&limit=2``) and execute
synchronously — a cold request runs the sweep (through the fleet, as
``repro-experiment`` would), a warm one serves the stored artifact
with zero simulations.  The response carries ``X-Repro-Simulations``
(how many simulations the request performed) and ``X-Repro-Artifact``
(the artifact key) so clients and the CI smoke test can assert warmth
without parsing bodies.
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics
from repro.service.fleet import SERVICE_EXPERIMENTS, Fleet, FleetOutcome, SweepParams
from repro.service.queue import FAILED, JobQueue

#: Largest request body the service reads.  Sweep submissions are small
#: JSON objects (well under 1 KiB); a longer declared body is refused
#: with 413 before any of it is read.
MAX_BODY_BYTES = 16 * 1024

#: Experiment names by endpoint family.
_FIGURES = tuple(n for n in SERVICE_EXPERIMENTS if n.startswith("fig"))
_TABLES = tuple(n for n in SERVICE_EXPERIMENTS if n.startswith("tab"))

#: Fixed routes, and the routes whose last segment is a parameter
#: (collection -> parameter name).
_FIXED_ROUTES = ("/metrics", "/v1/status", "/v1/sweeps")
_PARAM_ROUTES = {"jobs": "id", "artifacts": "key", "figures": "name", "tables": "name"}


def match_route(path: str) -> Tuple[str, str]:
    """``(route template, parameter)`` for a request path.

    The template names the parameter (``/v1/jobs/{id}``) rather than
    carrying its value, so the request counter keeps one series per
    route however many job ids or artifact keys are requested; a path
    that matches no route is ``unmatched``.
    """
    parts = [p for p in urlsplit(path).path.split("/") if p]
    route = "/" + "/".join(parts)
    if route in _FIXED_ROUTES:
        return route, ""
    if len(parts) == 3 and parts[0] == "v1" and parts[1] in _PARAM_ROUTES:
        return f"/v1/{parts[1]}/{{{_PARAM_ROUTES[parts[1]]}}}", parts[2]
    return "unmatched", ""


def _request_counter() -> Any:
    """The HTTP request counter family (mirrored unconditionally, like
    the cache counters, so ``/metrics`` has content without ``--obs``)."""
    return metrics.counter(
        "repro_http_requests_total", "HTTP requests served, by route and code."
    )


class ServiceError(Exception):
    """An error with a client-facing HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ExperimentService:
    """The application object behind the handler (and behind tests).

    Owns the store, fleet, and queue plus the single worker thread that
    drains the queue.  Handlers call the ``handle_*`` methods; unit
    tests call them directly without binding a socket.
    """

    def __init__(self, fleet: Fleet, start_worker: bool = True) -> None:
        self.fleet = fleet
        self.queue = JobQueue()
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        if start_worker:
            self.start()

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the queue-draining worker thread (idempotent)."""
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._drain, name="repro-fleet-worker", daemon=True
        )
        self._worker.start()

    def stop(self) -> None:
        """Stop the worker after the current job (idempotent)."""
        self._stopping = True
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout=60.0)
            self._worker = None

    def _drain(self) -> None:
        while not self._stopping:
            job = self.queue.take(timeout=0.5)
            if job is None:
                continue
            try:
                outcome = self.fleet.execute(job.params)
            except Exception as exc:
                # Observable by contract (RC501): the failure lands in
                # the job record the client polls *and* in the metrics.
                metrics.counter(
                    "repro_service_jobs_total", "Fleet jobs by outcome."
                ).labels(state=FAILED).inc()
                self.queue.fail(
                    job, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                )
                continue
            metrics.counter(
                "repro_service_jobs_total", "Fleet jobs by outcome."
            ).labels(state="done").inc()
            self.queue.finish(job, outcome.to_dict())

    # ------------------------------------------------------------------
    # operations (transport-free; the handler and tests call these)
    # ------------------------------------------------------------------

    def handle_submit(self, body: bytes) -> Dict[str, Any]:
        """``POST /v1/sweeps``: validate, dedup, enqueue."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}")
        try:
            params = SweepParams.from_payload(payload)
        except ValueError as exc:
            raise ServiceError(400, str(exc))
        job, created = self.queue.submit("sweep", params.key(), params)
        return {
            "job": job.id,
            "state": job.state,
            "created": created,
            "experiment": params.experiment,
            "fingerprint": job.fingerprint,
        }

    def handle_job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>``."""
        job = self.queue.job(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return job.to_dict()

    def handle_render(
        self, family: str, name: str, query: Dict[str, Any]
    ) -> FleetOutcome:
        """``GET /v1/figures/<name>`` and ``GET /v1/tables/<name>``."""
        known = _FIGURES if family == "figures" else _TABLES
        if name not in known:
            raise ServiceError(
                404, f"unknown {family[:-1]} {name!r}; expected one of "
                + ", ".join(known)
            )
        payload = dict(query)
        payload["experiment"] = name
        try:
            params = SweepParams.from_payload(payload)
        except ValueError as exc:
            raise ServiceError(400, str(exc))
        return self.fleet.execute(params)

    def handle_artifact(self, key: str) -> Dict[str, Any]:
        """``GET /v1/artifacts/<key>``: the stored envelope body."""
        body = self.fleet.store.artifacts().load(key)
        if body is None:
            raise ServiceError(404, f"no artifact stored under {key!r}")
        return body

    def handle_status(self) -> Dict[str, Any]:
        """``GET /v1/status``."""
        return {
            "service": "repro-serve",
            "store": str(self.fleet.store.root),
            "experiments": list(SERVICE_EXPERIMENTS),
            "jobs": self.queue.describe(),
            "artifacts": self.fleet.store.artifacts().describe(),
        }

    def handle_metrics(self) -> str:
        """``GET /metrics``: Prometheus text exposition."""
        from repro.obs import promfile
        from repro.obs.metrics import registry

        return promfile.render_snapshot(registry().snapshot())


def _parse_query(raw: str) -> Dict[str, Any]:
    """Sweep params from a query string (ints where the schema says so)."""
    out: Dict[str, Any] = {}
    for field, values in parse_qs(raw, keep_blank_values=True).items():
        value = values[-1]
        if field in ("instructions", "stride", "limit"):
            try:
                out[field] = int(value)
            except ValueError:
                raise ServiceError(
                    400, f"{field} must be an integer, got {value!r}"
                )
        else:
            # Unknown fields flow through to SweepParams.from_payload,
            # which rejects them with the full field list in the error.
            out[field] = value
    return out


def body_length(headers: Any) -> int:
    """The validated ``Content-Length`` of a request that carries a body.

    Raises :class:`ServiceError` with 400 when the header is missing,
    not a plain decimal integer, or negative, and with 413 when it
    exceeds :data:`MAX_BODY_BYTES`.
    """
    raw = headers.get("Content-Length")
    if raw is None:
        raise ServiceError(400, "Content-Length header required")
    text = raw.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ServiceError(400, f"Content-Length must be an integer, got {raw!r}")
    if text.startswith("-"):
        raise ServiceError(400, f"Content-Length must not be negative, got {raw!r}")
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise ServiceError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
        )
    return length


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch; all state lives on ``server.service``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Access logs go to metrics (scraped), not stderr (noisy under
        # the CI smoke loop); errors are reported per-response instead.
        pass

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)
        route, _ = match_route(self.path)
        _request_counter().labels(
            method=self.command, route=route, code=str(status)
        ).inc()

    def _send_json(
        self,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _send_error_json(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(
            {"error": message, "status": status}, status=status, headers=headers
        )

    def _dispatch(self, method: str) -> None:
        try:
            handled = self._route(method)
        except ServiceError as exc:
            metrics.counter(
                "repro_http_rejects_total", "Requests rejected by a handler."
            ).labels(code=str(exc.status)).inc()
            self._send_error_json(
                exc.status,
                str(exc),
                {"Connection": "close"} if self.close_connection else None,
            )
            return
        except Exception:
            # Observable by contract (RC501): the traceback goes back to
            # the client *and* into the failure counter.
            metrics.counter(
                "repro_http_errors_total", "Unhandled handler exceptions."
            ).inc()
            self._send_error_json(
                500, f"internal error\n{traceback.format_exc()}"
            )
            return
        if not handled:
            self._send_error_json(404, f"no route for {method} {self.path}")

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _route(self, method: str) -> bool:
        route, param = match_route(self.path)
        if method == "POST" and route == "/v1/sweeps":
            try:
                length = body_length(self.headers)
            except ServiceError:
                # The body is unframed or refused unread: close the
                # connection so its bytes never parse as a next request.
                self.close_connection = True
                raise
            body = self.rfile.read(length) if length else b""
            response = self.service.handle_submit(body)
            self._send_json(response, status=202)
            return True
        if method != "GET":
            return False
        if route == "/metrics":
            text = self.service.handle_metrics()
            self._send(
                200,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return True
        if route == "/v1/status":
            self._send_json(self.service.handle_status())
            return True
        if route == "/v1/jobs/{id}":
            self._send_json(self.service.handle_job(param))
            return True
        if route == "/v1/artifacts/{key}":
            self._send_json(self.service.handle_artifact(param))
            return True
        if route in ("/v1/figures/{name}", "/v1/tables/{name}"):
            family = route.split("/")[2]  # "figures" or "tables"
            outcome = self.service.handle_render(
                family, param, _parse_query(urlsplit(self.path).query)
            )
            self._send(
                200,
                outcome.text.encode("utf-8"),
                "text/plain; charset=utf-8",
                headers={
                    "X-Repro-Simulations": str(outcome.simulations),
                    "X-Repro-Artifact": outcome.artifact_key,
                },
            )
            return True
        return False

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class ServiceServer(ThreadingHTTPServer):
    """A bound HTTP server carrying its :class:`ExperimentService`."""

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], service: ExperimentService
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    host: str, port: int, fleet: Fleet, start_worker: bool = True
) -> ServiceServer:
    """Bind a service server (port 0 picks a free port, for tests)."""
    service = ExperimentService(fleet, start_worker=start_worker)
    return ServiceServer((host, port), service)
