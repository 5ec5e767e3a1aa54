"""HTTP handler and queue unit tests (no sockets unless stated).

The handler logic lives on :class:`ExperimentService` methods that the
tests call directly; one end-to-end test binds a real server on an
ephemeral port and drives it through :class:`ServiceClient`.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, ServiceError as ClientError
from repro.service.fleet import Fleet
from repro.service.http import (
    MAX_BODY_BYTES,
    ExperimentService,
    ServiceError,
    _parse_query,
    body_length,
    make_server,
    match_route,
)
from repro.service.queue import JobQueue
from repro.service.store import ArtifactStore

#: Small enough to simulate in milliseconds, large enough to be real.
TINY = {"experiment": "fig3", "instructions": 800, "stride": 27}


@pytest.fixture
def service(tmp_path):
    """A service whose worker thread is NOT running — submissions stay
    queued, so dedup and state assertions cannot race."""
    fleet = Fleet(ArtifactStore(tmp_path))
    svc = ExperimentService(fleet, start_worker=False)
    yield svc
    svc.queue.close()


# ----------------------------------------------------------------------
# submissions
# ----------------------------------------------------------------------


def test_submit_bad_json_is_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_submit(b"{not json")
    assert err.value.status == 400


def test_submit_invalid_utf8_is_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_submit(b"\xff\xfe")
    assert err.value.status == 400


def test_submit_unknown_experiment_is_400(service):
    body = json.dumps({"experiment": "fig9"}).encode()
    with pytest.raises(ServiceError) as err:
        service.handle_submit(body)
    assert err.value.status == 400
    assert "fig9" in str(err.value)


def test_submit_unknown_field_is_400(service):
    body = json.dumps({"experiment": "fig1", "shards": 4}).encode()
    with pytest.raises(ServiceError) as err:
        service.handle_submit(body)
    assert err.value.status == 400
    assert "shards" in str(err.value)


def test_submit_invalid_param_types_are_400(service):
    for overlay in (
        {"instructions": -1},
        {"instructions": "many"},
        {"stride": 0},
        {"limit": 0},
    ):
        payload = dict(TINY)
        payload.update(overlay)
        with pytest.raises(ServiceError) as err:
            service.handle_submit(json.dumps(payload).encode())
        assert err.value.status == 400


def test_submit_boolean_params_are_400(service):
    # JSON ``true`` is a Python int; accepting it would key the same
    # sweep twice (once as ``true``, once as ``1``).
    payload = {"experiment": "fig1", "instructions": True, "stride": True,
               "limit": True}
    with pytest.raises(ServiceError) as err:
        service.handle_submit(json.dumps(payload).encode())
    assert err.value.status == 400
    for field in ("instructions", "stride", "limit"):
        with pytest.raises(ServiceError) as err:
            service.handle_submit(json.dumps({**TINY, field: True}).encode())
        assert err.value.status == 400
        assert field in str(err.value)
    assert service.queue.describe()["queued"] == 0


def test_engine_is_an_unknown_field(service):
    body = json.dumps(dict(TINY, engine="vector")).encode()
    with pytest.raises(ServiceError) as err:
        service.handle_submit(body)
    assert err.value.status == 400
    assert "engine" in str(err.value)
    with pytest.raises(ServiceError) as err:
        service.handle_render(
            "figures", "fig3", _parse_query("stride=27&engine=vector")
        )
    assert err.value.status == 400
    assert "engine" in str(err.value)


def test_submit_enqueues_and_dedups_in_flight(service):
    first = service.handle_submit(json.dumps(TINY).encode())
    assert first["state"] == "queued"
    assert first["created"] is True
    # Identical params while the job is still queued: same job, no new
    # queue entry.
    second = service.handle_submit(json.dumps(TINY).encode())
    assert second["job"] == first["job"]
    assert second["created"] is False
    # Different params: a distinct job.
    other = dict(TINY, stride=28)
    third = service.handle_submit(json.dumps(other).encode())
    assert third["job"] != first["job"]
    assert third["created"] is True
    assert service.queue.describe()["queued"] == 2


@pytest.mark.parametrize(
    "headers",
    [{}, {"Content-Length": "many"}, {"Content-Length": "1.5"},
     {"Content-Length": "-1"}, {"Content-Length": "-0"},
     {"Content-Length": "\u0662"}, {"Content-Length": "1_0"}],
    ids=["missing", "word", "float", "negative", "minus-zero", "non-ascii",
         "underscore"],
)
def test_body_length_rejects_unframed_bodies_with_400(headers):
    with pytest.raises(ServiceError) as err:
        body_length(headers)
    assert err.value.status == 400


def test_body_length_refuses_oversized_bodies_with_413():
    assert body_length({"Content-Length": str(MAX_BODY_BYTES)}) == MAX_BODY_BYTES
    for length in (MAX_BODY_BYTES + 1, 10**15):
        with pytest.raises(ServiceError) as err:
            body_length({"Content-Length": str(length)})
        assert err.value.status == 413


def test_body_length_accepts_plain_lengths():
    assert body_length({"Content-Length": "0"}) == 0
    assert body_length({"Content-Length": " 42 "}) == 42


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--jobs", "-2"),
        ("--retries", "-4"),
        ("--task-timeout", "-1"),
        ("--task-timeout", "0"),
    ],
)
def test_serve_cli_rejects_out_of_range_flags(flag, value, capsys):
    """Bad fleet flags fail at startup (exit 2), not at request time."""
    from repro.service.cli import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_unknown_job_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_job("job-999")
    assert err.value.status == 404


# ----------------------------------------------------------------------
# renders
# ----------------------------------------------------------------------


def test_unknown_figure_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "fig9", {})
    assert err.value.status == 404


def test_table_name_on_figure_route_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "tab1", {})
    assert err.value.status == 404


def test_render_bad_params_are_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "fig3", {"stride": -1})
    assert err.value.status == 400


def test_render_cold_then_warm(service):
    cold = service.handle_render(
        "figures", "fig3", {"instructions": 800, "stride": 27}
    )
    assert cold.simulations > 0
    warm = service.handle_render(
        "figures", "fig3", {"instructions": 800, "stride": 27}
    )
    assert warm.simulations == 0
    assert warm.warm_artifact is True
    assert warm.text == cold.text


def test_unknown_artifact_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_artifact("f" * 64)
    assert err.value.status == 404


def test_parse_query_coerces_ints_and_rejects_junk():
    assert _parse_query("instructions=800&stride=27") == {
        "instructions": 800,
        "stride": 27,
    }
    with pytest.raises(ServiceError) as err:
        _parse_query("instructions=lots")
    assert err.value.status == 400


# ----------------------------------------------------------------------
# queue mechanics
# ----------------------------------------------------------------------


def test_queue_take_runs_and_settles():
    queue = JobQueue()
    job, created = queue.submit("sweep", "fp-1", None)
    assert created
    taken = queue.take(timeout=1.0)
    assert taken is job
    assert taken.state == "running"
    # A running job still dedups new submissions onto itself.
    again, created = queue.submit("sweep", "fp-1", None)
    assert again is job and not created
    queue.finish(job, {"simulations": 0})
    assert queue.wait(job.id, timeout=1.0).state == "done"
    # Settled jobs no longer absorb submissions.
    fresh, created = queue.submit("sweep", "fp-1", None)
    assert created and fresh.id != job.id


def test_queue_failed_job_reports_error():
    queue = JobQueue()
    job, _ = queue.submit("sweep", "fp-2", None)
    queue.take(timeout=1.0)
    queue.fail(job, "boom")
    settled = queue.wait(job.id, timeout=1.0)
    assert settled.state == "failed"
    assert settled.to_dict()["error"] == "boom"


def test_queue_close_unblocks_take():
    queue = JobQueue()
    queue.close()
    assert queue.take(timeout=5.0) is None  # returns immediately


# ----------------------------------------------------------------------
# end to end over a real socket
# ----------------------------------------------------------------------


def test_server_round_trip(tmp_path):
    fleet = Fleet(ArtifactStore(tmp_path))
    server = make_server("127.0.0.1", 0, fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        submitted = client.submit_sweep(dict(TINY))
        done = client.wait(submitted["job"], timeout=120.0)
        assert done["result"]["simulations"] > 0
        text, simulations = client.figure(
            "fig3", instructions=800, stride=27
        )
        assert simulations == 0  # the job warmed the store
        assert "fig3" in done["result"]["experiment"]
        artifact = client.artifact(done["result"]["artifact_key"])
        assert artifact["text"] == text
        status = client.status()
        assert status["jobs"]["done"] == 1
        exposition = client.metrics()
        assert "repro_http_requests_total" in exposition
        with pytest.raises(ClientError) as err:
            client.figure("fig9")
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client.job("job-999")
        assert err.value.status == 404
    finally:
        server.service.stop()
        server.shutdown()
        server.server_close()


def test_keep_alive_requests_do_not_stall(tmp_path):
    """Requests reusing one HTTP/1.1 connection are answered at once.

    With Nagle on, the split header/body writes made every request after
    the first wait for the client's delayed ACK (~44 ms each: ~4.4 s for
    100 requests); with ``TCP_NODELAY`` they take milliseconds.
    """
    fleet = Fleet(ArtifactStore(tmp_path))
    server = make_server("127.0.0.1", 0, fleet, start_worker=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=10
    )
    try:
        start = time.perf_counter()
        for _ in range(100):
            conn.request("GET", "/v1/status")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        assert time.perf_counter() - start < 2.0
    finally:
        conn.close()
        server.service.stop()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "path, expected",
    [
        ("/metrics", ("/metrics", "")),
        ("/v1/status", ("/v1/status", "")),
        ("/v1/sweeps", ("/v1/sweeps", "")),
        ("/v1/jobs/job-7", ("/v1/jobs/{id}", "job-7")),
        ("/v1/artifacts/abc123", ("/v1/artifacts/{key}", "abc123")),
        ("/v1/figures/fig1?stride=27", ("/v1/figures/{name}", "fig1")),
        ("/v1/tables/tab3", ("/v1/tables/{name}", "tab3")),
        ("/v1/jobs", ("unmatched", "")),
        ("/v1/jobs/a/b", ("unmatched", "")),
        ("/nope/3", ("unmatched", "")),
        ("/", ("unmatched", "")),
    ],
)
def test_match_route_names_parameters(path, expected):
    assert match_route(path) == expected


def test_request_counter_series_stay_bounded(tmp_path):
    """Distinct job ids, artifact keys and unknown paths share one
    request-counter series per (method, route, code)."""
    fleet = Fleet(ArtifactStore(tmp_path))
    server = make_server("127.0.0.1", 0, fleet, start_worker=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}")

    def burst(start, count):
        for i in range(start, start + count):
            for path in (f"/nope/{i}", f"/v1/jobs/job-{i}", f"/v1/artifacts/k{i}"):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 404
                finally:
                    conn.close()

    def series():
        return {
            line.rsplit(" ", 1)[0]
            for line in client.metrics().splitlines()
            if line.startswith("repro_http_requests_total")
        }

    try:
        burst(0, 20)
        client.metrics()  # its own series exists from here on
        before = series()
        burst(20, 200)
        after = series()
        assert after == before
        routes = set(re.findall(r'route="([^"]*)"', "\n".join(after)))
        assert routes <= {
            "/metrics", "/v1/status", "/v1/sweeps", "/v1/jobs/{id}",
            "/v1/artifacts/{key}", "/v1/figures/{name}", "/v1/tables/{name}",
            "unmatched",
        }
        assert {"unmatched", "/v1/jobs/{id}", "/v1/artifacts/{key}"} <= routes
    finally:
        server.service.stop()
        server.shutdown()
        server.server_close()


def _raw_post(port, length_header, body=b""):
    """POST /v1/sweeps over a raw socket; returns (status, json, headers).

    The socket stays open for writing after the request, so a server
    that tried to read a body it was never sent would block until the
    timeout instead of answering.
    """
    head = "POST /v1/sweeps HTTP/1.1\r\nHost: test\r\n"
    if length_header is not None:
        head += f"Content-Length: {length_header}\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode("ascii") + b"\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, json.loads(payload), headers


@pytest.mark.parametrize(
    "length, status",
    [(None, 400), ("-1", 400), ("twelve", 400), (str(10**12), 413),
     (str(MAX_BODY_BYTES + 1), 413)],
    ids=["missing", "negative", "non-integer", "huge", "just-over"],
)
def test_raw_socket_bad_content_length_is_answered_unread(tmp_path, length, status):
    fleet = Fleet(ArtifactStore(tmp_path))
    server = make_server("127.0.0.1", 0, fleet, start_worker=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        got, payload, headers = _raw_post(server.server_address[1], length)
        assert got == status
        assert payload["status"] == status
        assert "Content-Length" in payload["error"] or "exceeds" in payload["error"]
        # The connection closes instead of parsing leftovers as a request.
        assert headers.get("Connection") == "close"
        assert server.service.queue.describe()["queued"] == 0
    finally:
        server.service.stop()
        server.shutdown()
        server.server_close()


def test_raw_socket_valid_length_still_submits(tmp_path):
    fleet = Fleet(ArtifactStore(tmp_path))
    server = make_server("127.0.0.1", 0, fleet, start_worker=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps(TINY).encode()
        port = server.server_address[1]
        # Ask the server to close after answering so the read loop ends.
        head = (
            "POST /v1/sweeps HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head.encode("ascii") + body)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 202")
        assert server.service.queue.describe()["queued"] == 1
    finally:
        server.service.stop()
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_serve_stops_cleanly_on_signal(tmp_path, signum):
    """Started in the background (SIGINT inherited as ignored), the
    server still stops on SIGINT and SIGTERM through its shutdown path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "--port", "0",
         "--store", str(tmp_path / "store")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert proc.stdout.readline().startswith("[repro-serve listening on ")
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert "[repro-serve shutting down]" in err
