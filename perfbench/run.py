"""The repo benchmark: regenerate the paper's outputs cold and warm, and serve them.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload fig1 --seed 3 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

- ``fig1``  Figure 1 through ``repro.experiments.cli.run_experiment``,
  serial: every run is a distinct (trace, improvements) conversion.
- ``tab3``  Table 3 the same way with ``--jobs 2``: 9 configs per
  conversion, through the process pool.
- ``serve`` ``repro-serve`` on a fresh store: figures and tables
  submitted as sweeps, then read back and queried warm.

A run repeats *reps* until ``--seconds`` are used.  Each rep starts from
a fresh interpreter and an empty store (set-up, cold, warm) and ends
with a batch of served warm queries; fig1 and tab3 serve the first rep's
warm store for the rest of the run.  Every output is checked against the
other paths and against the digest in ``reference.json``; a mismatch, a
failed task or a non-2xx response counts as failed.  ``calibrate.py``
samples the host's speed beside the reps, and the end-to-end timings
are scaled to a reference host speed (see ``README.md``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics of the last
traced rep, whose layer times add up to its traced wall time.  The last
stdout line is the JSON result; the exit code is 0 only when every
output was correct.  ``--size tiny`` runs a seconds-long version for
``selftest.py``; ``--perturb-reference`` is the output check's negative
control and must fail.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import workloads  # noqa: E402

#: Where runs keep their stores and span files (inside the checkout).
WORK_ROOT = Path(".perfbench_work")

#: Rounds of GETs (each output once) in one served warm pass, which is
#: timed per round: a round takes a few milliseconds, too short to time
#: steadily on its own.
SERVED_WARM_ROUNDS = 5

#: Pause before each warm pass.  A pass takes milliseconds, and the
#: host's fast and slow periods last tenths of a second or more: spread
#: out, a rep's passes meet several of them, so its fastest pass does
#: not depend on the one moment the passes would otherwise share.
WARM_GAP_S = 0.03


class FatalError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def best_of_groups(values: Sequence[float], size: int = 3) -> float:
    """The least of each group of ``size`` consecutive values, median
    over the groups (one group when there are fewer values).

    Unlike the best of all values, this does not improve as more values
    fit into a run.
    """
    groups = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    return median([min(group) for group in groups or [values] if group])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def process_tree(root: int) -> List[int]:
    """``root`` and every live process descended from it."""
    tree, pending = [], [root]
    while pending:
        pid = pending.pop()
        tree.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as kids:
                    pending.extend(int(child) for child in kids.read().split())
            except OSError:
                pass
    return tree


def anon_pss_kib(pid: int) -> int:
    """Anonymous proportional set size of ``pid`` (KiB; 0 once it has exited).

    PSS splits each shared page between the processes mapping it, so
    the sum over forked pool workers and their parent counts the pages
    they share once.  File-backed pages, such as the interpreter's
    libraries, are left out: their share depends on how many unrelated
    processes on the host map the same files.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
            for line in rollup:
                if line.startswith("Pss_Anon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakMemory:
    """Peak of the summed anonymous PSS of a process tree, sampled every 50 ms."""

    INTERVAL_S = 0.05

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kib = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(self.INTERVAL_S):
            total = sum(anon_pss_kib(pid) for pid in process_tree(self.root))
            self.peak_kib = max(self.peak_kib, total)

    def stop(self) -> int:
        """Stop sampling; returns the peak (KiB)."""
        self._done.set()
        self._thread.join()
        return self.peak_kib


def running_cpus(pids: Sequence[int], skip_tid: int) -> List[int]:
    """The processor of every running thread of ``pids``."""
    cpus = []
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields[0] is the state; fields[36] the processor it last ran on.
            if fields[0] == "R" and int(task) != skip_tid:
                cpus.append(int(fields[36]))
    return cpus


class Samples:
    """One sampler's chunk times, for means over time ranges."""

    def __init__(self, samples: Sequence[Tuple[float, int]]) -> None:
        self.times = [at for at, _ in samples]
        self.sums = list(itertools.accumulate((ns for _, ns in samples), initial=0))

    def mean(self, start: float, end: float) -> Optional[float]:
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        if last == first:
            return None
        return (self.sums[last] - self.sums[first]) / (last - first)


class HostSpeed:
    """How much the host slowed the run's work down, phase by phase.

    The host's slow periods differ between its processors, so one
    ``calibrate.py`` sampler runs pinned to each processor the benchmark
    may use, and a thread notes every :data:`TRACK_S` on which
    processors the run's own threads are running (the benchmark, the
    program's processes and the server, not the samplers).
    ``slowdown`` averages, over those notes, the chunk time of the
    sampler on the same processor near that moment, and divides it by
    :data:`REFERENCE_CHUNK_NS`; the end-to-end timings are divided by
    the result.
    """

    #: The chunk's CPU time on the reference host (about that of the
    #: 2-core container the benchmark was built on, when it is quiet).
    REFERENCE_CHUNK_NS = 1_000_000

    #: Seconds between notes of where the run's threads are running.
    TRACK_S = 0.02

    #: A note is matched with its processor's samples this close to it.
    NEAR_S = 0.1

    def __init__(self) -> None:
        self.samplers: Dict[int, subprocess.Popen] = {}
        self.samples: Dict[int, Samples] = {}
        self.notes: List[Tuple[float, List[int]]] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._track, daemon=True)
        for cpu in sorted(os.sched_getaffinity(0)):
            self.samplers[cpu] = subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py"), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        if any(sampler.stdout.readline().strip() != "ready"
               for sampler in self.samplers.values()):
            self.stop()
            raise FatalError("calibrate.py did not start")
        self._thread.start()

    def _track(self) -> None:
        me = threading.get_native_id()
        samplers = {sampler.pid for sampler in self.samplers.values()}
        while not self._done.wait(self.TRACK_S):
            pids = [pid for pid in process_tree(os.getpid()) if pid not in samplers]
            self.notes.append((time.monotonic(), running_cpus(pids, me)))

    def stop(self) -> None:
        """Stop noting; close the samplers' input and wait for their samples."""
        self._done.set()
        if self._thread.is_alive():
            self._thread.join()
        for cpu, sampler in self.samplers.items():
            try:
                out, _ = sampler.communicate(input="", timeout=60)
            except subprocess.TimeoutExpired:
                sampler.kill()
                sampler.communicate()
                raise FatalError("calibrate.py did not stop")
            self.samples[cpu] = Samples(json.loads(out or "[]"))

    def slowdown(self, window: Tuple[float, float]) -> float:
        """Mean chunk time where and when the run worked in ``window``,
        over the reference chunk time."""
        near = [
            self.samples[cpu].mean(at - self.NEAR_S, at + self.NEAR_S)
            for at, cpus in self.notes if window[0] <= at <= window[1]
            for cpu in cpus if cpu in self.samples
        ]
        if not any(ns is not None for ns in near):
            # Too short to be caught at work: every processor, around it.
            near = [samples.mean(window[0] - self.NEAR_S, window[1] + self.NEAR_S)
                    for samples in self.samples.values()]
        near = [ns for ns in near if ns is not None]
        if not near:
            raise FatalError("no host-speed samples during a timed phase")
        return statistics.fmean(near) / self.REFERENCE_CHUNK_NS


def write_spec(path: Path, spec: Dict[str, Any]) -> str:
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def cli_spec(inputs: workloads.Inputs, jobs: int, store: Path,
             trace_dir: Optional[Path], warm_passes: int) -> Dict[str, Any]:
    """What ``cli_rep.py`` runs."""
    return {
        "experiments": list(inputs.experiments),
        "instructions": inputs.instructions,
        "jobs": jobs,
        "suite": inputs.suite(),
        "store": str(store),
        "trace_dir": str(trace_dir) if trace_dir else None,
        "warm_passes": warm_passes,
        "warm_gap_s": WARM_GAP_S,
    }


def run_cli_rep(spec: Dict[str, Any], rep_dir: Path) -> Dict[str, Any]:
    """Run ``cli_rep.py`` once; returns its summary plus ``setup_s`` and
    the peak summed anonymous PSS of the process and its pool workers."""
    spec_path = write_spec(rep_dir / "cli-spec.json", spec)
    log_path = rep_dir / "cli-rep.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "cli_rep.py"), spec_path],
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        memory = PeakMemory(child.pid)
        ready_line = child.stdout.readline()
        ready = time.monotonic()
        try:
            rest, _ = child.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise FatalError("cli_rep.py did not finish within 170 s")
        finally:
            peak_kib = memory.stop()
    if ready_line.strip() != "ready":
        raise FatalError("cli_rep.py did not get ready:\n"
                         + log_path.read_text(encoding="utf-8"))
    lines = rest.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"error": log_path.read_text(encoding="utf-8")}
    summary = json.loads(lines[-1])
    summary["setup_window"] = (spawned, ready)
    summary["peak_kib"] = peak_kib
    return summary


class Server:
    """``repro-serve`` started through ``serve_launch.py``."""

    def __init__(self, inputs: workloads.Inputs, store: Path, run_dir: Path,
                 trace_dir: Optional[Path], sample_memory: bool = False) -> None:
        self.trace_dir = trace_dir
        spec = {"suite": inputs.suite(),
                "trace_dir": str(trace_dir) if trace_dir else None}
        spec_path = write_spec(run_dir / "serve-spec.json", spec)
        self.log_path = run_dir / "serve.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_launch.py"), spec_path,
             "--host", "127.0.0.1", "--port", "0", "--store", str(store)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.memory = PeakMemory(self.process.pid) if sample_memory else None
        banner = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise FatalError("repro-serve did not start:\n"
                             + self.log_path.read_text(encoding="utf-8"))
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, str], bytes]:
        """One request on its own connection, as ``--server`` and curl send it."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Connection": "close"}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def wait_ready(self) -> float:
        """Poll ``/v1/status`` until it answers; returns the set-up time."""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/v1/status")[0] == 200:
                    return time.monotonic() - self.started
            except OSError:
                time.sleep(0.005)
        raise FatalError("repro-serve never answered /v1/status")

    def peak_kib(self) -> int:
        """Stop sampling memory; returns the server's peak summed PSS.

        Sampling runs from launch until this call, which ``serve`` makes
        after the cold phase: the warm phase and the query batches only
        read, and the sampler must not compete with the timed callers.
        """
        if self.memory is None:
            return 0
        peak, self.memory = self.memory.stop(), None
        return peak

    def stop(self) -> None:
        """Interrupt the server as a user would, and wait for it."""
        self.peak_kib()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()

    def get_text(self, inputs: workloads.Inputs, experiment: str,
                 expected: str, tally: Tally) -> bool:
        """GET one rendered output; check status, zero simulations, digest."""
        try:
            status, headers, body = self.request("GET", inputs.path(experiment))
        except (OSError, http.client.HTTPException) as exc:
            return tally.check(False, f"served {experiment}: {exc!r}")
        return tally.check(
            status == 200
            and headers.get("X-Repro-Simulations") == "0"
            and sha256(body) == expected,
            f"served {experiment}: status {status}, "
            f"simulations {headers.get('X-Repro-Simulations')}",
        )


def closed_loop(server: Server, inputs: workloads.Inputs,
                digests: Dict[str, str], count: int, tally: Tally,
                clients: int = 2) -> Tuple[List[float], float]:
    """``count`` warm queries from ``clients`` closed-loop callers.

    Each caller sends its next request when the previous reply is in,
    cycling through the workload's outputs in their seeded order.
    Returns the latencies (s) of the correct replies and the wall time.
    """
    order = list(inputs.experiments)
    latencies: List[float] = []
    lock = threading.Lock()
    issued = iter(range(count))

    def caller() -> None:
        while True:
            with lock:
                index = next(issued, None)
            if index is None:
                return
            experiment = order[index % len(order)]
            start = time.monotonic()
            ok = server.get_text(inputs, experiment, digests[experiment], tally)
            elapsed = time.monotonic() - start
            if ok:
                with lock:
                    latencies.append(elapsed)

    threads = [threading.Thread(target=caller) for _ in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.monotonic() - start


# ----------------------------------------------------------------------
# reps
# ----------------------------------------------------------------------


class Run:
    """One benchmark run: its inputs, reference, reps and tallies."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload = workloads.WORKLOADS[args.workload]
        self.shape = self.workload.sizes[args.size]
        self.inputs = workloads.inputs(args.workload, args.size, args.seed)
        self.work = work
        self.tally = Tally()
        self.reps: List[Dict[str, Any]] = []
        #: Spans of the CLI workloads' query server, when traced.
        self.server_trace_dir: Optional[Path] = None
        self.reference = self._reference()
        if args.perturb_reference:
            self.reference["digests"] = {
                name: sha256(f"perturbed:{digest}".encode("utf-8"))
                for name, digest in self.reference["digests"].items()
            }

    def _reference(self) -> Dict[str, Any]:
        with open(HERE / "reference.json", encoding="utf-8") as stream:
            table = json.load(stream)
        key = self.inputs.reference_key()
        if key not in table:
            raise FatalError(f"no reference recorded for {key}")
        return table[key]

    def rep_dir(self, traced: bool) -> Tuple[Path, Optional[Path]]:
        rep_dir = self.work / f"rep-{len(self.reps)}"
        rep_dir.mkdir(parents=True)
        return rep_dir, (rep_dir / "spans") if traced else None

    def cli_rep(self, traced: bool) -> Dict[str, Any]:
        """Set-up, cold and warm through ``run_experiment``."""
        rep_dir, trace_dir = self.rep_dir(traced)
        store = rep_dir / "store"
        summary = run_cli_rep(
            cli_spec(self.inputs, self.workload.jobs, store, trace_dir,
                     self.shape.warm_passes),
            rep_dir,
        )
        if not self.tally.check("error" not in summary,
                                f"cli rep: {summary.get('error', '')}"):
            return {"failed": True}
        cold = summary["cold"]
        for name, digest in cold["digests"].items():
            self.tally.check(
                digest == self.reference["digests"].get(name),
                f"cold {name}: digest differs from the reference",
            )
        self.tally.check(
            cold["simulations"] == self.reference["simulations"],
            f"cold simulations {cold['simulations']} != "
            f"{self.reference['simulations']}",
        )
        for index, warm in enumerate(summary["warm"]):
            same = warm["digests"] == cold["digests"]
            self.tally.check(
                warm["simulations"] == 0 and same,
                f"warm pass {index}: {warm['simulations']} simulations, "
                f"outputs {'match' if same else 'differ from'} cold",
            )
        windows = [tuple(cold["window"])]
        windows += [tuple(warm["window"]) for warm in summary["warm"]]
        setup = tuple(summary["setup_window"])
        return {
            "setup_s": setup[1] - setup[0],
            "cold_s": windows[0][1] - windows[0][0],
            "warm_s": [end - start for start, end in windows[1:]],
            "peak_kib": summary["peak_kib"],
            "windows": windows,
            "setup_window": setup,
            "cold_window": windows[0],
            "warm_window": (windows[1][0], windows[-1][1]),
            "store": store,
            "trace_dir": trace_dir,
        }

    def query_batch(self, server: Server, rep: Dict[str, Any]) -> None:
        """One batch of served warm queries, timed as part of ``rep``."""
        start = time.monotonic()
        latencies, wall = closed_loop(server, self.inputs,
                                      self.reference["digests"],
                                      self.shape.queries, self.tally)
        rep["query_window"] = (start, time.monotonic())
        rep["windows"].append(rep["query_window"])
        rep["queries"] = len(latencies)
        rep["query_p50_s"] = percentile(latencies, 50)
        rep["query_p99_s"] = percentile(latencies, 99)
        rep["query_qps"] = len(latencies) / wall

    def start_query_server(self, rep: Dict[str, Any], traced: bool) -> Server:
        """Serve a CLI rep's warm store; its first GETs render from runs."""
        trace_dir = self.work / "server-spans" if traced else None
        server = Server(self.inputs, rep["store"], self.work, trace_dir)
        server.wait_ready()
        for name in self.inputs.experiments:
            server.get_text(self.inputs, name,
                            self.reference["digests"].get(name, ""), self.tally)
        return server

    def serve_rep(self, traced: bool) -> Dict[str, Any]:
        """Set-up, cold, warm and queries through ``repro-serve``."""
        rep_dir, trace_dir = self.rep_dir(traced)
        server = Server(self.inputs, rep_dir / "store", rep_dir, trace_dir,
                        sample_memory=True)
        try:
            return self._serve_phases(server, trace_dir)
        finally:
            server.stop()

    def _serve_phases(self, server: Server,
                      trace_dir: Optional[Path]) -> Dict[str, Any]:
        setup_s = server.wait_ready()
        setup_window = (server.started, server.started + setup_s)
        inputs, digests = self.inputs, self.reference["digests"]
        cold_start = time.monotonic()
        jobs = []
        for name in inputs.experiments:
            status, _, body = server.request("POST", "/v1/sweeps",
                                             inputs.sweep(name))
            if self.tally.check(status == 202, f"submit {name}: {status}"):
                jobs.append(json.loads(body)["job"])
        # One fleet worker runs the jobs in order: wait for the last first.
        settled = [self._wait_job(server, job) for job in reversed(jobs)]
        for job in settled:
            self.tally.check(job.get("state") == "done",
                             f"job {job.get('id')}: {job.get('state')}")
        for name in inputs.experiments:
            server.get_text(inputs, name, digests.get(name, ""), self.tally)
        cold = (cold_start, time.monotonic())
        peak_kib = server.peak_kib()
        simulations = sum(
            job.get("result", {}).get("simulations", 0) for job in settled
        )
        self.tally.check(
            simulations == self.reference["simulations"],
            f"served simulations {simulations} != "
            f"{self.reference['simulations']}",
        )
        warm = []
        for _ in range(self.shape.warm_passes):
            time.sleep(WARM_GAP_S)
            start = time.monotonic()
            for _ in range(SERVED_WARM_ROUNDS):
                for name in inputs.experiments:
                    server.get_text(inputs, name, digests.get(name, ""), self.tally)
            warm.append((start, time.monotonic()))
        rep = {
            "setup_s": setup_s,
            "cold_s": cold[1] - cold[0],
            "warm_s": [(end - start) / SERVED_WARM_ROUNDS for start, end in warm],
            "peak_kib": peak_kib,
            "windows": [cold] + warm,
            "setup_window": setup_window,
            "cold_window": cold,
            "warm_window": (warm[0][0], warm[-1][1]),
            "queue_wait_s": sum(
                job["started_at"] - job["submitted_at"]
                for job in settled if "started_at" in job
            ),
            "jobs": len(settled),
            "trace_dir": trace_dir,
        }
        self.query_batch(server, rep)
        return rep

    def _wait_job(self, server: Server, job_id: str) -> Dict[str, Any]:
        """Poll ``/v1/jobs/<id>`` until the job settles."""
        deadline = time.monotonic() + 150
        while time.monotonic() < deadline:
            status, _, body = server.request("GET", f"/v1/jobs/{job_id}")
            job = json.loads(body) if status == 200 else {"state": f"http {status}"}
            if job.get("state") not in ("queued", "running"):
                return job
            time.sleep(0.02)
        return {"id": job_id, "state": "timeout"}

    def rep(self, traced: bool) -> Dict[str, Any]:
        rep = self.serve_rep(traced) if self.workload.served else self.cli_rep(traced)
        rep["traced"] = traced
        self.reps.append(rep)
        return rep

    def execute(self, seconds: float, trace: bool) -> None:
        """Reps until ``seconds`` are used (traced runs end on a traced rep).

        CLI workloads serve the first rep's warm store from then on and
        query it after every rep, so the served queries are spread over
        the whole run.  ``calibrate.py`` samples the host's speed
        throughout; each rep gets the host's slowdown during each phase.
        """
        start = time.monotonic()
        server: Optional[Server] = None
        speed = HostSpeed()
        try:
            while True:
                traced = trace and len(self.reps) % 2 == 1
                rep = self.rep(traced)
                if rep.get("failed"):
                    break
                if not self.workload.served:
                    if server is None:
                        server = self.start_query_server(rep, trace)
                    self.query_batch(server, rep)
                if trace and not traced:
                    continue
                if time.monotonic() - start >= seconds:
                    break
        finally:
            if server is not None:
                server.stop()
                self.server_trace_dir = server.trace_dir
            speed.stop()
        for rep in self.reps:
            if not rep.get("failed"):
                rep["slowdown"] = {
                    phase: speed.slowdown(rep[f"{phase}_window"])
                    for phase in ("setup", "cold", "warm", "query")
                }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def good_reps(self, traced: bool) -> List[Dict[str, Any]]:
        return [rep for rep in self.reps
                if not rep.get("failed") and rep["traced"] == traced]

    def end_to_end(self) -> Dict[str, float]:
        """One value per rep, combined over the reps.

        Each rep contributes one value per metric from a fixed amount of
        work: set-up, cold phase, memory, and its query batch's p50, p99
        (10 samples beyond it in a batch of 1000) and throughput.  These
        are medians over the reps.  A warm pass takes milliseconds, so
        it lands wholly in a fast or a slow moment of the host:
        ``warm_s`` is a rep's fastest warm pass, the best of three
        consecutive reps, median over such groups.  No metric depends on
        how many reps fit in the run, as a best over the whole run would.

        Every timing is first divided by the host's slowdown during its
        phase (``HostSpeed``), so it reads as on the reference host.
        """
        reps = self.good_reps(False)

        def steady(rep: Dict[str, Any], phase: str, seconds: float) -> float:
            return seconds / rep["slowdown"][phase]

        cold_s = median([steady(rep, "cold", rep["cold_s"]) for rep in reps])
        return {
            "setup_s": median([steady(rep, "setup", rep["setup_s"]) for rep in reps]),
            "cold_s": cold_s,
            "warm_s": best_of_groups(
                [steady(rep, "warm", min(rep["warm_s"])) for rep in reps]),
            "sim_kips": (self.reference["instructions"] / cold_s / 1000
                         if cold_s else 0.0),
            "peak_rss_mib": median([rep["peak_kib"] for rep in reps]) / 1024,
            "query_p50_ms": 1000 * median(
                [steady(rep, "query", rep["query_p50_s"]) for rep in reps]),
            "query_p99_ms": 1000 * median(
                [steady(rep, "query", rep["query_p99_s"]) for rep in reps]),
            "query_qps": median(
                [rep["query_qps"] * rep["slowdown"]["query"] for rep in reps]),
        }

    def per_layer(self) -> Dict[str, float]:
        traced = self.good_reps(True)
        if not traced:
            return {}
        rep = traced[-1]
        spans = attribution.load_spans(rep["trace_dir"])
        if self.server_trace_dir is not None:
            spans += attribution.load_spans(self.server_trace_dir)
        metrics = attribution.layer_metrics(spans, rep["windows"],
                                            rep["cold_window"])
        self.tally.check(
            metrics["sim.instructions"] == self.reference["instructions"],
            f"simulated instructions {metrics['sim.instructions']} != "
            f"{self.reference['instructions']}",
        )
        untraced_cold = median([r["cold_s"] / r["slowdown"]["cold"]
                                for r in self.good_reps(False)])
        traced_cold = median([r["cold_s"] / r["slowdown"]["cold"] for r in traced])
        metrics["trace.overhead_frac"] = (
            traced_cold / untraced_cold - 1 if untraced_cold else 0.0
        )
        metrics["queue.wait_s"] = rep.get("queue_wait_s", 0.0)
        metrics["queue.jobs"] = rep.get("jobs", 0)
        return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="negative control: expect every output to mismatch")
    return parser


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``kind`` metrics declared in ``BENCHMARK.json``."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as stream:
        spec = json.load(stream)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def report(run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    """Print the human-readable lines; return the result object."""
    for index, rep in enumerate(run.reps):
        if not rep.get("failed"):
            print(f"[rep {index} traced={int(rep['traced'])} "
                  f"setup_s={rep['setup_s']:.4f} cold_s={rep['cold_s']:.4f} "
                  f"warm_s={min(rep['warm_s']):.5f} peak_kib={rep['peak_kib']} "
                  f"query_p50_ms={1000 * rep.get('query_p50_s', 0):.3f} "
                  f"query_p99_ms={1000 * rep.get('query_p99_s', 0):.3f} "
                  f"query_qps={rep.get('query_qps', 0):.1f} slowdown "
                  + " ".join(f"{phase}={value:.3f}"
                             for phase, value in rep["slowdown"].items())
                  + "]")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    reps = len(run.good_reps(False)) + len(run.good_reps(True))
    print(f"[{run.inputs.workload} variant={run.inputs.variant} "
          f"cvp1={','.join(run.inputs.cvp1) or '-'} "
          f"ipc1={','.join(run.inputs.ipc1) or '-'} "
          f"order={','.join(run.inputs.experiments)}]")
    samples = [rep.get("queries", 0) for rep in run.reps if not rep.get("failed")]
    print(f"[reps={reps} query_batches={len(samples)} query_samples={sum(samples)} "
          f"attempted={run.tally.attempted} failed={run.tally.failed} "
          f"failed_frac={run.tally.failed / max(1, run.tally.attempted):.6f}]")
    return {
        "correct": run.tally.failed == 0,
        "attempted": max(1, run.tally.attempted),
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not Path("src/repro").is_dir():
        print("perfbench: run from a checkout root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        run = Run(args, work)
        run.execute(args.seconds, bool(args.trace))
        units = metric_units("per_layer" if args.trace else "end_to_end")
        measured = run.per_layer() if args.trace else run.end_to_end()
        metrics = {name: measured.get(name, 0.0) for name in units}
        result = report(run, metrics, units)
    except FatalError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
