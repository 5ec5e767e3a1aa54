"""Spans around the program's layer entry points, installed from outside.

:func:`install` rebinds each layer's public entry point (see the list
at its end) to a wrapper that records a span: a name, start and end
on the system-wide monotonic clock, the span that caused it and a few
counting attributes.  Nothing under ``src/`` changes and the program's
own ``--obs`` machinery stays off, so a traced run executes the same path
as an untraced one.

Spans are kept in memory.  The installing process writes its spans with
:meth:`Tracer.flush` when the benchmark is done with it.  Pool workers
inherit the wrappers through ``fork``; each writes its spans to its own
file whenever one of its top-level spans closes, because a pool worker
exits without running ``atexit`` handlers.  A worker's top-level spans
name the span that was open in the forking thread as their parent, so
work done in a worker nests under the parent's ``run_tasks`` span.

Each process writes ``spans-<pid>.jsonl`` into the trace directory;
:mod:`attribution` merges them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: This process's tracer, set by :func:`install`.  Span names are the
#: keys of ``attribution.BUCKETS``.
_TRACER: Optional["Tracer"] = None


class Tracer:
    """Per-process span recorder (thread-aware, fork-aware)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the forking thread's open-span stack: those
        # spans belong to the parent and become the parents of the
        # child's top-level spans.  Recorded spans stay with the parent.
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": stack[-1] if stack else None,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": time.monotonic(),
        }
        stack.append(span["id"])
        return span

    def end(self, span: Dict[str, Any], name: str, attrs: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        span["name"] = name
        if attrs:
            span["attrs"] = attrs
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)
        if self.pid != self.owner_pid and not any(
            entry.startswith(f"{self.pid}:") for entry in stack
        ):
            self.flush()

    def flush(self) -> None:
        """Append the spans recorded so far to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            for span in spans:
                stream.write(json.dumps(span, sort_keys=True) + "\n")


def _traced(name: str, fn: Callable[..., Any],
            attrs_of: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable[..., Any]:
    """Wrap ``fn`` so each call records a span named ``name``.

    ``attrs_of(args, kwargs, result)`` returns the span's attributes.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = _TRACER
        span = tracer.begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            tracer.end(span, name, attrs)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


# ----------------------------------------------------------------------
# per-layer wrappers
# ----------------------------------------------------------------------

#: id(trace records) -> (records, trace name, instructions): lets the
#: convert wrapper name the trace it converts.  The records are held so
#: their id cannot be reused while the process runs.
_TRACE_NAMES: Dict[int, Any] = {}


def _generate_attrs(args: Any, kwargs: Any, result: Any) -> Dict[str, Any]:
    name = args[0] if args else kwargs.get("name")
    instructions = args[1] if len(args) > 1 else kwargs.get("instructions")
    if result is not None:
        _TRACE_NAMES[id(result)] = (result, name, instructions)
    return {"trace": f"{name}/{instructions}"}


def _traced_convert(convert: Callable[..., Any]) -> Callable[..., Any]:
    """``Converter.convert`` is a generator: the span covers its consumption."""

    @functools.wraps(convert)
    def wrapper(self: Any, source: Any) -> Any:
        entry = _TRACE_NAMES.get(id(source))
        trace = f"{entry[1]}/{entry[2]}" if entry else f"anon-{id(source)}"
        tracer = _TRACER
        span = tracer.begin()
        try:
            yield from convert(self, source)
        finally:
            tracer.end(
                span,
                "core.convert",
                {"pair": f"{trace}|{self.improvements.value}"},
            )

    wrapper.__perfbench_original__ = convert  # type: ignore[attr-defined]
    return wrapper


def _traced_decode(decode: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(decode)
    def wrapper(instrs: Any, *args: Any, **kwargs: Any) -> Any:
        cache = kwargs.get("cache", args[1] if len(args) > 1 else None)
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        tracer = _TRACER
        span = tracer.begin()
        try:
            return decode(instrs, *args, **kwargs)
        finally:
            if cache is not None:
                attrs = {"hits": cache.hits - hits, "misses": cache.misses - misses}
            else:
                attrs = {"hits": 0, "misses": len(instrs)}
            tracer.end(span, "sim.decode", attrs)

    wrapper.__perfbench_original__ = decode  # type: ignore[attr-defined]
    return wrapper


def _engine_attrs(args: Any, kwargs: Any, result: Any) -> Dict[str, Any]:
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    try:
        instructions = len(trace)
    except TypeError:
        instructions = result.instructions if result is not None else 0
    return {"instructions": instructions}


def _load_attrs(args: Any, kwargs: Any, result: Any) -> Dict[str, Any]:
    return {"key": args[1] if len(args) > 1 else kwargs.get("key"),
            "hit": result is not None}


def _traced_blob(op: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``BlobStore.load``/``store``: artifact blobs are their own layer;
    run blobs are charged to the ``ResultCache`` call they nest in."""

    @functools.wraps(fn)
    def wrapper(self: Any, key: str, *args: Any, **kwargs: Any) -> Any:
        tracer = _TRACER
        span = tracer.begin()
        result = None
        try:
            result = fn(self, key, *args, **kwargs)
            return result
        finally:
            artifact = self.kind.name == "artifacts"
            attrs: Dict[str, Any] = {"nested": not artifact}
            if op == "load":
                attrs["hit"] = result is not None
            tracer.end(span, f"{'artifact' if artifact else 'store'}.{op}", attrs)

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


def execute_task(task: Any) -> Any:
    """Traced pool task body (module level, so the pool can pickle it)."""
    from repro.experiments import parallel

    tracer = _TRACER
    span = tracer.begin()
    try:
        return parallel.execute_task(task)
    finally:
        tracer.end(span, "parallel.task", {})


def _traced_run_tasks(run_tasks: Callable[..., Any]) -> Callable[..., Any]:
    signature = inspect.signature(run_tasks)

    @functools.wraps(run_tasks)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        if "task_fn" not in bound.arguments:
            bound.arguments["task_fn"] = execute_task
        jobs = bound.arguments.get("jobs")
        tracer = _TRACER
        span = tracer.begin()
        try:
            return run_tasks(*bound.args, **bound.kwargs)
        finally:
            tracer.end(
                span,
                "parallel.run",
                {"jobs": jobs if jobs is not None else os.cpu_count() or 1,
                 "tasks": len(bound.arguments["tasks"])},
            )

    wrapper.__perfbench_original__ = run_tasks  # type: ignore[attr-defined]
    return wrapper


def _wrap_attr(owner: Any, attr: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    """Replace ``owner.attr`` by ``make(owner.attr)``, once."""
    original = getattr(owner, attr)
    if hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attr, make(original))


def install(out_dir: Path) -> Tracer:
    """Wrap every layer entry point; returns this process's tracer."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    _TRACER = Tracer(out_dir)

    from repro.core.convert import Converter
    from repro.experiments import cli, parallel, runner
    from repro.experiments.cache import ResultCache
    from repro.service import fleet, http
    from repro.service.store import BlobStore
    from repro.sim import simulator, vector_engine

    def span(name: str, attrs_of: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        return lambda fn: _traced(name, fn, attrs_of)

    _wrap_attr(runner, "make_trace", span("synth.generate", _generate_attrs))
    _wrap_attr(Converter, "convert", _traced_convert)
    _wrap_attr(simulator, "decode_trace", _traced_decode)
    _wrap_attr(simulator, "columnarize", span("sim.columnarize"))
    _wrap_attr(simulator.Simulator, "run", span("sim.engine", _engine_attrs))
    for planner in ("resolve_branch_plan", "plan_data_stream", "plan_fetch_stream"):
        _wrap_attr(vector_engine, planner, span("sim.plan"))
    _wrap_attr(ResultCache, "load", span("store.load", _load_attrs))
    _wrap_attr(ResultCache, "store", span("store.store"))
    _wrap_attr(BlobStore, "load", lambda fn: _traced_blob("load", fn))
    _wrap_attr(BlobStore, "store", lambda fn: _traced_blob("store", fn))
    for module in (cli, fleet):
        _wrap_attr(module, "run_experiment", span("render"))
    for module in (parallel, fleet):
        _wrap_attr(module, "run_tasks", _traced_run_tasks)
    _wrap_attr(fleet.Fleet, "execute", span("fleet.execute"))
    for method in ("handle_submit", "handle_job", "handle_render",
                   "handle_artifact", "handle_status", "handle_metrics"):
        _wrap_attr(http.ExperimentService, method, span("http.handle"))
    return _TRACER


def _request_attrs(args: Any, kwargs: Any, result: Any) -> Dict[str, Any]:
    # Job polls are sent until a job settles, so their number depends on
    # timing; they are marked to keep them out of the request count.
    return {"poll": args[0].path.startswith("/v1/jobs/")}


def trace_request_handler(handler_class: type) -> None:
    """Wrap an HTTP handler class's ``do_GET``/``do_POST`` (one span each)."""
    for method in ("do_GET", "do_POST"):
        _wrap_attr(handler_class, method,
                   lambda fn: _traced("http.request", fn, _request_attrs))
