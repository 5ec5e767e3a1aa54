"""Nested wall-time spans over :mod:`contextvars`.

``span("convert.file", path=...)`` times a region and emits one event-log
record carrying its id, its parent's id (so ``repro-obs`` can rebuild the
tree), wall-clock start, duration and attributes.  Nesting follows the
logical call context — including across threads started inside a span —
because the current parent lives in a :class:`contextvars.ContextVar`.

The disabled path is the whole point of this module's shape: when
:func:`repro.obs.state.enabled` is false, :func:`span` returns one
preallocated no-op singleton whose ``__enter__``/``__exit__`` do nothing,
so instrumented hot loops pay a truthiness check and an attribute lookup,
never an allocation.
"""

from __future__ import annotations

import itertools
import time
from contextvars import ContextVar
from typing import Any, Dict, Optional

from repro.obs import events, state

#: Process-unique span ids (uniqueness per log file is what matters, and
#: each process writes its own file).
_ids = itertools.count(1)

#: Id of the innermost open span in this logical context.
_current: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


class Span:
    """An open span; use via ``with span(...)`` rather than directly."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start", "_token")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_ids)
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        self.parent_id = _current.get()
        self._token = _current.set(self.span_id)
        self.start = time.time()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.time() - self.start
        if self._token is not None:
            _current.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        events.emit_span(
            self.name,
            self.start,
            duration,
            self.span_id,
            self.parent_id,
            self.attrs or None,
        )

    def set(self, **attrs: Any) -> None:
        """Attach attributes after entry (e.g. counts known only at exit)."""
        self.attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Context manager timing a named region; no-op singleton when disabled."""
    if not state.enabled():
        return _NOOP
    return Span(name, attrs)


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or None (for hand-built records)."""
    return _current.get()


def emit_child_span(
    name: str,
    start: float,
    duration: float,
    attrs: Optional[Dict[str, Any]] = None,
) -> None:
    """Emit a pre-measured span as a child of the current span.

    For records whose time was accumulated outside a ``with`` block
    (e.g. convert's block-decode time, summed over a whole stream).
    """
    if not state.enabled():
        return
    events.emit_span(
        name, start, duration, next(_ids), _current.get(), attrs or None
    )
