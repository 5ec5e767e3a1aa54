"""Seeded, deterministic fault plans — *what* to break, *when*.

A :class:`FaultPlan` is a set of :class:`FaultSpec` entries, one per
injection **site**.  Sites are dotted names compiled into the production
code (``worker.crash``, ``cache.corrupt``, ``io.cvp.truncate`` ...); the
plan decides, per process and per site, which calls at that site fire.

Decisions are *counter-based*, never probabilistic: every process keeps
an eligible-call counter per site, and a spec fires on calls
``start``, ``start+every``, ``start+2*every`` ... up to ``count`` total
fires.  Two runs of the same plan over the same workload therefore
inject byte-identical fault sequences — which is what lets the chaos
tests assert that recovered runs equal fault-free runs exactly.

Plans travel through the ``REPRO_FAULTS`` environment variable (so pool
workers inherit them across ``fork``/``spawn``) in a compact spec
grammar::

    REPRO_FAULTS="worker.crash:count=1;worker.hang:seconds=8:start=2"

i.e. ``;``-separated site entries, each ``site[:key=value]...`` with
integer/float values.  :meth:`FaultPlan.parse` and
:meth:`FaultPlan.to_spec` round-trip the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Known injection sites, for spec validation (typos must fail loudly,
#: not silently inject nothing).
KNOWN_SITES = frozenset(
    {
        # experiments/parallel.py worker preamble
        "worker.crash",
        "worker.hang",
        "worker.exc",
        # service/store.py BlobStore.store: every blob kind (runs, lint,
        # checks, conversions, artifacts)
        "cache.corrupt",
        "cache.truncate",
        # cvp/blockio.py buffered reads
        "io.cvp.truncate",
        # champsim/trace.py block reads
        "io.champsim.truncate",
    }
)

_INT_KEYS = frozenset({"count", "start", "every"})
_FLOAT_KEYS = frozenset({"seconds"})


class FaultPlanError(ValueError):
    """A ``REPRO_FAULTS`` spec string that cannot be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One site's injection schedule.

    Args:
        site: Dotted injection-site name (member of :data:`KNOWN_SITES`).
        count: Maximum number of fires per process (0 = unlimited).
        start: Eligible calls to skip before the first fire.
        every: Fire on every ``every``-th eligible call after ``start``.
        seconds: Duration knob (hang sleep length), where meaningful.
    """

    site: str
    count: int = 1
    start: int = 0
    every: int = 1
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; known: "
                + ", ".join(sorted(KNOWN_SITES))
            )
        if self.count < 0 or self.start < 0 or self.every < 1:
            raise FaultPlanError(
                f"invalid schedule for {self.site}: count>=0, start>=0, "
                f"every>=1 required"
            )

    def fires_on(self, call_index: int, fires_so_far: int) -> bool:
        """Whether the ``call_index``-th eligible call (0-based) fires."""
        if self.count and fires_so_far >= self.count:
            return False
        if call_index < self.start:
            return False
        return (call_index - self.start) % self.every == 0

    def to_spec(self) -> str:
        """The grammar fragment for this spec (defaults omitted)."""
        parts = [self.site]
        if self.count != 1:
            parts.append(f"count={self.count}")
        if self.start:
            parts.append(f"start={self.start}")
        if self.every != 1:
            parts.append(f"every={self.every}")
        if self.seconds != 60.0:
            parts.append(f"seconds={self.seconds:g}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A full injection schedule: one :class:`FaultSpec` per site."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            if spec.site in seen:
                raise FaultPlanError(f"duplicate fault site {spec.site!r}")
            seen.add(spec.site)

    def spec_for(self, site: str) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs = []
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            fields = entry.split(":")
            site = fields[0].strip()
            kwargs: Dict[str, float] = {}
            for pair in fields[1:]:
                if "=" not in pair:
                    raise FaultPlanError(
                        f"malformed fault option {pair!r} in {entry!r} "
                        "(expected key=value)"
                    )
                key, _, raw = pair.partition("=")
                key = key.strip()
                try:
                    if key in _INT_KEYS:
                        kwargs[key] = int(raw)
                    elif key in _FLOAT_KEYS:
                        kwargs[key] = float(raw)
                    else:
                        raise FaultPlanError(
                            f"unknown fault option {key!r} in {entry!r}"
                        )
                except ValueError as exc:
                    if isinstance(exc, FaultPlanError):
                        raise
                    raise FaultPlanError(
                        f"non-numeric value {raw!r} for {key!r} in {entry!r}"
                    ) from exc
            specs.append(FaultSpec(site=site, **kwargs))  # type: ignore[arg-type]
        return cls(specs=tuple(specs))

    def to_spec(self) -> str:
        """Serialise back to the env grammar (parse/to_spec round-trip)."""
        return ";".join(spec.to_spec() for spec in self.specs)


@dataclass
class SiteCounters:
    """Per-process eligible-call and fire counters for one plan."""

    calls: Dict[str, int] = field(default_factory=dict)
    fires: Dict[str, int] = field(default_factory=dict)

    def decide(self, spec: FaultSpec) -> bool:
        """Advance the site's call counter; True when this call fires."""
        index = self.calls.get(spec.site, 0)
        self.calls[spec.site] = index + 1
        fired = spec.fires_on(index, self.fires.get(spec.site, 0))
        if fired:
            self.fires[spec.site] = self.fires.get(spec.site, 0) + 1
        return fired

    def reset(self) -> None:
        self.calls.clear()
        self.fires.clear()
