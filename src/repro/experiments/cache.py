"""Content-addressed on-disk cache for experiment results.

Every experiment run reduces to a pure function of a small set of inputs:
the trace name, the synthetic-generator version, the instruction budget,
the :class:`~repro.core.improvements.Improvement` flags, and the full
:class:`~repro.sim.config.SimConfig`.  :class:`ResultCache` stores each
:class:`~repro.experiments.runner.RunResult` under the SHA-256 of a
canonical JSON encoding of those inputs, so results survive process
boundaries: a warm cache replays a whole figure sweep without a single
simulation.

Layout (two-level fan-out keeps directories small)::

    <cache_dir>/runs/<key[:2]>/<key>.json

Invalidation is entirely key-driven — change any input (including
``GENERATOR_VERSION`` or the cache schema) and the key changes, so stale
entries are simply never read again.  Integrity is digest-driven: every
entry records the SHA-256 of its canonical payload, so a bit-flipped or
truncated file is *detected* (not just unparseable) on load.  Corrupt
entries are quarantined — moved into ``<cache_dir>/quarantine/`` with a
structured ``cache.corrupt`` obs event — and counted as misses, so a
damaged entry costs exactly one re-simulation and leaves forensic
evidence, never a silent wrong-value hit or a re-miss loop on the same
bad file.  Schema-mismatched entries are ordinary misses (stale, not
corrupt).  The cache directory defaults to ``~/.cache/repro`` and is
overridden by the ``REPRO_CACHE_DIR`` environment variable.

:class:`ConversionCache` applies the same keying to on-disk suite
conversions (``repro-convert --suite``): a ``conversions`` entry under
the suite's output directory records the conversion's stats and the
output trace's digest, so a re-run skips conversions whose inputs and
output file are both intact.

The storage mechanics (envelope layout, digest verification, quarantine,
atomic writes) live in :mod:`repro.service.store` — the one persistence
primitive — and both caches here are thin views over its blob kinds, so
``repro-serve`` and the one-shot CLIs share entries byte-for-byte.  The
keying functions stay here: they are experiment-domain knowledge, not
storage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.champsim.branch_info import BranchRules, BranchType
from repro.core.convert import ConversionStats
from repro.core.improvements import Improvement
from repro.obs.instruments import CacheCounters, InstrumentedCache
from repro.service.store import BlobKind, BlobStore, StaleEntry, file_digest
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.synth.generator import GENERATOR_VERSION

__all__ = [
    "CACHE_SCHEMA",
    "ConversionCache",
    "ResultCache",
    "config_fingerprint",
    "conversion_key",
    "run_key",
    "run_result_from_dict",
    "run_result_to_dict",
]

#: Bump on any change to the serialised payload layout; old entries
#: become unreadable (treated as misses) rather than misdecoded.
#: 2: entries carry a ``digest`` field (SHA-256 of the canonical result
#: payload) verified on load.
#: 3: ``ConversionStats`` carries ``load_base_update_splits``.
CACHE_SCHEMA = 3

#: SimStats/ConversionStats dict fields keyed by BranchType.
_BRANCH_KEYED_FIELDS = frozenset(
    {"target_misses_by_type", "branches_by_type", "branch_counts"}
)


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------


def _stats_to_dict(stats: Any) -> Dict[str, Any]:
    """Serialise a stats dataclass, stringifying BranchType dict keys."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name in _BRANCH_KEYED_FIELDS:
            value = {key.value: count for key, count in value.items()}
        out[f.name] = value
    return out


def _stats_from_dict(cls: type, payload: Dict[str, Any]) -> Any:
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        value = payload[f.name]
        if f.name in _BRANCH_KEYED_FIELDS:
            value = {BranchType(key): count for key, count in value.items()}
        kwargs[f.name] = value
    return cls(**kwargs)


def sim_stats_to_dict(stats: SimStats) -> Dict[str, Any]:
    """JSON-safe dict for one :class:`SimStats`."""
    return _stats_to_dict(stats)


def sim_stats_from_dict(payload: Dict[str, Any]) -> SimStats:
    return _stats_from_dict(SimStats, payload)


def conversion_stats_to_dict(stats: ConversionStats) -> Dict[str, Any]:
    """JSON-safe dict for one :class:`ConversionStats`."""
    return _stats_to_dict(stats)


def conversion_stats_from_dict(payload: Dict[str, Any]) -> ConversionStats:
    return _stats_from_dict(ConversionStats, payload)


def run_result_to_dict(result: "RunResult") -> Dict[str, Any]:  # noqa: F821
    """JSON-safe dict for one :class:`RunResult`."""
    return {
        "trace": result.trace,
        "improvements": result.improvements.value,
        "config_name": result.config_name,
        "stats": sim_stats_to_dict(result.stats),
        "conversion": conversion_stats_to_dict(result.conversion),
    }


def run_result_from_dict(payload: Dict[str, Any]) -> "RunResult":  # noqa: F821
    from repro.experiments.runner import RunResult

    return RunResult(
        trace=payload["trace"],
        improvements=Improvement(payload["improvements"]),
        config_name=payload["config_name"],
        stats=sim_stats_from_dict(payload["stats"]),
        conversion=conversion_stats_from_dict(payload["conversion"]),
    )


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------


def config_fingerprint(config: SimConfig) -> Dict[str, Any]:
    """Every field of ``config`` as JSON-safe values (tuples -> lists)."""
    return dataclasses.asdict(config)


def run_key(
    trace: str,
    improvements: Improvement,
    config: SimConfig,
    instructions: int,
) -> str:
    """Content hash identifying one (trace, improvements, config) run.

    The key folds in the generator version and the cache schema, so any
    semantic change to trace synthesis or to the payload layout
    invalidates old entries without explicit cleanup.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "generator": GENERATOR_VERSION,
        "trace": trace,
        "instructions": instructions,
        "improvements": improvements.value,
        "config": config_fingerprint(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def conversion_key(
    name: str,
    generator: str,
    instructions: int,
    improvements: Improvement,
) -> str:
    """Content hash identifying one on-disk suite conversion."""
    payload = {
        "schema": CACHE_SCHEMA,
        "generator_version": GENERATOR_VERSION,
        "name": name,
        "generator": generator,
        "instructions": instructions,
        "improvements": improvements.value,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------

#: The RunResult blob family (layout and envelope unchanged from the
#: pre-store cache, so existing entries stay readable both ways).
RESULT_KIND = BlobKind(name="runs", schema=CACHE_SCHEMA, body_field="result")


class ResultCache(InstrumentedCache):
    """On-disk store of :class:`RunResult` payloads, with hit counters.

    A thin view over the service blob store
    (:class:`repro.service.store.BlobStore`): keying, schema stamping,
    digest verification, quarantine, and store-error absorption all live
    there; this class only binds the ``runs`` kind to the RunResult
    (de)serialisers.  It is also the sweep checkpoint: runs are stored
    as they finish, so an interrupted sweep re-run against the same root
    simulates only what was lost.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.counters = CacheCounters("result")
        self._blobs = BlobStore(root, RESULT_KIND, self.counters)

    @property
    def root(self) -> Path:
        return self._blobs.root

    def _path(self, key: str) -> Path:
        return self._blobs.path(key)

    def load(self, key: str) -> Optional["RunResult"]:  # noqa: F821
        """The cached result for ``key``, or None (counted as hit/miss).

        Absent and schema-mismatched entries are plain misses.  Corrupt
        entries — unparseable JSON, missing fields, or a payload that no
        longer matches its recorded digest — are quarantined (moved to
        ``<root>/quarantine/`` with a ``cache.corrupt`` event) and then
        counted as misses, so they cost one re-simulation and never
        surface as a wrong-value hit.
        """
        return self._blobs.load(key, run_result_from_dict)

    def store(self, key: str, result: "RunResult") -> None:  # noqa: F821
        self._blobs.store(key, run_result_to_dict(result))

    def describe(self) -> str:
        """Counter summary for CLI/CI reporting."""
        return self._blobs.describe()


#: The suite-conversion blob family, stored under the suite's output
#: directory (``<output_dir>/conversions/``).
CONVERSION_KIND = BlobKind(
    name="conversions", schema=CACHE_SCHEMA, body_field="conversion"
)


class ConversionCache(InstrumentedCache):
    """Reuse of on-disk suite conversions, keyed by :func:`conversion_key`.

    A view over ``BlobStore(output_dir, CONVERSION_KIND)``: each entry
    holds the conversion's branch rules and stats plus the digest of the
    output trace.  Source and destination paths are derived from
    ``output_dir`` and the trace name (never read back from the entry),
    and a hit requires the output file to still match its digest — a
    missing or replaced output is a plain miss (stale, reconvert), while
    a damaged entry is quarantined like any other blob.
    """

    def __init__(self, output_dir: Union[str, Path]) -> None:
        self.output_dir = Path(output_dir)
        self.counters = CacheCounters("conversion")
        self._blobs = BlobStore(self.output_dir, CONVERSION_KIND, self.counters)

    def load(self, name: str, key: str) -> Optional["ConversionResult"]:  # noqa: F821
        """The reusable conversion of trace ``name``, or None."""
        from repro.core.pipeline import ConversionResult, suite_paths

        source, destination = suite_paths(self.output_dir, name)

        def decode(body: Dict[str, Any]) -> ConversionResult:
            try:
                digest = file_digest(destination)
            except OSError as exc:
                raise StaleEntry(f"output trace unreadable: {exc}") from exc
            if digest != body["output_digest"]:
                raise StaleEntry(f"output trace {destination} changed")
            return ConversionResult(
                source=source,
                destination=destination,
                improvements=Improvement(body["improvements"]),
                branch_rules=BranchRules(body["branch_rules"]),
                stats=conversion_stats_from_dict(body["stats"]),
            )

        return self._blobs.load(key, decode)

    def store(self, name: str, key: str, result: "ConversionResult") -> None:  # noqa: F821
        self._blobs.store(
            key,
            {
                "improvements": result.improvements.value,
                "branch_rules": result.branch_rules.value,
                "stats": conversion_stats_to_dict(result.stats),
                "output_digest": file_digest(result.destination),
            },
        )

    def describe(self) -> str:
        return self._blobs.describe()
