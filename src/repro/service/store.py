"""Content-addressed artifact store — the one persistence primitive.

One blob API for everything the pipeline persists: experiment runs
(:class:`~repro.experiments.cache.ResultCache`), lint and check reports
(:class:`~repro.analysis.cache.LintCache`,
:class:`~repro.checks.cache.CheckCache`), suite conversions
(:class:`~repro.experiments.cache.ConversionCache`) and rendered
figure/table artifacts.  The contract lives here once and the caches are
thin views over it:

- **keyed**: every artifact lives under the SHA-256 of a canonical JSON
  encoding of its inputs (the caller computes the key; the store never
  interprets it);
- **schema-stamped**: every envelope records its kind's schema version,
  and a mismatch on load is a plain miss (stale, not corrupt) so layout
  changes never misdecode old bytes;
- **digest-verified**: every envelope records the SHA-256 of its
  canonical body, recomputed on load, so a bit-flip or truncation
  anywhere in the payload — even one that still parses as valid JSON —
  is *detected* instead of served as a wrong-value hit;
- **quarantining**: damaged entries are moved to ``<root>/quarantine/``
  with a structured ``cache.corrupt`` obs event and counted as misses,
  so a corrupt blob costs exactly one recomputation and leaves forensic
  evidence, never a re-parse loop or a silent wrong answer.

Layout (two-level fan-out keeps directories small)::

    <root>/<kind>/<key[:2]>/<key>.json     # runs/, lint/, checks/, artifacts/
    <root>/quarantine/                     # damaged entries, preserved

(suite conversions use the same layout, ``conversions/`` under the
suite's output directory).  The result store doubles as the sweep
checkpoint: every finished run is stored as it lands, so re-running an
interrupted sweep against the same root simulates only what was lost.

The root defaults to ``~/.cache/repro`` and is overridden by the
``REPRO_CACHE_DIR`` environment variable, so the service and the one-shot
CLIs share artifacts byte-for-byte.

This module sits *below* :mod:`repro.experiments` in the import graph —
it must not import anything from the experiment or analysis packages
(they import it at startup).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro import faults
from repro.obs.instruments import CacheCounters

#: Envelope schema for rendered figure/table artifacts.  Bump on any
#: change to the artifact payload layout; old entries become plain
#: misses rather than misdecoded text.
ARTIFACT_SCHEMA = 1


def default_store_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------------
# shared primitives
# ----------------------------------------------------------------------


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (the on-disk, possibly compressed form)."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def payload_digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Stored alongside every envelope and recomputed on load, so damage
    anywhere in the payload — even a bit-flip that still parses as valid
    JSON — is detected instead of served as a wrong-value hit.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _emit_cache_corrupt(
    cache: str, key: str, path: Path, moved: str, reason: str
) -> None:
    """Structured ``cache.corrupt`` event (no-op when obs is off)."""
    from repro import obs

    if not obs.enabled():
        return
    obs.emit_event(
        "cache.corrupt",
        {
            "cache": cache,
            "key": key,
            "path": str(path),
            "quarantined_to": moved,
            "reason": reason,
        },
    )


def describe_counters(counters: CacheCounters, root: Union[str, Path]) -> str:
    """The one-line counter summary every cache/store reports:
    ``hits=H misses=M stores=S [store_errors=E] [quarantined=Q] dir=<root>``,
    the bracketed segments only when non-zero."""
    out = f"{counters.describe_hit_miss()} stores={counters.stores}"
    if counters.store_errors:
        out += f" store_errors={counters.store_errors}"
    if counters.quarantined:
        out += f" quarantined={counters.quarantined}"
    return f"{out} dir={root}"


# ----------------------------------------------------------------------
# blob store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlobKind:
    """One artifact family's on-disk identity.

    Args:
        name: Subdirectory under the store root (``runs``, ``lint``,
            ``artifacts``).
        schema: Envelope schema stamp; a stored envelope whose stamp
            differs is a plain miss.
        body_field: Envelope field holding the payload (kept per-kind —
            ``result``/``report``/``artifact`` — so the pre-store cache
            files remain byte-identical and readable both ways).
    """

    name: str
    schema: int
    body_field: str


#: Rendered figure/table text keyed by the query fingerprint.
ARTIFACT_KIND = BlobKind(
    name="artifacts", schema=ARTIFACT_SCHEMA, body_field="artifact"
)


class StaleEntry(Exception):
    """Raised by a ``decode`` hook when an intact entry no longer applies.

    The envelope is undamaged (its digest matched) but something it
    describes outside the store has changed — say, the output file a
    conversion entry vouches for.  :meth:`BlobStore.load` treats it like
    a schema mismatch: a plain miss, no quarantine.
    """


class BlobStore:
    """Keyed, schema-stamped, digest-verified blobs of one kind.

    Counter note: failed writes (unwritable/full store dir) are counted
    as ``store_errors``, never raised — the store is an optimisation
    layer and its callers must survive a broken directory.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]],
        kind: BlobKind,
        counters: Optional[CacheCounters] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.kind = kind
        self.counters = (
            counters if counters is not None else CacheCounters(kind.name)
        )

    def path(self, key: str) -> Path:
        return self.root / self.kind.name / key[:2] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def load(
        self,
        key: str,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Optional[Any]:
        """The stored body for ``key``, or None (counted as hit/miss).

        Absent and schema-mismatched envelopes are plain misses, as is
        a body ``decode`` reports stale (:class:`StaleEntry`).
        Corrupt envelopes — unparseable JSON, invalid UTF-8, missing
        fields, a digest that no longer matches the body, or a body
        ``decode`` rejects — are quarantined (moved to
        ``<root>/quarantine/`` with a ``cache.corrupt`` event) and then
        counted as misses, so they cost one recomputation and never
        surface as a wrong-value hit.
        """
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            # Absent (or unreadable) entry: the ordinary cold miss.
            self.counters.miss()
            return None
        try:
            # Decode inside the corruption guard: a flipped high byte
            # makes the entry invalid UTF-8, which is damage, not a
            # cold store (UnicodeDecodeError is a ValueError).
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            if payload.get("schema") != self.kind.schema:
                # Stale schema, not damage: a plain miss, no quarantine.
                raise StaleEntry("schema mismatch")
            body = payload[self.kind.body_field]
            if payload.get("digest") != payload_digest(body):
                raise ValueError("payload digest mismatch")
            value = body if decode is None else decode(body)
        except StaleEntry:
            self.counters.miss()
            return None
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, key, f"{type(exc).__name__}: {exc}")
            self.counters.miss()
            return None
        self.counters.hit()
        return value

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a corrupt entry aside; record what happened and why.

        Quarantining (instead of deleting or leaving in place) serves
        two needs at once: the bad bytes are preserved for diagnosis,
        and the next lookup of the key is a clean miss-then-store rather
        than a re-parse of the same damaged file on every run.  The move
        itself is best-effort — a store on failing storage must still
        degrade to a miss, never an exception.
        """
        cache = self.counters.cache
        try:
            quarantine_dir = self.quarantine_dir()
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = quarantine_dir / path.name
            os.replace(path, destination)
            _emit_cache_corrupt(cache, key, path, str(destination), reason)
        except OSError as exc:
            _emit_cache_corrupt(
                cache, key, path, "", f"{reason}; quarantine move failed: {exc}"
            )
        self.counters.quarantine()

    def store(self, key: str, body: Any) -> None:
        """Persist ``body`` (a JSON-safe payload) under ``key``.

        The write goes through a same-directory temp file and a rename:
        concurrent writers (pool workers, fleet shards, parallel CI
        jobs) race benignly, since both write the same content-addressed
        payload and the last rename wins.
        """
        payload = {
            "schema": self.kind.schema,
            "digest": payload_digest(body),
            self.kind.body_field: body,
        }
        path = self.path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            self.counters.store_error()
            return
        self.counters.store()
        faults.store_fault(path)

    def describe(self) -> str:
        """Counter summary for CLI/CI reporting."""
        return describe_counters(self.counters, self.root)


# ----------------------------------------------------------------------
# the unified store
# ----------------------------------------------------------------------


def artifact_key(kind: str, fingerprint: Dict[str, Any]) -> str:
    """Content hash identifying one rendered artifact.

    ``fingerprint`` must carry everything that can change the rendered
    text (the sweep parameters fold in the result-cache schema and the
    generator version); the artifact schema is folded in here so bumping
    it invalidates old renders without explicit cleanup.
    """
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "kind": kind,
        "fingerprint": fingerprint,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Every artifact kind under one root: the service's storage façade.

    One instance owns the result runs and the rendered figure/table
    artifacts of a store directory (the service never lints, so it
    opens no lint-report view).  The per-kind views
    are the *same classes* the one-shot CLIs use, over the same root —
    so a sweep simulated by ``repro-experiment`` is a warm hit for
    ``repro-serve`` and vice versa.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self._artifacts: Optional[BlobStore] = None

    def result_cache(self) -> Any:
        """A :class:`~repro.experiments.cache.ResultCache` on this root."""
        from repro.experiments.cache import ResultCache

        return ResultCache(self.root)

    def artifacts(self) -> BlobStore:
        """The rendered figure/table blob store (one shared instance)."""
        if self._artifacts is None:
            self._artifacts = BlobStore(self.root, ARTIFACT_KIND)
        return self._artifacts

    def describe(self) -> str:
        return f"artifacts {self.artifacts().describe()}"
