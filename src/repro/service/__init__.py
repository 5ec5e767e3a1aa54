"""repro.service — the experiment serving tier.

The one-shot CLI pipeline (convert, simulate, cache, report) promoted
into a long-running service: every paper figure/table/ablation becomes a
cacheable query.  Four layers, bottom to top:

- :mod:`repro.service.store` — a content-addressed artifact store
  unifying the result, lint, check and conversion caches (plus rendered
  figure/table artifacts) behind one keyed, schema-stamped,
  digest-verified blob API with quarantine semantics;
- :mod:`repro.service.queue` + :mod:`repro.service.fleet` — an async
  job queue with in-flight dedup feeding the fleet, which runs each
  sweep exactly as ``repro-experiment`` does (one
  :class:`~repro.experiments.runner.ExperimentRunner` over the store,
  its batches through the hardened
  :func:`repro.experiments.parallel.run_tasks` supervisor);
- :mod:`repro.service.http` — a stdlib-only HTTP API
  (``POST /v1/sweeps``, ``GET /v1/jobs/<id>``,
  ``GET /v1/figures/<name>``, ``GET /v1/tables/<name>``,
  ``GET /metrics``) serving results from the store;
- :mod:`repro.service.cli` (``repro-serve``) and
  :mod:`repro.service.client` — the server entry point and the client
  helpers ``repro-experiment --server`` rides on.

This package intentionally has no module-level imports here: the store
layer is imported by :mod:`repro.experiments.cache` at interpreter
startup, and pulling the HTTP/fleet layers (which import the experiment
package) back in at that point would cycle.
"""
