"""Pinned key-coverage manifests checked by the RC2xx rules.

``SIM_CONFIG_KEY_FIELDS`` records every :class:`~repro.sim.config.SimConfig`
field that has been *verified to reach the run-cache key* (via
:func:`repro.experiments.cache.config_fingerprint`, which serialises the
whole dataclass).  RC202 cross-checks the live dataclass against this
tuple in both directions:

- a SimConfig field missing here fails the build — adding a config knob
  forces the author to confirm, at commit time, that the knob reaches
  the cache key (and the engines; see RC402) before acknowledging it;
- a name listed here that no longer exists on SimConfig fails the
  build — the manifest can never go stale silently.

This is the commit-time tripwire for the PR 1 bug class: a config field
that influences results but not cache identity aliases distinct runs to
one cache entry.
"""

from __future__ import annotations

from typing import Tuple

#: Every SimConfig field acknowledged as cache-key-covered.  Append new
#: fields ONLY after verifying they reach
#: ``repro.experiments.cache.run_key`` (RC201 checks the derivation
#: itself stays full-coverage).
SIM_CONFIG_KEY_FIELDS: Tuple[str, ...] = (
    "name",
    "fetch_width",
    "dispatch_width",
    "exec_width",
    "retire_width",
    "rob_size",
    "prf_size",
    "frontend_depth",
    "mispredict_restart",
    "taken_bubble",
    "btb_miss_penalty",
    "direction_predictor",
    "btb_entries",
    "btb_ways",
    "ras_size",
    "indirect_predictor",
    "ideal_targets",
    "decoupled_frontend",
    "fdip_lookahead",
    "l1i",
    "l1d",
    "l2",
    "llc",
    "dram_latency",
    "l1d_prefetcher",
    "l2_prefetcher",
    "l1i_prefetcher",
    "alu_latency",
    "branch_latency",
    "warmup_fraction",
)
