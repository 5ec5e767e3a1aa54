"""Shared fixtures for the per-figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper on a
sampled suite (every ninth public trace, every seventh IPC-1 trace, short
synthetic traces) so the whole harness completes in minutes.  Scale up
with the ``repro-experiment`` CLI (``--stride 1 --instructions 12000``)
to run the full 135/50-trace suites.

The :class:`~repro.experiments.runner.ExperimentRunner` is session-scoped
and memoises runs, so later benchmarks reuse the runs of earlier ones — each benchmark's time reflects the *incremental*
work its experiment adds.

Opt-in persistent cache: set ``REPRO_BENCH_CACHE=1`` (cache under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) or ``REPRO_BENCH_CACHE=<dir>``
to back the runner with an on-disk
:class:`~repro.experiments.cache.ResultCache`; a second benchmark session
then replays every sweep from disk.  Warm-cache timings measure the
harness, not the simulator — leave the variable unset to benchmark real
simulation work.
"""

import os

import pytest

from repro.experiments.runner import ExperimentRunner

#: Benchmark-scale sampling parameters.
INSTRUCTIONS = 6000
STRIDE = 9


def _bench_cache():
    """The opt-in shared ResultCache (None unless REPRO_BENCH_CACHE set)."""
    setting = os.environ.get("REPRO_BENCH_CACHE", "")
    if not setting:
        return None
    from repro.experiments.cache import ResultCache

    return ResultCache(None if setting == "1" else setting)


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(
        instructions=INSTRUCTIONS, stride=STRIDE, cache=_bench_cache()
    )


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
