"""Property tests for the on-disk result cache and its content keys.

The cache is only safe if its key is a *faithful fingerprint* of the run
inputs: stable across processes and argument orderings, and distinct for
every input that can change the result — each ``Improvement`` flag
combination, every ``SimConfig`` field, the instruction budget, and the
trace name.  Round-trips through the JSON payload must be lossless, and
corrupt or stale entries must read as misses, never as wrong data.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.improvements import Improvement
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    conversion_key,
    run_key,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.experiments.runner import ExperimentRunner
from repro.sim.config import SimConfig

_FLAGS = [
    Improvement.MEM_REGS,
    Improvement.BASE_UPDATE,
    Improvement.MEM_FOOTPRINT,
    Improvement.CALL_STACK,
    Improvement.BRANCH_REGS,
    Improvement.FLAG_REG,
]


def _all_combinations():
    out = []
    for r in range(len(_FLAGS) + 1):
        for combo in itertools.combinations(_FLAGS, r):
            flags = Improvement.NONE
            for flag in combo:
                flags |= flag
            out.append(flags)
    return out


@pytest.fixture(scope="module")
def sample_result():
    runner = ExperimentRunner(instructions=1200)
    return runner.run("srv_3", Improvement.ALL)


# ----------------------------------------------------------------------
# key properties
# ----------------------------------------------------------------------


def test_run_key_is_deterministic():
    config = SimConfig.main()
    assert run_key("srv_0", Improvement.ALL, config, 2000) == run_key(
        "srv_0", Improvement.ALL, config, 2000
    )


def test_run_key_stable_across_processes():
    """The key must not depend on hash randomisation or process state."""
    snippet = (
        "from repro.experiments.cache import run_key;"
        "from repro.core.improvements import Improvement;"
        "from repro.sim.config import SimConfig;"
        "print(run_key('srv_0', Improvement.ALL, SimConfig.ipc1('jip'), 2000))"
    )
    keys = set()
    for hashseed in ("0", "1", "random"):
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            check=True,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
            },
        )
        keys.add(out.stdout.strip())
    assert len(keys) == 1


def test_run_key_distinct_for_every_improvement_combination():
    config = SimConfig.main()
    combos = _all_combinations()
    assert len(combos) == 64
    keys = {run_key("srv_0", flags, config, 2000) for flags in combos}
    assert len(keys) == len(combos)


def test_run_key_distinct_for_every_config_field():
    """Perturbing any single SimConfig field must change the key."""
    base = SimConfig.main()
    base_key = run_key("srv_0", Improvement.NONE, base, 2000)
    for field in dataclasses.fields(SimConfig):
        value = getattr(base, field.name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, int):
            changed = value + 1
        elif isinstance(value, float):
            changed = value + 0.25
        elif isinstance(value, str):
            changed = value + "-x"
        elif isinstance(value, tuple):
            changed = (value[0] * 2,) + tuple(value[1:])
        else:  # pragma: no cover - SimConfig only uses the types above
            pytest.fail(f"unhandled field type for {field.name}")
        variant = dataclasses.replace(base, **{field.name: changed})
        assert (
            run_key("srv_0", Improvement.NONE, variant, 2000) != base_key
        ), f"key ignores SimConfig.{field.name}"


def test_run_key_distinct_for_trace_and_instructions():
    config = SimConfig.main()
    base = run_key("srv_0", Improvement.NONE, config, 2000)
    assert run_key("srv_1", Improvement.NONE, config, 2000) != base
    assert run_key("srv_0", Improvement.NONE, config, 2001) != base


def test_conversion_key_distinct_inputs():
    base = conversion_key("client_001", "secret_int_294", 500, Improvement.ALL)
    assert conversion_key("client_002", "secret_int_294", 500, Improvement.ALL) != base
    assert conversion_key("client_001", "secret_int_295", 500, Improvement.ALL) != base
    assert conversion_key("client_001", "secret_int_294", 501, Improvement.ALL) != base
    assert (
        conversion_key("client_001", "secret_int_294", 500, Improvement.NONE) != base
    )


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------


def test_run_result_round_trips_losslessly(sample_result):
    payload = run_result_to_dict(sample_result)
    # The payload must actually survive JSON, not just dict copying.
    restored = run_result_from_dict(json.loads(json.dumps(payload)))
    assert restored == sample_result
    assert restored.stats == sample_result.stats
    assert restored.conversion == sample_result.conversion
    # Enum-keyed dicts come back with real BranchType keys.
    assert restored.stats.branches_by_type == sample_result.stats.branches_by_type


def test_cache_store_load_round_trip(sample_result, tmp_path):
    cache = ResultCache(tmp_path)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    assert cache.load(key) is None
    cache.store(key, sample_result)
    reloaded = ResultCache(tmp_path).load(key)
    assert reloaded == sample_result
    assert cache.stores == 1


# ----------------------------------------------------------------------
# corruption / staleness
# ----------------------------------------------------------------------


def test_corrupt_entry_is_ignored_and_rewritten(sample_result, tmp_path):
    cache = ResultCache(tmp_path)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text("{not json at all")
    assert cache.load(key) is None
    assert cache.misses == 1
    cache.store(key, sample_result)
    assert cache.load(key) == sample_result


def test_stale_schema_entry_is_a_miss(sample_result, tmp_path):
    cache = ResultCache(tmp_path)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    cache.store(key, sample_result)
    payload = json.loads(cache._path(key).read_text())
    payload["schema"] = CACHE_SCHEMA - 1
    cache._path(key).write_text(json.dumps(payload))
    assert cache.load(key) is None


def test_truncated_entry_is_a_miss(sample_result, tmp_path):
    cache = ResultCache(tmp_path)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    cache.store(key, sample_result)
    full = cache._path(key).read_text()
    cache._path(key).write_text(full[: len(full) // 2])
    assert cache.load(key) is None


def test_runner_ignores_corrupt_cache_and_recomputes(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(instructions=800, cache=cache)
    first = runner.run("crypto_1", Improvement.NONE)
    key = run_key("crypto_1", Improvement.NONE, SimConfig.main(), 800)
    cache._path(key).write_text("garbage")
    fresh = ExperimentRunner(instructions=800, cache=ResultCache(tmp_path))
    again = fresh.run("crypto_1", Improvement.NONE)
    assert again.stats == first.stats
    assert fresh.simulations == 1  # recomputed, not misdecoded


def test_unwritable_cache_dir_degrades_to_no_cache(sample_result, tmp_path):
    """A broken cache directory must not kill the sweep: stores are
    counted as errors and every lookup is a miss."""
    blocker = tmp_path / "file-not-dir"
    blocker.write_text("")
    cache = ResultCache(blocker)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    cache.store(key, sample_result)
    assert cache.store_errors == 1
    assert cache.stores == 0
    assert cache.load(key) is None
    assert "store_errors=1" in cache.describe()

    runner = ExperimentRunner(instructions=800, cache=cache)
    result = runner.run("crypto_1", Improvement.NONE)
    assert result.stats.instructions > 0
    assert runner.simulations == 1


def _stored_cache(sample_result, root):
    cache = ResultCache(root)
    key = run_key("srv_3", Improvement.ALL, SimConfig.main(), 1200)
    cache.store(key, sample_result)
    return cache, key


def test_bit_flip_quarantines_and_misses(sample_result, tmp_path):
    """A flipped byte must read as a miss and move the entry aside."""
    cache, key = _stored_cache(sample_result, tmp_path)
    path = cache._path(key)
    raw = bytearray(path.read_bytes())
    mid = len(raw) // 2
    raw[mid] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert cache.load(key) is None
    assert cache.quarantined == 1
    assert not path.exists()  # moved, not left to poison the next run
    moved = list((tmp_path / "quarantine").iterdir())
    assert len(moved) == 1
    assert "quarantined=1" in cache.describe()
    # The slot is reusable immediately.
    cache.store(key, sample_result)
    assert cache.load(key) == sample_result


def test_truncation_quarantines_and_misses(sample_result, tmp_path):
    cache, key = _stored_cache(sample_result, tmp_path)
    path = cache._path(key)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert cache.load(key) is None
    assert cache.quarantined == 1
    assert not path.exists()


def test_any_single_byte_flip_never_returns_wrong_value(
    sample_result, tmp_path
):
    """Property: a one-byte flip anywhere yields a miss or the true
    value — never an exception, never a silently different result."""
    cache, key = _stored_cache(sample_result, tmp_path)
    path = cache._path(key)
    pristine = path.read_bytes()
    step = max(1, len(pristine) // 64)
    for offset in range(0, len(pristine), step):
        damaged = bytearray(pristine)
        damaged[offset] ^= 0x01
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(damaged))
        loaded = ResultCache(tmp_path).load(key)
        assert loaded is None or loaded == sample_result, (
            f"byte flip at offset {offset} misdecoded"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pristine)
    assert ResultCache(tmp_path).load(key) == sample_result


def test_any_truncation_point_never_returns_wrong_value(
    sample_result, tmp_path
):
    cache, key = _stored_cache(sample_result, tmp_path)
    path = cache._path(key)
    pristine = path.read_bytes()
    step = max(1, len(pristine) // 32)
    for cut in range(0, len(pristine), step):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pristine[:cut])
        loaded = ResultCache(tmp_path).load(key)
        assert loaded is None, f"truncation at byte {cut} misdecoded"


def test_stale_schema_is_a_plain_miss_not_quarantine(
    sample_result, tmp_path
):
    """Old-schema entries are stale, not corrupt: no quarantine noise."""
    cache, key = _stored_cache(sample_result, tmp_path)
    payload = json.loads(cache._path(key).read_text())
    payload["schema"] = CACHE_SCHEMA - 1
    cache._path(key).write_text(json.dumps(payload))
    assert cache.load(key) is None
    assert cache.quarantined == 0
    assert not (tmp_path / "quarantine").exists()


def test_digest_mismatch_quarantines(sample_result, tmp_path):
    """Valid JSON with a tampered result payload must not be trusted."""
    cache, key = _stored_cache(sample_result, tmp_path)
    payload = json.loads(cache._path(key).read_text())
    payload["result"]["stats"]["instructions"] += 1
    cache._path(key).write_text(json.dumps(payload))
    assert cache.load(key) is None
    assert cache.quarantined == 1


def test_injected_store_corruption_recovers(sample_result, tmp_path):
    """cache.corrupt fault on the store path: next load quarantines."""
    from repro import faults
    from repro.faults import FaultPlan

    faults.install(FaultPlan.parse("cache.corrupt:count=1"))
    try:
        cache, key = _stored_cache(sample_result, tmp_path)
    finally:
        faults.install(None)
    assert cache.load(key) is None  # damaged at store time
    assert cache.quarantined == 1
    cache.store(key, sample_result)
    assert cache.load(key) == sample_result


def test_env_override_controls_default_dir(monkeypatch, tmp_path):
    from repro.service.store import default_store_root

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_store_root() == tmp_path / "override"
    assert ResultCache().root == tmp_path / "override"
