"""The repro-bench harness: timing, reports, comparison, CLI."""

import json

import pytest

from repro.bench.harness import (
    SCHEMA_VERSION,
    base_payload,
    compare_payloads,
    load_report,
    min_of_k,
    peak_rss_kib,
    rate,
    report_path,
    write_report,
)


def test_min_of_k_runs_work_k_times():
    calls = []
    seconds = min_of_k(lambda: calls.append(1), 4)
    assert len(calls) == 4
    assert seconds >= 0.0


def test_min_of_k_rejects_nonpositive_repeats():
    with pytest.raises(ValueError):
        min_of_k(lambda: None, 0)


def test_rate_guards_zero_seconds():
    assert rate(100, 0.5) == 200.0
    assert rate(100, 0.0) == 0.0


def test_peak_rss_is_positive():
    assert peak_rss_kib() > 0


def test_base_payload_envelope():
    payload = base_payload("convert", quick=True, repeats=3)
    assert payload["phase"] == "convert"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["quick"] is True
    assert payload["repeats"] == 3
    assert payload["workloads"] == {}
    assert "python" in payload and "platform" in payload


def test_report_round_trip(tmp_path):
    payload = base_payload("sim", quick=False, repeats=5)
    payload["workloads"]["w"] = {
        "cold": {"seconds": 1.0, "records": 10, "records_per_sec": 10.0}
    }
    path = write_report(tmp_path, payload)
    assert path == report_path(tmp_path, "sim")
    assert path.name == "BENCH_sim.json"
    loaded = load_report(path)
    assert loaded["phase"] == "sim"
    assert loaded["workloads"] == payload["workloads"]
    assert loaded["peak_rss_kib"] > 0


def test_load_report_rejects_non_reports(tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"not": "a report"}))
    with pytest.raises(ValueError):
        load_report(bogus)


def _payload_with_rate(records_per_sec):
    payload = base_payload("convert", quick=False, repeats=5)
    payload["workloads"]["suite"] = {
        "fast": {
            "seconds": 1.0,
            "records": 1000,
            "records_per_sec": records_per_sec,
        }
    }
    return payload


def test_compare_payloads_flags_only_real_regressions():
    old = _payload_with_rate(1000.0)
    # 1.5x slower: inside the 2x budget.
    assert compare_payloads(old, _payload_with_rate(666.0)) == []
    # 4x slower: regression.
    found = compare_payloads(old, _payload_with_rate(250.0))
    assert len(found) == 1
    assert "suite" in found[0] and "fast" in found[0]
    # Faster is never a regression.
    assert compare_payloads(old, _payload_with_rate(9000.0)) == []


def test_compare_payloads_ignores_unmatched_workloads():
    old = _payload_with_rate(1000.0)
    new = base_payload("convert", quick=False, repeats=5)
    new["workloads"]["other"] = {
        "fast": {"seconds": 9.0, "records": 9, "records_per_sec": 1.0}
    }
    assert compare_payloads(old, new) == []


def test_compare_payloads_validates_threshold():
    old = _payload_with_rate(1000.0)
    with pytest.raises(ValueError):
        compare_payloads(old, old, threshold=1.0)


# --------------------------------------------------------------------------
# CLI (quick mode over the real golden fixtures, 1 repeat)


def test_cli_quick_convert_writes_report(tmp_path, capsys):
    from repro.bench.cli import main

    code = main(
        [
            "convert",
            "--quick",
            "--repeat",
            "1",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = load_report(tmp_path / "BENCH_convert.json")
    assert report["quick"] is True
    suite = report["workloads"]["golden_suite"]
    assert suite["fast"]["records_per_sec"] > 0
    assert suite["baseline"]["records_per_sec"] > 0
    assert suite["speedup"] > 0
    # Per fixture, each Table 1 improvement is costed on the fast path.
    fixtures = [name for name in report["workloads"] if name != "golden_suite"]
    assert fixtures
    for name in fixtures:
        costs = report["workloads"][name]["improvement_cost_s"]
        assert set(costs) == {
            "mem-regs", "base-update", "mem-footprint",
            "call-stack", "branch-regs", "flag-regs",
        }
        assert all(isinstance(value, float) for value in costs.values())
    out = capsys.readouterr().out
    assert "[convert] golden_suite:" in out


def test_cli_quick_sim_reports_engine_variants(tmp_path, capsys):
    from repro.bench.cli import main

    code = main(
        ["sim", "--quick", "--repeat", "1", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    report = load_report(tmp_path / "BENCH_sim.json")
    (workload,) = report["workloads"].values()
    for variant in ("cold", "warm", "vector_cold", "vector_warm"):
        assert workload[variant]["records_per_sec"] > 0
    assert workload["engine_speedup"] > 0
    assert workload["engine_speedup_cold"] > 0
    out = capsys.readouterr().out
    assert "vector_warm" in out and "engine_speedup" in out


def test_cli_quick_synth_splits_build_and_walk(tmp_path, capsys):
    from repro.bench.cli import main
    from repro.bench.phases import QUICK_SYNTH_RECORDS, SYNTH_TRACES

    code = main(
        ["synth", "--quick", "--repeat", "1", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    report = load_report(tmp_path / "BENCH_synth.json")
    assert report["walk_records"] == QUICK_SYNTH_RECORDS
    assert sorted(report["workloads"]) == sorted(SYNTH_TRACES)
    assert "srv_40" in SYNTH_TRACES  # --quick keeps the large program
    for workload in report["workloads"].values():
        build, walk = workload["build_program"], workload["walk"]
        assert build["seconds"] > 0 and build["records_per_sec"] > 0
        assert walk["records"] == QUICK_SYNTH_RECORDS
        assert walk["records_per_sec"] > 0
        assert workload["tracemalloc_peak_mib"] > 0
    # The server program dwarfs the compute one in templates and memory.
    srv = report["workloads"]["srv_40"]
    small = next(w for n, w in report["workloads"].items() if n != "srv_40")
    assert srv["build_program"]["records"] > 10 * small["build_program"]["records"]
    assert srv["tracemalloc_peak_mib"] > small["tracemalloc_peak_mib"]
    out = capsys.readouterr().out
    assert "[synth] srv_40:" in out and "tracemalloc_peak_mib" in out


def test_cli_compare_detects_regression(tmp_path):
    from repro.bench.cli import main

    # Baseline that no machine can reach: 1e12 rec/s everywhere.
    first_dir = tmp_path / "fresh"
    first_dir.mkdir()
    assert (
        main(
            [
                "lint",
                "--quick",
                "--repeat",
                "1",
                "--output-dir",
                str(first_dir),
            ]
        )
        == 0
    )
    baseline = load_report(first_dir / "BENCH_lint.json")
    for workload in baseline["workloads"].values():
        for entry in workload.values():
            if isinstance(entry, dict) and "records_per_sec" in entry:
                entry["records_per_sec"] = 1e12
    baseline_dir = tmp_path / "baseline"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_lint.json").write_text(json.dumps(baseline))

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(
        [
            "lint",
            "--quick",
            "--repeat",
            "1",
            "--output-dir",
            str(out_dir),
            "--compare",
            str(baseline_dir),
        ]
    )
    assert code == 1


def test_cli_compare_passes_against_own_fresh_report(tmp_path):
    from repro.bench.cli import main

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert (
        main(
            [
                "lint",
                "--quick",
                "--repeat",
                "1",
                "--output-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    # Compare a second run against the first with a generous threshold.
    assert (
        main(
            [
                "lint",
                "--quick",
                "--repeat",
                "1",
                "--output-dir",
                str(out_dir),
                "--compare",
                str(out_dir),
                "--threshold",
                "1000",
            ]
        )
        == 0
    )


def test_cli_compare_unreadable_baseline_exits_2(tmp_path):
    from repro.bench.cli import main

    bad = tmp_path / "BENCH_lint.json"
    bad.write_text("{nope")
    code = main(
        [
            "lint",
            "--quick",
            "--repeat",
            "1",
            "--output-dir",
            str(tmp_path / "out"),
            "--compare",
            str(bad),
        ]
    )
    assert code == 2


def test_cli_rejects_unknown_phase():
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main(["frobnicate"])