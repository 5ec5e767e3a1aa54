"""Simulator facade and CLI tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import write_champsim_trace
from repro.core import Converter, Improvement, convert_trace
from repro.sim import SimConfig, Simulator, decode_trace, simulate
from repro.sim.cli import main as sim_main
from repro.sim.engine import Engine
from repro.synth import make_trace

from tests.diffharness import assert_stats_identical


@pytest.fixture(scope="module")
def converted(tmp_path_factory):
    records = make_trace("crypto_2", 2000)
    instrs = convert_trace(records, Improvement.ALL)
    path = tmp_path_factory.mktemp("sim") / "t.champsimtrace.gz"
    write_champsim_trace(instrs, path)
    return instrs, path


def test_simulator_accepts_instr_list(converted):
    instrs, _ = converted
    stats = Simulator(SimConfig.main()).run(instrs, BranchRules.PATCHED)
    assert stats.instructions == len(instrs)
    assert stats.ipc > 0


def test_simulator_rejects_decoded_list(converted):
    # Decoded rows are the scalar oracle's input form, not the simulator's.
    instrs, _ = converted
    decoded = decode_trace(instrs, BranchRules.PATCHED)
    with pytest.raises(TypeError, match="DecodedInstr"):
        Simulator(SimConfig.main()).run(decoded)


def test_simulator_accepts_path(converted):
    instrs, path = converted
    stats = Simulator(SimConfig.main()).run(path, BranchRules.PATCHED)
    assert stats.instructions == len(instrs)
    assert_stats_identical(
        stats,
        Simulator(SimConfig.main()).run(instrs, BranchRules.PATCHED),
        "path vs instruction list",
    )


def test_simulator_rereads_a_rewritten_trace_file(tmp_path):
    # Every run reads its input afresh: rewriting the file between two
    # runs of one simulator must give the new file's statistics.
    path = tmp_path / "t.champsimtrace"
    sim = Simulator(SimConfig.main())
    for name in ("compute_int_0", "srv_0"):
        converter = Converter(Improvement.ALL)
        write_champsim_trace(converter.convert(make_trace(name, 2000)), path)
        rules = converter.required_branch_rules
        assert_stats_identical(
            sim.run(path, rules),
            Simulator(SimConfig.main()).run(path, rules),
            name,
        )


def test_simulate_helper_defaults_to_main_config(converted):
    instrs, _ = converted
    stats = simulate(instrs, rules=BranchRules.PATCHED)
    assert stats.ipc > 0


def test_stats_summary_renders(converted):
    instrs, _ = converted
    stats = simulate(instrs, rules=BranchRules.PATCHED)
    text = stats.summary()
    assert "IPC" in text and "L1I MPKI" in text


def test_cli_main_config(converted, capsys):
    _, path = converted
    rc = sim_main([str(path), "--rules", "patched"])
    assert rc == 0
    assert "IPC" in capsys.readouterr().out


def test_cli_ipc1_with_prefetcher(converted, capsys):
    _, path = converted
    rc = sim_main(
        [str(path), "--config", "ipc1", "--l1i-prefetcher", "EPI", "--warmup", "0.25"]
    )
    assert rc == 0
    assert "IPC" in capsys.readouterr().out


def test_simulator_matches_scalar_oracle(converted):
    from tests.diffharness import assert_stats_identical

    instrs, _ = converted
    scalar = Engine(SimConfig.main()).run(instrs, BranchRules.PATCHED)
    vector = Simulator(SimConfig.main()).run(instrs, BranchRules.PATCHED)
    assert_stats_identical(vector, scalar, "Simulator vs scalar oracle")


def test_simulator_rejects_unknown_engine():
    # One way to compute a run: the simulator takes only its config.
    with pytest.raises(TypeError):
        Simulator(SimConfig.main(), engine="scalar")
    assert not hasattr(SimConfig.main(), "engine")


def test_cli_vector_engine_output_matches_scalar(converted, capsys):
    instrs, path = converted
    assert sim_main([str(path), "--rules", "patched"]) == 0
    vector_out = capsys.readouterr().out
    scalar = Engine(SimConfig.main()).run(instrs, BranchRules.PATCHED)
    assert "IPC" in vector_out
    assert vector_out == scalar.summary() + "\n"


@pytest.mark.parametrize("value", ["2", "1", "-1", "nan", "inf", "x"])
def test_cli_rejects_warmup_outside_unit_interval(converted, capsys, value):
    _, path = converted
    with pytest.raises(SystemExit) as excinfo:
        sim_main([str(path), f"--warmup={value}"])
    assert excinfo.value.code == 2
    assert "--warmup" in capsys.readouterr().err


def test_cli_reports_missing_trace_in_one_line(tmp_path, capsys):
    path = tmp_path / "missing.champsimtrace.gz"
    assert sim_main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"repro-sim: {path}: No such file or directory\n"


def test_cli_reports_truncated_trace_with_byte_offset(converted, tmp_path, capsys):
    instrs, _ = converted
    path = tmp_path / "cut.champsimtrace"
    write_champsim_trace(instrs[:10], path)
    path.write_bytes(path.read_bytes()[:-24])
    assert sim_main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro-sim: {path}: truncated final record")
    assert "byte offset 576" in err and err.count("\n") == 1


def test_cli_reports_injected_truncation(converted):
    _, path = converted
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        REPRO_FAULTS="io.champsim.truncate:count=1",
    )
    env.pop("REPRO_FAULTS_PID", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sim.cli", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"repro-sim: {path}: truncated final record")
    assert "byte offset" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_rejects_unknown_engine(converted, capsys):
    _, path = converted
    with pytest.raises(SystemExit) as excinfo:
        sim_main([str(path), "--engine", "simd"])
    assert excinfo.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_config_presets():
    main = SimConfig.main()
    ipc1 = SimConfig.ipc1(l1i_prefetcher="D-JOLT")
    assert main.decoupled_frontend and not ipc1.decoupled_frontend
    assert ipc1.ideal_targets and not main.ideal_targets
    assert ipc1.warmup_fraction == 0.5
    assert ipc1.l1i_prefetcher == "D-JOLT"


def test_config_overrides():
    cfg = SimConfig.main(rob_size=64, fetch_width=2)
    assert cfg.rob_size == 64 and cfg.fetch_width == 2
