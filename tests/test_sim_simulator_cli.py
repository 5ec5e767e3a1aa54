"""Simulator facade and CLI tests."""

import pytest

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import write_champsim_trace
from repro.core import Improvement, convert_trace
from repro.sim import SimConfig, Simulator, decode_trace, simulate
from repro.sim.cli import main as sim_main
from repro.synth import make_trace


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


def test_simulator_accepts_decoded_list(converted):
    instrs, _ = converted
    decoded = decode_trace(instrs, BranchRules.PATCHED)
    stats = Simulator(SimConfig.main()).run(decoded)
    assert stats.instructions == len(instrs)


def test_simulator_accepts_path(converted):
    instrs, path = converted
    stats = Simulator(SimConfig.main()).run(path, BranchRules.PATCHED)
    assert stats.instructions == len(instrs)


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


def test_simulator_engine_kwarg_is_bit_identical(converted):
    from tests.diffharness import assert_stats_identical

    instrs, _ = converted
    scalar = Simulator(SimConfig.main(), engine="scalar").run(
        instrs, BranchRules.PATCHED
    )
    vector = Simulator(SimConfig.main(), engine="vector").run(
        instrs, BranchRules.PATCHED
    )
    assert_stats_identical(vector, scalar, "Simulator(engine='vector')")


def test_simulator_honours_config_engine(converted):
    instrs, _ = converted
    sim = Simulator(SimConfig.main(engine="vector"))
    assert sim.engine == "vector"
    stats = sim.run(instrs, BranchRules.PATCHED)
    assert stats.instructions == len(instrs)


def test_simulator_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        Simulator(SimConfig.main(), engine="simd")


def test_cli_vector_engine_output_matches_scalar(converted, capsys):
    _, path = converted
    assert sim_main([str(path), "--rules", "patched", "--engine", "scalar"]) == 0
    scalar_out = capsys.readouterr().out
    assert sim_main([str(path), "--rules", "patched"]) == 0  # vector default
    vector_out = capsys.readouterr().out
    assert "IPC" in vector_out
    assert vector_out == scalar_out


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
