"""The experiment registry: declared runs, one batch, pure renders.

Every experiment declares its runs; one ``run_batch`` resolves them and
the render only reads them.  These tests pin that each declaration
covers what its data function reads, that a read outside the
declaration fails instead of simulating, that a whole regeneration
generates each trace and converts each (trace, set) pair once, and
that nothing of a trace outlives its batch.
"""

import pytest

from repro.core.improvements import Improvement
from repro.experiments import cli
from repro.experiments import runner as runner_module
from repro.experiments.figures import figure1
from repro.experiments.registry import ABLATIONS, EXPERIMENTS, PAPER
from repro.experiments.runner import ExperimentRunner, TraceWork, UnresolvedRunError
from repro.service.fleet import SERVICE_EXPERIMENTS
from repro.sim.config import SimConfig

#: Tiny sampling: every experiment in well under a second.
STRIDE = 27
INSTRUCTIONS = 300


def _runner():
    return ExperimentRunner(instructions=INSTRUCTIONS, stride=STRIDE)


def test_registry_lists_the_paper_and_the_ablations():
    assert PAPER == ("fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3")
    assert ABLATIONS == ("ablation-frontend", "ablation-overlap", "ablation-prf")
    assert SERVICE_EXPERIMENTS == PAPER
    for name in PAPER + ABLATIONS + ("all",):
        assert cli.build_parser().parse_args([name]).experiment == name


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_experiment_renders_from_its_declared_runs(name):
    experiment = EXPERIMENTS[name]
    runner = _runner()
    runner.run_batch(experiment.specs(runner))
    resolved = runner.simulations
    assert resolved == len(set(experiment.specs(runner))) > 0
    text = experiment.render(experiment.data(runner))
    assert text
    assert runner.simulations == resolved
    assert cli.run_experiment(name, runner) == text
    assert runner.simulations == resolved


def test_undeclared_run_raises_and_simulates_nothing():
    runner = _runner()
    fig3 = EXPERIMENTS["fig3"]
    runner.run_batch(fig3.specs(runner))
    resolved = runner.simulations
    # Figure 1 also reads sets Figure 3 does not declare.
    with pytest.raises(UnresolvedRunError, match="MEM_REGS, main"):
        figure1(runner)
    with pytest.raises(UnresolvedRunError, match="NONE, ipc1"):
        runner.stored("srv_0", Improvement.NONE, SimConfig.ipc1())
    assert runner.simulations == resolved


def test_serial_all_generates_each_trace_and_converts_each_pair_once(
    monkeypatch, capsys
):
    generated = []
    converted = []
    make_trace = runner_module.make_trace
    convert = TraceWork.convert

    def counted_make_trace(name, instructions):
        generated.append(name)
        return make_trace(name, instructions)

    def counted_convert(self, improvements):
        converted.append((self.name, improvements))
        return convert(self, improvements)

    monkeypatch.setattr(runner_module, "make_trace", counted_make_trace)
    monkeypatch.setattr(TraceWork, "convert", counted_convert)
    code = cli.main(
        ["all", "--stride", str(STRIDE), "--instructions", str(INSTRUCTIONS),
         "--no-cache", "--jobs", "1"]
    )
    assert code == 0

    runner = _runner()
    specs = {spec for name in PAPER for spec in EXPERIMENTS[name].specs(runner)}
    traces = runner.public_trace_names() + runner.ipc1_trace_names()
    assert len(generated) == len(set(generated)) == len(traces)
    assert len(converted) == len(set(converted))
    assert set(converted) == {(n, imps) for n, imps, _ in specs}
    out = capsys.readouterr().out
    assert f"[simulations={len(specs)}]" in out
    assert out.count("[plan took ") == 1


def test_no_trace_outlives_its_batch(trace_work_alive):
    runner = _runner()
    runner.run_batch(
        [spec for name in PAPER for spec in EXPERIMENTS[name].specs(runner)]
    )
    assert trace_work_alive() == 0
