"""Table 1 benchmark: converter activity summary + conversion throughput."""

from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_table1
from repro.synth import make_trace

from benchmarks.conftest import once


def test_tab1_summary(benchmark, runner):
    rows = once(benchmark, EXPERIMENTS["tab1"].compute, runner)
    print()
    print(render_table1(rows))
    # Every improvement must have found material to act on in the suite.
    activity = {row.improvement: row.records_affected for row in rows}
    assert activity["base-update"] > 0
    assert activity["flag-reg"] > 0
    assert activity["branch-regs"] > 0
    assert activity["call-stack"] > 0


def test_tab1_conversion_throughput(benchmark):
    """Raw converter speed with all improvements on (records/second)."""
    records = make_trace("srv_3", 20_000)

    def convert():
        converter = Converter(Improvement.ALL)
        return sum(1 for _ in converter.convert(records))

    produced = benchmark(convert)
    assert produced >= len(records)
