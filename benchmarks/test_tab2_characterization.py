"""Table 2 benchmark: IPC-1 trace characterisation with the improved
converter.

Paper expectations (shape): a wide IPC range; servers dominate the L1I
MPKI tail; the branch target MPKI falls versus the original converter
(the call-stack effect), concentrated in a few traces (server_001 is the
paper's -78% example).
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_table2

from benchmarks.conftest import once


def test_tab2_ipc1_characterization(benchmark, runner):
    rows = once(benchmark, EXPERIMENTS["tab2"].compute, runner)
    print()
    print(render_table2(rows))

    assert len(rows) == len(runner.ipc1_trace_names())

    ipcs = [r.ipc for r in rows]
    assert max(ipcs) > 2 * min(ipcs)  # wide IPC range

    # Server traces carry the instruction-footprint tail.
    servers = [r for r in rows if r.ipc1_trace.startswith("server")]
    clients = [r for r in rows if r.ipc1_trace.startswith("client")]
    if servers and clients:
        assert max(r.l1i_mpki for r in servers) >= max(
            r.l1i_mpki for r in clients
        ) * 0.5

    # Aggregate target MPKI does not grow with the fixes; some trace
    # (the paper: server_001) sees a large reduction.
    total_before = sum(r.target_mpki_original for r in rows)
    total_after = sum(r.target_mpki for r in rows)
    assert total_after <= total_before * 1.02
    reductions = [
        r.target_mpki_original - r.target_mpki
        for r in rows
        if r.target_mpki_original > 0.5
    ]
    assert reductions and max(reductions) > 0
