"""The package docstring's quickstart runs and simulates what it converts."""

import textwrap

import repro
from repro.champsim.branch_info import BranchRules
from repro.core import Improvement, convert_trace
from repro.sim import SimConfig, Simulator

from tests.diffharness import assert_stats_identical


def _quickstart_code() -> str:
    """The indented literal block after ``Quickstart::``."""
    block = repro.__doc__.split("Quickstart::", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_quickstart_simulates_improved_trace_under_patched_rules(capsys):
    code = _quickstart_code()
    assert "20_000" in code
    namespace: dict = {}
    exec(code.replace("20_000", "2_000"), namespace)
    assert capsys.readouterr().out == f"{namespace['stats'].ipc}\n"
    expected = Simulator(SimConfig.main()).run(
        convert_trace(namespace["records"], Improvement.ALL),
        BranchRules.PATCHED,
    )
    assert_stats_identical(namespace["stats"], expected, "quickstart")
