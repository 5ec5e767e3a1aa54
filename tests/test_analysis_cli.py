"""CLI tests: repro-lint, repro-convert --lint, and failure exit codes."""

import gzip
import json
from pathlib import Path

import pytest

from repro.analysis import cli as lint_cli
from repro.core import cli as convert_cli
from repro.core.improvements import Improvement
from repro.experiments import cli as experiment_cli
from repro.experiments.parallel import TaskFailure

from tests.test_cvp_cli import _damaged

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(str(p) for p in GOLDEN_DIR.glob("*.cvp.gz"))


def run_lint(argv, tmp_path):
    """Invoke repro-lint with an isolated cache directory."""
    return lint_cli.main(["--cache-dir", str(tmp_path / "cache"), *argv])


def test_lint_golden_all_improvements_is_clean(tmp_path, capsys):
    assert run_lint(GOLDEN_FILES, tmp_path) == 0
    out = capsys.readouterr().out
    assert "errors=0" in out


@pytest.mark.parametrize(
    "name,rule_id",
    [
        ("mem-regs", "TL101"),
        ("base-update", "TL102"),
        ("mem-footprint", "TL103"),
        ("call-stack", "TL104"),
        ("branch-regs", "TL105"),
        ("flag-regs", "TL106"),
    ],
)
def test_lint_no_improvement_fires_matching_rule(
    name, rule_id, tmp_path, capsys
):
    code = run_lint(["--no-improvement", name, *GOLDEN_FILES], tmp_path)
    assert code == 2
    assert rule_id in capsys.readouterr().out


def test_lint_json_format(tmp_path, capsys):
    code = run_lint(
        ["--format", "json", "--no-improvement", "flag-regs", *GOLDEN_FILES],
        tmp_path,
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["exit_code"] == 2
    assert payload["summary"]["errors"] > 0
    fired = {
        diag["rule_id"]
        for report in payload["reports"]
        for diag in report["diagnostics"]
    }
    assert "TL106" in fired


def test_lint_select_and_ignore(tmp_path, capsys):
    # Selecting only input rules hides the conversion errors entirely.
    code = run_lint(
        ["--select", "TL0", "--no-improvement", "flag-regs", *GOLDEN_FILES],
        tmp_path,
    )
    assert code == 0
    code = run_lint(
        ["--ignore", "TL106", "--no-improvement", "flag-regs", GOLDEN_FILES[0]],
        tmp_path,
    )
    capsys.readouterr()
    assert code == 0


def test_lint_unknown_rule_pattern_fails(tmp_path, capsys):
    code = run_lint(["--select", "TL9", *GOLDEN_FILES], tmp_path)
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_unknown_improvement_fails(tmp_path, capsys):
    code = run_lint(["--no-improvement", "bogus", *GOLDEN_FILES], tmp_path)
    assert code == 2
    assert "unknown improvement" in capsys.readouterr().err


def test_lint_missing_file_fails(tmp_path, capsys):
    code = run_lint([str(tmp_path / "nope.cvp.gz")], tmp_path)
    assert code == 2


def test_lint_truncated_plain_trace_names_byte_offset(tmp_path, capsys):
    """repro-lint reports a cut plain trace as repro-convert -t does."""
    with gzip.open(GOLDEN_DIR / "srv_3.cvp.gz", "rb") as stream:
        cut = stream.read()[:1000]
    truncated = tmp_path / "t.cvp"
    truncated.write_bytes(cut)
    message = (
        f"{truncated}: truncated record: partial PC (incomplete record "
        "starts at byte offset 995; 5 trailing bytes)\n"
    )
    assert run_lint([str(truncated)], tmp_path) == 2
    assert capsys.readouterr().err == f"repro-lint: {message}"
    out = tmp_path / "out.champsim.gz"
    assert convert_cli.main(["-t", str(truncated), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"repro-convert: {message}"


def test_lint_truncated_gzip_is_one_line_exit_2(tmp_path, capsys):
    truncated = tmp_path / "t.cvp.gz"
    truncated.write_bytes(Path(GOLDEN_FILES[0]).read_bytes()[:30])
    assert run_lint([str(truncated)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro-lint: {truncated}: Compressed file ended")
    assert err.count("\n") == 1


def test_damaged_gzip_is_one_line_exit_2_for_lint_and_convert(tmp_path, capsys):
    """A gzip stream damaged mid-way raises ``zlib.error``, which is not an
    ``OSError``; both CLIs still report it in one line."""
    damaged = tmp_path / "d.cvp.gz"
    raw = gzip.decompress(Path(GOLDEN_FILES[0]).read_bytes())
    damaged.write_bytes(_damaged(gzip.compress(raw)))
    assert run_lint([str(damaged)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro-lint: {damaged}: ") and err.count("\n") == 1
    out = tmp_path / "out.champsim.gz"
    assert convert_cli.main(["-t", str(damaged), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro-convert: {damaged}: ") and err.count("\n") == 1


def test_lint_no_traces_fails(tmp_path, capsys):
    assert lint_cli.main([]) == 2


def test_lint_list_rules(capsys):
    assert lint_cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "TL001" in out and "TL202" in out


def test_lint_cache_warm_run_is_served_from_cache(tmp_path, capsys):
    assert run_lint([GOLDEN_FILES[0]], tmp_path) == 0
    capsys.readouterr()
    assert run_lint([GOLDEN_FILES[0]], tmp_path) == 0
    out = capsys.readouterr().out
    assert "(cached)" in out
    assert "hits=1" in out


def test_lint_baseline_workflow(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = run_lint(
        [
            "--no-improvement", "call-stack",
            "--write-baseline", str(baseline),
            *GOLDEN_FILES,
        ],
        tmp_path,
    )
    assert code == 0
    assert baseline.exists()
    code = run_lint(
        [
            "--no-improvement", "call-stack",
            "--baseline", str(baseline),
            *GOLDEN_FILES,
        ],
        tmp_path,
    )
    assert code == 0
    assert "suppressed=" in capsys.readouterr().out


def test_parse_disabled_accepts_artifact_spelling():
    assert lint_cli.parse_disabled("imp_mem-regs") is Improvement.MEM_REGS
    with pytest.raises(ValueError):
        lint_cli.parse_disabled("imp_nope")


# --- repro-convert --lint ----------------------------------------------


def test_convert_lint_clean_with_all_improvements(tmp_path, capsys):
    out = tmp_path / "out.champsimtrace.gz"
    code = convert_cli.main(
        ["-t", GOLDEN_FILES[0], "-o", str(out), "-i", "All_imps", "--lint"]
    )
    assert code == 0
    assert out.exists()
    assert "errors=0" in capsys.readouterr().out


def test_convert_lint_fails_without_improvements(tmp_path, capsys):
    out = tmp_path / "out.champsimtrace.gz"
    code = convert_cli.main(
        ["-t", GOLDEN_FILES[0], "-o", str(out), "-i", "No_imp", "--lint"]
    )
    assert code == 2
    # The trace file is still written; only the lint gate failed.
    assert out.exists()


def test_convert_suite_lint(tmp_path, capsys):
    code = convert_cli.main(
        [
            "--suite", "IPC1", "--output-dir", str(tmp_path),
            "--limit", "2", "--instructions", "400",
            "-i", "All_imps", "--lint",
        ]
    )
    assert code == 0
    assert "errors=0" in capsys.readouterr().out


# --- batch failure exit codes ------------------------------------------


def _raise_task_failure(*args, **kwargs):
    raise TaskFailure([("task", "boom traceback")])


def test_convert_suite_task_failure_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.core.cli.convert_suite", _raise_task_failure
    )
    code = convert_cli.main(
        ["--suite", "IPC1", "--output-dir", str(tmp_path), "--limit", "2"]
    )
    assert code == 1
    assert "task(s) failed" in capsys.readouterr().err


def test_experiment_task_failure_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(
        experiment_cli, "run_experiment", _raise_task_failure
    )
    code = experiment_cli.main(["fig1", "--no-cache", "--limit", "1"])
    assert code == 1
    assert "task(s) failed" in capsys.readouterr().err
