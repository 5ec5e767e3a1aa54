"""File-level conversion pipeline and CLI tests."""

import pytest

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import read_champsim_trace
from repro.core.cli import main as convert_main
from repro.core.improvements import Improvement
from repro.core.pipeline import convert_file
from repro.cvp.writer import write_trace
from repro.synth import make_trace
from repro.synth.cli import main as gen_main


@pytest.fixture(scope="module")
def cvp_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "srv_tiny.gz"
    write_trace(make_trace("srv_3", 1500), path)
    return path


def test_convert_file_roundtrip(cvp_file, tmp_path):
    out = tmp_path / "out.champsimtrace"
    result = convert_file(cvp_file, out, Improvement.ALL)
    assert result.stats.records_in == 1500
    assert result.branch_rules is BranchRules.PATCHED
    instrs = read_champsim_trace(out)
    assert len(instrs) == result.stats.instructions_out


def test_convert_file_gz_output(cvp_file, tmp_path):
    out = tmp_path / "out.champsimtrace.gz"
    convert_file(cvp_file, out, Improvement.NONE)
    assert read_champsim_trace(out)
    assert out.read_bytes()[:2] == b"\x1f\x8b"


def test_convert_file_no_imp_uses_original_rules(cvp_file, tmp_path):
    result = convert_file(cvp_file, tmp_path / "o.bin", Improvement.NONE)
    assert result.branch_rules is BranchRules.ORIGINAL


def test_cli_convert(cvp_file, tmp_path, capsys):
    out = tmp_path / "cli.bin"
    rc = convert_main(
        ["-t", str(cvp_file), "-i", "All_imps", "-o", str(out), "-v"]
    )
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "records in" in captured.out


def test_cli_truncated_gzip_is_one_line_exit_2(cvp_file, tmp_path, capsys):
    truncated = tmp_path / "t.cvp.gz"
    truncated.write_bytes(cvp_file.read_bytes()[:30])
    rc = convert_main(["-t", str(truncated), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro-convert: {truncated}: Compressed file ended")
    assert err.count("\n") == 1


def test_cli_rejects_unknown_improvement(cvp_file, tmp_path):
    rc = convert_main(
        ["-t", str(cvp_file), "-i", "imp_nope", "-o", str(tmp_path / "x")]
    )
    assert rc == 2


def test_gen_cli(tmp_path, capsys):
    out = tmp_path / "gen.gz"
    rc = gen_main(["-t", "crypto_1", "-n", "500", "-o", str(out)])
    assert rc == 0
    assert "wrote 500 records" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-5", "ten"])
def test_gen_cli_rejects_non_positive_instructions(count, tmp_path, capsys):
    out = tmp_path / "gen.gz"
    with pytest.raises(SystemExit) as exc:
        gen_main(["-t", "srv_40", "-n", count, "-o", str(out)])
    assert exc.value.code == 2
    assert "--instructions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--instructions", "--stride", "--limit"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_convert_suite_cli_rejects_non_positive_sampling(
    flag, value, tmp_path, capsys
):
    out = tmp_path / "suite"
    with pytest.raises(SystemExit) as exc:
        convert_main(
            ["--suite", "IPC1", "--output-dir", str(out), flag, value]
        )
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-3", "x"])
def test_convert_suite_cli_rejects_negative_jobs(value, tmp_path, capsys):
    out = tmp_path / "suite"
    with pytest.raises(SystemExit) as exc:
        convert_main(
            ["--suite", "IPC1", "--output-dir", str(out), "--jobs", value]
        )
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_conversion_is_deterministic(cvp_file, tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    convert_file(cvp_file, a, Improvement.ALL)
    convert_file(cvp_file, b, Improvement.ALL)
    assert a.read_bytes() == b.read_bytes()
