"""repro-stats CLI tests."""

import gzip

import pytest

from repro.cvp.cli import main as stats_main
from repro.cvp.writer import write_trace
from repro.synth import make_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stats") / "t.gz"
    write_trace(make_trace("srv_3", 3000), path)
    return path


def test_stats_cli_reports_characterisation(trace_file, capsys):
    rc = stats_main([str(trace_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "instructions:" in out
    assert "base-update loads:" in out
    assert "BLR-X30" in out
    assert "code footprint:" in out


def test_stats_cli_limit(trace_file, capsys):
    rc = stats_main([str(trace_file), "--limit", "100"])
    assert rc == 0
    assert "instructions:            100" in capsys.readouterr().out


def _damaged(data: bytes) -> bytes:
    """``data`` with a run of bytes inverted past the stream header."""
    damaged = bytearray(data)
    for i in range(64, min(len(damaged), 256)):
        damaged[i] ^= 0xFF
    return bytes(damaged)


_INPUT_ERRORS = [
    ("missing", "No such file or directory"),
    ("cut-gzip", "Compressed file ended"),
    ("not-gzip", "Not a gzipped file"),
    ("damaged-gzip", ""),
]


@pytest.mark.parametrize(
    "kind, message, limit",
    [pytest.param(kind, message, [], id=kind) for kind, message in _INPUT_ERRORS]
    + [pytest.param("truncated-plain", "truncated record", [], id="truncated-plain")]
    # --limit reads through read_trace rather than the streaming reader.
    + [
        pytest.param(kind, message, ["--limit", "5"], id=f"{kind}-limit")
        for kind, message in _INPUT_ERRORS
    ],
)
def test_stats_cli_reports_input_errors_in_one_line(
    trace_file, tmp_path, capsys, kind, message, limit
):
    raw = gzip.decompress(trace_file.read_bytes())
    if kind == "missing":
        path = tmp_path / "missing.gz"
    elif kind == "truncated-plain":
        path = tmp_path / "t.cvp"
        path.write_bytes(raw[:-3])
    else:
        path = tmp_path / "t.gz"
        path.write_bytes(
            {
                "cut-gzip": trace_file.read_bytes()[:30],
                "not-gzip": b"plain bytes, no gzip magic",
                "damaged-gzip": _damaged(gzip.compress(raw)),
            }[kind]
        )
    assert stats_main([str(path), *limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-stats: {path}: {message}")
    assert captured.err.count("\n") == 1
