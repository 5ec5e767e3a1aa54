"""Shared exception types for the trace tool-chain.

Both trace formats — variable-length CVP-1 records and fixed 64-byte
ChampSim records — can be handed corrupt or truncated bytes, and every
layer above them (converter, linter, simulator, bench harness) wants to
catch "the input file is malformed" with one ``except`` clause.
:class:`TraceFormatError` is that common root.

:mod:`repro.cvp.encoding` re-exports it under its historical location,
and :class:`repro.champsim.trace.ChampSimTraceError` subclasses it, so
existing ``except`` clauses keep working unchanged.
"""

from __future__ import annotations

import lzma
import zlib
from pathlib import Path
from typing import Union


class TraceFormatError(Exception):
    """Raised when a byte stream does not decode as a trace record."""


#: Everything reading a missing, truncated or corrupt trace file can
#: raise: a record that does not decode, an I/O error (including
#: ``gzip.BadGzipFile``), a compressed stream cut short, or a damaged
#: gzip or xz stream.  The CLIs report these as one line and exit 2.
INPUT_ERRORS = (TraceFormatError, OSError, EOFError, zlib.error, lzma.LZMAError)


def input_error_line(prog: str, path: Union[str, Path], exc: BaseException) -> str:
    """``<prog>: <path>: <message>`` for one of :data:`INPUT_ERRORS`."""
    path = getattr(exc, "filename", None) or path
    message = getattr(exc, "strerror", None) or exc
    return f"{prog}: {path}: {message}"
