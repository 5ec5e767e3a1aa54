"""argparse value types shared by the command-line tools."""

from __future__ import annotations

import argparse
import math
from typing import Type, TypeVar

_Number = TypeVar("_Number", int, float)


def _parse(text: str, kind: Type[_Number]) -> _Number:
    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (trace lengths, strides, shard sizes)."""
    value = _parse(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (retries; ``--jobs``, where 0 = all cores)."""
    value = _parse(text, int)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (timeouts in seconds)."""
    value = _parse(text, float)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a finite number >= 0 (backoff in seconds)."""
    value = _parse(text, float)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value:g}")
    return value
