"""argparse value types shared by the command-line tools."""

from __future__ import annotations

import argparse


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (trace lengths, strides, limits)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value
