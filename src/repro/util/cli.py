"""Argument types shared by the command-line drivers."""

from __future__ import annotations

import argparse


def at_least(low: int):
    """argparse type of an integer flag whose smallest sensible value is
    ``low``: a smaller one exits 2 with one usage line, never a traceback
    from deep inside the run."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse
