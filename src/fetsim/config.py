"""Flat key-value config files for the simulation and verify runners.

Format: one ``key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Values parse as int, then float, then comma-separated
list (elementwise int/float/str), then plain string.

Example::

    # sweep configuration
    n = 4096
    c_sample = 3
    delta = 0.05
    source_opinion = 1
    max_rounds = 10000
    seed = 42
    backend = aggregate
    preset = all_wrong_max_counters
    trials = 200
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path

from .errors import UsageError

__all__ = ["check_delta", "check_number", "parse_config_file", "parse_value"]


def check_number(name: str, value, kind: type = numbers.Real) -> None:
    """Raise a UsageError unless value is a finite number of kind (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise UsageError(f"{name} must be {noun}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")


def check_delta(value) -> None:
    """Raise a UsageError unless the partition margin delta is in (0, 1/2)."""
    check_number("delta", value)
    if not 0.0 < value < 0.5:
        raise UsageError(f"delta must be in (0, 1/2), got {value!r}")


def parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [parse_value(part) for part in raw.split(",") if part.strip()]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_file(path) -> dict:
    """Settings of a config file; an unreadable file or a repeated key is a UsageError."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    settings: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in first_line:
            raise UsageError(
                f"{path}:{lineno}: key {key!r} is given twice, on lines {first_line[key]} "
                f"and {lineno}"
            )
        first_line[key] = lineno
        settings[key] = parse_value(raw)
    return settings
