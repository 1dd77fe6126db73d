"""Line-oriented scenario files: declarations of charts, graph submanifolds,
disk bundles, fiber forms and germs, followed by check blocks.

Grammar (one construct per block, `#` starts a comment):

    scenario NAME            # optional header, first block
    graph Y                  # block kinds: chart, graph, bundle, form,
      n = 2                  #   germ, check
      k = 3
      z = (x2^2 + y2^2) / 2
    end

Values on the right of `=` are numbers, bare words, comma lists or field
expressions depending on the key; expression keys are parsed lazily so the
runner can bind them to the right chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ScenarioError(ValueError):
    """A scenario file is malformed; carries 1-based line position, or None
    for a value that comes from outside the file (a run's override)."""

    def __init__(self, message: str, line: int | None):
        super().__init__(
            message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Block:
    kind: str
    name: str
    line: int
    entries: tuple[tuple[str, str, int], ...]  # (key, raw value, line)

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v, _ in self.entries:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ScenarioError(f"block '{self.name}' is missing '{key}'",
                                self.line)
        return v

    def items(self) -> list[tuple[str, str]]:
        return [(k, v) for k, v, _ in self.entries]


BLOCK_KINDS = ("chart", "graph", "bundle", "form", "germ", "check")


@dataclass(frozen=True)
class Scenario:
    name: str
    blocks: tuple[Block, ...]

    def checks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind == "check"]


def parse_scenario(text: str) -> Scenario:
    name = "unnamed"
    blocks: list[Block] = []
    current: tuple[str, str, int] | None = None
    entries: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            parts = line.split(None, 1)
            head = parts[0]
            if head == "scenario":
                if blocks or name != "unnamed":
                    raise ScenarioError(
                        "scenario header must come first", lineno)
                if len(parts) != 2 or not parts[1].strip():
                    raise ScenarioError("scenario header needs a name", lineno)
                name = parts[1].strip()
                continue
            if head not in BLOCK_KINDS:
                raise ScenarioError(
                    f"unknown block kind '{head}' "
                    f"(expected one of {', '.join(BLOCK_KINDS)})", lineno)
            if len(parts) != 2 or not parts[1].strip():
                raise ScenarioError(f"{head} block needs a name", lineno)
            current = (head, parts[1].strip(), lineno)
            entries = []
        elif line == "end":
            blocks.append(Block(current[0], current[1], current[2],
                                tuple(entries)))
            current = None
        else:
            if "=" not in line:
                raise ScenarioError(
                    "expected 'key = value' or 'end'", lineno)
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ScenarioError("empty key", lineno)
            entries.append((key, value, lineno))
    if current is not None:
        raise ScenarioError(
            f"unterminated {current[0]} block '{current[1]}'", current[2])
    seen: set[tuple[str, str]] = set()
    for b in blocks:
        if b.kind != "check":
            if (b.kind, b.name) in seen:
                raise ScenarioError(
                    f"duplicate {b.kind} '{b.name}'", b.line)
            seen.add((b.kind, b.name))
    return Scenario(name=name, blocks=tuple(blocks))


def _value_parser(cast, what: str):
    """parse(raw, line): cast(raw), or a ScenarioError at line that expected
    what."""
    def parse(raw: str, line: int | None):
        try:
            return cast(raw)
        except ValueError:
            raise ScenarioError(f"expected {what}, got '{raw}'",
                                line) from None
    return parse


def _finite(raw: str) -> float:
    """float(raw), or a ValueError for nan, inf and overflows (1e400)."""
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


parse_number_list = _value_parser(
    lambda raw: [_finite(p) for p in raw.replace(",", " ").split()],
    "finite numbers")
parse_int = _value_parser(int, "an integer")
parse_float = _value_parser(_finite, "a finite number")
_parse_number = _value_parser(float, "a number")


def parse_positive(raw: str, line: int | None) -> float:
    """A positive finite number, such as a box, step or tolerance."""
    if not 0 < (value := _parse_number(raw, line)) < math.inf:
        raise ScenarioError(f"expected a positive finite number, got "
                            f"'{raw}'", line)
    return value
