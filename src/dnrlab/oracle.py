"""Bit oracles: infinite 0/1 sequences the machine can query.

An oracle is anything with a `bit(i) -> int` method.  The concrete kinds
here are the ones constructions need: eventually-constant prefixes, periodic
patterns, characteristic functions of finite sets, and finite patches over
a base oracle.  Each kind serializes to a small JSON spec (docs/formats.md)
so certificates can embed the oracle they were checked against.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._value import _set_field, _Value
from .errors import CombinatorialBlowup


class PrefixOracle(_Value):
    """Explicit prefix, constant tail."""

    def __init__(self, bits: tuple[int, ...], tail: int = 0) -> None:
        if any(b not in (0, 1) for b in bits) or tail not in (0, 1):
            raise ValueError("oracle bits must be 0 or 1")
        _set_field(self, "bits", bits)
        _set_field(self, "tail", tail)

    def bit(self, i: int) -> int:
        return self.bits[i] if i < len(self.bits) else self.tail


class PeriodicOracle(_Value):
    """Repeats a nonempty pattern forever."""

    def __init__(self, pattern: tuple[int, ...]) -> None:
        if not pattern or any(b not in (0, 1) for b in pattern):
            raise ValueError("pattern must be nonempty 0/1")
        _set_field(self, "pattern", pattern)

    def bit(self, i: int) -> int:
        return self.pattern[i % len(self.pattern)]


class SetOracle(_Value):
    """Characteristic function of a finite set."""

    def __init__(self, members: frozenset[int]) -> None:
        _set_field(self, "members", members)

    def bit(self, i: int) -> int:
        return 1 if i in self.members else 0


class PatchedOracle(_Value):
    """A base oracle with finitely many positions overridden."""

    def __init__(self, base: BitOracle, patches: tuple[tuple[int, int], ...]) -> None:
        by_pos = dict(patches)
        if any(b not in (0, 1) for b in by_pos.values()):
            raise ValueError("patch bits must be 0 or 1")
        _set_field(self, "base", base)
        _set_field(self, "patches", tuple(sorted(by_pos.items())))  # (position, bit) pairs
        _set_field(self, "_by_pos", by_pos)

    def bit(self, i: int) -> int:
        b = self._by_pos.get(i)
        return self.base.bit(i) if b is None else b

    def with_patch(self, i: int, b: int) -> "PatchedOracle":
        return PatchedOracle(self.base, self.patches + ((i, b),))


BitOracle = PrefixOracle | PeriodicOracle | SetOracle | PatchedOracle

EVENS = PeriodicOracle((1, 0))
ODDS = PeriodicOracle((0, 1))
ALL_ZEROS = PrefixOracle((), 0)


def structural_span(oracle: BitOracle) -> int:
    """Positions beyond this are governed by the oracle's uniform tail rule."""
    if isinstance(oracle, PrefixOracle):
        return len(oracle.bits)
    if isinstance(oracle, PeriodicOracle):
        return len(oracle.pattern)
    if isinstance(oracle, SetOracle):
        return max(oracle.members, default=0) + 1
    if isinstance(oracle, PatchedOracle):
        top = max((p for p, _ in oracle.patches), default=0) + 1
        return max(structural_span(oracle.base), top)
    raise TypeError(f"not a structured oracle: {oracle!r}")


# Most positions first_members scans.  The members it returns lie below it,
# so the set code of a scan has at most this many bits; the built-in
# constructions scan fewer than 100 positions.
SCAN_LIMIT = 1 << 16


def first_members(oracle: BitOracle, k: int, value: int = 1) -> tuple[int, ...]:
    """The k least positions where the oracle reads `value`, if they exist.

    The scan bound is derived from the oracle's structure: past the span the
    bits repeat a pattern, so a side that fails to produce k members within
    span * (k + 1) + 2k + 2 positions has fewer than k members outright.
    Returns a short tuple in that case; callers treat it as "this side of
    the oracle is too thin".  A bound past SCAN_LIMIT is refused
    (CombinatorialBlowup) before the scan starts.
    """
    if k < 0:
        raise ValueError("k is a natural")
    bound = structural_span(oracle) * (k + 1) + 2 * k + 2
    if bound > SCAN_LIMIT:
        raise CombinatorialBlowup(
            f"scanning {bound} oracle positions exceeds the limit {SCAN_LIMIT}")
    out = []
    for i in range(bound):
        if oracle.bit(i) == value:
            out.append(i)
            if len(out) == k:
                break
    return tuple(out)


def oracle_to_spec(oracle: BitOracle) -> dict:
    if isinstance(oracle, PrefixOracle):
        return {"kind": "prefix", "bits": list(oracle.bits), "tail": oracle.tail}
    if isinstance(oracle, PeriodicOracle):
        return {"kind": "periodic", "pattern": list(oracle.pattern)}
    if isinstance(oracle, SetOracle):
        return {"kind": "set", "members": sorted(oracle.members)}
    if isinstance(oracle, PatchedOracle):
        return {
            "kind": "patched",
            "base": oracle_to_spec(oracle.base),
            "patches": [[p, b] for p, b in oracle.patches],
        }
    raise TypeError(f"not a serializable oracle: {oracle!r}")


def _naturals(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int or v < 0 for v in value):
        raise ValueError(f"{what} must be a list of naturals, got {value!r}")
    return tuple(value)


def oracle_from_spec(spec: Mapping) -> BitOracle:
    """Inverse of oracle_to_spec; a badly shaped spec raises ValueError."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"an oracle spec is an object, got {spec!r}")
    kind = spec.get("kind")
    try:
        if kind == "prefix":
            tail = spec.get("tail", 0)
            if type(tail) is not int:
                raise ValueError(f"prefix tail must be 0 or 1, got {tail!r}")
            return PrefixOracle(_naturals(spec["bits"], "prefix bits"), tail)
        if kind == "periodic":
            return PeriodicOracle(_naturals(spec["pattern"], "periodic pattern"))
        if kind == "set":
            return SetOracle(frozenset(_naturals(spec["members"], "set members")))
        if kind == "patched":
            patches = tuple(_naturals(p, "a patch") for p in spec["patches"])
            if any(len(p) != 2 for p in patches):
                raise ValueError("a patch is a [position, bit] pair")
            return PatchedOracle(oracle_from_spec(spec["base"]), patches)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{kind} oracle spec lacks or misshapes a field: {exc!r}") from None
    raise ValueError(f"unknown oracle kind {kind!r}")
