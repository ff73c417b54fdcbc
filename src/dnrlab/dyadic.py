"""Exact dyadic rationals: integers divided by powers of two.

Measures of clopen sets in Cantor space are dyadic, so every measure
computation here stays in this type: no floats, no rounding, and equality
means equality.  Values are kept normalized (odd numerator, or exponent
zero), which makes the representation canonical and hashing safe.

Serialization uses decimal strings for both fields so that arbitrarily
large numerators survive JSON round-trips without precision loss.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Mapping

from ._value import _set_field, _Value
from .errors import CombinatorialBlowup

_DECIMAL = re.compile(r"-?[0-9]+")

# Widest numerator, in bits, a sum may align its terms to: aligning shifts by
# the exponent gap.  Measures and lowness sums stay within a few dozen bits,
# and 2^13 bits still print as a decimal JSON string.
WIDTH_LIMIT = 1 << 13


@total_ordering
class DyadicRational(_Value):
    """numerator / 2**exponent, normalized."""

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if exponent < 0:
            raise ValueError("exponent is a natural")
        num, exp = numerator, exponent
        # drop the numerator's trailing zero bits, at most exp of them
        shift = min((num & -num).bit_length() - 1, exp) if num else exp
        _set_field(self, "numerator", num >> shift)
        _set_field(self, "exponent", exp - shift)

    @classmethod
    def half_power(cls, c: int) -> "DyadicRational":
        """2**-c for a natural c."""
        return cls(1, c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        """Exact sum; CombinatorialBlowup, before any shift, past WIDTH_LIMIT."""
        a, b = self.numerator, other.numerator
        e = max(self.exponent, other.exponent)
        width = max(a and a.bit_length() + e - self.exponent,
                    b and b.bit_length() + e - other.exponent)
        if width > WIDTH_LIMIT:
            raise CombinatorialBlowup(
                f"a dyadic sum needs a {width}-bit numerator, over the {WIDTH_LIMIT}-bit limit")
        return DyadicRational((a << (e - self.exponent)) + (b << (e - other.exponent)), e)

    # -- order --------------------------------------------------------------

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self.numerator, other.numerator
        if (a > 0) != (b > 0) or a == 0 or b == 0:
            return a < b  # the signs decide
        # |x| lies in [2^(L-1), 2^L) for L = bit_length - exponent, so unequal
        # L decide too; a tie bounds the exponent gap by the bit lengths
        la = abs(a).bit_length() - self.exponent
        lb = abs(b).bit_length() - other.exponent
        if la != lb:
            return (la < lb) == (a > 0)
        e = max(self.exponent, other.exponent)
        return (a << (e - self.exponent)) < (b << (e - other.exponent))

    @property
    def is_negative(self) -> bool:
        return self.numerator < 0

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"

    def to_jsonable(self) -> dict:
        return {"num": str(self.numerator), "exp": str(self.exponent)}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "DyadicRational":
        """Inverse of to_jsonable; fields that are not decimal strings raise ValueError."""
        num, exp = data["num"], data["exp"]
        if not all(isinstance(x, str) and _DECIMAL.fullmatch(x) for x in (num, exp)):
            raise ValueError(f"a dyadic rational is {{num, exp}} in decimal strings, got {data!r}")
        return cls(int(num), int(exp))


ZERO = DyadicRational(0)
ONE = DyadicRational(1)


def dyadic_sum(terms: Iterable[DyadicRational]) -> DyadicRational:
    total = ZERO
    for t in terms:
        total = total + t
    return total
