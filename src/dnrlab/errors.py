"""Shared error types for budgeted constructions and audits.

Every search here runs against explicit budgets, so "could not decide"
is a normal outcome with its own type, distinct from "the input is bad".
"""

from __future__ import annotations


class WitnessBudgetExceeded(Exception):
    """A required evaluation did not converge within the allotted budget."""


class InsufficientOracle(Exception):
    """The oracle did not supply enough members below the scan bound."""


class PreconditionViolated(Exception):
    """The input fails a stated precondition that is cheap to check."""


class CombinatorialBlowup(Exception):
    """Exact computation would exceed a size limit (terms, nodes, stages,
    scanned positions).

    Where a union-bound fallback exists it is carried along, so callers can
    still report a value, clearly flagged as an upper bound rather than an
    exact measure.
    """

    def __init__(self, message: str, upper_bound=None) -> None:
        super().__init__(message)
        self.upper_bound = upper_bound


class MalformedCertificate(ValueError):
    """A certificate is missing fields or has values of the wrong shape."""


class ReplayMismatch(Exception):
    """A certificate's recorded claims disagree with the current build."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
