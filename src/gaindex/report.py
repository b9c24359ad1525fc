"""Verdict records for inequality and identity checks.

Each check compares two sides of a stated relation and reports whether it
holds, whether it is tight, and whether tightness matches the structural
condition that is supposed to characterize it.  Exact mode decides everything
in the radical span with zero tolerance; float mode uses a relative tolerance
of 1e-9 and re-checks apparent violations at 256-bit precision before
reporting them, so rounding can never manufacture a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

from .indices import IndexValue
from .radicals import RadicalNumber, compare

__all__ = ["CheckReport", "exact_report", "float_report", "skipped_report"]

FLOAT_RTOL = 1e-9
RECHECK_DIGITS = 80  # ~265 bits

Number = float | Decimal


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    relation: str
    lhs: IndexValue
    rhs: IndexValue
    holds: bool
    equality: bool
    predicted_equality: bool | None
    characterization_consistent: bool | None
    preconditions_met: bool
    mode: str
    notes: str = ""

    @property
    def violated(self) -> bool:
        return self.preconditions_met and not self.holds

    @property
    def slack(self) -> float:
        """``lhs - rhs`` in display floats; NaN when skipped."""
        return self.lhs.approx - self.rhs.approx

    def to_dict(self) -> dict:
        def side(v: IndexValue) -> dict:
            return {
                "exact": None if v.exact is None else str(v.exact),
                "approx": v.approx,
                "error": v.error,
            }

        return {
            "check_id": self.check_id,
            "relation": self.relation,
            "lhs": side(self.lhs),
            "rhs": side(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
            "predicted_equality": self.predicted_equality,
            "characterization_consistent": self.characterization_consistent,
            "slack": self.slack,
            "preconditions_met": self.preconditions_met,
            "mode": self.mode,
            "notes": self.notes,
        }


def _relation_outcome(relation: str, cmp: int) -> tuple[bool, bool]:
    """(holds, equality) from a three-way comparison of lhs vs rhs."""
    if relation == "<=":
        return cmp <= 0, cmp == 0
    if relation == ">=":
        return cmp >= 0, cmp == 0
    if relation == "<":
        return cmp < 0, cmp == 0
    if relation == ">":
        return cmp > 0, cmp == 0
    if relation == "==":
        return cmp == 0, cmp == 0
    raise ValueError(f"unknown relation {relation!r}")


def exact_report(
    check_id: str,
    relation: str,
    lhs: RadicalNumber,
    rhs: RadicalNumber,
    predicted_equality: bool | None = None,
    notes: str = "",
    rhs_den: RadicalNumber | None = None,
) -> CheckReport:
    """Exact verdict on ``lhs relation rhs``.

    With a positive ``rhs_den`` the right side is the quotient
    ``rhs / rhs_den``.  Radicals divide only by rationals, so the quotient is
    decided by cross-multiplication, ``lhs * rhs_den`` against ``rhs``, and
    displayed as a float only.
    """
    if rhs_den is None:
        cmp = compare(lhs, rhs)
        rhs_val = IndexValue.of_exact(rhs)
    else:
        cmp = compare(lhs * rhs_den, rhs)
        rhs_val = IndexValue.of_quotient(rhs, rhs_den)
    holds, equality = _relation_outcome(relation, cmp)
    lhs_val = IndexValue.of_exact(lhs)
    consistent = None if predicted_equality is None else equality == predicted_equality
    return CheckReport(
        check_id=check_id,
        relation=relation,
        lhs=lhs_val,
        rhs=rhs_val,
        holds=holds,
        equality=equality,
        predicted_equality=predicted_equality,
        characterization_consistent=consistent,
        preconditions_met=True,
        mode="exact",
        notes=notes,
    )


def float_report(
    check_id: str,
    relation: str,
    evaluate: Callable[[Callable[[Number, Number], Number]], tuple[Number, Number]],
    notes: str = "",
) -> CheckReport:
    """Float verdict with a 256-bit re-check before reporting any violation.

    ``evaluate(power)`` must return (lhs, rhs) computed with the supplied
    ``power(x, y) = x**y``; it is called once with float arithmetic and, on a
    near-boundary outcome, again under a high-precision Decimal context.
    """
    lhs_f, rhs_f = evaluate(lambda x, y: float(x) ** float(y))
    lhs_f, rhs_f = float(lhs_f), float(rhs_f)
    scale = max(1.0, abs(rhs_f))
    diff = lhs_f - rhs_f
    near_equal = abs(diff) <= FLOAT_RTOL * scale
    holds, _ = _relation_outcome(relation, 0 if near_equal else (1 if diff > 0 else -1))
    note = notes
    if not holds or (near_equal and relation in ("<", ">")):
        # Apparent violation or a strict relation sitting on the boundary:
        # re-evaluate at high precision before judging.
        with localcontext() as ctx:
            ctx.prec = RECHECK_DIGITS
            lhs_d, rhs_d = evaluate(_decimal_power)
            lhs_d, rhs_d = Decimal(lhs_d), Decimal(rhs_d)
            scale_d = max(Decimal(1), abs(rhs_d))
            diff_d = lhs_d - rhs_d
            near_equal = abs(diff_d) <= Decimal(FLOAT_RTOL) * scale_d
            cmp = 0 if near_equal else (1 if diff_d > 0 else -1)
            holds, _ = _relation_outcome(relation, cmp)
            note = (notes + "; " if notes else "") + "re-checked at 256-bit precision"
    return CheckReport(
        check_id=check_id,
        relation=relation,
        lhs=IndexValue.of_float(lhs_f),
        rhs=IndexValue.of_float(rhs_f),
        holds=holds,
        equality=near_equal,
        predicted_equality=None,
        characterization_consistent=None,
        preconditions_met=True,
        mode="float",
        notes=note,
    )


def _decimal_power(x: Number, y: Number) -> Decimal:
    dx = x if isinstance(x, Decimal) else Decimal(repr(x)) if isinstance(x, float) else Decimal(x)
    dy = y if isinstance(y, Decimal) else Decimal(repr(y)) if isinstance(y, float) else Decimal(y)
    if dx == 0:
        return Decimal(0)
    return dx ** dy


def skipped_report(check_id: str, relation: str, reason: str) -> CheckReport:
    """Preconditions not met: nothing evaluated, vacuously non-violating."""
    nan = IndexValue.of_float(math.nan)
    return CheckReport(
        check_id=check_id,
        relation=relation,
        lhs=nan,
        rhs=nan,
        holds=True,
        equality=False,
        predicted_equality=None,
        characterization_consistent=None,
        preconditions_met=False,
        mode="skipped",
        notes=reason,
    )
