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
from decimal import Decimal, localcontext
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple

from .indices import IndexValue
from .radicals import RadicalNumber, compare

__all__ = ["CheckReport", "exact_report", "float_report", "json_rows", "skipped_report"]

FLOAT_RTOL = 1e-9
RECHECK_DIGITS = 80  # ~265 bits

Number = float | Decimal


class CheckReport(NamedTuple):
    """One verdict; an immutable named tuple, copied with ``_replace``."""

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

    def to_dict(self) -> dict:
        """The report as a ``text`` or ``csv`` row; ``json_rows`` writes the
        same keys for ``json``."""

        lhs_approx, lhs_error = self.lhs.estimate()
        rhs_approx, rhs_error = self.rhs.estimate()

        def side(v: IndexValue, approx: float, error: float) -> dict:
            return {
                "exact": None if v.exact is None else str(v.exact),
                "approx": approx,
                "error": error,
            }

        return {
            "check_id": self.check_id,
            "relation": self.relation,
            "lhs": side(self.lhs, lhs_approx, lhs_error),
            "rhs": side(self.rhs, rhs_approx, rhs_error),
            "holds": self.holds,
            "equality": self.equality,
            "predicted_equality": self.predicted_equality,
            "characterization_consistent": self.characterization_consistent,
            "slack": lhs_approx - rhs_approx,
            "preconditions_met": self.preconditions_met,
            "mode": self.mode,
            "notes": self.notes,
        }


# One item of ``json.dump(rows, indent=2, sort_keys=True)`` where each row is
# ``to_dict()`` plus "graph6": keys sorted, the row at depth 1, its sides at 2.
_JSON_SIDE = '{\n      "approx": %s,\n      "error": %s,\n      "exact": %s\n    }'
_JSON_ROW = (
    "  {\n"
    '    "characterization_consistent": %s,\n'
    '    "check_id": %s,\n'
    '    "equality": %s,\n'
    '    "graph6": %s,\n'
    '    "holds": %s,\n'
    '    "lhs": %s,\n'
    '    "mode": %s,\n'
    '    "notes": %s,\n'
    '    "preconditions_met": %s,\n'
    '    "predicted_equality": %s,\n'
    '    "relation": %s,\n'
    '    "rhs": %s,\n'
    '    "slack": %s\n'
    "  }"
)
_JSON_CONST = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    # float.__repr__ is what json writes for a float, and it raises on an int.
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_side(v: IndexValue, approx: float, error: float) -> str:
    exact = "null" if v.exact is None else encode_basestring_ascii(str(v.exact))
    return _JSON_SIDE % (_json_float(approx), _json_float(error), exact)


def json_rows(reports: Iterable[CheckReport], graph6: str) -> list[str]:
    """One graph's reports as items of the ``check --format json`` array.

    Each item is byte for byte what ``json.dump(rows, indent=2,
    sort_keys=True)`` writes for the row ``{**r.to_dict(), "graph6": graph6}``,
    filled into one fixed template instead of json's pure-Python indenting
    encoder.  Strings go through json's own ASCII escaper.  Each side's
    display pair is read once per row, and the slack is their difference.
    """
    g6 = encode_basestring_ascii(graph6)
    const = _JSON_CONST
    rows = []
    for r in reports:
        lhs_approx, lhs_error = r.lhs.estimate()
        rhs_approx, rhs_error = r.rhs.estimate()
        rows.append(
            _JSON_ROW
            % (
                const[r.characterization_consistent],
                encode_basestring_ascii(r.check_id),
                const[r.equality],
                g6,
                const[r.holds],
                _json_side(r.lhs, lhs_approx, lhs_error),
                encode_basestring_ascii(r.mode),
                encode_basestring_ascii(r.notes),
                const[r.preconditions_met],
                const[r.predicted_equality],
                encode_basestring_ascii(r.relation),
                _json_side(r.rhs, rhs_approx, rhs_error),
                _json_float(lhs_approx - rhs_approx),
            )
        )
    return rows


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
    holds: bool | None = None,
) -> CheckReport:
    """Exact verdict on ``lhs relation rhs``.

    ``holds`` is the verdict for a statement that is more than its relation,
    such as an equivalence or a conjunction; it defaults to the relation's
    outcome.  With a positive ``rhs_den`` the right side is the quotient
    ``rhs / rhs_den``.  Radicals divide only by rationals, so the quotient is
    decided by cross-multiplication, ``lhs * rhs_den`` against ``rhs``, and
    displayed as a float only; :func:`compare` forms that product only when
    the integer bounds of the two sides overlap.
    """
    if rhs_den is None:
        cmp = compare(lhs, rhs)
        rhs_val = IndexValue(rhs, rhs.float_with_error)
    else:
        cmp = compare(lhs, rhs, rhs_den)
        rhs_val = IndexValue.of_quotient(rhs, rhs_den)
    outcome, equality = _relation_outcome(relation, cmp)
    consistent = None if predicted_equality is None else equality == predicted_equality
    return CheckReport(
        check_id,
        relation,
        IndexValue(lhs, lhs.float_with_error),
        rhs_val,
        outcome if holds is None else holds,
        equality,
        predicted_equality,
        consistent,
        True,
        "exact",
        notes,
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
        check_id,
        relation,
        IndexValue.of_float(lhs_f),
        IndexValue.of_float(rhs_f),
        holds,
        near_equal,
        None,
        None,
        True,
        "float",
        note,
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
        check_id, relation, nan, nan, True, False, None, None, False, "skipped", reason
    )
