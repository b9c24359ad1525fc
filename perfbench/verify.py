"""Output checks for each workload; any problem makes the run incorrect.

Each ``check_*`` returns an :class:`Outcome`: operations attempted, operations
failed (raised, reported a violation or characterization mismatch, or ended
with a nonzero exit code) and a list of problems.  A run is correct only when
the list is empty.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# Connected graphs on n = 1..7 vertices, up to isomorphism.
A001349 = (1, 1, 2, 6, 21, 112, 853)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _one_value(values, what: str, outcome: Outcome) -> None:
    if len(set(values)) > 1:
        outcome.problems.append(f"{what} differs between processes: {sorted(set(values))}")


def check_enum(children, reference: dict) -> Outcome:
    """``children``: (exit code, record or None) per process."""
    out = Outcome()
    for code, record in children:
        out.attempted += len(A001349)
        if code != 0 or record is None:
            out.failed += len(A001349)
            out.problems.append(f"enumeration process exited with {code}")
            continue
        counts = tuple(record["counts"])
        bad = sum(got != want for got, want in zip(counts, A001349))
        bad += abs(len(counts) - len(A001349))
        if bad:
            out.failed += bad
            out.problems.append(f"class counts {counts} != A001349 {A001349}")
        if record["digest"] != reference["digest"]:
            out.problems.append("digest of (n, m, GA1) multiset differs from the reference")
    return out


def check_sweep(children, expected_graphs: int, digest: str | None) -> Outcome:
    """``digest`` is the stored verdict digest for this seed, or None."""
    out = Outcome()
    digests = []
    for code, record in children:
        out.attempted += expected_graphs
        if code != 0 or record is None:
            out.failed += expected_graphs
            out.problems.append(f"sweep process exited with {code}")
            continue
        out.failed += record["failed"]
        if record["graphs"] != expected_graphs:
            out.problems.append(f"checked {record['graphs']} of {expected_graphs} graphs")
        if record["violations"] or record["mismatches"]:
            out.problems.append(
                f"{record['violations']} violations, "
                f"{record['mismatches']} characterization mismatches"
            )
        digests.append(record["digest"])
    _one_value(digests, "verdict digest", out)
    if digest is not None and digests and digests[0] != digest:
        out.problems.append("verdict digest differs from the reference for this seed")
    return out


def failed_row(row: dict) -> bool:
    violated = row.get("preconditions_met") and not row.get("holds")
    return bool(violated) or row.get("characterization_consistent") is False


def canonical_digest(groups: dict[str, list[dict]]) -> str:
    """Order-independent digest of the CLI rows, grouped by input graph."""
    h = hashlib.sha256()
    for g6 in sorted(groups):
        h.update(json.dumps([g6, groups[g6]], sort_keys=True).encode())
    return h.hexdigest()


def check_json_output(
    children, lines: list[str], reference: dict, stdout_sha256: str | None
) -> Outcome:
    """``children``: (exit code, stdout bytes) per CLI process.

    Every process must print the same bytes.  Those bytes must parse as one
    row list whose graphs appear in input order, with no violation, and whose
    rows match the reference up to the order of the graphs.
    ``stdout_sha256`` is the stored hash of the exact bytes for this input
    order, or None when no reference exists for the seed.
    """
    out = Outcome()
    shas = []
    text = None
    for code, stdout in children:
        out.attempted += len(lines)
        if code != 0:
            out.problems.append(f"CLI exited with {code}")
            if code != 1:
                out.failed += len(lines)
                continue
        shas.append(hashlib.sha256(stdout).hexdigest())
        text = stdout
    _one_value(shas, "CLI stdout", out)
    if text is None:
        return out
    if stdout_sha256 is not None and shas[0] != stdout_sha256:
        out.problems.append("CLI stdout differs from the reference bytes")
    try:
        rows = json.loads(text)
    except ValueError as exc:
        rows = exc
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        out.problems.append(f"CLI stdout is not a JSON list of rows: {rows!s:.200}")
        out.failed += len(lines) * len(shas)
        return out
    groups: dict[str, list[dict]] = {}
    order: list[str] = []
    for row in rows:
        g6 = row.get("graph6")
        if not order or order[-1] != g6:
            order.append(g6)
        groups.setdefault(g6, []).append(row)
    if order != lines:
        out.problems.append("CLI output graphs are not in input order")
    bad = sum(any(map(failed_row, rs)) for rs in groups.values())
    if bad:
        out.failed += bad * len(shas)
        out.problems.append(f"{bad} graphs report a violation or mismatch")
    if canonical_digest(groups) != reference["canonical_sha256"]:
        out.problems.append("CLI rows differ from the reference")
    return out
