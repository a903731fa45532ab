"""Artifact loading for the report tools, over one JSONL reader.

``analyze_latency.py`` resolved inputs and merged journeys its own way,
``run_chaos.py`` re-derived journey records from live sessions, and
every CLI that takes ``--faults`` re-implemented plan loading.  Worse,
the copies disagreed on malformed input: some paths raised a bare
``json.JSONDecodeError`` with no file context, and ad-hoc readers
skipped bad lines silently.  :func:`read_artifact` (defined in
:mod:`repro.telemetry.artifact`, the lowest layer that reads artifacts,
and re-exported here) is the single shared reader with one explicit
policy:

* **strict** (default) — a malformed line raises
  :class:`~repro.errors.ArtifactError` naming the file and line;
* **lenient** (``malformed="skip"``) — bad lines are skipped but
  *counted and returned*, so callers can surface a warning instead of
  quietly analyzing a truncated artifact.

Blank lines are tolerated everywhere (artifacts are append-journaled;
a crash can leave a trailing newline).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ArtifactError, ConfigurationError
from ..telemetry import merge_attribution
from ..telemetry.artifact import read_artifact
from ..telemetry.attribution import journey_record, journey_records


def resolve_artifact(arg, filename: str = "attribution.jsonl") -> Path:
    """Accept an artifact file or a directory holding ``filename``."""
    path = Path(arg)
    if path.is_dir():
        candidate = path / filename
        if not candidate.exists():
            raise ArtifactError(f"{path} has no {filename}")
        return candidate
    if not path.exists():
        raise ArtifactError(f"no such artifact: {path}")
    return path


def load_journeys(
    paths: Sequence, malformed: str = "error"
) -> Tuple[List[dict], List[str]]:
    """Journey records across all inputs; merged when there are several.

    Returns ``(journeys, warnings)``.  The merge is the deterministic
    campaign merge — sources sorted by label, journeys tagged with their
    source — so feeding two per-worker artifacts or two campaign outputs
    produces identical bytes regardless of argument order.
    """
    warnings: List[str] = []

    def one(path) -> List[dict]:
        records, skipped = read_artifact(path, malformed=malformed)
        if skipped:
            warnings.append(
                f"{path}: skipped {len(skipped)} malformed line(s) "
                f"(first at line {skipped[0]})"
            )
        return journey_records(records)

    if len(paths) == 1:
        return one(paths[0]), warnings
    sources = [(str(p), one(p)) for p in paths]
    return journey_records(merge_attribution(sources)), warnings


def journeys_of_session(session) -> List[dict]:
    """The completed-journey records of a live :class:`TraceSession`."""
    tracker = session.journeys
    if tracker is None:
        return []
    return [journey_record(j) for j in tracker.completed]


def load_fault_plan(path) -> str:
    """Read a fault-plan JSON file to its canonical string form.

    The canonical form is what rides in campaign-job kwargs (hashable,
    cache-key stable) — every ``--faults`` CLI flag funnels through
    here.  Raises :class:`ConfigurationError` on unreadable files or
    invalid plans, matching the error contract of the plan parser.
    """
    from ..faults import FaultPlan  # local: faults imports telemetry too

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
    return FaultPlan.from_json(text).to_json()


def load_report(path) -> dict:
    """Load a ``report.json`` (or a suite out-dir containing one)."""
    resolved = resolve_artifact(path, filename="report.json")
    try:
        report = json.loads(resolved.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArtifactError(f"{resolved}: not valid JSON ({exc})") from exc
    if not isinstance(report, dict) or "schema" not in report:
        raise ArtifactError(f"{resolved}: not a report.json (no schema field)")
    return report


def records_of_kind(records: Iterable[dict], kind: str) -> List[dict]:
    """The records of one ``kind`` in an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == kind]


def first_meta(records: Sequence[dict]) -> Optional[dict]:
    """The stream's leading ``meta`` record, wherever it is."""
    for record in records:
        if record.get("kind") == "meta":
            return record
    return None
