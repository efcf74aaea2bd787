"""Stdlib validator for the ``repro.ledger/v2`` run-ledger schema.

Used two ways:

* imported by the obs test suite (``validate_event`` / ``validate_file``);
* run by CI as a script over a real run ledger::

      python tests/obs/schema_validator.py run.ledger.jsonl

  exits non-zero and prints one line per violation if any event does
  not conform to the schema documented in ``docs/OBSERVABILITY.md``.

Deliberately an *independent* implementation of the checks in
:meth:`repro.obs.ledger.LedgerReader.validate` (this script stays
stdlib-standalone for CI), so the two validators cross-check each
other's reading of the schema.  Beyond structure, span and metric
events are checked against the *registries* of span and metric names
the instrumentation is allowed to emit (:data:`KNOWN_SPAN_NAMES` /
:data:`KNOWN_METRIC_NAMES`): a typo'd or undocumented name is a schema
violation, which keeps the docs and the code from drifting apart.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

NUMBER = (int, float)
OPTIONAL_NUMBER = NUMBER + (type(None),)

LEDGER_SCHEMA = "repro.ledger/v2"

#: event type -> {field: (types, required)}; ``type`` is implicit
_SPEC: Dict[str, Dict[str, tuple]] = {
    "manifest": {
        "schema": ((str,), True),
        "run_id": ((str,), True),
        "created_unix": (NUMBER, True),
        "config": ((dict,), True),
        "entropy": ((dict,), True),
        "platform": ((dict,), True),
        "packages": ((dict,), True),
        "attrs": ((dict,), False),
    },
    "round": {
        "cursor": ((int,), True),
        "round": ((int,), True),
        "evaluated": ((bool,), True),
        "sim_time": (OPTIONAL_NUMBER, True),
        "record": ((dict,), True),
    },
    "alert": {
        "cursor": ((int,), True),
        "round": ((int,), True),
        "monitor": ((str,), True),
        "severity": ((str,), True),
        "message": ((str,), True),
        "evidence": ((dict,), True),
    },
    "span": {
        "cursor": ((int,), True),
        "name": ((str,), True),
        "span_id": ((int,), True),
        "parent_id": ((int, type(None)), True),
        "t_wall": (NUMBER, True),
        "duration": (NUMBER, True),
        "thread": ((str,), True),
        # set only on externally-reported spans (mp workers)
        "process": ((str,), False),
        "attrs": ((dict,), True),
        "sim_time": (OPTIONAL_NUMBER, True),
    },
    "round_metrics": {
        "cursor": ((int,), True),
        "round": ((int,), True),
        "sim_time": (OPTIONAL_NUMBER, True),
        "metrics": ((dict,), True),
    },
    "end": {
        "cursor": ((int,), True),
        "rounds": ((int,), True),
        "alerts": ((int,), True),
        "status": ((str,), True),
    },
}

_METRIC_KINDS = ("counter", "gauge", "histogram")

#: every span name the instrumentation may emit (docs/OBSERVABILITY.md)
KNOWN_SPAN_NAMES = frozenset(
    {
        "run",
        "estimate_smoothness",
        "round",
        "eval",
        "local_solve",
        "cohort_solve",
    }
)

#: every metric base name (the part before an optional ``{key}``)
KNOWN_METRIC_NAMES = frozenset(
    {
        "fl.client.local_steps",
        "fl.client.grad_evals",
        "fl.client.achieved_theta",
        "fl.client.achieved_theta_dist",
        "fl.run.smoothness_L",
        "fl.run.step_size_eta",
        "fl.round.straggler_gap",
        "fl.round.grad_dissimilarity",
        "fl.registry.size",
        "fl.cohort.lru_hits",
        "fl.cohort.hydrations",
        "fl.cohort.evictions",
        "fl.executor.batched_clients",
        "fl.executor.fallback_clients",
        "nn.conv2d.im2col_seconds",
        "nn.conv2d.col2im_seconds",
        "nn.layer.forward_seconds",
        "nn.layer.backward_seconds",
        "obs.monitor.alerts",
        "backend.shm.created",
        "backend.shm.attached",
        "backend.shm.unlinked",
    }
)


def _metric_base(mid: str) -> str:
    """``name{key}`` -> ``name`` (metric ids embed the optional key)."""
    return mid.split("{", 1)[0]


def _validate_metrics(metrics: Any, where: str, errors: List[str]) -> None:
    if not isinstance(metrics, dict):
        errors.append(f"{where}: 'metrics' must be an object")
        return
    for mid, m in metrics.items():
        if _metric_base(mid) not in KNOWN_METRIC_NAMES:
            errors.append(f"{where}: unregistered metric name {mid!r}")
        if not isinstance(m, dict) or m.get("kind") not in _METRIC_KINDS:
            errors.append(f"{where}: metric {mid!r} has no valid 'kind'")
            continue
        kind = m["kind"]
        if kind == "counter" and not isinstance(m.get("total"), NUMBER):
            errors.append(f"{where}: counter {mid!r} missing numeric 'total'")
        if kind == "histogram":
            counts, buckets = m.get("counts"), m.get("buckets")
            if not isinstance(counts, list) or not isinstance(buckets, list):
                errors.append(
                    f"{where}: histogram {mid!r} missing 'counts'/'buckets'"
                )
            elif len(counts) != len(buckets) + 1:
                errors.append(
                    f"{where}: histogram {mid!r} needs len(counts) == "
                    f"len(buckets) + 1"
                )


def validate_event(event: Any, where: str = "event") -> List[str]:
    """All schema violations for one parsed event (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object"]
    etype = event.get("type")
    spec = _SPEC.get(etype) if isinstance(etype, str) else None
    if spec is None:
        return [f"{where}: unknown event type {etype!r}"]
    for field, (types, required) in spec.items():
        if field not in event:
            if required:
                errors.append(f"{where}: {etype} event missing field {field!r}")
            continue
        if not isinstance(event[field], types):
            errors.append(
                f"{where}: {etype}.{field} has type "
                f"{type(event[field]).__name__}, expected one of "
                f"{tuple(t.__name__ for t in types)}"
            )
    known = set(spec) | {"type"}
    for field in event:
        if field not in known:
            errors.append(f"{where}: {etype} event has unknown field {field!r}")
    if etype == "span":
        if isinstance(event.get("duration"), NUMBER) and event["duration"] < 0:
            errors.append(f"{where}: span duration is negative")
        name = event.get("name")
        if isinstance(name, str) and name not in KNOWN_SPAN_NAMES:
            errors.append(f"{where}: unregistered span name {name!r}")
    if etype == "round_metrics" and "metrics" in event:
        _validate_metrics(event["metrics"], where, errors)
    return errors


def validate_file(path: str) -> List[str]:
    """All schema and ordering violations across one ledger file.

    Torn final lines are legal — that is the crash-recovery contract —
    but any earlier parse failure is corruption.
    """
    errors: List[str] = []
    lines: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                lines.append(line)
    if not lines:
        return [f"{path}: ledger contains no events"]
    events: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn final line: tolerated by contract
            errors.append(f"{path}:{i + 1}: corrupt mid-file line")
            return errors
        if not isinstance(event, dict):
            errors.append(f"{path}:{i + 1}: event is not an object")
            return errors
        events.append(event)
    if not events:
        return errors + [f"{path}: only a torn line, nothing committed"]
    first = events[0]
    if first.get("type") != "manifest":
        errors.append(f"{path}: first event must be 'manifest'")
    elif first.get("schema") != LEDGER_SCHEMA:
        errors.append(
            f"{path}: manifest schema {first.get('schema')!r} != "
            f"{LEDGER_SCHEMA!r}"
        )
    prev_cursor = -1
    prev_round = 0
    for i, event in enumerate(events):
        where = f"{path}: event {i}"
        errors.extend(validate_event(event, where))
        etype = event.get("type")
        if etype not in _SPEC:
            continue
        if etype == "manifest":
            if i != 0:
                errors.append(f"{where}: manifest must be the first event")
            continue
        cursor = event.get("cursor")
        if isinstance(cursor, int):
            if cursor <= prev_cursor:
                errors.append(
                    f"{where}: cursor {cursor!r} not strictly increasing "
                    f"(previous {prev_cursor})"
                )
            else:
                prev_cursor = cursor
        if etype == "round" and isinstance(event.get("round"), int):
            if event["round"] < prev_round:
                errors.append(
                    f"{where}: round {event['round']!r} must be a "
                    f"non-decreasing integer (previous {prev_round})"
                )
            else:
                prev_round = event["round"]
        if etype == "end" and i != len(events) - 1:
            errors.append(f"{where}: end event must be the last event")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(
            "usage: python tests/obs/schema_validator.py LEDGER.jsonl",
            file=sys.stderr,
        )
        return 2
    errors = validate_file(argv[0])
    for err in errors:
        print(err, file=sys.stderr)
    if not errors:
        print(f"{argv[0]}: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
