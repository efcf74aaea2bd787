"""Text and JSON renderers for a :class:`LintReport`."""

from __future__ import annotations

import json

from tools.reprolint.engine import LintReport
from tools.reprolint.findings import SEVERITY_ORDER


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    lines = []
    for f in report.findings:
        lines.append(f"{f.location()}: {f.rule_id} {f.severity.value}: {f.message}")
        if verbose and f.source_line.strip():
            lines.append(f"    {f.source_line.strip()}")
    counts = report.counts_by_severity()
    summary = ", ".join(
        f"{counts[sev.value]} {sev.value}(s)"
        for sev in sorted(SEVERITY_ORDER, key=SEVERITY_ORDER.get)
        if counts.get(sev.value)
    )
    tail = (
        f"checked {report.files_checked} file(s): "
        + (summary if summary else "no findings")
    )
    if report.suppressed_count:
        tail += f"; {report.suppressed_count} suppressed inline"
    lines.append(tail)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "files_checked": report.files_checked,
        "counts": report.counts_by_severity(),
        "suppressed": report.suppressed_count,
        "exit_code": report.exit_code,
        "findings": [f.as_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2)
