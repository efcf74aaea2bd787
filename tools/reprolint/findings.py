"""Finding and severity primitives shared by every reprolint rule."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class Severity(str, Enum):
    """How a finding affects the exit code.

    ``ERROR`` and ``WARNING`` gate (non-zero exit unless suppressed
    inline); ``INFO`` is advisory and never fails a run.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def gates(self) -> bool:
        return self in (Severity.ERROR, Severity.WARNING)


#: Ordering used when sorting reports: most severe first.
SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class Finding:
    """One rule violation at a concrete source location."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: Severity = Severity.ERROR
    source_line: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def fingerprint(self) -> str:
        """Line-number-independent identity reported in JSON output.

        Keyed on (path, rule, source text) so unrelated edits that shift
        line numbers leave it unchanged.
        """
        text = self.source_line.strip()
        digest = hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]
        return f"{self.path}::{self.rule_id}::{digest}"

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


def sort_findings(findings) -> list:
    """Stable report order: path, line, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))

