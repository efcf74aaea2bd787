"""File discovery, project indexing, rule execution, and filtering.

The engine runs in two phases:

1. **Index** — every target file is read and parsed once; files under
   ``<root>/<src_root>`` (the ones with a dotted module identity) are
   folded into a :class:`~tools.reprolint.projectindex.ProjectIndex`
   holding symbol tables, the resolved import graph, export usage, and
   executor submission edges.
2. **Rules** — each file's rules run against its cached tree with the
   shared index (and a lazily built per-file dataflow analysis) exposed
   through :class:`~tools.reprolint.registry.FileContext`.

Findings then pass through statement-scoped suppressions: an inline
``# reprolint: disable=RLxxx`` with its reason is the one way to accept
a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tools.reprolint.config import LintConfig
from tools.reprolint.findings import Finding, Severity, sort_findings
from tools.reprolint.projectindex import ProjectIndex
from tools.reprolint.registry import FileContext, active_rules
from tools.reprolint.suppressions import SuppressionIndex

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    files_checked: int = 0
    index: Optional[ProjectIndex] = None

    @property
    def gating(self) -> List[Finding]:
        return [f for f in self.findings if f.severity.gates]

    @property
    def exit_code(self) -> int:
        return 1 if self.gating else 0

    def counts_by_severity(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.severity.value] = out.get(f.severity.value, 0) + 1
        return out


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(
                    part in _SKIP_DIRS or part.startswith(".") for part in sub.parts
                ):
                    yield sub


def module_name_for(path: Path, config: LintConfig) -> Optional[str]:
    """Dotted module name for files under ``<root>/<src_root>``, else None.

    Only src-tree files get a module identity (and therefore layer
    scoping); tests, tools, and benches are still parsed, and
    rules treat ``module_name=None`` as out of scope where appropriate.
    """
    try:
        rel = path.resolve().relative_to((config.root / config.src_root).resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def display_path(path: Path, config: LintConfig) -> str:
    try:
        return path.resolve().relative_to(config.root.resolve()).as_posix()
    except ValueError:
        return str(path)


@dataclass
class ParsedFile:
    """One target file after the parse phase."""

    path: Path
    display_path: str
    module_name: Optional[str]
    source: str
    lines: List[str]
    tree: Optional[ast.AST]
    syntax_finding: Optional[Finding] = None


def _parse_file(path: Path, config: LintConfig) -> ParsedFile:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    shown = display_path(path, config)
    module_name = module_name_for(path, config)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        bad_line = (
            lines[exc.lineno - 1] if exc.lineno and exc.lineno <= len(lines) else ""
        )
        return ParsedFile(
            path,
            shown,
            module_name,
            source,
            lines,
            None,
            Finding(
                rule_id="RL000",
                message=f"syntax error: {exc.msg}",
                path=shown,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                severity=Severity.ERROR,
                source_line=bad_line,
            ),
        )
    return ParsedFile(path, shown, module_name, source, lines, tree)


def build_index(parsed: Sequence[ParsedFile]) -> ProjectIndex:
    """Phase-1 output: the whole-program index over src-tree files."""
    return ProjectIndex.build(
        [
            (p.path, p.display_path, p.module_name, p.tree)
            for p in parsed
            if p.module_name is not None and p.tree is not None
        ]
    )


def _check_parsed(
    parsed: ParsedFile, config: LintConfig, index: Optional[ProjectIndex]
) -> Tuple[List[Finding], int]:
    if parsed.tree is None:
        return [parsed.syntax_finding] if parsed.syntax_finding else [], 0
    ctx = FileContext(
        path=parsed.path,
        display_path=parsed.display_path,
        module_name=parsed.module_name,
        source=parsed.source,
        lines=parsed.lines,
        config=config,
        tree=parsed.tree,
        index=index,
    )
    findings: List[Finding] = []
    for rule in active_rules(config):
        findings.extend(rule.check(parsed.tree, ctx))
    suppressions = SuppressionIndex(parsed.lines, parsed.tree)
    kept = [f for f in findings if not suppressions.is_suppressed(f)]
    return kept, len(findings) - len(kept)


def lint_paths(paths: Sequence[Path], config: LintConfig) -> LintReport:
    """Lint every Python file under ``paths``."""
    report = LintReport()
    parsed_files = [
        _parse_file(path, config) for path in iter_python_files([Path(p) for p in paths])
    ]
    index = build_index(parsed_files)
    report.index = index
    raw: List[Finding] = []
    for parsed in parsed_files:
        file_findings, suppressed = _check_parsed(parsed, config, index)
        report.files_checked += 1
        report.suppressed_count += suppressed
        raw.extend(file_findings)
    report.findings = sort_findings(raw)
    return report
