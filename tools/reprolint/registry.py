"""Rule base class, per-file context, and the global rule registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Type

from tools.reprolint.config import LintConfig
from tools.reprolint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.reprolint.dataflow import ModuleDataflow
    from tools.reprolint.projectindex import ProjectIndex


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis.

    ``tree`` and ``index`` are populated by the two-phase engine
    (:func:`tools.reprolint.engine.lint_paths`); whole-program rules
    must degrade gracefully when ``index`` is None.
    """

    path: Path
    display_path: str
    module_name: Optional[str]
    source: str
    lines: List[str]
    config: LintConfig
    tree: Optional[ast.AST] = None
    index: Optional["ProjectIndex"] = None
    _dataflow: Optional["ModuleDataflow"] = field(
        default=None, repr=False, compare=False
    )

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def dataflow(self) -> "ModuleDataflow":
        """The file's provenance analysis, built on first use and cached."""
        if self._dataflow is None:
            if self.tree is None:
                raise ValueError("FileContext has no tree; cannot run dataflow")
            from tools.reprolint.dataflow import ModuleDataflow

            self._dataflow = ModuleDataflow(
                self.tree,
                blessed_factories=tuple(self.config.rng_factories),
                theory_checks=tuple(self.config.theory_check_functions),
                positive_checks=tuple(self.config.positive_check_functions),
            )
        return self._dataflow


class Rule:
    """One statically-checkable invariant.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  Use :meth:`make_finding` so the
    location and source-line capture are applied uniformly.
    """

    rule_id: str = ""
    family: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def make_finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        **extra: object,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            message=message,
            path=ctx.display_path,
            line=lineno,
            col=col,
            severity=self.severity,
            source_line=ctx.source_line(lineno),
            extra=dict(extra),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or not cls.family:
        raise ValueError(f"rule {cls.__name__} must define rule_id and family")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    # Side-effect import: loading the package runs every @register
    # decorator and populates _REGISTRY; the binding itself is unused.
    from tools.reprolint import rules as _rules  # noqa: F401  # reprolint: disable=RL704

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def active_rules(config: LintConfig) -> List[Rule]:
    return [
        cls()
        for cls in all_rules()
        if cls.family in config.enabled_families
    ]
