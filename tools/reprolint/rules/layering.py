"""RL1xx — import-layering rules.

The intended package DAG (``DEFAULT_LAYERS`` in :mod:`tools.reprolint.config`)::

    utils/exceptions  ->  nn/models/datasets  ->  core  ->  fl  ->  cli/analysis/viz

A module may import from its own layer or below; an import pointing at a
*higher* layer couples low-level algorithm code to orchestration code,
which is exactly how the original ``repro.core -> repro.fl`` cycle risk
crept in.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from tools.reprolint.findings import Finding, Severity
from tools.reprolint.registry import FileContext, Rule, register


def _imported_modules(tree: ast.AST, module_name: str) -> List[Tuple[str, ast.AST]]:
    """Absolute module targets of every import statement in the file."""
    out: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_from(node, module_name)
            if target:
                out.append((target, node))
    return out


def _resolve_from(node: ast.ImportFrom, module_name: str) -> Optional[str]:
    if node.level == 0:
        return node.module
    # Relative import: climb ``level`` packages up from this module.
    parts = module_name.split(".")
    # ``from . import x`` inside package ``a.b`` (module a.b.c) targets a.b
    base = parts[: len(parts) - node.level]
    if not base:
        return None
    prefix = ".".join(base)
    return f"{prefix}.{node.module}" if node.module else prefix


@register
class UpwardImportRule(Rule):
    """RL100: import points at a higher layer than the importing module."""

    rule_id = "RL100"
    family = "layering"
    severity = Severity.ERROR
    description = (
        "Upward import across the configured layer DAG "
        "(utils -> nn/models/datasets -> core -> fl -> cli/analysis/viz)."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module_name is None:
            return
        own_layer = ctx.config.layer_of(ctx.module_name)
        if own_layer is None:
            return
        for target, node in _imported_modules(tree, ctx.module_name):
            target_layer = ctx.config.layer_of(target)
            if target_layer is None:
                continue  # stdlib / third-party
            if target_layer > own_layer:
                yield self.make_finding(
                    ctx,
                    node,
                    f"{ctx.module_name} (layer {own_layer}) imports {target} "
                    f"(layer {target_layer}): imports must point at the same "
                    "or a lower layer",
                    importer=ctx.module_name,
                    imported=target,
                )


@register
class InitOnlyAggregationRule(Rule):
    """RL101: wildcard import inside the package (hides layering edges)."""

    rule_id = "RL101"
    family = "layering"
    severity = Severity.WARNING
    description = "``from repro.x import *`` hides which layers a module uses."

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module_name is None:
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "*" for a in node.names)
            ):
                target = _resolve_from(node, ctx.module_name) or "?"
                if ctx.config.layer_of(target) is None:
                    continue
                yield self.make_finding(
                    ctx,
                    node,
                    f"wildcard import from {target}: layering cannot be "
                    "checked through *-imports; import names explicitly",
                    imported=target,
                )
