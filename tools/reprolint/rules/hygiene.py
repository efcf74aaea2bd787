"""RL7xx — whole-program hygiene.

These rules consume the project index (import graph, symbol tables,
export usage) and the per-file CFG; they keep the module graph and the
public surface from rotting as the codebase grows:

* RL700 — import cycles among project modules (the layering DAG rule
  RL100 catches *upward* edges; a cycle of same-layer modules slips
  past it);
* RL701 — ``__all__`` names the module neither defines nor imports
  (a star-import or ``help()`` would raise ``AttributeError``);
* RL702 — advisory: an export no other project module consumes
  (candidate dead public API; a library legitimately exports outward-
  facing names, hence INFO);
* RL703 — statements no control-flow path reaches (code after
  ``return``/``raise``/``break``/``continue``, or after a
  ``while True`` with no break);
* RL704 — imported bindings never used in the file.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Iterable, List, Set, Tuple

from tools.reprolint.findings import Finding, Severity
from tools.reprolint.registry import FileContext, Rule, register


def _type_checking_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans of ``if TYPE_CHECKING:`` bodies (imports there feed
    string annotations, which a Name-load scan cannot observe)."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id
            if isinstance(test, ast.Name)
            else test.attr if isinstance(test, ast.Attribute) else None
        )
        if name == "TYPE_CHECKING":
            end = max(
                (getattr(s, "end_lineno", s.lineno) or s.lineno for s in node.body),
                default=node.lineno,
            )
            spans.append((node.lineno, end))
    return spans


@register
class ImportCycleRule(Rule):
    """RL700: the project import graph contains a cycle."""

    rule_id = "RL700"
    family = "hygiene"
    severity = Severity.ERROR
    description = (
        "Import cycle among project modules; cycles make import order "
        "load-bearing and defeat the layering DAG."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        index = ctx.index
        if index is None or ctx.module_name not in getattr(index, "modules", {}):
            return
        for cycle in index.import_cycles():
            # One finding per cycle, reported on its lexicographically
            # first member so the cycle is flagged exactly once per run.
            if cycle[0] != ctx.module_name:
                continue
            succ = cycle[1] if len(cycle) > 1 else cycle[0]
            lineno = index.import_line(cycle[0], succ)
            node = SimpleNamespace(lineno=lineno, col_offset=0)
            chain = " -> ".join(cycle + [cycle[0]])
            yield self.make_finding(
                ctx,
                node,
                f"import cycle: {chain}; break the cycle (move the shared "
                "piece down a layer or defer one import)",
                cycle=list(cycle),
            )


@register
class BrokenExportRule(Rule):
    """RL701: ``__all__`` entry that names nothing in the module."""

    rule_id = "RL701"
    family = "hygiene"
    severity = Severity.ERROR
    description = (
        "__all__ names a symbol the module neither defines nor imports; "
        "star-imports would raise AttributeError."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        index = ctx.index
        if index is None or ctx.module_name not in getattr(index, "modules", {}):
            return
        info = index.modules[ctx.module_name]
        bindings = info.binding_lines()
        for name, lineno in info.exports:
            if name in bindings or name.startswith("__"):
                continue
            node = SimpleNamespace(lineno=lineno, col_offset=0)
            yield self.make_finding(
                ctx,
                node,
                f"__all__ exports {name!r} but the module neither defines "
                "nor imports it",
                export=name,
                fixable="prune_export",
            )


@register
class DeadExportRule(Rule):
    """RL702: export never consumed anywhere in the project (advisory)."""

    rule_id = "RL702"
    family = "hygiene"
    severity = Severity.INFO
    description = (
        "__all__ export no other project module imports or references — "
        "candidate dead public API (advisory: outward-facing exports are "
        "legitimate)."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        index = ctx.index
        if index is None or ctx.module_name not in getattr(index, "modules", {}):
            return
        info = index.modules[ctx.module_name]
        if info.is_package_init:
            return  # package __all__ is the outward API boundary by design
        bindings = info.binding_lines()
        for name, lineno in info.exports:
            if name not in bindings:
                continue  # RL701's finding
            if index.export_consumed(ctx.module_name, name):
                continue
            node = SimpleNamespace(lineno=lineno, col_offset=0)
            yield self.make_finding(
                ctx,
                node,
                f"export {name!r} is not imported or referenced by any "
                "other project module",
                export=name,
            )


@register
class UnreachableCodeRule(Rule):
    """RL703: statements no control-flow path reaches."""

    rule_id = "RL703"
    family = "hygiene"
    severity = Severity.WARNING
    description = (
        "Unreachable statement (after return/raise/break/continue or an "
        "always-true loop with no break)."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        # One finding per straight-line dead region, anchored on its first
        # statement; nested regions (a dead compound's body) fall inside
        # the header statement's span and are folded into it.
        regions = []
        for group in ctx.dataflow().unreachable_blocks():
            lead = group[0]
            end = max(
                getattr(u, "end_lineno", u.lineno) or u.lineno for u in group
            )
            regions.append((lead.lineno, lead.col_offset, end, lead))
        regions.sort(key=lambda r: (r[0], r[1]))
        reported_end = 0
        for lineno, _col, end, lead in regions:
            if lineno <= reported_end:
                reported_end = max(reported_end, end)
                continue  # inside a region already reported
            reported_end = end
            yield self.make_finding(
                ctx,
                lead,
                "unreachable code: no control-flow path reaches this "
                "statement",
            )


@register
class UnusedImportRule(Rule):
    """RL704: imported binding never used in the file."""

    rule_id = "RL704"
    family = "hygiene"
    severity = Severity.WARNING
    description = (
        "Imported name is never used in this file (package __init__ "
        "re-exports listed in __all__ are exempt)."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        used: Set[str] = set()
        exported: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
        for node in tree.body if hasattr(tree, "body") else []:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                if isinstance(node.value, (ast.List, ast.Tuple, ast.Set)):
                    exported |= {
                        e.value
                        for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    }
        is_init = ctx.path.name == "__init__.py"
        has_all = bool(exported)
        type_checking = _type_checking_spans(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                start <= node.lineno <= end for start, end in type_checking
            ):
                # TYPE_CHECKING imports serve string annotations the
                # Name-load scan cannot see.
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    yield from self._flag_if_unused(
                        ctx, node, alias, binding, used, exported, is_init, has_all
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.asname is not None and alias.asname == alias.name:
                        continue  # ``import x as x``: explicit re-export idiom
                    binding = alias.asname or alias.name
                    yield from self._flag_if_unused(
                        ctx, node, alias, binding, used, exported, is_init, has_all
                    )

    def _flag_if_unused(
        self,
        ctx: FileContext,
        node: ast.stmt,
        alias: ast.alias,
        binding: str,
        used: Set[str],
        exported: Set[str],
        is_init: bool,
        has_all: bool,
    ) -> Iterable[Finding]:
        if binding in used or binding in exported:
            return
        if is_init and not has_all:
            # __init__ without __all__: imports define the implicit
            # public surface; removal would change the package API.
            return
        yield self.make_finding(
            ctx,
            node,
            f"imported name {binding!r} is never used in this file",
            binding=binding,
            fixable="remove_import",
        )
