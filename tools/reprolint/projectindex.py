"""Whole-program project index, built in one pass over the lint targets.

The index gives rules the cross-file facts a single ``ast.walk`` cannot
see: which module defines/exports which names, who imports what (the
resolved import graph, relative imports included), which exported names
are actually consumed anywhere in the project, and which callables are
handed to executor pools.

Only files with a module identity (under ``<root>/<src_root>``) enter
the graph; tools/tests are parsed and linted but have no dotted name to
hang edges on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from tools.reprolint.asthelpers import (
    attribute_chain,
    callable_bare_name,
    submission_method,
)


@dataclass
class ImportBinding:
    """One local name introduced by an import statement."""

    binding: str  # the local name bound in this module
    module: str  # resolved source module (dotted)
    name: Optional[str]  # the imported member, None for whole-module imports
    lineno: int


@dataclass(frozen=True)
class SubmissionEdge:
    """One executor hand-off: ``module`` submits ``callee`` at ``lineno``.

    ``callee`` is the qualified ``module.func`` when the callable resolves
    to a project definition or a ``from``-import, otherwise the bare name
    (bound methods, lambdas, dynamically built callables).
    """

    module: str
    callee: str
    bare_name: str
    method: str  # "submit" | "map"
    lineno: int


@dataclass
class ModuleInfo:
    """Symbol table and reference summary of one project module."""

    name: str
    path: Path
    display_path: str
    tree: ast.AST
    defined: Dict[str, int] = field(default_factory=dict)
    imports: List[ImportBinding] = field(default_factory=list)
    exports: List[Tuple[str, int]] = field(default_factory=list)
    export_stmt: Optional[ast.stmt] = None
    used_names: Set[str] = field(default_factory=set)
    #: ``(root_binding, attr)`` pairs for every two-level attribute access,
    #: used to resolve ``module.member`` references.
    attribute_uses: Set[Tuple[str, str]] = field(default_factory=set)
    #: raw ``<pool>.submit/map`` sites: (callable node, method, lineno);
    #: resolved into :class:`SubmissionEdge` objects during finalize.
    submission_calls: List[Tuple[ast.AST, str, int]] = field(
        default_factory=list
    )

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def binding_lines(self) -> Dict[str, int]:
        """Every top-level binding (defs + imports) -> line introduced."""
        out = dict(self.defined)
        for imp in self.imports:
            out.setdefault(imp.binding, imp.lineno)
        return out


def _resolve_relative(module: str, is_package: bool, level: int, target: str) -> str:
    """Resolve ``from ...target import x`` inside ``module``."""
    parts = module.split(".")
    # A package's __init__ resolves level 1 against itself.
    anchor = parts if is_package else parts[:-1]
    if level > 1:
        anchor = anchor[: len(anchor) - (level - 1)]
    base = ".".join(anchor)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _collect(info: ModuleInfo) -> None:
    tree = info.tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            info.defined.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.defined.setdefault(target.id, node.lineno)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            info.defined.setdefault(elt.id, node.lineno)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            info.defined.setdefault(node.target.id, node.lineno)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = alias.asname or alias.name.split(".")[0]
                info.imports.append(
                    ImportBinding(binding, alias.name, None, node.lineno)
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                source = _resolve_relative(
                    info.name, info.is_package_init, node.level, node.module or ""
                )
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports.append(
                    ImportBinding(
                        alias.asname or alias.name, source, alias.name, node.lineno
                    )
                )
        elif isinstance(node, ast.Call):
            method = submission_method(node)
            if method is not None:
                info.submission_calls.append(
                    (node.args[0], method, node.lineno)
                )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            info.used_names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain and len(chain) >= 2:
                info.attribute_uses.add((chain[0], chain[1]))
                # ``import a.b.c`` + use ``a.b.c.f``: record the dotted
                # module prefix as well so deep imports resolve.
                for i in range(2, len(chain)):
                    info.attribute_uses.add((".".join(chain[:i]), chain[i]))

    # __all__: the *last* top-level assignment wins, mirroring runtime.
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            info.export_stmt = node
            info.exports = []
            if isinstance(node.value, (ast.List, ast.Tuple, ast.Set)):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        info.exports.append((elt.value, elt.lineno))


class ProjectIndex:
    """Symbol tables, import graph, export usage, and submission edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    @classmethod
    def build(cls, parsed: List[Tuple[Path, str, str, ast.AST]]) -> "ProjectIndex":
        """Build from ``(path, display_path, module_name, tree)``."""
        index = cls()
        for path, display, module_name, tree in parsed:
            info = ModuleInfo(
                name=module_name,
                path=path,
                display_path=display,
                tree=tree,
            )
            _collect(info)
            index.modules[module_name] = info
        index._finalize()
        return index

    def _finalize(self) -> None:
        self._import_graph: Dict[str, Set[str]] = {}
        self._import_lines: Dict[Tuple[str, str], int] = {}
        for name, info in self.modules.items():
            edges: Set[str] = set()
            for imp in info.imports:
                targets = []
                # ``from pkg import member`` where member is a submodule:
                # the dependence is on the submodule itself (Python >= 3.7
                # resolves it through sys.modules even mid-cycle), so the
                # edge skips the package init — otherwise every package
                # whose __init__ re-exports submodule names would be in a
                # structural cycle with all of them.
                dotted = f"{imp.module}.{imp.name}" if imp.name is not None else None
                if dotted is not None and dotted in self.modules:
                    targets.append(dotted)
                elif imp.module in self.modules:
                    targets.append(imp.module)
                for target in targets:
                    if target != name:
                        edges.add(target)
                        self._import_lines.setdefault((name, target), imp.lineno)
            self._import_graph[name] = edges

        # Which (module, exported name) pairs are consumed elsewhere.
        self._consumed: Set[Tuple[str, str]] = set()
        for consumer, info in self.modules.items():
            binding_to_module = {
                imp.binding: imp.module
                for imp in info.imports
                if imp.name is None or f"{imp.module}.{imp.name}" in self.modules
            }
            for imp in info.imports:
                if imp.name is not None:
                    self._consumed.add((imp.module, imp.name))
            for root, attr in info.attribute_uses:
                target = binding_to_module.get(root, root)
                if target in self.modules:
                    self._consumed.add((target, attr))

        # Executor hand-offs: which callables run on pool workers.
        self._submission_edges: List[SubmissionEdge] = []
        for name, info in self.modules.items():
            from_imports = {
                imp.binding: f"{imp.module}.{imp.name}"
                for imp in info.imports
                if imp.name is not None
            }
            module_imports = {
                imp.binding: imp.module
                for imp in info.imports
                if imp.name is None
            }
            for callable_node, method, lineno in info.submission_calls:
                bare = callable_bare_name(callable_node) or "<unknown>"
                callee = (
                    self._resolve_call(
                        callable_node, name, info, from_imports, module_imports
                    )
                    or bare
                )
                self._submission_edges.append(
                    SubmissionEdge(name, callee, bare, method, lineno)
                )

    # -- import graph ------------------------------------------------------

    def import_line(self, importer: str, imported: str) -> int:
        return self._import_lines.get((importer, imported), 1)

    def import_cycles(self) -> List[List[str]]:
        """Elementary import cycles, one per strongly connected component.

        Each cycle is reported as the SCC's module list, rotated to start
        from its lexicographically-smallest member (stable across runs).
        """
        sccs = _tarjan(self._import_graph)
        cycles: List[List[str]] = []
        for scc in sccs:
            if len(scc) > 1 or (
                len(scc) == 1 and scc[0] in self._import_graph.get(scc[0], set())
            ):
                anchor = min(scc)
                ordered = self._order_cycle(scc, anchor)
                cycles.append(ordered)
        return sorted(cycles)

    def _order_cycle(self, scc: List[str], anchor: str) -> List[str]:
        """Walk edges inside the SCC from ``anchor`` to present a readable path."""
        members = set(scc)
        path = [anchor]
        seen = {anchor}
        current = anchor
        while True:
            nxt = sorted(
                n for n in self._import_graph.get(current, set()) if n in members
            )
            step = next((n for n in nxt if n not in seen), None)
            if step is None:
                break
            path.append(step)
            seen.add(step)
            current = step
        return path

    # -- submission edges --------------------------------------------------

    def submission_edges(self) -> List[SubmissionEdge]:
        """Every ``<pool>.submit/map`` hand-off seen across the project."""
        return list(self._submission_edges)

    def submitted_callables(self) -> Set[str]:
        """Names known to run on executor workers somewhere in the project.

        Contains both qualified (``module.func``) and bare names; bound
        methods only contribute their bare attribute name, so membership
        checks on bare names over-approximate (by design — RL804 treats a
        name collision as a reason to look, not proof of a defect).
        """
        out: Set[str] = set()
        for edge in self._submission_edges:
            out.add(edge.callee)
            out.add(edge.bare_name)
        return out

    # -- exports -----------------------------------------------------------

    def export_consumed(self, module: str, name: str) -> bool:
        return (module, name) in self._consumed

    def _resolve_call(
        self,
        func: ast.AST,
        module: str,
        info: ModuleInfo,
        from_imports: Dict[str, str],
        module_imports: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            if func.id in from_imports:
                return from_imports[func.id]
            if func.id in info.defined:
                return f"{module}.{func.id}"
            return None
        chain = attribute_chain(func)
        if chain and len(chain) >= 2:
            root = module_imports.get(chain[0])
            if root is not None:
                return ".".join([root] + chain[1:])
        return None


def _tarjan(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's strongly-connected components (iterative)."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    result: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = sorted(graph.get(node, set()))
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in graph:
                    continue
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == node:
                        break
                result.append(sorted(scc))
    return result
