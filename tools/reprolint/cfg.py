"""Intraprocedural control-flow graphs over ``ast`` statement lists.

One :class:`CFG` is built per *scope* (a module body or one function
body).  Blocks hold the scope's **simple** statements in execution
order; compound statements contribute edges (branch, loop back-edge,
exception, ``finally`` chaining) and their headers are recorded as
ordinary units so dataflow can evaluate conditions and ``with`` items.

The graph is deliberately approximate where Python's dynamic semantics
make precision impossible:

* every statement inside a ``try`` body may raise, so each handler
  entry is reachable from before the body ran at all *and* from after
  its effects (modelled as edges from the pre-``try`` block and the
  try-body entry/exit blocks to each handler);
* a ``finally`` suite is chained on every exit path we model (normal
  completion, handled exception, ``return``/``break``/``continue``);
* calls are not assumed to diverge; only ``return``/``raise``/
  ``break``/``continue`` terminate a block's fallthrough.

That is sound for the two consumers here: reaching-definitions style
provenance (:mod:`tools.reprolint.dataflow`), which only needs a
superset of feasible paths, and unreachable-code detection (RL703),
which only reports blocks with *no* path from the entry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

#: Compound statements: everything else is a "simple" unit.
_COMPOUND = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)

# ``ast.TryStar`` exists on Python >= 3.11 only.
_TRY_TYPES = (ast.Try,) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


@dataclass
class Block:
    """A straight-line sequence of statement units."""

    id: int
    units: List[ast.stmt] = field(default_factory=list)
    succ: Set[int] = field(default_factory=set)
    pred: Set[int] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [getattr(u, "lineno", "?") for u in self.units]
        return f"Block({self.id}, lines={lines}, succ={sorted(self.succ)})"


@dataclass
class CFG:
    """Control-flow graph of one scope."""

    blocks: Dict[int, Block]
    entry: int
    exit: int

    def successors(self, block_id: int) -> List[Block]:
        return [self.blocks[s] for s in sorted(self.blocks[block_id].succ)]

    def reachable(self) -> Set[int]:
        """Block ids reachable from the entry block."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(self.blocks[b].succ)
        return seen

    def unreachable_units(self) -> List[ast.stmt]:
        """Statement units in blocks no path from the entry reaches."""
        out: List[ast.stmt] = []
        for group in self.unreachable_blocks():
            out.extend(group)
        return out

    def unreachable_blocks(self) -> List[List[ast.stmt]]:
        """Unreachable units grouped by block (one straight-line region each)."""
        live = self.reachable()
        return [
            self.blocks[bid].units
            for bid in sorted(self.blocks)
            if bid not in live and self.blocks[bid].units
        ]

    def rpo(self) -> List[int]:
        """Reverse post-order over reachable blocks (good worklist order)."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            stack = [(bid, iter(sorted(self.blocks[bid].succ)))]
            seen.add(bid)
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(sorted(self.blocks[nxt].succ))))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))


class _Builder:
    """Recursive-descent CFG construction with loop/finally context."""

    def __init__(self) -> None:
        self._blocks: Dict[int, Block] = {}
        self._next_id = 0
        # (break targets, continue targets) for the innermost loop.
        self._loop_stack: List[tuple] = []

    def new_block(self) -> Block:
        block = Block(self._next_id)
        self._blocks[self._next_id] = block
        self._next_id += 1
        return block

    def edge(self, src: Optional[Block], dst: Block) -> None:
        if src is None:
            return
        src.succ.add(dst.id)
        dst.pred.add(src.id)

    def build(self, body: List[ast.stmt]) -> CFG:
        entry = self.new_block()
        exit_block = self.new_block()
        end = self._emit_body(body, entry, exit_block)
        self.edge(end, exit_block)
        return CFG(blocks=self._blocks, entry=entry.id, exit=exit_block.id)

    # -- statement dispatch ------------------------------------------------

    def _emit_body(
        self, body: List[ast.stmt], current: Optional[Block], scope_exit: Block
    ) -> Optional[Block]:
        """Emit ``body`` starting in ``current``.

        Returns the block normal execution falls out of, or ``None`` when
        every path leaves via return/raise/break/continue.  When flow is
        already dead, later statements still get (unreachable) blocks so
        RL703 can point at them.
        """
        for stmt in body:
            if current is None:
                current = self.new_block()  # unreachable continuation
            current = self._emit_stmt(stmt, current, scope_exit)
        return current

    def _emit_stmt(
        self, stmt: ast.stmt, current: Block, scope_exit: Block
    ) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, current, scope_exit)
        if isinstance(stmt, (ast.While,)):
            return self._emit_while(stmt, current, scope_exit)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._emit_for(stmt, current, scope_exit)
        if isinstance(stmt, _TRY_TYPES):
            return self._emit_try(stmt, current, scope_exit)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._emit_with(stmt, current, scope_exit)

        # Simple unit: record it, then handle flow terminators.
        current.units.append(stmt)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.edge(current, self._blocks[scope_exit.id])
            return None
        if isinstance(stmt, ast.Break):
            if self._loop_stack:
                self.edge(current, self._loop_stack[-1][0])
            else:  # malformed outside a loop; treat as scope exit
                self.edge(current, scope_exit)
            return None
        if isinstance(stmt, ast.Continue):
            if self._loop_stack:
                self.edge(current, self._loop_stack[-1][1])
            else:
                self.edge(current, scope_exit)
            return None
        return current

    # -- compound statements ----------------------------------------------

    def _emit_if(self, stmt: ast.If, current: Block, scope_exit: Block):
        current.units.append(stmt)  # header unit: the test expression
        join = self.new_block()
        then_entry = self.new_block()
        self.edge(current, then_entry)
        then_end = self._emit_body(stmt.body, then_entry, scope_exit)
        self.edge(then_end, join)
        if stmt.orelse:
            else_entry = self.new_block()
            self.edge(current, else_entry)
            else_end = self._emit_body(stmt.orelse, else_entry, scope_exit)
            self.edge(else_end, join)
        else:
            self.edge(current, join)
        # ``if True:``/``if False:`` constant tests still get both edges:
        # precision there belongs to a constant-folding pass, not the CFG.
        return join if join.pred else None

    def _emit_while(self, stmt: ast.While, current: Block, scope_exit: Block):
        head = self.new_block()
        head.units.append(stmt)  # header unit: the loop test
        self.edge(current, head)
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(head, body_entry)

        is_while_true = (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value) is True
        )
        self._loop_stack.append((after, head))
        body_end = self._emit_body(stmt.body, body_entry, scope_exit)
        self._loop_stack.pop()
        self.edge(body_end, head)  # back-edge

        if stmt.orelse:
            else_entry = self.new_block()
            if not is_while_true:
                self.edge(head, else_entry)
            else_end = self._emit_body(stmt.orelse, else_entry, scope_exit)
            self.edge(else_end, after)
        elif not is_while_true:
            self.edge(head, after)  # test-false exit (only if test can be false)
        return after if after.pred else None

    def _emit_for(self, stmt, current: Block, scope_exit: Block):
        head = self.new_block()
        head.units.append(stmt)  # header unit: iterable + target binding
        self.edge(current, head)
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(head, body_entry)

        self._loop_stack.append((after, head))
        body_end = self._emit_body(stmt.body, body_entry, scope_exit)
        self._loop_stack.pop()
        self.edge(body_end, head)  # back-edge

        if stmt.orelse:
            else_entry = self.new_block()
            self.edge(head, else_entry)
            else_end = self._emit_body(stmt.orelse, else_entry, scope_exit)
            self.edge(else_end, after)
        else:
            self.edge(head, after)  # iterator exhausted
        return after

    def _emit_with(self, stmt, current: Block, scope_exit: Block):
        current.units.append(stmt)  # header unit: context managers + as-bindings
        body_entry = self.new_block()
        self.edge(current, body_entry)
        return self._emit_body(stmt.body, body_entry, scope_exit)

    def _emit_try(self, stmt, current: Block, scope_exit: Block):
        try_entry = self.new_block()
        self.edge(current, try_entry)
        body_end = self._emit_body(stmt.body, try_entry, scope_exit)

        handler_ends: List[Optional[Block]] = []
        handler_entries: List[Block] = []
        for handler in stmt.handlers:
            h_entry = self.new_block()
            h_entry.units.append(handler)  # header unit: the as-name binding
            handler_entries.append(h_entry)
            # Any statement in the try body may raise: approximate with
            # edges from before the body ran at all, from the body's
            # entry block, and from its normal-exit block.
            self.edge(current, h_entry)
            self.edge(try_entry, h_entry)
            self.edge(body_end, h_entry)
            handler_ends.append(self._emit_body(handler.body, h_entry, scope_exit))

        else_end: Optional[Block] = body_end
        if stmt.orelse and body_end is not None:
            else_entry = self.new_block()
            self.edge(body_end, else_entry)
            else_end = self._emit_body(stmt.orelse, else_entry, scope_exit)

        if stmt.finalbody:
            fin_entry = self.new_block()
            self.edge(else_end, fin_entry)
            for end in handler_ends:
                self.edge(end, fin_entry)
            if not stmt.handlers:
                # Unhandled exceptions still run the finally suite.
                self.edge(try_entry, fin_entry)
            fin_end = self._emit_body(stmt.finalbody, fin_entry, scope_exit)
            return fin_end

        join = self.new_block()
        self.edge(else_end, join)
        for end in handler_ends:
            self.edge(end, join)
        return join if join.pred else None


def build_cfg(body: List[ast.stmt]) -> CFG:
    """Build the CFG of one scope (module body or function body)."""
    return _Builder().build(body)
