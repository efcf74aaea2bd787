"""Tracing core: nested spans with a thread-local context stack.

A :class:`Span` measures one named region of work (a federated round, a
client's local solve, a layer forward pass) with monotonic timestamps
and free-form attributes.  Spans nest: entering a span pushes it onto
the *current thread's* context stack, so children started on the same
thread pick up their parent automatically.  Work handed to a pool
thread (``ThreadPoolClientExecutor``) starts with an empty stack there;
the submitting code captures :meth:`Tracer.current` and passes it as
the explicit ``parent=`` so the child still nests under the right
round regardless of which worker runs it.

The module is stdlib-only by design — ``repro.obs`` sits at the bottom
of the layering DAG next to ``repro.utils`` and must stay importable
everywhere.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["NOOP_SPAN", "NoopSpan", "Span", "Tracer", "next_span_id"]

#: process-wide span-id source; ``next()`` on :func:`itertools.count` is
#: atomic under the GIL, so ids are unique across threads without a lock.
_span_ids = itertools.count(1)


def next_span_id() -> int:
    """Allocate a fresh span id from the process-wide counter.

    Used for *external* spans — work measured in another process and
    reported back.  A forked worker inherits a copy of the counter, so
    worker-side allocation would collide with the parent's ids; the
    contract is therefore that only the coordinating (parent) process
    allocates ids, stamping worker-measured timings on emit (see
    :meth:`repro.obs.facade.Telemetry.external_span`).
    """
    return next(_span_ids)


class Span:
    """One timed, attributed region of work.

    Use as a context manager::

        with tracer.span("round", s=3) as sp:
            ...
            sp.set_attribute("clients", 20)

    ``duration`` (seconds) and ``parent_id`` are valid after exit.
    """

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "t_start",
        "t_wall",
        "duration",
        "thread",
        "_explicit_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.span_id = next(_span_ids)
        self.parent_id: Optional[int] = None
        self._explicit_parent = parent
        self.t_start = 0.0
        self.t_wall = 0.0
        self.duration = 0.0
        self.thread = ""

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute (overwrites an existing key)."""
        self.attrs[key] = value

    def context(self) -> Dict[str, Any]:
        """Serializable parenting context for cross-process spans.

        Small and picklable by construction, so it can ride along with
        task arguments into a process-pool worker; the parent side
        later passes ``context()["span_id"]`` as the ``parent_id`` of
        the external span it emits for that worker's timing.
        """
        return {"span_id": self.span_id, "name": self.name}

    def __enter__(self) -> "Span":
        parent = self._explicit_parent
        if parent is None:
            parent = self.tracer.current()
        self.parent_id = parent.span_id if parent is not None else None
        self.thread = threading.current_thread().name
        self.tracer._push(self)
        self.t_wall = time.time()
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.t_start
        self.tracer._pop(self)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._finish(self)

    def to_event(self) -> Dict[str, Any]:
        """Serialize to the ledger's ``span`` event dict."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_wall": self.t_wall,
            "duration": self.duration,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration:.6f})"


class NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled.

    Carries no state, so one instance serves every call site and every
    thread; entering/exiting it costs two attribute lookups.
    """

    __slots__ = ()

    duration = 0.0
    span_id = 0
    parent_id = None
    name = ""

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def context(self) -> Dict[str, Any]:
        return {"span_id": 0, "name": ""}


NOOP_SPAN = NoopSpan()


class _Stack(threading.local):
    """Per-thread span stack (fresh, empty list in every thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []


class Tracer:
    """Creates spans and routes finished spans to an emit callback."""

    def __init__(self, on_finish: Optional[Callable[[Span], None]] = None) -> None:
        self._stack = _Stack()
        self._on_finish = on_finish

    def span(
        self, name: str, *, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Build (but do not enter) a span; ``parent`` overrides the stack."""
        return Span(self, name, parent=parent, attrs=attrs)

    def current(self) -> Optional[Span]:
        """Innermost open span on *this* thread, or ``None``."""
        spans = self._stack.spans
        return spans[-1] if spans else None

    def _push(self, span: Span) -> None:
        self._stack.spans.append(span)

    def _pop(self, span: Span) -> None:
        spans = self._stack.spans
        # Tolerate exotic exit orders (generator-held spans): remove the
        # specific span rather than blindly popping the top.
        if spans and spans[-1] is span:
            spans.pop()
        elif span in spans:  # pragma: no cover - defensive
            spans.remove(span)

    def _finish(self, span: Span) -> None:
        if self._on_finish is not None:
            self._on_finish(span)
