"""Outside-in span tracer for the benchmark's traced run.

Nothing here is imported by ``repro``: the traced subprocess replaces
public entry points (module-level names that ``repro.fl.runner``,
``repro.fl.server``, ``repro.fl.executor`` and
``repro.core.local.proxvr`` look up at call time, plus methods of the
objects those factories return) with wrappers that record a span around
each call.  Spans stay in memory; :func:`layer_metrics` reduces them to
the per-layer numbers once the run has ended.

A span is ``(id, name, start, end, parent, round, thread)``.  Parents
come from a per-thread stack; a span opened on a pool thread with an
empty stack is parented to the currently open ``fl.executor.run_round``
span, which is the call that submitted it.  ``round`` is the training
round the span started in (``None`` during setup), taken from the
bench's ledger stub.  A span's self time is its duration minus the part
of its interval covered by the union of its children's intervals.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

SOLVE_SPANS = ("core.local.solve", "core.local.solve_cohort")

#: NN layer class name -> (forward span, backward span); others -> nn.other
NN_SPANS = {
    "Conv2D": ("nn.conv2d.fwd", "nn.conv2d.bwd"),
    "MaxPool2D": ("nn.maxpool2d", "nn.maxpool2d"),
    "Dense": ("nn.dense", "nn.dense"),
}
NN_OTHER = "nn.other"

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters from wrapped calls on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: training round in progress (``None`` before round 1 and after close)
        self.round: Optional[int] = None
        #: id of the open ``fl.executor.run_round`` span, for pool threads
        self.pool_parent: Optional[int] = None
        #: the client pool ``build_client_pool`` returned
        self.pool = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        after: Optional[Callable] = None,
        pool_root: bool = False,
    ) -> Callable:
        """``fn`` inside a span; ``after(args, result)`` runs once it returns."""
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer.pool_parent
            with tracer._lock:
                tracer._next_id += 1
                sid = tracer._next_id
            stack.append(sid)
            if pool_root:
                tracer.pool_parent = sid
            rnd = tracer.round
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool_root:
                    tracer.pool_parent = None
                span = Span(sid, name, start, end, parent, rnd, threading.get_ident())
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_iter(self, key: str, items: Iterable) -> Iterator:
        """Yield ``items`` unchanged, counting each one under ``key``."""
        for item in items:
            self.add(key)
            yield item


def _wrap_attr(obj, attr: str, make: Callable[[Callable], Callable], undo: Optional[list] = None) -> None:
    """Replace ``obj.attr`` with ``make(obj.attr)``; remember how to undo it."""
    if undo is not None:
        undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
    setattr(obj, attr, make(getattr(obj, attr)))


def _restore(undo: list) -> None:
    for obj, attr, original in reversed(undo):
        if original is _MISSING:
            delattr(obj, attr)
        else:
            setattr(obj, attr, original)


def _returning(fn: Callable, instrument: Callable) -> Callable:
    """``fn`` whose non-``None`` result is instrumented before it is returned."""

    def factory(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is not None:
            instrument(result)
        return result

    return factory


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap one model instance's gradient methods and its NN layers."""
    for attr in ("gradient", "loss_and_gradient"):
        _wrap_attr(model, attr, lambda fn: tracer.wrap("models.grad", fn))
    network = getattr(model, "network", None)
    for layer in getattr(network, "layers", ()):
        fwd, bwd = NN_SPANS.get(type(layer).__name__, (NN_OTHER, NN_OTHER))
        _wrap_attr(layer, "forward", lambda fn, n=fwd: tracer.wrap(n, fn))
        _wrap_attr(layer, "backward", lambda fn, n=bwd: tracer.wrap(n, fn))


def instrument_lazy_dataset(tracer: Tracer, dataset) -> None:
    """Time every on-demand shard regeneration of a lazy dataset."""
    _wrap_attr(dataset, "device", lambda fn: tracer.wrap("datasets.shard", fn))


def _instrument_pool(tracer: Tracer, pool) -> None:
    def hydrate_after(args, result):
        tracer.add("lookups", len(args[0]))

    _wrap_attr(
        pool, "hydrate", lambda fn: tracer.wrap("fl.registry.hydrate", fn, after=hydrate_after)
    )
    _wrap_attr(
        pool, "iter_clients", lambda fn: lambda indices: tracer.count_iter("lookups", fn(indices))
    )
    tracer.pool = pool


def _instrument_executor(tracer: Tracer, executor) -> None:
    def run_round_after(args, result):
        tracer.add("round_clients", len(args[0]))

    _wrap_attr(
        executor,
        "run_round",
        lambda fn: tracer.wrap(
            "fl.executor.run_round", fn, after=run_round_after, pool_root=True
        ),
    )


def _instrument_solver(tracer: Tracer, solver) -> None:
    def solve_after(args, result):
        tracer.add("client_steps", result.num_steps)

    def cohort_after(args, result):
        if result is not None:
            tracer.add("batched_clients", len(result))
            tracer.add("client_steps", sum(r.num_steps for r in result))

    _wrap_attr(solver, "solve", lambda fn: tracer.wrap("core.local.solve", fn, after=solve_after))
    _wrap_attr(
        solver,
        "solve_cohort",
        lambda fn: tracer.wrap("core.local.solve_cohort", fn, after=cohort_after),
    )


def _counting_metric(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A metrics pass inside a span, counting the clients it consumes."""
    traced = tracer.wrap(name, fn)

    def metric(model, clients, *args, **kwargs):
        return traced(model, tracer.count_iter("eval_clients", clients), *args, **kwargs)

    return metric


@contextmanager
def installed(tracer: Tracer):
    """Install every module- and class-level wrap point; restore on exit."""
    import repro.core.estimators as estimators
    import repro.core.local.proxvr as proxvr
    import repro.core.proximal as proximal
    import repro.fl.executor as executor_mod
    import repro.fl.runner as runner
    import repro.fl.server as server

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def instrumenting(instrument):
        return lambda fn: _returning(fn, instrument)

    undo: list = []
    _wrap_attr(runner, "resolve_smoothness", span("fl.runner.smoothness"), undo)
    _wrap_attr(
        runner,
        "build_client_pool",
        lambda fn: _returning(
            tracer.wrap("fl.runner.pool_build", fn), lambda p: _instrument_pool(tracer, p)
        ),
        undo,
    )
    _wrap_attr(runner, "make_executor", instrumenting(lambda e: _instrument_executor(tracer, e)), undo)
    _wrap_attr(runner, "make_local_solver", instrumenting(lambda s: _instrument_solver(tracer, s)), undo)
    for name, metric_span in (
        ("global_loss_and_gradient_norm", "fl.metrics.loss_grad"),
        ("global_accuracy", "fl.metrics.accuracy"),
    ):
        _wrap_attr(
            server, name, lambda fn, n=metric_span: _counting_metric(tracer, n, fn), undo
        )
    _wrap_attr(
        executor_mod,
        "make_batch_kernel",
        instrumenting(
            lambda k: _wrap_attr(k, "gradient_stack", span("models.batched.gradient_stack"))
        ),
        undo,
    )
    estimate = span("core.estimators.estimate")
    _wrap_attr(
        proxvr,
        "make_batched_estimator",
        instrumenting(lambda e: _wrap_attr(e, "estimate", estimate)),
        undo,
    )
    # Sequential-path estimators are built inside ``solve`` from the
    # class, so their ``estimate`` is wrapped on the class itself.
    for cls in (estimators.SGDEstimator, estimators.SVRGEstimator, estimators.SARAHEstimator):
        _wrap_attr(cls, "estimate", estimate, undo)
    for attr in ("__call__", "apply_"):
        _wrap_attr(proximal.QuadraticProx, attr, span("core.proximal.prox"), undo)
    try:
        yield tracer
    finally:
        _restore(undo)


# -- reduction ----------------------------------------------------------


def covered_length(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


#: per-layer times that are exactly zero on workloads that never enter
#: the layer; the JSON line carries them as shares of train time
SHARE_OF = {
    "datasets.shard_share": "datasets.shard_s",
    "core.estimators.estimate_share": "core.estimators.estimate_self_s",
    "core.proximal.prox_share": "core.proximal.prox_s",
    "models.batched.gradient_stack_share": "models.batched.gradient_stack_s",
    "nn.conv2d.fwd_share": "nn.conv2d.fwd_s",
    "nn.conv2d.bwd_share": "nn.conv2d.bwd_s",
    "nn.maxpool2d.share": "nn.maxpool2d.s",
    "nn.dense.share": "nn.dense.s",
    "nn.other.share": "nn.other.s",
}


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, int],
    *,
    rounds: int,
    train_s: float,
    build_s: float,
    workers: int,
    hydrations: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are seconds per training round, except the per-run setup
    times ``datasets.build_s``, ``fl.runner.smoothness_s`` and
    ``fl.runner.pool_build_s``; counts are per round; ratios and shares
    are dimensionless.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    train = [s for s in spans if s.round is not None]
    setup = [s for s in spans if s.round is None]

    def named(name, pool=train):
        names = (name,) if isinstance(name, str) else name
        return [s for s in pool if s.name in names]

    def per_round(name) -> float:
        return sum(s.duration for s in named(name)) / rounds

    def parent_name(s: Span) -> Optional[str]:
        return by_id[s.parent].name if s.parent is not None else None

    solves = named(SOLVE_SPANS)
    solve_s = sum(s.duration for s in solves)
    run_round_s = sum(s.duration for s in named("fl.executor.run_round"))
    waits = [
        s.start - by_id[s.parent].start
        for s in solves
        if parent_name(s) == "fl.executor.run_round"
    ]
    grads = [s for s in named("models.grad") if parent_name(s) != "models.grad"]
    steps = counters.get("client_steps", 0)
    lookups = counters.get("lookups", 0)
    round_clients = counters.get("round_clients", 0)
    eval_passes = len(named("fl.metrics.loss_grad"))
    top_level = sum(s.duration for s in train if s.parent is None)

    out = {
        "datasets.build_s": build_s,
        "datasets.shard_s": per_round("datasets.shard"),
        "datasets.shards": len(named("datasets.shard")) / rounds,
        "fl.runner.smoothness_s": sum(s.duration for s in named("fl.runner.smoothness", setup)),
        "fl.runner.pool_build_s": sum(s.duration for s in named("fl.runner.pool_build", setup)),
        "fl.registry.hydrate_s": per_round("fl.registry.hydrate"),
        "fl.registry.hydrations": hydrations / rounds,
        "fl.registry.lru_hit_ratio": 1.0 - hydrations / lookups if lookups else 0.0,
        "fl.executor.run_round_s": run_round_s / rounds,
        "fl.executor.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "fl.executor.parallel_eff": solve_s / (workers * run_round_s) if run_round_s else 0.0,
        "fl.executor.batched_share": (
            counters.get("batched_clients", 0) / round_clients if round_clients else 0.0
        ),
        "core.local.solve_s": solve_s / rounds,
        "core.local.self_s": sum(selfs[s.id] for s in solves) / rounds,
        "core.local.client_steps": steps / rounds,
        "core.local.us_per_client_step": solve_s / steps * 1e6 if steps else 0.0,
        "models.grad_s": sum(s.duration for s in grads) / rounds,
        "models.grad_calls": len(grads) / rounds,
        "models.batched.gradient_stack_s": per_round("models.batched.gradient_stack"),
        "models.batched.calls": len(named("models.batched.gradient_stack")) / rounds,
        "core.estimators.estimate_self_s": (
            sum(selfs[s.id] for s in named("core.estimators.estimate")) / rounds
        ),
        "core.proximal.prox_s": per_round("core.proximal.prox"),
        "nn.conv2d.fwd_s": per_round("nn.conv2d.fwd"),
        "nn.conv2d.bwd_s": per_round("nn.conv2d.bwd"),
        "nn.maxpool2d.s": per_round("nn.maxpool2d"),
        "nn.dense.s": per_round("nn.dense"),
        "nn.other.s": per_round(NN_OTHER),
        "fl.metrics.loss_grad_s": per_round("fl.metrics.loss_grad"),
        "fl.metrics.accuracy_s": per_round("fl.metrics.accuracy"),
        "fl.metrics.clients_per_eval": (
            counters.get("eval_clients", 0) / eval_passes if eval_passes else 0.0
        ),
        "fl.server.self_s": (train_s - top_level) / rounds,
    }
    for share, name in SHARE_OF.items():
        out[share] = out[name] * rounds / train_s
    return out
