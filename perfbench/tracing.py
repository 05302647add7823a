"""Op timing, layer spans and the proxies that record them from outside.

Everything here wraps the public API of ``rkentropy``; nothing is patched
inside the package.  Two proxies make the layers visible:

* ``timed_problem`` subclasses the problem's own class, so ``isinstance``
  checks inside the package (e.g. the porous-medium quotient Q) still hold,
  and records one span per ``apply_flat`` / ``deriv_flat`` /
  ``jacobian_flat`` call.  It forwards every call unchanged.
* ``NodeClock`` subclasses the entropy's class.  ``profile_g`` evaluates
  the entropy exactly once before its sweep and once after each successful
  backward solve, so the ``h`` calls mark the tau-node boundaries and each
  node becomes one timed op.

Ops are timed in every run.  Layer spans are recorded only when tracing is
on; end-to-end metrics come from runs with tracing off.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from rkentropy import DomainError, StepError

NAME, START, END, PARENT, OP, EXTRA = range(6)


class Recorder:
    """Per-op durations (always) and layer spans (when ``trace`` is set).

    A span is ``[name, start, end, parent_index, op_id, extra]``.  ``op_id``
    is the index of the enclosing op, or None outside ops; ``extra`` holds
    the byte count of a Jacobian, or ``(stages, failure cause)`` of an op.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.ops: list[tuple[float, str | None]] = []  # (seconds, cause)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_start: float | None = None
        self._op_id: int | None = None
        self._op_span: int | None = None

    # -- layer spans ----------------------------------------------------
    def open(self, name: str, extra=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op_id, extra])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, extra=None):
        self.spans[index][END] = time.perf_counter()
        if extra is not None:
            self.spans[index][EXTRA] = extra
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- ops --------------------------------------------------------------
    @property
    def in_op(self) -> bool:
        return self._op_start is not None

    def begin_op(self, name: str, stages: int = 0):
        if self.in_op:
            raise RuntimeError("an op is already open")
        self._op_id = len(self.ops)
        if self.trace:
            self._op_span = self.open(name, extra=stages)
        self._op_start = time.perf_counter()

    def end_op(self, cause: str | None = None):
        duration = time.perf_counter() - self._op_start
        self._op_start = None
        self.ops.append((duration, cause))
        if self.trace:
            stages = self.spans[self._op_span][EXTRA]
            self.close(self._op_span, extra=(stages, cause))
        self._op_id = None

    @contextmanager
    def op(self, name: str, stages: int = 0):
        """Time the body as one op; a StepError / DomainError fails it."""
        self.begin_op(name, stages)
        try:
            yield
        except (StepError, DomainError) as err:
            self.end_op(cause=type(err).__name__)
            raise
        self.end_op()


def timed_problem(problem, rec: Recorder):
    """The same problem, with each operator kernel call recorded as a span."""
    base = type(problem)

    class Timed(base):
        def apply_flat(self, x):
            with rec.span("operators.apply"):
                return base.apply_flat(self, x)

        def deriv_flat(self, x, wx):
            with rec.span("operators.deriv"):
                return base.deriv_flat(self, x, wx)

        def jacobian_flat(self, x):
            index = rec.open("operators.jacobian")
            jac = None
            try:
                jac = base.jacobian_flat(self, x)
                return jac
            finally:
                rec.close(index, extra=0 if jac is None else jac.nbytes)

    Timed.__name__ = Timed.__qualname__ = base.__name__
    proxy = object.__new__(Timed)
    proxy.__dict__.update(problem.__dict__)
    return proxy


class NodeClock:
    """Turns the tau nodes of one ``profile_g`` sweep into ops.

    Use ``entropy`` in place of the real entropy, then call ``finish`` with
    the returned profile, or ``fail`` when the sweep raised.
    """

    def __init__(self, rec: Recorder, e, m: int, stages: int):
        self.rec = rec
        self.m = m
        self.stages = stages
        self.h_calls = 0
        base = type(e)
        clock = self

        class Clocked(base):
            def h(self, u):
                with rec.span("entropy.evaluate"):
                    out = base.h(self, u)
                clock._node_done()
                return out

        Clocked.__name__ = Clocked.__qualname__ = base.__name__
        self.entropy = object.__new__(Clocked)
        self.entropy.__dict__.update(e.__dict__)

    def _node_done(self):
        # call 0 evaluates H[u] before the sweep; call j ends tau node j
        if self.h_calls > 0:
            self.rec.end_op()
        self.h_calls += 1
        if self.h_calls <= self.m:
            self.rec.begin_op("stepping.backward", self.stages)

    def finish(self, profile):
        """Close the sweep; the node still open is the one that failed."""
        if not self.rec.in_op:
            return
        if profile.failed_index != self.h_calls:
            raise RuntimeError(
                f"profile failed at node {profile.failed_index}, "
                f"clock is at node {self.h_calls}")
        self.rec.end_op(cause="StepError")

    def fail(self, cause: str):
        if self.rec.in_op:
            self.rec.end_op(cause=cause)


def stages_per_iteration(scheme) -> int:
    """Jacobian evaluations per Newton iteration: one per implicit stage
    relation (s for a tableau, two for composite Simpson)."""
    return 2 if scheme.is_composite_simpson else scheme.tableau.s


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one pass's spans, by metric name."""
    child_time = [0.0] * len(spans)
    jac_children = [0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_time[sp[PARENT]] += sp[END] - sp[START]
            if sp[NAME] == "operators.jacobian":
                jac_children[sp[PARENT]] += 1
    out: dict[str, float] = defaultdict(int)
    for i, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        if name.startswith("operators."):
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            if name == "operators.jacobian":
                out["operators.jacobian.bytes"] += sp[EXTRA]
        elif name.startswith("stepping."):
            out["stepping.self_s"] += dur - child_time[i]
            if isinstance(sp[EXTRA], tuple):  # a solve op: (stages, cause)
                stages, cause = sp[EXTRA]
                iters = jac_children[i] // stages
                out["stepping.solves"] += 1
                out["stepping.iters"] += iters
                if cause is not None:
                    out["stepping.solves_failed"] += 1
                    out["stepping.failed_iters"] += iters
        elif name == "regions.certify":
            out["regions.certify.calls"] += 1
            out["regions.certify.s"] += dur
        elif name == "cli.csv":
            out["cli.csv_s"] += dur
            out["cli.csv_bytes"] += sp[EXTRA] or 0
        else:
            out[name + ".s"] += dur
    iters = out["stepping.iters"]
    out["stepping.useful_iter_frac"] = (
        (iters - out["stepping.failed_iters"]) / iters if iters else 1.0)
    return dict(out)
