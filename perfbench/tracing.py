"""Per-layer tracing from outside the package.

The package looks up its collaborators as module attributes at call time,
so replacing those attributes with timing wrappers traces every layer
without editing the package.  Two kinds of boundary are recorded:

* spans (name, start, end, parent, op id) for calls made a few times per op;
* folded counters (calls plus busy time) for calls made once per sample,
  so the trace stays bounded however many samples a sweep draws.

Self time of a span is its duration minus the busy time of the traced
calls made inside it.  Only the first SPAN_LIMIT spans are kept; the
counters cover every call.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

SPAN_LIMIT = 100_000


class Stat:
    __slots__ = ("calls", "busy_ns", "self_ns", "failed", "failed_by")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.failed = 0
        self.failed_by: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, int, int, int, int]] = []
        # open spans: [span index, time spent in traced children]
        self._stack: list[list[int]] = []
        self.op_id = -1

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def call(self, name: str, fn, args=(), kwargs=None, label=None):
        """Run fn as a span; label(result) names a per-outcome sub-counter."""
        st = self.stat(name)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        if index < SPAN_LIMIT:
            self.spans.append((name, 0, 0, parent, self.op_id))
        else:
            index = -1
        frame = [index, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            st.failed += 1
            kind = type(exc).__name__
            st.failed_by[kind] = st.failed_by.get(kind, 0) + 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            dt = end - start
            if index >= 0:
                self.spans[index] = (name, start, end, parent, self.op_id)
            st.calls += 1
            st.busy_ns += dt
            st.self_ns += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt
        if label is not None:
            sub = self.stat(f"{name}.case.{label(result)}")
            sub.calls += 1
            sub.busy_ns += dt
            sub.self_ns += dt
        return result

    def fold(self, name: str, dt: int) -> None:
        st = self.stat(name)
        st.calls += 1
        st.busy_ns += dt
        st.self_ns += dt
        if self._stack:
            self._stack[-1][1] += dt

    def span_wrapper(self, name: str, fn, post=None, label=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, label)
            return post(result) if post is not None else result

        return traced

    def fold_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold(name, perf_counter_ns() - start)

        return traced

    def traced_sampler(self, base):
        """Subclass of a sampler type whose tuples() is a folded counter."""
        tracer = self

        class TracedSampler(base):
            def tuples(self, width):
                it = base.tuples(self, width)
                while True:
                    start = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    tracer.fold("sampling.tuples", perf_counter_ns() - start)
                    yield item

        TracedSampler.__name__ = base.__name__
        TracedSampler.__qualname__ = base.__qualname__
        return TracedSampler

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the module attributes each layer is reached through."""
    import sosq.cli as cli
    import sosq.jsonfmt as jsonfmt
    import sosq.solutions as solutions
    import sosq.stability as stability
    import sosq.sumsquares as sumsquares
    import sosq.systems as systems

    def patch(module, attr, wrapper):
        setattr(module, attr, wrapper(getattr(module, attr)))

    def span(name, post=None, label=None):
        return lambda fn: tracer.span_wrapper(name, fn, post, label)

    def fold(name):
        return lambda fn: tracer.fold_wrapper(name, fn)

    # the workloads' entry points: one root span per op
    patch(cli, "main", span("cli.main"))
    case = lambda report: report.case_label.value
    patch(systems, "solve_two", span("systems.solve_two", label=case))
    patch(systems, "solve_four", span("systems.solve_four", label=case))
    patch(sumsquares, "two_square_decompose", span("sumsquares.decompose"))
    patch(sumsquares, "four_square_decompose", span("sumsquares.decompose"))
    patch(sumsquares, "is_sum_of_two_squares", span("sumsquares.criterion"))

    patch(solutions, "evaluate", fold("solutions.evaluate"))
    for module in (solutions, stability):
        patch(module, "compose_two_raw", fold("identities.compose_raw"))
        patch(module, "compose_four_raw", fold("identities.compose_raw"))
    patch(cli, "verify_equation_two", span("solutions.verify"))
    patch(cli, "verify_equation_four", span("solutions.verify"))
    for attr in (
        "check_hypothesis_two", "check_hypothesis_four",
        "check_conclusion_two", "check_conclusion_four",
    ):
        patch(stability, attr, span("stability.excess"))
    patch(stability, "classify_diagonal", span("stability.classify"))
    patch(
        stability, "parse_bound_expression",
        span("exprs.parse", post=fold("exprs.bound")),
    )
    for module in (cli, stability):
        module.UniformSampler = tracer.traced_sampler(module.UniformSampler)
    patch(sumsquares, "factorize", span("sumsquares.factorize"))
    patch(sumsquares, "compose_two", fold("identities.compose"))
    patch(sumsquares, "compose_four", fold("identities.compose"))
    patch(jsonfmt, "dumps", span("jsonfmt.dumps"))
