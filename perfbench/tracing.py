"""In-memory spans and counters around ksgeom's public functions.

A Tracer replaces module and class attributes at the names their callers
look up (for example ``ksgeom.trace.reach``, which ``lemma_zero`` calls,
and ``ksgeom.kernels.solve_kernel``, which ``coloring.solve`` calls) with
wrappers that record spans and counts, and puts the originals back on
``uninstall``. Nothing under ``src/`` is modified.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or None, ``op`` the benchmark operation it belongs to.
Hot calls (``Ray.same_subspace``, ``side_of``, ``shell``, ``ray_index``)
are counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

Span = tuple  # (name, start, end, parent, op)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover.

    Spans are properly nested (one thread), so the children of a span lie
    inside it and do not overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def span_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Summed inclusive and self time per span name."""
    inclusive: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        inclusive[span[0]] += span[2] - span[1]
        self_total[span[0]] += own
    return inclusive, self_total


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._ray_index_depth = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _ray_index(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["trace.ray_index_calls"] += 1
            self._ray_index_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._ray_index_depth -= 1

        return wrapper

    def _same_subspace(self, fn):
        def wrapper(*args, **kwargs):
            if self._ray_index_depth:
                self.counts["trace.dedup_probes"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _reach(self, fn):
        counts = self.counts

        def after(cert) -> None:
            counts["reach.calls"] += 1
            counts["reach.chain_points"] += len(cert.points)
            counts["reach.shell_certs"] += cert.shell_n is not None

        spanned = self._spanned("reach.reach", fn, after)

        def wrapper(*args, **kwargs):
            before = counts["reach.shell_builds"]
            try:
                return spanned(*args, **kwargs)
            finally:
                counts["reach.shell_retries"] += max(0, counts["reach.shell_builds"] - before - 1)

        return wrapper

    def _kernel(self, fn):
        def after(result) -> None:
            count, nodes, _, _ = result
            self.counts["coloring.solutions"] += count
            self.counts["coloring.nodes"] += nodes

        return self._spanned("coloring.kernel", fn, after)

    def _verify(self, fn):
        def after(report) -> None:
            self.counts["reach.verify_links"] += len(report.link_residuals)

        return self._spanned("reach.verify", fn, after)

    def _oracle(self, fn):
        def after(result) -> None:
            self.counts["coloring.oracle_cases"] += result[1]

        return self._spanned("coloring.oracle", fn, after)

    def _build(self, fn):
        def after(trace) -> None:
            self.counts["trace.builds"] += 1
            self.counts["trace.rays"] += len(trace.rays)
            self.counts["trace.facts"] += len(trace.facts)

        return self._spanned("trace.build", fn, after)

    def _text(self, span, byte_count, fn):
        def after(text: str) -> None:
            self.counts[byte_count] += len(text.encode())

        return self._spanned(span, fn, after)

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        mod = importlib.import_module  # ksgeom.reach the module, not the function
        demos, trace, reach = mod("ksgeom.demos"), mod("ksgeom.trace"), mod("ksgeom.reach")
        coloring, kernels = mod("ksgeom.coloring"), mod("ksgeom.kernels")
        serialize, system, sphere = mod("ksgeom.serialize"), mod("ksgeom.system"), mod("ksgeom.sphere")
        plan = [
            (demos, "demo_first_proof", self._build),
            (demos, "demo_second_proof", self._build),
            (demos, "side_of", lambda f: self._counted("plane.side_of_calls", f)),
            (trace.DerivationTrace, "ray_index", self._ray_index),
            (sphere.Ray, "same_subspace", self._same_subspace),
            (trace, "extract_triad_system", lambda f: self._spanned("trace.extract", f)),
            (trace, "decision_core", lambda f: self._spanned("trace.extract", f)),
            (trace, "reach", self._reach),
            (reach, "reach", self._reach),
            (reach, "choose_shell_n", lambda f: self._spanned("reach.choose_shell_n", f)),
            (reach, "shell", lambda f: self._counted("reach.shell_builds", f)),
            (reach, "side_of", lambda f: self._counted("plane.side_of_calls", f)),
            (reach, "verify_certificate", self._verify),
            (coloring, "validate_system", lambda f: self._spanned("coloring.validate", f)),
            (kernels, "solve_kernel", self._kernel),
            (coloring, "refute_by_core_enumeration", self._oracle),
            (serialize, "save_trace", lambda f: self._text("serialize.save_trace", "serialize.trace_bytes", f)),
            (system, "save_system", lambda f: self._text("system.save", "system.bytes", f)),
            (system, "load_system", lambda f: self._spanned("system.load", f)),
            (serialize, "save_certificate", lambda f: self._text("serialize.cert_roundtrip", "serialize.cert_bytes", f)),
            (serialize, "load_certificate", lambda f: self._spanned("serialize.cert_roundtrip", f)),
        ]
        for owner, attr, make in plan:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
