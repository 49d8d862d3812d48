"""In-memory tracing of zfilterlab's layers, installed from outside the package.

The tracer wraps public functions and methods of the package at every place
they are bound (a function imported by name into another module is replaced
there too), records them, and restores the originals on `uninstall`.  The
package itself carries no tracing code.

Two kinds of wrapper:

* spans, for calls made a few times per operation (CLI dispatch, engines,
  certificate (de)serialization, the checker, the containment loop,
  `filter_member`).  A span records its name, parent span, operation id,
  start and end, and the time covered by its children, so a layer's self
  time is its duration minus that covered time.
* leaves, for calls made tens of thousands of times per operation
  (`branch_member`, `XiPoint` construction, `eval_setexpr`,
  `eval_on_support`, the text parsers).  A leaf adds one to a count and its
  duration to a busy time, aggregated under the enclosing span, instead of
  recording one span per call.

Generators (`support_classes`, `class_points`) are counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter

perf = time.perf_counter

# Per-layer metrics: name -> (unit, better, end-to-end metric and workload it
# should move).  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "space.points_built": ("count", "lower", "batch_s, op_tail_s on value-sensitive"),
    "space.eval_calls": ("count", "lower", "batch_s, op_tail_s on value-sensitive"),
    "space.eval_s": ("s", "lower", "batch_s, op_tail_s on value-sensitive"),
    "space.classes_visited": ("count", "lower", "batch_s on value-sensitive"),
    "space.class_points_calls": ("count", "lower", "batch_s on value-sensitive"),
    "space.settled_ratio": ("ratio", "higher", "batch_s, op_tail_s on value-sensitive"),
    "space.support_eval_calls": ("count", "lower", "batch_s on value-sensitive, check-replay"),
    "space.containment_calls": ("count", "lower", "batch_s on value-sensitive, check-replay"),
    "space.containment_s": ("s", "lower", "batch_s on value-sensitive, check-replay"),
    "branches.member_calls": ("count", "lower", "batch_s on value-sensitive"),
    "branches.member_s": ("s", "lower", "batch_s on value-sensitive"),
    "branches.separator_calls": ("count", "lower", "batch_s on exact-sweep"),
    "branches.cover_calls": ("count", "lower", "batch_s on exact-sweep"),
    "branches.minted": ("count", "lower", "batch_s on exact-sweep"),
    "engines.self_s": ("s", "lower", "batch_s, op_tail_s, cert_bytes on exact-sweep"),
    "engines.cert_entries": ("count", "lower", "batch_s, op_tail_s, cert_bytes on exact-sweep"),
    "certificates.serialize_s": ("s", "lower", "cert_bytes, batch_s, peak_rss_mb on exact-sweep"),
    "certificates.bytes_written": ("bytes", "lower", "cert_bytes, batch_s, peak_rss_mb on exact-sweep"),
    "certificates.parse_s": ("s", "lower", "op_p50_s on check-replay"),
    "checking.calls": ("count", "lower", "batch_s on check-replay; inline check on exact-sweep"),
    "checking.self_s": ("s", "lower", "batch_s on check-replay; inline check on exact-sweep"),
    "checking.rejected": ("count", "higher", "batch_s on check-replay"),
    "filters.member_calls": ("count", "lower", "op_p50_s on value-sensitive"),
    "filters.member_s": ("s", "lower", "op_p50_s on value-sensitive"),
    "formats.calls": ("count", "lower", "op_p50_s on every workload"),
    "formats.parse_s": ("s", "lower", "op_p50_s on every workload"),
    "cli.self_s": ("s", "lower", "op_p50_s on every workload"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced batch_s"),
}


class Tracer:
    """Records spans and leaf aggregates while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._active_leaves: set[str] = set()
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._op = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": self._op,
            "name": name,
            "layer": layer,
            "outermost": not any(s["layer"] == layer for s in self._stack),
            "start": perf(),
            "end": None,
            "covered": 0.0,
            "leaves": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["covered"] += span["end"] - span["start"]

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation; its spans share `op_id`."""
        self._op = op_id
        span = self._open("op", "bench")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def _span_wrapper(self, fn, name: str, layer: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, key: str, reentrant: bool = False):
        """`reentrant`: the function can reach itself (or a same-metric callee);
        only the outermost call is then counted and timed."""
        tracer = self
        stack = self._stack
        active = self._active_leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reentrant:
                if key in active:
                    return fn(*args, **kwargs)
                active.add(key)
            tracer._leaf_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer._leaf_depth -= 1
                if reentrant:
                    active.discard(key)
                if stack:
                    span = stack[-1]
                    agg = span["leaves"].get(key)
                    if agg is None:
                        span["leaves"][key] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt
                    if tracer._leaf_depth == 0:
                        span["covered"] += dt

        return wrapper

    def _counting_call(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_generator(self, fn, items_key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[items_key] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind `original` to `replacement` in every zfilterlab module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "zfilterlab" or name.startswith("zfilterlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        import zfilterlab.branches as branches
        import zfilterlab.certificates as certificates
        import zfilterlab.checking as checking
        import zfilterlab.cli as cli
        import zfilterlab.engines as engines
        import zfilterlab.filters as filters
        import zfilterlab.formats as formats
        import zfilterlab.space as space

        def every(fn, make):
            self._replace_everywhere(fn, make(fn))

        every(cli.main, lambda f: self._span_wrapper(f, "cli.main", "cli"))
        every(filters.filter_member,
              lambda f: self._span_wrapper(f, "filters.filter_member", "filters"))

        for name in (
            "check_extendibility_a", "check_extendibility_b", "containment_decreasing",
            "containment_full_product", "property_a_check", "property_b_refute",
            "increasing_chain_engine", "decreasing_chain_engine", "cover_certificate",
        ):
            every(getattr(engines, name),
                  lambda f, n=name: self._span_wrapper(
                      f, f"engines.{n}", "engines", after=self._count_entries))

        self._replace_method(certificates.Certificate, "to_json", lambda f: self._span_wrapper(
            f, "certificates.to_json", "certificates"))
        self._replace_method(certificates.Certificate, "from_json", lambda f: self._span_wrapper(
            f, "certificates.from_json", "certificates"))
        self._replace_method(certificates.Certificate, "write", lambda f: self._span_wrapper(
            f, "certificates.write", "certificates", after=self._count_written))

        every(checking.check_certificate, lambda f: self._span_wrapper(
            f, "checking.check_certificate", "checking", after=self._count_rejected))
        every(checking.check_certificate_text, lambda f: self._span_wrapper(
            f, "checking.check_certificate_text", "checking", after=self._count_rejected))

        # The containment loop is written in three places at this revision;
        # the private copies are traced where they still exist.
        containment = [space.containment_counterexample]
        containment += [getattr(m, n) for m, n in ((checking, "_contained_on"), (cli, "_violations"))
                        if hasattr(m, n)]
        for fn in containment:
            every(fn, lambda f: self._span_wrapper(f, f"space.{f.__name__}", "space.containment"))

        every(space.eval_setexpr, lambda f: self._leaf_wrapper(f, "space.eval"))
        every(space.eval_on_support, lambda f: self._leaf_wrapper(f, "space.support_eval", True))
        self._replace_method(space.XiPoint, "__init__", lambda f: self._leaf_wrapper(f, "space.points"))
        every(space.support_classes, lambda f: self._counting_generator(f, "space.classes_visited"))
        every(space.class_points, lambda f: self._counting_call(f, "space.class_points_calls"))

        every(branches.branch_member, lambda f: self._leaf_wrapper(f, "branches.member"))
        every(branches.find_separator, lambda f: self._leaf_wrapper(f, "branches.separator"))
        every(branches.find_cover, lambda f: self._leaf_wrapper(f, "branches.cover"))
        self._replace_method(branches.Registry, "mint_through",
                             lambda f: self._counting_call(f, "branches.minted"))

        for name in ("parse_branch_literal", "parse_registry", "parse_point_literal",
                     "parse_setexpr"):
            every(getattr(formats, name), lambda f: self._leaf_wrapper(f, "formats.parse", True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- post-call counters ------------------------------------------------

    def _count_entries(self, span, args, result) -> None:
        cert = result
        if isinstance(result, tuple):
            cert = result[-1]
        cert = getattr(cert, "certificate", cert)
        payload = getattr(cert, "payload", {})
        self.counts["engines.cert_entries"] += sum(
            len(v) for v in payload.values() if isinstance(v, list)
        )

    def _count_written(self, span, args, result) -> None:
        self.counts["certificates.bytes_written"] += os.path.getsize(args[1])

    def _count_rejected(self, span, args, result) -> None:
        if span["outermost"] and not result.ok:
            self.counts["checking.rejected"] += 1

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """Totals over everything recorded so far, keyed by per-layer metric."""
        inclusive = Counter()
        self_time = Counter()
        calls = Counter()
        for s in self.spans:
            if s["end"] is None:
                continue
            duration = s["end"] - s["start"]
            self_time[s["layer"]] += duration - s["covered"]
            if s["outermost"]:
                inclusive[s["layer"]] += duration
                calls[s["layer"]] += 1
            inclusive[s["name"]] += duration
        leaf_n = Counter()
        leaf_s = Counter()
        for s in self.spans:
            for key, (n, busy) in s["leaves"].items():
                leaf_n[key] += n
                leaf_s[key] += busy
        c = self.counts
        visited = c["space.classes_visited"]
        return {
            "space.points_built": leaf_n["space.points"],
            "space.eval_calls": leaf_n["space.eval"],
            "space.eval_s": leaf_s["space.eval"],
            "space.classes_visited": visited,
            "space.class_points_calls": c["space.class_points_calls"],
            "space.settled_ratio": (1 - c["space.class_points_calls"] / visited) if visited else 1.0,
            "space.support_eval_calls": leaf_n["space.support_eval"],
            "space.containment_calls": calls["space.containment"],
            "space.containment_s": inclusive["space.containment"],
            "branches.member_calls": leaf_n["branches.member"],
            "branches.member_s": leaf_s["branches.member"],
            "branches.separator_calls": leaf_n["branches.separator"],
            "branches.cover_calls": leaf_n["branches.cover"],
            "branches.minted": c["branches.minted"],
            "engines.self_s": self_time["engines"],
            "engines.cert_entries": c["engines.cert_entries"],
            "certificates.serialize_s": inclusive["certificates.to_json"],
            "certificates.bytes_written": c["certificates.bytes_written"],
            "certificates.parse_s": inclusive["certificates.from_json"],
            "checking.calls": calls["checking"],
            "checking.self_s": self_time["checking"],
            "checking.rejected": c["checking.rejected"],
            "filters.member_calls": calls["filters"],
            "filters.member_s": inclusive["filters"],
            "formats.calls": leaf_n["formats.parse"],
            "formats.parse_s": leaf_s["formats.parse"],
            "cli.self_s": self_time["cli"],
        }

    def dump(self, path: str) -> None:
        """Write every span, with its leaf aggregates, as JSON (once, at the end of a run)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
