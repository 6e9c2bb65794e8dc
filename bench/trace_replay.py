"""Benchmark-owned child: replay one workload in-process with layer tracing.

Usage: python trace_replay.py <spec.json> <out.json>

The spec lists the operations of one workload round, in order:

    {"ops": [{"kind": "cli", "label": "cold", "argv": [...], "cache_dir": "..."},
             {"kind": "decide", "label": "109,20", "D": 109, "m": 20}]}

CLI operations go through quadpart.cli.run, decisions through
quadpart.value_attained.  Before the first operation the layer functions that
the per-layer metrics name are wrapped from here, at every module binding, so
nothing under src/ changes.  Wrapped functions record a span (name, start, end, parent)
on a per-thread stack; the hottest primitives (floor_surd and QuadInt
arithmetic) only count calls.  Spans stay in memory until the replay ends.

The out file holds each operation's result (exit code and stdout digest, or
the decision) and the per-layer metrics.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import threading
import time

import quadpart
import quadpart.cli
from quadpart import cfrac, cli, indec, partcount, qfield, theorems


class Tracer:
    """Spans and counters, kept in memory for the life of the replay."""

    def __init__(self):
        self.spans = []  # (name, start, end, self_s, parent index or None)
        self.counts = {}
        self.tallies = {}  # key -> itertools.count, for the hottest counters
        self.local = threading.local()
        self.lock = threading.Lock()

    def _stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def bump(self, key, n=1):
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name):
        """How many spans called `name` are open on this thread."""
        return getattr(self.local, name, 0)

    def span(self, name, fn, on_call=None):
        """Wrap fn so every call records a span; on_call(args, result) may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]  # start, time in child spans
            parent = stack[-1][2] if stack else None
            with tracer.lock:  # reserve the index so children can name it
                frame.append(len(tracer.spans))
                tracer.spans.append(None)
            stack.append(frame)
            setattr(tracer.local, name, tracer.inside(name) + 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                setattr(tracer.local, name, tracer.inside(name) - 1)
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                tracer.spans[frame[2]] = (name, frame[0], end, dur - frame[1], parent)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def tally(self, key):
        """A lock-free call counter: next() on itertools.count is atomic."""
        return self.tallies.setdefault(key, itertools.count())

    def counter(self, key, fn, inside=None):
        """Wrap fn so every call bumps a counter (no span).  With inside set,
        calls made while a span of that name is open on this thread are also
        counted under key + ".in." + inside."""
        calls = self.tally(key)
        if inside is None:
            @functools.wraps(fn)
            def wrapper(*args):
                next(calls)
                return fn(*args)
            return wrapper
        nested = self.tally(f"{key}.in.{inside}")
        local = self.local

        @functools.wraps(fn)
        def wrapper(*args):
            next(calls)
            if getattr(local, inside, 0):
                next(nested)
            return fn(*args)

        return wrapper

    def read_tallies(self):
        """Final tally values; call once, after the replay."""
        for key, c in self.tallies.items():
            self.counts[key] = next(c)


def patch_bindings(orig, wrapper):
    """Rebind every quadpart module attribute that holds orig."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if name != "quadpart" and not name.startswith("quadpart."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                n += 1
    if n == 0:
        raise RuntimeError(f"no binding found for {getattr(orig, '__name__', orig)}")


def install(tr: Tracer):
    """Wrap the layer functions named by the benchmark's per-layer metrics."""
    # Spans around public layer functions.
    spanned = [
        ("cfrac.expansion", cfrac.cf_expand),
        ("indec.indec_seq", indec.indec_seq),
        ("partcount.lattice_leq", partcount.lattice_leq),
        ("partcount.pk", partcount.pk),
        ("theorems.value_attained", theorems.value_attained),
        ("theorems.verify_norm_bound", theorems.verify_norm_bound),
        ("theorems.density_report", theorems.density_report),
        ("cli.cache_get", cli.cache_get),
        ("cli.cache_put", cli.cache_put),
    ]

    def lattice_hook(args, result):
        tr.bump("partcount.support_points", len(result))

    def pk_hook(args, result):
        if tr.inside("theorems.value_attained"):
            tr.bump("theorems.pk_in_decision")

    hooks = {"partcount.lattice_leq": lattice_hook, "partcount.pk": pk_hook}
    for name, fn in spanned:
        patch_bindings(fn, tr.span(name, fn, hooks.get(name)))

    # Methods: patched on the class, which every caller goes through.
    def count_hook(args, result):
        tr.bump("partcount.counter_parts.sum", len(args[0].parts))
        with tr.lock:
            prev = tr.counts.get("partcount.counter_parts.max", 0)
            tr.counts["partcount.counter_parts.max"] = max(prev, len(args[0].parts))
        if tr.inside("theorems.value_attained"):
            tr.bump("theorems.count_in_decision")

    counter_cls = partcount.PartitionCounter
    counter_cls.count = tr.span("partcount.count", counter_cls.count, count_hook)

    seq_cls = indec.IndecSeq
    seq_cls.balanced = tr.span("indec.balanced", seq_cls.balanced)
    seq_cls.indec_window_leq = tr.span("indec.window_leq", seq_cls.indec_window_leq)

    walk = seq_cls.max_j_real_leq

    @functools.wraps(walk)
    def max_j_real_leq(self, x):
        j = walk(self, x)
        tr.bump("indec.walk_steps", abs(j) + 1)
        return j

    seq_cls.max_j_real_leq = max_j_real_leq

    table_cls = cfrac.ConvergentTable
    table_cls.semiconvergent = tr.counter("cfrac.semiconvergent.calls",
                                          table_cls.semiconvergent)

    # Count-only primitives.
    patch_bindings(qfield.floor_surd,
                   tr.counter("qfield.floor_surd.calls", qfield.floor_surd,
                              inside="partcount.lattice_leq"))
    quad = qfield.QuadInt
    add = tr.counter("qfield.quadint_arith.calls", quad.__add__)
    mul = tr.counter("qfield.quadint_arith.calls", quad.__mul__)
    quad.__add__ = add
    quad.__mul__ = mul
    quad.__rmul__ = mul


def _union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def summarize(tr: Tracer, wall: float) -> dict:
    tr.read_tallies()
    calls, self_s = {}, {}
    top = []
    for name, start, end, own, parent in tr.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if parent is None:
            top.append((start, end))
    c = tr.counts
    decisions = calls.get("theorems.value_attained", 0)
    lattice_calls = calls.get("partcount.lattice_leq", 0)
    rows = (c.get("qfield.floor_surd.calls.in.partcount.lattice_leq", 0) - 2 * lattice_calls) / 4
    count_calls = calls.get("partcount.count", 0)
    m = {
        "qfield.floor_surd.calls": c.get("qfield.floor_surd.calls", 0),
        "qfield.quadint_arith.calls": c.get("qfield.quadint_arith.calls", 0),
        "cfrac.expansion.s": self_s.get("cfrac.expansion", 0.0),
        "cfrac.expansion.calls": calls.get("cfrac.expansion", 0),
        "cfrac.semiconvergent.calls": c.get("cfrac.semiconvergent.calls", 0),
        "indec.indec_seq.s": self_s.get("indec.indec_seq", 0.0),
        "indec.walk_steps": c.get("indec.walk_steps", 0),
        "indec.window_leq.s": self_s.get("indec.window_leq", 0.0),
        "indec.balanced.s": self_s.get("indec.balanced", 0.0),
        "indec.balanced.calls": calls.get("indec.balanced", 0),
        "partcount.lattice_leq.s": self_s.get("partcount.lattice_leq", 0.0),
        "partcount.lattice_leq.calls": lattice_calls,
        "partcount.support_points": c.get("partcount.support_points", 0),
        "partcount.points_per_row": (c.get("partcount.support_points", 0) / rows
                                     if rows > 0 else 0.0),
        "partcount.pk.s": self_s.get("partcount.pk", 0.0),
        "partcount.pk.calls": calls.get("partcount.pk", 0),
        "partcount.count.s": self_s.get("partcount.count", 0.0),
        "partcount.count.calls": count_calls,
        "partcount.counter_parts.mean": (c.get("partcount.counter_parts.sum", 0)
                                         / count_calls if count_calls else 0.0),
        "partcount.counter_parts.max": c.get("partcount.counter_parts.max", 0),
        "theorems.value_attained.s": self_s.get("theorems.value_attained", 0.0),
        "theorems.value_attained.calls": decisions,
        "theorems.count_per_decision": (c.get("theorems.count_in_decision", 0)
                                        / decisions if decisions else 0.0),
        "theorems.pk_per_decision": (c.get("theorems.pk_in_decision", 0)
                                     / decisions if decisions else 0.0),
        "theorems.verify_norm_bound.s": self_s.get("theorems.verify_norm_bound", 0.0),
        "theorems.density_report.s": self_s.get("theorems.density_report", 0.0),
        "cli.cache_put.s": self_s.get("cli.cache_put", 0.0),
        "cli.cache_get.s": self_s.get("cli.cache_get", 0.0),
        "trace.uncovered_frac": max(0.0, 1.0 - _union_length(top) / wall) if wall else 0.0,
    }
    return {"metrics": m, "self_s": self_s, "calls": calls}


def run_ops(ops):
    results = []
    for op in ops:
        t0 = time.perf_counter()
        if op["kind"] == "cli":
            os.environ["QUADPART_CACHE_DIR"] = op["cache_dir"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = quadpart.cli.run(op["argv"])
            out = buf.getvalue().encode("utf-8")
            res = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
        else:
            ok, w = quadpart.value_attained(op["D"], op["m"])
            res = {"ok": ok, "a": str(w.a) if w is not None else "",
                   "b": str(w.b) if w is not None else ""}
        res["label"] = op["label"]
        res["s"] = time.perf_counter() - t0
        results.append(res)
    return results


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    live = indec.indec_seq  # the lru_cache itself, before it is wrapped
    tr = Tracer()
    install(tr)
    t0 = time.perf_counter()
    results = run_ops(spec["ops"])
    wall = time.perf_counter() - t0
    summary = summarize(tr, wall)
    summary["metrics"]["indec.live_fields"] = live.cache_info().currsize
    summary["wall_s"] = wall
    summary["results"] = results
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
