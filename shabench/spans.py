"""Span recording around shaclass's layers, installed from outside the program.

`Tracer.install()` replaces each traced function of the package by a
wrapper, in every loaded `shaclass.*` module namespace that holds it, so the
wrapper is what callers find whether they look the name up in the defining
module or in their own globals.  Spans are kept in memory; `dump()` writes
them out as JSON lines when the run ends, and `layer_totals()` folds them
into per-layer sums.

A span records its wall-clock start and end and the CPU time its thread
spent inside it.  Layer times are sums of CPU self time: with
`--workers 2` two threads share the interpreter lock, and a wall-clock
span would also count the time its thread waited for the other one.

Functions that the program renames or removes are skipped; their metrics
then read 0.
"""

import importlib
import itertools
import json
import sys
import threading
import time
from functools import wraps

from checks import SURJECTIVE
from stats import self_times

# (module, function, span name).  a_ell and division_polynomial are counted,
# not spanned: they run inside certify_image and their time stays part of
# the image layer's self time.
SPANNED = (
    ("shaclass.arith", "factor", "arith.factor"),
    ("shaclass.curve", "minimal_model", "curve.minimal_model"),
    ("shaclass.curve", "trace_of_frobenius", "curve.trace"),
    ("shaclass.localred", "tate_algorithm", "localred.tate"),
    ("shaclass.localred", "compute_t_set", "localred.t_set"),
    ("shaclass.selmerdata", "fetch_curve_record", "selmerdata.fetch"),
    ("shaclass.selmerdata", "selmer_rank_scenarios", "selmerdata.scenarios"),
    ("shaclass.engine", "evaluate_hypotheses", "engine.ledgers"),
    ("shaclass.engine", "emit_certificate", "engine.emit"),
    ("shaclass.engine", "certificate_to_json", "engine.serialize"),
    ("shaclass.engine", "analyze", "engine.analyze"),
    ("shaclass.cli", "main", "cli.main"),
)
IMAGE = ("shaclass.galrep", "certify_image", "galrep.certify_image")
A_ELL = ("shaclass.galrep", "a_ell")
DIVISION_POLY = ("shaclass.galrep", "division_polynomial")


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread, cpu seconds)
        self.images = []  # (span id, a_ell calls, witnesses, fallback s, fell back)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (namespace, attribute, original)
        self._mm_cache_start = None

    # -- recording -------------------------------------------------------

    def _per_thread(self, name):
        """A list of this thread's own, created on first use."""
        items = getattr(self._local, name, None)
        if items is None:
            items = []
            setattr(self._local, name, items)
        return items

    def _span(self, name, fn, image=False):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._per_thread("stack")
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            if image:
                frame = {"a_ell": 0, "last": None, "dp": False}
                self._per_thread("images").append(frame)
            start, cpu = time.perf_counter(), time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu_end = time.thread_time()
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident(), cpu_end - cpu))
                if image:
                    self._per_thread("images").pop()
                    status = getattr(result, "status", None)
                    tail = cpu_end - (frame["last"] if frame["last"] is not None else cpu)
                    fell_back = frame["dp"] or status != SURJECTIVE
                    witnesses = len(getattr(result, "witnesses", ()))
                    self.images.append((sid, frame["a_ell"], witnesses, tail, fell_back))

        return wrapper

    def _counted(self, key, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                frames = self._per_thread("images")
                if frames:
                    if key == "a_ell":
                        frames[-1]["a_ell"] += 1
                        frames[-1]["last"] = time.thread_time()
                    else:
                        frames[-1]["dp"] = True

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        for mod in ("shaclass.cli", "shaclass.engine"):
            importlib.import_module(mod)
        plan = [(m, f, self._span(n, getattr(sys.modules[m], f)))
                for m, f, n in SPANNED if hasattr(sys.modules.get(m), f)]
        m, f, n = IMAGE
        if hasattr(sys.modules.get(m), f):
            plan.append((m, f, self._span(n, getattr(sys.modules[m], f), image=True)))
        for (m, f), key in ((A_ELL, "a_ell"), (DIVISION_POLY, "dp")):
            if hasattr(sys.modules.get(m), f):
                plan.append((m, f, self._counted(key, getattr(sys.modules[m], f))))
        namespaces = [mod.__dict__ for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "shaclass" or name.startswith("shaclass."))]
        for m, f, wrapper in plan:
            original = getattr(sys.modules[m], f)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is original:
                        ns[attr] = wrapper
                        self._patched.append((ns, attr, original))
        self._mm_cache_start = _minimal_model_cache()

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def counters(self):
        """Process-level counters that do not come from spans."""
        hits = misses = 0
        now = _minimal_model_cache()
        if now is not None and self._mm_cache_start is not None:
            hits = now[0] - self._mm_cache_start[0]
            misses = now[1] - self._mm_cache_start[1]
        factors = sorted((s for s in self.spans if s[2] == "arith.factor"), key=lambda s: s[3])
        first_factor = None
        if factors:
            first_factor = _self_cpu(self.spans)[factors[0][0]]
        return {"mm_hits": hits, "mm_misses": misses, "first_factor_s": first_factor}

    def dump(self, path, extra=None):
        """Write every span, then one summary line, as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            summary = {"images": self.images, "counters": self.counters()}
            summary.update(extra or {})
            fh.write(json.dumps({"summary": summary}) + "\n")


def _self_cpu(spans):
    return self_times((s[0], s[1], s[6]) for s in spans)


def _minimal_model_cache():
    fn = getattr(sys.modules.get("shaclass.curve"), "minimal_model", None)
    info = getattr(fn, "cache_info", None) or getattr(
        getattr(fn, "__wrapped__", None), "cache_info", None
    )
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def load_dump(path):
    """(spans, summary) from a file written by Tracer.dump."""
    spans, summary = [], {}
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if isinstance(obj, dict):
                summary = obj["summary"]
            else:
                spans.append(tuple(obj))
    return spans, summary


def layer_totals(dumps):
    """Fold (spans, summary) pairs from one or more processes into layer sums."""
    self_s, calls = {}, {}
    images = []
    mm_hits = mm_misses = 0
    first_factor_s = 0.0
    interp_s = import_s = 0.0
    for spans, summary in dumps:
        own = _self_cpu(spans)
        for s in spans:
            self_s[s[2]] = self_s.get(s[2], 0.0) + own[s[0]]
            calls[s[2]] = calls.get(s[2], 0) + 1
        images.extend(summary.get("images", ()))
        c = summary.get("counters", {})
        mm_hits += c.get("mm_hits", 0)
        mm_misses += c.get("mm_misses", 0)
        first_factor_s += c.get("first_factor_s") or 0.0
        interp_s += summary.get("interp_s", 0.0)
        import_s += summary.get("import_s", 0.0)
    scanned = sum(i[1] for i in images)
    witnesses = sum(i[2] for i in images)
    return {
        "cli.interp_ms": 1e3 * interp_s,
        "cli.import_ms": 1e3 * import_s,
        "selmerdata.fetch_ms": 1e3 * self_s.get("selmerdata.fetch", 0.0),
        "selmerdata.scenarios_ms": 1e3 * self_s.get("selmerdata.scenarios", 0.0),
        "arith.first_factor_ms": 1e3 * first_factor_s,
        "arith.factor_ms": 1e3 * self_s.get("arith.factor", 0.0),
        "arith.factor_calls": calls.get("arith.factor", 0),
        "curve.minimal_model_ms": 1e3 * self_s.get("curve.minimal_model", 0.0),
        "curve.minimal_model_hit_ratio": mm_hits / (mm_hits + mm_misses) if mm_hits + mm_misses else 0.0,
        "curve.trace_ms": 1e3 * self_s.get("curve.trace", 0.0),
        "curve.trace_calls": calls.get("curve.trace", 0),
        "localred.tate_ms": 1e3 * self_s.get("localred.tate", 0.0),
        "localred.tate_calls": calls.get("localred.tate", 0),
        "localred.t_set_ms": 1e3 * self_s.get("localred.t_set", 0.0),
        "galrep.image_ms": 1e3 * self_s.get("galrep.certify_image", 0.0),
        "galrep.primes_scanned": scanned,
        "galrep.witness_yield": witnesses / scanned if scanned else 0.0,
        "galrep.fallback_ms": 1e3 * sum(i[3] for i in images if i[4]),
        "galrep.fallback_jobs": sum(1 for i in images if i[4]),
        "engine.ledgers_ms": 1e3 * self_s.get("engine.ledgers", 0.0),
        "engine.emit_ms": 1e3 * self_s.get("engine.emit", 0.0),
        "engine.serialize_ms": 1e3 * self_s.get("engine.serialize", 0.0),
        "engine.analyze_self_ms": 1e3 * self_s.get("engine.analyze", 0.0),
    }
