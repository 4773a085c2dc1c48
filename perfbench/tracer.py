"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces every public function of the eulercs layer
modules, and every public method of the classes they define, with a
wrapper that records a span.  The replacement happens where callers look
the function up: in the defining module, in each eulercs module that
imported the name, and on the class for methods.  Nothing under src/
changes; `uninstall()` puts every original object back.

Spans are recorded only between `begin_op()` and `end_op()`, so the
benchmark's own output checks never count as program time.  A span is
(name, parent span, op id, start ns, end ns) and stays in memory until
`write_spans()`.  Counters are kept by hooks at the same wrapper
boundary.
"""

import functools
import inspect
import json
import os
import resource
import sys
import time

PKG = "eulercs"
LAYERS = ("fields", "euler", "construct", "props", "recovery",
          "experiments", "imaging", "cli")
ROOT = "bench.op"
SUCCESS_DB = 100.0      # the harness default success threshold


def wrap_sites():
    """[(span name, owner, attribute, original)] for every place to wrap."""
    functions = {}                      # id(function) -> span name
    sites = []
    for layer in LAYERS:
        mod = sys.modules[f"{PKG}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                sites += [(f"{layer}.{meth}", obj, meth, fn)
                          for meth, fn in vars(obj).items()
                          if not meth.startswith("_") and inspect.isfunction(fn)]
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                functions[id(obj)] = f"{layer}.{attr}"
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PKG or name.startswith(PKG + ".")):
            sites += [(functions[id(obj)], mod, attr, obj)
                      for attr, obj in vars(mod).items() if id(obj) in functions]
    return sites


def _cli_span(args, kwargs):
    """cli.main spans are named per subcommand, e.g. cli.main.cbir_index."""
    argv = args[0] if args else kwargs.get("argv")
    words = [w for w in (argv or [])[:2] if not w.startswith("-")]
    if words and words[0] not in ("bench", "cbir"):
        words = words[:1]
    return "cli.main." + ("_".join(words) or "none")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names = []                 # span name table
        self._name_ids = {}
        self.spans = []                 # (name id, parent, op id, t0 ns, t1 ns)
        self.counts = {}
        self.recording = False
        self._stack = []
        self._op = -1
        self._root_t0 = 0
        self._sites = []
        self._last_bp = None            # (estimate, converged) of the last BP call

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for span, owner, attr, fn in wrap_sites():
            setattr(owner, attr, self._wrap(span, fn))
            self._sites.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._sites):
            setattr(owner, attr, fn)
        self._sites = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, span, fn):
        nid = self._name_id(span)
        post = {"recovery.omp": self._omp_done,
                "recovery.basis_pursuit": self._bp_done,
                "recovery.snr": self._snr_done,
                "construct.save_esm": self._esm_done,
                "props.coherence": self._coherence_done,
                "fields.build_field": lambda a, result, exc, before:
                    self._field_done(fn, exc, before),
                "cli.main": self._cli_done}.get(span)
        pre = {"props.coherence": _maxrss_kb,
               "fields.build_field": lambda: fn.cache_info().hits}.get(span)
        name_of = _cli_span if span == "cli.main" else None
        sig = inspect.signature(fn) if post else None
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            before = pre() if pre else None
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = clock()
                tracer._stack.pop()
                name = tracer._name_id(name_of(args, kwargs)) if name_of else nid
                tracer.spans[sid] = (name, parent, tracer._op, t0, t1)
                if post:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    post(bound.arguments, result, exc, before)

        if hasattr(fn, "cache_info"):
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        return wrapper

    # -- op boundaries ----------------------------------------------------

    def begin_op(self):
        """Open the root span of one op and start recording."""
        self._op += 1
        self._stack = [len(self.spans)]
        self.spans.append(None)
        self.recording = True
        self._root_t0 = time.perf_counter_ns()

    def end_op(self):
        """Close the root span; returns the op's wall time in seconds."""
        t1 = time.perf_counter_ns()
        self.recording = False
        self.spans[self._stack[0]] = (self._name_id(ROOT), -1, self._op,
                                      self._root_t0, t1)
        self._stack = []
        return (t1 - self._root_t0) / 1e9

    # -- counters ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _omp_done(self, a, result, exc, before):
        if result is None:
            return
        j = result.iterations
        self.count("recovery.omp.iterations", j)
        # iteration i solves an m x i least-squares fit, about 2*m*i^2 flops
        self.count("recovery.omp.solve_flops",
                   len(a["y"]) * j * (j + 1) * (2 * j + 1) // 3)
        if result.rank_deficient:
            self.count("recovery.omp.rank_deficient")
        if j < a["K"] and result.residual_norm > a["tol"]:
            self.count("recovery.omp.stalled")

    def _bp_done(self, a, result, exc, before):
        if exc is not None and getattr(exc, "result", None) is not None:
            self.count("recovery.basis_pursuit.nonconverged")
            self.count("recovery.basis_pursuit.iterations", exc.result.iterations)
            self._last_bp = (exc.result.estimate, False)
        elif result is not None:
            self.count("recovery.basis_pursuit.iterations", result.iterations)
            self._last_bp = (result.estimate, True)

    def _snr_done(self, a, result, exc, before):
        if self._last_bp is None or a["x_est"] is not self._last_bp[0]:
            return
        if self._last_bp[1] and result is not None and result < SUCCESS_DB:
            self.count("recovery.basis_pursuit.converged_below_threshold")
        self._last_bp = None

    def _esm_done(self, a, result, exc, before):
        if exc is None:
            self.count("construct.esm_bytes", os.path.getsize(a["path"]))

    def _coherence_done(self, a, result, exc, before):
        self.count("props.coherence.rss_growth_kb", _maxrss_kb() - before)

    def _field_done(self, fn, exc, before):
        hit = exc is None and fn.cache_info().hits > before
        self.count("fields.build_field.hits" if hit else "fields.build_field.misses")

    def _cli_done(self, a, result, exc, before):
        if exc is not None or result != 0:
            self.count("cli.main.nonzero_exits")

    # -- results ----------------------------------------------------------

    def span_table(self):
        """{span name: [calls, inclusive ns, self ns]}.

        Self time is a span's duration minus its children's durations, so
        the self times of all spans of an op add up to its root span.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, op, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        table = {}
        for sid, (name, parent, op, t0, t1) in enumerate(self.spans):
            row = table.setdefault(self.names[name], [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns[sid]
        return table

    def write_spans(self, path):
        """One JSON line per span: [id, parent, op, name, start_ns, end_ns]."""
        with open(path, "w") as f:
            for sid, (name, parent, op, t0, t1) in enumerate(self.spans):
                f.write(json.dumps([sid, parent, op, self.names[name], t0, t1]) + "\n")


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
