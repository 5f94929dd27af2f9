"""Spans around the calls into each homind module, installed from the
benchmark's own files.

Every hook replaces one callable with a wrapper that records a span
(name, start, end, parent span, decision id) while a decision is open,
and calls straight through otherwise, so oracle work done between
decisions is never recorded.  Spans stay in memory until the run ends;
self time is a span's duration minus the durations of its direct
children.  A hook whose target no longer exists is skipped, and the
metrics that depend on it are reported as absent.
"""

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, span name)
HOOKS = [
    ("homind.engine", "modhomind", "engine.closure"),
    ("homind.engine", "modhomind_pw", "engine.closure"),
    ("homind.engine", "_small_stage", "engine.small_stage"),
    ("homind.engine", "_concat", "engine.vector_copy"),
    ("homind.engine", "_split", "engine.vector_copy"),
    ("homind.engine", "_Basis.try_insert", "engine.basis.try_insert"),
    ("homind.engine", "BlockOps.apply_a", "engine.kernel.apply_a"),
    ("homind.engine", "BlockOps.apply_j", "engine.kernel.apply_j"),
    ("homind.engine", "BlockOps.schur", "engine.kernel.schur"),
    ("homind.engine", "BlockOps.total", "engine.kernel.readout"),
    ("homind.lasserre", "lasserre_mod", "lasserre.closure"),
    ("homind.lasserre", "MatrixOps.matmul", "lasserre.kernel.matmul"),
    ("homind.lasserre", "MatrixOps.schur", "lasserre.kernel.schur"),
    ("homind.lasserre", "MatrixOps.transpose", "lasserre.kernel.transpose"),
    ("homind.modular", "sample_prime_in_range", "modular.sample_prime"),
    ("homind.modular", "is_prime", "modular.is_prime"),
    ("homind.modular", "smallest_primes_with_product_exceeding",
     "modular.crt_primes"),
    ("homind.graphs", "hom_count", "graphs.hom_count"),
    ("homind.graphs", "parse_graph", "graphs.parse"),
    ("homind.recognizer", "builtin", "recognizer.load"),
]

ROOT_SPAN = "cli.main"
SPAN_NAMES = sorted({span for _, _, span in HOOKS} | {ROOT_SPAN})


def _closure_counts(prefix):
    """Count one decision per call and add the closure's dim_total,
    read back through the `stats` dict the wrapper passes in."""

    def before(args, kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = {}

    def after(counts, args, kwargs, result):
        counts[f"{prefix}.decisions"] += 1
        counts[f"{prefix}.dim_total"] += kwargs["stats"].get("dim_total", 0)

    return before, after


def _basis_counts(counts, args, kwargs, result):
    basis, vec = args[0], args[1]
    counts["engine.basis.candidates"] += 1
    counts["engine.basis.inserts"] += result is not None
    # rows before the call; the insert itself adds one afterwards
    counts["engine.basis.macs"] += (len(basis) - (result is not None)) * len(vec)


def _matmul_counts(counts, args, kwargs, result):
    counts["lasserre.kernel.matmul_macs"] += args[0].side ** 3


def _sample_counts(counts, args, kwargs, result):
    counts["modular.draws"] += 1
    counts["modular.primes_found"] += result is not None


# span -> (before, after, the counters `after` and the ratios derived
# from them feed); a counter is absent when its span's hook is
COUNTERS = {
    "engine.closure": (*_closure_counts("engine"),
                       ("engine.decisions", "engine.dim_total")),
    "lasserre.closure": (*_closure_counts("lasserre"),
                         ("lasserre.decisions", "lasserre.dim_total")),
    "engine.basis.try_insert": (None, _basis_counts, (
        "engine.basis.candidates", "engine.basis.inserts",
        "engine.basis.macs", "engine.basis.insert_ratio")),
    "lasserre.kernel.matmul": (None, _matmul_counts,
                               ("lasserre.kernel.matmul_macs",)),
    "modular.sample_prime": (None, _sample_counts, (
        "modular.draws", "modular.primes_found", "modular.prime_hit_ratio",
        "modular.zero_prime_runs")),
}


def metric_span(metric):
    """The span whose hook a per-layer metric depends on, or None."""
    for span, (_, _, names) in COUNTERS.items():
        if metric in names:
            return span
    for suffix in ("_s", "_calls"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return None


class Tracer:
    """Span store plus the hooks that feed it."""

    def __init__(self):
        self.names = []  # span name table
        self._name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision_of = array("i")
        self.counts = Counter()
        self.missing = set()  # spans with a hook whose target does not exist
        self._stack = []
        self._decision = None
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.decision_of.append(self._decision)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def decision(self, decision_id, call):
        """Run `call()` as decision `decision_id` under the root span."""
        self._decision = decision_id
        draws, primes = self.counts["modular.draws"], self.counts["modular.primes_found"]
        idx = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(idx)
            self._decision = None
            if (self.counts["modular.draws"] > draws
                    and self.counts["modular.primes_found"] == primes):
                self.counts["modular.zero_prime_runs"] += 1

    def _wrap(self, fn, name):
        before, after, _ = COUNTERS.get(name, (None, None, ()))
        tracer = self

        def traced(*args, **kwargs):
            if tracer._decision is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every hook: functions in every homind module namespace that
        imported them, methods on their class."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "homind" or key.startswith("homind.")]
        for module_name, attr, span in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            target = getattr(owner, method or attr, None) if owner is not None else None
            if target is None:
                self.missing.add(span)
                continue
            wrapped = self._wrap(target, span)
            if owner_name:
                self._patch(owner, method, wrapped)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is target:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        # a method inherited from a base class is shadowed, then deleted
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Summed self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        times, calls = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            times[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return times, calls

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tdecision\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.decision_of[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
