"""Per-layer tracing of privcache from outside the package.

Tracer.install() replaces public functions and methods of privcache with
wrappers defined here, on the module and class attributes where callers
look them up, and uninstall() puts the originals back.  Nothing in
privcache knows about it, and the end-to-end run never imports this file.

Two kinds of wrapper:

  * span   -- records (name, start, end, parent span, context label) in
              memory and accumulates inclusive and self time per name;
  * count  -- only counts calls.  Used for the hot functions, whose
              per-call cost a span would swamp; their time shows up as
              self time of the enclosing span.

A target that no longer exists (renamed by a refactor) is listed as
absent and its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (metric base, module, attribute path, kind, per-result measure)
TARGETS = (
    ("bitvec.to_bytes", "privcache.bitvec", "Bits.to_bytes", SPAN, len),
    ("bitvec.from_bytes", "privcache.bitvec", "Bits.from_bytes", SPAN, None),
    ("bitvec.concat", "privcache.bitvec", "Bits.concat", SPAN, None),
    ("bitvec.xor", "privcache.bitvec", "Bits.__xor__", COUNT, None),
    ("bitvec.block", "privcache.bitvec", "Bits.block", COUNT, None),
    ("combinat.enumerate_r_subsets", "privcache.combinat", "enumerate_r_subsets", SPAN, None),
    ("combinat.subset_rank", "privcache.combinat", "subset_rank", COUNT, None),
    ("combinat.subsets_built", "privcache.combinat", "SubsetIndex.__init__", COUNT, None),
    ("yma.yma_delivery", "privcache.yma", "yma_delivery", SPAN, None),
    ("yma.compute_y", "privcache.yma", "compute_y", COUNT, None),
    ("yma.reconstruct_y", "privcache.yma", "reconstruct_y", SPAN, None),
    ("scheme.place", "privcache.scheme", "place", SPAN, None),
    ("scheme.build_delivery", "privcache.scheme", "build_delivery", SPAN, None),
    ("scheme.x_segment", "privcache.scheme", "x_segment", SPAN, None),
    ("scheme.subfile_reads", "privcache.scheme", "FileLibrary.subfile", COUNT, None),
    ("scheme.decode", "privcache.scheme", "decode", SPAN, None),
    ("scheme.recover_segment", "privcache.scheme", "recover_segment", SPAN, None),
    ("scheme.wire_encode", "privcache.scheme", "CacheContent.to_bytes", SPAN, len),
    ("scheme.wire_encode", "privcache.scheme", "DeliverySignal.to_bytes", SPAN, len),
    ("scheme.wire_encode", "privcache.scheme", "FileLibrary.to_bytes", SPAN, len),
    ("scheme.wire_decode", "privcache.scheme", "CacheContent.from_bytes", SPAN, None),
    ("scheme.wire_decode", "privcache.scheme", "DeliverySignal.from_bytes", SPAN, None),
    ("scheme.wire_decode", "privcache.scheme", "FileLibrary.from_bytes", SPAN, None),
    ("verify.correctness", "privcache.verify", "verify_correctness_exhaustive", SPAN,
     lambda report: report.cases_run),
    ("verify.privacy", "privcache.verify", "verify_privacy", SPAN, lambda report: report.cases_run),
    ("verify.privacy", "privcache.verify", "verify_distribution_lemma", SPAN,
     lambda report: report.cases_run),
    ("verify.histograms", "privcache.verify", "OutcomeHistogram.from_weights", COUNT, None),
    ("tradeoff.tightness_report", "privcache.tradeoff", "tightness_report", SPAN, len),
    ("tradeoff.lower_convex_envelope", "privcache.tradeoff", "lower_convex_envelope", SPAN, None),
    ("cli.main", "privcache.cli", "main", SPAN, None),
)

LAYERS = ("bitvec", "combinat", "yma", "scheme", "verify", "tradeoff", "cli")

# per-layer metric -> unit, in BENCHMARK.json order
METRICS = {
    "bitvec.to_bytes.s": "s", "bitvec.to_bytes.calls": "count", "bitvec.to_bytes.bytes": "bytes",
    "bitvec.from_bytes.s": "s", "bitvec.from_bytes.calls": "count",
    "bitvec.concat.s": "s", "bitvec.concat.calls": "count",
    "bitvec.xor.calls": "count", "bitvec.block.calls": "count", "bitvec.self_s": "s",
    "combinat.enumerate_r_subsets.s": "s", "combinat.enumerate_r_subsets.calls": "count",
    "combinat.subset_rank.calls": "count", "combinat.subsets_built": "count",
    "combinat.self_s": "s",
    "yma.yma_delivery.s": "s", "yma.yma_delivery.calls": "count", "yma.compute_y.calls": "count",
    "yma.reconstruct_y.s": "s", "yma.reconstruct_y.calls": "count", "yma.self_s": "s",
    "scheme.place.s": "s",
    "scheme.build_delivery.s": "s", "scheme.build_delivery.calls": "count",
    "scheme.x_segment.s": "s", "scheme.x_segment.calls": "count",
    "scheme.subfile_reads": "count",
    "scheme.decode.s": "s", "scheme.decode.calls": "count",
    "scheme.recover_segment.s": "s", "scheme.recover_segment.calls": "count",
    "scheme.wire_encode.s": "s", "scheme.wire_decode.s": "s", "scheme.wire.bytes": "bytes",
    "scheme.self_s": "s",
    "verify.correctness.s": "s", "verify.correctness.cases": "count",
    "verify.privacy.s": "s", "verify.privacy.cases": "count",
    "verify.histograms": "count", "verify.deliveries_per_case": "ratio", "verify.self_s": "s",
    "tradeoff.tightness_report.s": "s", "tradeoff.lower_convex_envelope.s": "s",
    "tradeoff.rows": "count", "tradeoff.self_s": "s",
    "cli.main.s": "s", "cli.self_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or None when the target is gone."""
    try:
        owner = sys.modules.get(module_name) or importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)  # only what the class itself defines
    else:
        raw = getattr(owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw


class Tracer:
    """Span and count recorder; `ctx` labels the session, round or suite."""

    def __init__(self) -> None:
        self.ctx = ""
        self.names: list[str] = ["bench"]
        self._ids: dict[str, int] = {"bench": 0}
        self.calls: list[int] = [0]
        self.incl_s: list[float] = [0.0]
        self.self_s: list[float] = [0.0]
        self.measured: list[int] = [0]
        # spans, as parallel lists; span 0 is the whole traced run
        self.span_name: list[int] = [0]
        self.span_start: list[float] = [0.0]
        self.span_end: list[float] = [0.0]
        self.span_parent: list[int] = [-1]
        self.span_ctx: list[str] = [""]
        self._stack: list[int] = [0]
        self._child_s: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
            self.measured.append(0)
        return self._ids[name]

    def _counted(self, fn, idx):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, idx, measure):
        tracer = self
        stack, child_s = self._stack, self._child_s
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ctxs = self.span_parent, self.span_ctx
        calls, incl_s, self_s, measured = self.calls, self.incl_s, self.self_s, self.measured

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ctxs.append(tracer.ctx)
            ends.append(0.0)
            stack.append(sid)
            child_s.append(0.0)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[sid] = end
                stack.pop()
                inner = child_s.pop()
                took = end - start
                child_s[-1] += took
                calls[idx] += 1
                incl_s[idx] += took
                self_s[idx] += took - inner
            if measure is not None:
                try:
                    measured[idx] += measure(result)
                except (AttributeError, TypeError):  # result type changed
                    pass
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for base, module, path, kind, measure in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, name, raw = found
            idx = self._id(base)
            fn = getattr(raw, "__func__", raw)
            wrapped = self._counted(fn, idx) if kind == COUNT else self._spanned(fn, idx, measure)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            if isinstance(owner, type):
                self._patch(owner, name, raw, wrapped)
                continue
            # a module function: patch every privcache module (and the
            # package namespace) that imported this same object
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "privcache" and mod.__dict__.get(name) is raw:
                    self._patch(mod, name, raw, wrapped)
        self.span_start[0] = perf_counter()

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        self.span_end[0] = end = perf_counter()
        self.incl_s[0] = end - self.span_start[0]
        self.self_s[0] = self.incl_s[0] - self._child_s[0]
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def _get(self, name: str, what: str) -> float:
        idx = self._ids.get(name)
        if idx is None:
            return 0
        return {"s": self.incl_s, "calls": self.calls, "measured": self.measured}[what][idx]

    def report(self) -> dict:
        """Per-layer metrics of this traced run, by their BENCHMARK.json names."""
        out: dict[str, float] = {}
        for metric in METRICS:
            base, _, leaf = metric.rpartition(".")
            if leaf in ("s", "calls"):
                out[metric] = self._get(base, leaf)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.self_s[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer
            )
        out["bitvec.to_bytes.bytes"] = self._get("bitvec.to_bytes", "measured")
        out["combinat.subsets_built"] = self._get("combinat.subsets_built", "calls")
        out["scheme.subfile_reads"] = self._get("scheme.subfile_reads", "calls")
        out["scheme.wire.bytes"] = self._get("scheme.wire_encode", "measured")
        out["verify.correctness.cases"] = cases = self._get("verify.correctness", "measured")
        out["verify.privacy.cases"] = self._get("verify.privacy", "measured")
        out["verify.histograms"] = self._get("verify.histograms", "calls")
        out["tradeoff.rows"] = self._get("tradeoff.tightness_report", "measured")
        out["verify.deliveries_per_case"] = (
            self._deliveries_under("verify.correctness") / cases if cases else 0
        )
        return {
            "metrics": out,
            "bench_self_s": self.self_s[0],
            "absent": self.absent,
        }

    def _deliveries_under(self, ancestor: str) -> int:
        """build_delivery spans nested anywhere inside an `ancestor` span."""
        want, bd = self._ids.get(ancestor), self._ids.get("scheme.build_delivery")
        if want is None or bd is None:
            return 0
        inside = [False] * len(self.span_name)
        count = 0
        for sid in range(1, len(self.span_name)):
            parent = self.span_parent[sid]
            inside[sid] = inside[parent] or self.span_name[parent] == want
            count += inside[sid] and self.span_name[sid] == bd
        return count

    def write_spans(self, path: str) -> None:
        """All spans as gzip CSV: id, name, start, end, parent, context."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,context\n")
            t0 = self.span_start[0]
            for sid, idx in enumerate(self.span_name):
                fh.write(
                    f"{sid},{self.names[idx]},{self.span_start[sid] - t0:.9f},"
                    f"{self.span_end[sid] - t0:.9f},{self.span_parent[sid]},{self.span_ctx[sid]}\n"
                )
