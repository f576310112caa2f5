"""Spans and counts at symppt's layer boundaries, recorded from outside.

The package is not instrumented itself.  ``install`` replaces the names one
module imported from another (``symppt.ptrans.dicke_decomposition``,
``symppt.symstate.multinomial``, the ``cli`` imports from ``ptrans`` and
``witness``, ...) and ``numpy.linalg.eigh``/``eigvalsh`` with wrappers that
record a span (name, start, end, parent, operation) and bump counters.  Spans
stay in memory; ``dump`` writes them once the pass is over.

A layer's self time is the time inside its spans minus the time their child
spans cover, so the self times of all layers add up to the traced time.
"""

from __future__ import annotations

import gzip
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (importing module, imported name, layer of the callee).  Only names the
# module calls are listed; type-only imports stay untouched.
BINDINGS = (
    ("cli", "main", "cli"),
    ("cli", "sappt_threshold_qubits", "combx"),
    ("cli", "maxmixed_pt", "ptrans"),
    ("cli", "maxmixed_pt_spectrum", "ptrans"),
    ("cli", "min_eigenvalue", "ptrans"),
    ("cli", "partial_transpose_a", "ptrans"),
    ("cli", "qudit_min_eig_check", "ptrans"),
    ("cli", "BipartiteOperator", "symstate"),
    ("cli", "embed_bipartite", "symstate"),
    ("cli", "builtin_witness", "witness"),
    ("cli", "detection_threshold", "witness"),
    ("cli", "expectation_value", "witness"),
    ("cli", "ghz_witness_mixture", "witness"),
    ("cli", "load_witness_file", "witness"),
    ("cli", "minimize_over_products", "witness"),
    ("ptrans", "qudit_min_eig_check", "ptrans"),
    ("ptrans", "maxmixed_pt_blocks", "ptrans"),
    ("ptrans", "symmetric_dimension", "combx"),
    ("ptrans", "BipartiteOperator", "symstate"),
    ("ptrans", "dicke_decomposition", "symstate"),
    ("ptrans", "dicke_labels", "symstate"),
    ("ptrans", "embed_bipartite", "symstate"),
    ("ptrans", "ghz_state", "symstate"),
    ("ptrans", "mix_with_identity", "symstate"),
    ("symstate", "SqrtRational", "combx"),
    ("symstate", "dicke_split_coefficient", "combx"),
    ("symstate", "multinomial", "combx"),
    ("symstate", "symmetric_dimension", "combx"),
    ("witness", "ghz_state", "symstate"),
    ("witness", "mix_with_identity", "symstate"),
)

EIGENSOLVE = "ptrans.eigensolve"
# Eigensolves called from these layers diagonalise a partial transpose; the
# ones symstate calls validate a density matrix and stay in its self time.
EIGENSOLVE_CALLERS = ("ptrans", "cli")


class Recorder:
    """In-memory span store plus the per-layer aggregates of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span index, layer, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_block = 0
        self.current_op = -1

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int, layer: str) -> list:
        frame = [len(self.start), layer, 0.0]
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        idx, layer, child = frame
        self.end[idx] = end
        self.stack.pop()
        dur = end - self.start[idx]
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, fn, name: str, layer: str, after=None):
        counts, nid, calls = self.counts, self.intern(name), layer + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            frame = self._open(nid, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_eigensolve(self, fn, name: str):
        counts, nid = self.counts, self.intern(name)

        def traced(a, *args, **kwargs):
            if not self.stack or self.stack[-1][1] not in EIGENSOLVE_CALLERS:
                return fn(a, *args, **kwargs)
            counts["ptrans.eigensolve_calls"] += 1
            counts["ptrans.eigensolve_work"] += len(a) ** 3
            frame = self._open(nid, EIGENSOLVE)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(frame)

        traced.__wrapped__ = fn
        return traced

    # -- size hooks -------------------------------------------------------

    def _blocks(self, sizes) -> None:
        for m in sizes:
            self.counts["ptrans.blocks"] += 1
            self.counts["ptrans.dim_sum"] += m
            self.max_block = max(self.max_block, m)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON columns (times in microseconds)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "op": list(self.op),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        c = self.counts
        return {
            "symstate.decompositions": c["symstate.decompositions"],
            "combx.calls": c["combx.calls"],
            "combx.self_s": self.self_s["combx"],
            "symstate.self_s": self.self_s["symstate"],
            "ptrans.self_s": self.self_s["ptrans"],
            "ptrans.blocks": c["ptrans.blocks"],
            "ptrans.max_block": self.max_block,
            "ptrans.dim_sum": c["ptrans.dim_sum"],
            "ptrans.eigensolve_calls": c["ptrans.eigensolve_calls"],
            "ptrans.eigensolve_s": self.self_s[EIGENSOLVE],
            "ptrans.eigensolve_work": c["ptrans.eigensolve_work"],
            "witness.calls": c["witness.calls"],
            "witness.self_s": self.self_s["witness"],
            "witness.grid_points": c["witness.grid_points"],
            "cli.self_s": self.self_s["cli"],
            "spans": len(self.start),
        }


def install(rec: Recorder, modules: dict, linalg) -> None:
    """Replace every binding in BINDINGS and numpy's eigensolvers with wrappers.

    ``modules`` maps the short module names (cli, ptrans, symstate, witness)
    to the imported modules.
    """

    def on_blocks(out, args, kwargs):
        rec._blocks(len(idx) for idx, _ in out)

    def on_dense(out, args, kwargs):
        rec._blocks([out.dim])

    def on_decomposition(out, args, kwargs):
        rec.counts["symstate.decompositions"] += 1

    grid_sig = inspect.signature(modules["witness"].minimize_over_products)

    def on_minimize(out, args, kwargs):
        bound = grid_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        w, h = bound.arguments["grid"]
        rec.counts["witness.grid_points"] += w * h

    hooks = {
        "maxmixed_pt_blocks": on_blocks,
        "maxmixed_pt": on_dense,
        "dicke_decomposition": on_decomposition,
        "minimize_over_products": on_minimize,
    }
    for mod_name, attr, layer in BINDINGS:
        module = modules[mod_name]
        fn = getattr(module, attr)
        setattr(module, attr, rec.wrap(fn, f"{layer}.{attr}", layer, hooks.get(attr)))
    spectrum = modules["ptrans"].Spectrum
    spectrum.from_eigenvalues = staticmethod(
        rec.wrap(spectrum.from_eigenvalues, "ptrans.Spectrum.from_eigenvalues", "ptrans")
    )
    for attr in ("eigh", "eigvalsh"):
        setattr(linalg, attr, rec.wrap_eigensolve(getattr(linalg, attr), f"numpy.linalg.{attr}"))
