"""Span recorder for the traced run.

``Tracer.install`` wraps public spinfanout functions, rebinding each one
in its defining module and in every spinfanout module that imported it
by name, so calls between modules are recorded too.  Spans are kept in
memory; ``layer_metrics`` reduces the spans of one pass to per-layer
numbers.  Byte and flop counts are computed from array sizes, not
measured.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# layer -> public names it covers; "report." names live in spinfanout.report
LAYERS = {
    "core.compose": ("compose",),
    "core.embed": ("embed",),
    "core.apply_gate": ("apply_gate",),
    "core.equiv": ("equiv_up_to_global_phase",),
    "hamiltonians.build": ("build_hn", "build_kn", "build_l2", "build_ring"),
    "hamiltonians.un": ("un", "un_dagger"),
    "hamiltonians.evolve": ("evolve",),
    "gates.reference": ("fanout_reference", "parity_reference"),
    "circuits.compile": ("compile_circuit",),
    "circuits.run": ("run_circuit",),
    "circuits.build": (
        "fanout_circuit", "parity_circuit", "parity_like_circuit",
        "simplified_fanout_circuit", "simplify", "from_text", "to_text", "dagger",
    ),
    "verify.run_check": ("run_check",),
    "explore.scan": ("scan",),
    "explore.classify": ("classify_parity_diagonal",),
    "report.json": ("report.check_results_json", "report.scan_result_json"),
}


@dataclass
class Span:
    layer: str
    fn: str
    start: float
    parent: int | None
    op: str
    size: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _size(args) -> int | None:
    """Qubit count of the first argument that has one, or an int argument."""
    for a in args:
        n = getattr(a, "n", None)
        if isinstance(n, int):
            return n
        if isinstance(a, int) and not isinstance(a, bool):
            return a
    return None


def _attrs(fn: str, args, out) -> dict:
    """Per-call counts computed from argument and result sizes."""
    if fn == "compose":
        a, b = args[0], args[1]
        # diagonal x diagonal stays diagonal; anything else is a dense matmul
        dense = not (hasattr(a, "entries") and hasattr(b, "entries"))
        dim = 1 << a.n
        return {"dense": dense, "flops": 8 * dim**3 if dense else 0}
    if fn == "embed":
        dense = not hasattr(out, "entries")
        return {"dense_bytes": 16 * (1 << out.n) ** 2 if dense else 0}
    if fn == "evolve":
        return {"dense": not hasattr(out, "entries")}
    if fn == "compile_circuit":
        return {"steps": len(args[0].steps)}
    if fn == "run_check":
        return {"check_id": out.check_id, "params": dict(out.params),
                "ok": bool(out.ok), "elapsed": float(out.elapsed)}
    if fn in ("check_results_json", "scan_result_json"):
        return {"bytes": len(out.encode())}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = "setup"  # phase label: setup, warmup, pass0, pass1, ...
        self._stack: list[int] = []

    def install(self) -> None:
        import spinfanout
        import spinfanout.report

        for layer, names in LAYERS.items():
            for name in names:
                owner = spinfanout.report if name.startswith("report.") else spinfanout
                attr = name.split(".")[-1]
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # a name no longer exported counts as 0 calls
                wrapper = self._wrap(layer, attr, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "spinfanout" and not mod_name.startswith("spinfanout."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, layer: str, fn_name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            # spans of one operation share the id of its outermost span
            op = f"{self.op}/{len(self.spans)}" if parent is None else self.spans[parent].op
            span = Span(layer, fn_name, 0.0, parent, op, _size(args))
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.dur
            span.attrs = _attrs(fn_name, args, out)
            return out

        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of the spans of one pass."""
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer[s.layer].append(s)
    m: dict[str, float] = {}
    for layer, group in by_layer.items():
        m[f"{layer}.calls"] = len(group)
        m[f"{layer}.self_s"] = sum(s.self_s for s in group)
    compose = by_layer["core.compose"]
    m["core.compose.dense_calls"] = sum(s.attrs.get("dense", False) for s in compose)
    m["core.compose.flops"] = sum(s.attrs.get("flops", 0) for s in compose)
    m["core.embed.dense_bytes"] = sum(s.attrs.get("dense_bytes", 0) for s in by_layer["core.embed"])
    m["hamiltonians.evolve.dense_calls"] = sum(
        s.attrs.get("dense", False) for s in by_layer["hamiltonians.evolve"]
    )
    m["circuits.compile.steps"] = sum(s.attrs.get("steps", 0) for s in by_layer["circuits.compile"])
    un_calls = by_layer["hamiltonians.un"]
    seen, repeats = set(), 0
    for s in un_calls:
        key = (s.fn, s.size)
        repeats += key in seen
        seen.add(key)
    m["hamiltonians.un.repeat_frac"] = repeats / len(un_calls) if un_calls else 0.0
    checks = by_layer["verify.run_check"]
    m["verify.ok_frac"] = sum(s.attrs.get("ok", False) for s in checks) / len(checks) if checks else 1.0
    m["verify.slowest_check_s"] = max((s.dur for s in checks), default=0.0)
    m["verify.check_elapsed_s"] = sum(s.attrs.get("elapsed", 0.0) for s in checks)
    m["report.json.bytes"] = sum(s.attrs.get("bytes", 0) for s in by_layer["report.json"])
    return m


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    return [
        {"id": i, "layer": s.layer, "fn": s.fn, "op": s.op, "parent": s.parent,
         "start": s.start - t0, "end": s.end - t0, "self_s": s.self_s,
         "n": s.size, **s.attrs}
        for i, s in enumerate(spans)
    ]
