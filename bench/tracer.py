"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the mstiff modules from outside the
package.  A wrapped function is rebound in every ``mstiff`` module namespace
that holds it, so calls between modules (``search`` calling
``stiff_exists``, ``stiffness`` calling ``factorize``) are seen as well as
the benchmark's own calls.  Spans go into flat arrays while a pass runs;
per-layer numbers are derived from them afterwards, and ``dump`` writes
them out.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers add up to the time spent
inside traced calls.  Generators are timed per resumption, which charges
the work done between yields to the consumer.
"""
from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from mstiff.stiffness import (
    BoundExceeded,
    IrrationalRoot,
    NonIntegerCoefficient,
    StiffVerdict,
)

LAYERS = (
    "cli", "search", "stiffness", "exact_core", "gegenbauer", "diophantine",
    "render",
)

# (layer, function, kind): "span" records one span per call, "count" only
# counts calls (too hot and too small to time), "gen" records one span per
# resumption of the generator the function returns.
TRACED = (
    ("cli", "main", "span"),
    ("search", "classify_dimension", "span"),
    ("search", "divisor_candidates", "span"),
    ("search", "classify_degree", "span"),
    ("search", "verify_theorem", "span"),
    ("stiffness", "stiff_exists", "span"),
    ("stiffness", "top_coefficient_screen", "span"),
    ("stiffness", "screen_coefficients", "span"),
    ("stiffness", "newton_screen", "span"),
    ("stiffness", "verify_certificate", "span"),
    ("exact_core", "factorize", "span"),
    ("exact_core", "is_probable_prime", "count"),
    ("exact_core", "rational_roots", "span"),
    ("exact_core", "isolate_real_roots", "span"),
    ("gegenbauer", "quadrature_from_node_squares", "span"),
    ("gegenbauer", "closed_form_quadrature", "span"),
    ("diophantine", "mordell_point_stream", "gen"),
    ("diophantine", "dims_for_degree4", "span"),
    ("diophantine", "dims_for_degree5", "span"),
    ("render", "table_rows", "span"),
    ("render", "render_table", "span"),
)

STAGES = ("bound", "top-screen", "coefficient-screen", "newton", "roots",
          "certificate")

# Counts taken from results by the observers below; a workload that never
# reaches the function behind one reports 0.
COUNTERS = (
    "search.divisors", "search.candidates", "search.existing",
    "search.unresolved", *(f"stiffness.decided.{stage}" for stage in STAGES),
    "stiffness.top_screen.rejects", "diophantine.x_scanned",
    "diophantine.points", "render.render_table.bytes",
)


def decided_stage(verdict: StiffVerdict) -> str:
    """The pipeline stage that settled a verdict, read off its public
    certificate or witness type."""
    if verdict.certificate is not None:
        return "certificate"
    w = verdict.witness
    if isinstance(w, BoundExceeded):
        return "bound"
    if isinstance(w, NonIntegerCoefficient):
        # the modular top-coefficient screen certifies without a prime
        return "top-screen" if w.prime is None else "coefficient-screen"
    if isinstance(w, IrrationalRoot):
        return "newton" if w.newton is not None else "roots"
    raise ValueError(f"unclassifiable verdict witness {w!r}")


_RATIOS = {"search.candidate_yield", "stiffness.top_screen.reject_ratio",
           "diophantine.point_yield"}


def _observer(name: str) -> str:
    """The name of the Tracer method that reads the results of a traced
    function, if it has one."""
    return "_observe_" + name.replace(".", "_")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fn, _ in TRACED]
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls = [0] * len(TRACED)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        stale = {n for n in dir(self) if n.startswith("_observe_")} - {
            _observer(name) for name in self.names}
        if stale:
            raise RuntimeError(f"observers of no traced function: {stale}")

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "mstiff" or name.startswith("mstiff.")
        ]
        for nid, (layer, fn_name, kind) in enumerate(TRACED):
            original = getattr(sys.modules[f"mstiff.{layer}"], fn_name)
            wrapper = self._wrap(nid, original, kind)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def _wrap(self, nid: int, fn, kind: str):
        calls = self.calls
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted

        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter
        name = self.names[nid]
        observe = getattr(self, _observer(name), None)

        def open_span() -> int:
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if kind == "gen":
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                observe(args, kwargs)
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    self.counts["diophantine.points"] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                close_span(idx)
            if observe is not None:
                observe(result)
            return result
        return traced

    # -- counts taken from results ---------------------------------------

    def _observe_search_divisor_candidates(self, cand_set) -> None:
        if cand_set is not None:
            self.counts["search.divisors"] += cand_set.divisor_count

    def _observe_search_classify_dimension(self, c) -> None:
        for b in c.branches:
            self.counts["search.candidates"] += len(b.candidates)
            self.counts["search.existing"] += len(b.existing)
            self.counts["search.unresolved"] += len(b.unresolved)

    def _observe_stiffness_stiff_exists(self, verdict) -> None:
        self.counts[f"stiffness.decided.{decided_stage(verdict)}"] += 1

    def _observe_stiffness_top_coefficient_screen(self, witness) -> None:
        if witness is not None:
            self.counts["stiffness.top_screen.rejects"] += 1

    def _observe_render_render_table(self, text: str) -> None:
        self.counts["render.render_table.bytes"] += len(text.encode("utf-8"))

    def _observe_diophantine_mordell_point_stream(self, args, kwargs) -> None:
        x_bound = args[1] if len(args) > 1 else kwargs["x_bound"]
        # the stream scans x = -1 .. x_bound
        self.counts["diophantine.x_scanned"] += x_bound + 2

    # -- summaries -------------------------------------------------------

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """Calls, busy and self time per traced function and layer, plus
        the derived counts, averaged over `passes`; named as under
        "per_layer" in BENCHMARK.json."""
        n_names = len(TRACED)
        busy = [0.0] * n_names
        self_time = [0.0] * n_names
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            nid = self.name_id[i]
            busy[nid] += dur
            self_time[nid] += dur - child[i]

        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, (layer, _, _) in enumerate(TRACED):
            name = self.names[nid]
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.busy_s"] = busy[nid]
            out[f"{name}.self_s"] = self_time[nid]
            layer_self[layer] += self_time[nid]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["trace.spans"] = len(self.start)
        out["trace.self_sum_s"] = sum(layer_self.values())

        c = self.counts
        out.update(c)
        out.update({name: c[name] for name in COUNTERS})
        out["stiffness.undecided"] = c["stiffness.stiff_exists.raised.UndecidedError"]
        out["search.candidate_yield"] = _ratio(
            c["search.existing"], c["search.candidates"])
        out["stiffness.top_screen.reject_ratio"] = _ratio(
            c["stiffness.top_screen.rejects"],
            out["stiffness.top_coefficient_screen.calls"])
        out["diophantine.point_yield"] = _ratio(
            c["diophantine.points"], c["diophantine.x_scanned"])
        return {k: v if k in _RATIOS else v / passes for k, v in out.items()}

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"],
                       ["end", "d"]],
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: Path) -> tuple[list[str], list[array.array]]:
    """Read back what Tracer.dump wrote: (names, [name_id, parent, start,
    end])."""
    with path.open("rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header["names"], arrays
