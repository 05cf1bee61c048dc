"""Span tracer installed on planarpi from outside the program.

`Tracer.install()` replaces public planarpi functions and methods with
timing wrappers.  A function imported by name into another planarpi module
(for example `planarpi.verify.region_covers`) is replaced there too, so
every call site goes through the wrapper.  Nothing under `src/` changes.

Each wrapped call is a span.  Spans nest on one stack, because every op
runs single-threaded.  A span's self time is its duration minus the time
its direct child spans cover; a layer's self time is the sum over its
spans.  Calls into code that is not wrapped count as the caller's self
time.  Calls and inclusive time are counted at the outermost level of each
span name only, so a recursive or nested re-entry is not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (span name, module, attribute path).  The span name's first dotted part is
# the layer.  Several functions may share one span name: they then share one
# call counter and one inclusive timer.  Spans with no metric of their own
# (rect, segment, level, ...) sit on calls between layers, so that their time
# counts as self time of the layer that does the work.
TARGETS = [
    ("cli.main", "planarpi.cli", "main"),
    ("verify.check_nesting", "planarpi.verify", "check_nesting"),
    ("verify.check_connectivity", "planarpi.verify", "check_connectivity"),
    ("verify.check_touch_chain", "planarpi.verify", "check_touch_chain"),
    ("verify.check_cut_dichotomy", "planarpi.verify", "check_cut_dichotomy"),
    # every construction replay: the fan machine and the stage builders
    ("continua.replay", "planarpi.continua.fanq", "q_snapshots"),
    ("continua.replay", "planarpi.continua.fanq", "build_cantor_fan_q"),
    ("continua.replay", "planarpi.continua.dendrite", "build_dendrite_d"),
    ("continua.replay", "planarpi.continua.trees", "build_dendrite_h"),
    ("continua.replay", "planarpi.continua.comb", "build_dendroid_k"),
    ("continua.body_at", "planarpi.continua.fanq", "BlockRecord.body_at"),
    ("continua.check_touch", "planarpi.continua.fanq", "check_touch"),
    ("continua.comb_width", "planarpi.continua.comb", "comb_width"),
    ("geom.region_covers", "planarpi.geom", "region_covers"),
    ("geom.convex_difference", "planarpi.geom", "convex_difference"),
    ("geom.clip_halfplane", "planarpi.geom", "clip_halfplane"),
    ("geom.convex_intersection", "planarpi.geom", "convex_intersection"),
    ("geom.connectivity_components", "planarpi.geom", "connectivity_components"),
    ("geom.polys_intersect", "planarpi.geom", "polys_intersect"),
    ("geom.subtract_poly", "planarpi.geom", "subtract_poly"),
    ("geom.squared_distance", "planarpi.geom", "squared_distance"),
    ("geom.hausdorff_enclosure", "planarpi.geom", "hausdorff_enclosure"),
    ("geom.rect", "planarpi.geom", "rect"),
    ("geom.segment", "planarpi.geom", "segment"),
    ("geom.bbox", "planarpi.geom", "ConvexPoly.bbox"),
    ("geom.poly_new", "planarpi.geom", "ConvexPoly.__init__"),
    ("geom.snapshot_new", "planarpi.geom", "RegionSnapshot.__init__"),
    ("cantor.fat_level", "planarpi.cantor", "fat_level"),
    ("cantor.cantor_coord", "planarpi.cantor", "cantor_coord"),
    ("cantor.level", "planarpi.cantor", "TreePresentation.level"),
    ("cantor.leftmost_path", "planarpi.cantor", "leftmost_path"),
    ("cesets.limit_f", "planarpi.cesets", "limit_f"),
    ("cesets.e_state", "planarpi.cesets", "e_state"),
    ("cesets.stage_function", "planarpi.cesets", "stage_function"),
]

LAYERS = ("cli", "verify", "continua", "geom", "cantor", "cesets")

# Spans kept for the span file; aggregates are exact regardless of the cap.
SPAN_CAP = 200_000


def _coord_bits(pieces) -> int:
    best = 0
    for piece in pieces:
        for x, y in piece.vertices:
            best = max(
                best,
                x.numerator.bit_length(),
                x.denominator.bit_length(),
                y.numerator.bit_length(),
                y.denominator.bit_length(),
            )
    return best


def _returned_snapshots(result):
    """Snapshots in a replay's return value: a snapshot, (snapshot, graph)
    or (list of snapshots, graph)."""
    if isinstance(result, tuple):
        result = result[0]
    return result if isinstance(result, list) else [result]


class Tracer:
    """Counts and times calls into planarpi once installed; there is no
    uninstall, so install it only in a process that exists to be traced."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # per open span: [child seconds, span id]
        self.ids = itertools.count(1)
        self.op_id = 0
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.reset()

    # -- per-op state -----------------------------------------------------

    def reset(self) -> None:
        # name -> [outermost calls, inclusive s, self s, open depth]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name, _, _ in TARGETS}
        self.hits = 0
        self.limit_args: set = set()
        self.pieces = 0
        self.max_bits = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, vars(cls)[meth], self._post_hook(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, self._post_hook(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("planarpi") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def _post_hook(self, name):
        """Extra per-call bookkeeping, run outside the span's own time."""
        if name == "geom.polys_intersect":
            def hook(args, kwargs, result):
                self.hits += bool(result)
        elif name == "cesets.limit_f":
            def hook(args, kwargs, result):
                fam, *rest = args
                members = tuple((m.name, m.triples) for m in fam.members)
                self.limit_args.add((members, *rest, *sorted(kwargs.items())))
        elif name == "continua.replay":
            def hook(args, kwargs, result):
                for snap in _returned_snapshots(result):
                    self.pieces += len(snap.pieces)
        elif name == "geom.snapshot_new":
            def hook(args, kwargs, result):
                self.max_bits = max(self.max_bits, _coord_bits(args[0].pieces))
        else:
            hook = None
        return hook

    def _wrap(self, name: str, fn, hook):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat = self.stats[name]
            sid = next(self.ids)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, sid]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[3] -= 1
                dur = t1 - t0
                if stat[3] == 0:
                    stat[0] += 1
                    stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if self.keep_spans:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((name, t0, t1, sid, parent, self.op_id))
                    else:
                        self.dropped += 1
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                if stack:  # keep the bookkeeping out of the caller's self time
                    stack[-1][0] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the op traced since the last reset()."""
        s = self.stats

        def calls(n):
            return s[n][0]

        def incl(n):
            return s[n][1]

        layer_self = {layer: 0.0 for layer in LAYERS}
        for n, st in s.items():
            layer_self[n.split(".")[0]] += st[2]
        pi_calls = calls("geom.polys_intersect")
        lf_calls = calls("cesets.limit_f")
        out = {
            "cli.main.s": incl("cli.main"),
            "verify.check_nesting.s": incl("verify.check_nesting"),
            "verify.check_connectivity.s": incl("verify.check_connectivity"),
            "verify.check_touch_chain.s": incl("verify.check_touch_chain"),
            "verify.check_cut_dichotomy.s": incl("verify.check_cut_dichotomy"),
            "continua.replays": calls("continua.replay"),
            "continua.replay.s": incl("continua.replay"),
            "continua.body_at.calls": calls("continua.body_at"),
            "continua.body_at.s": incl("continua.body_at"),
            "continua.check_touch.calls": calls("continua.check_touch"),
            "continua.check_touch.s": incl("continua.check_touch"),
            "continua.comb_width.calls": calls("continua.comb_width"),
            "continua.pieces": self.pieces,
            "geom.region_covers.calls": calls("geom.region_covers"),
            "geom.region_covers.s": incl("geom.region_covers"),
            "geom.convex_difference.calls": calls("geom.convex_difference"),
            "geom.convex_difference.s": incl("geom.convex_difference"),
            "geom.clip_halfplane.calls": calls("geom.clip_halfplane"),
            "geom.connectivity_components.calls": calls("geom.connectivity_components"),
            "geom.connectivity_components.s": incl("geom.connectivity_components"),
            "geom.polys_intersect.calls": pi_calls,
            "geom.polys_intersect.hit_ratio": self.hits / pi_calls if pi_calls else 0.0,
            "geom.subtract_poly.calls": calls("geom.subtract_poly"),
            "geom.subtract_poly.s": incl("geom.subtract_poly"),
            "geom.squared_distance.calls": calls("geom.squared_distance"),
            "geom.squared_distance.s": incl("geom.squared_distance"),
            "geom.hausdorff_enclosure.s": incl("geom.hausdorff_enclosure"),
            "geom.bbox.calls": calls("geom.bbox"),
            "geom.poly_new.calls": calls("geom.poly_new"),
            "geom.max_coord_bits": self.max_bits,
            "cantor.fat_level.calls": calls("cantor.fat_level"),
            "cantor.fat_level.s": incl("cantor.fat_level"),
            "cantor.cantor_coord.calls": calls("cantor.cantor_coord"),
            "cantor.cantor_coord.s": incl("cantor.cantor_coord"),
            "cesets.limit_f.calls": lf_calls,
            "cesets.limit_f.distinct_ratio": len(self.limit_args) / lf_calls if lf_calls else 0.0,
            "cesets.e_state.calls": calls("cesets.e_state"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON: start and end in seconds of
        `time.perf_counter`, parent 0 for a root span."""
        doc = {
            "fields": ["name", "start", "end", "id", "parent", "op"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
