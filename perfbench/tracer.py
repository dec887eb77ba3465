"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces each traced adspet function, in every adspet
module that holds a reference to it (`charges`, `qmatrix` and `cli` import
functions by name), and the model-evaluation methods on the model classes,
with a wrapper that records a span; on exit it puts every original back.

A span is (id, name, start, end, parent id, op id, self time, info).  Self
time is the span's duration minus the time its child spans cover; the root
span of every op is `cli.main`, so the self times of one op sum to its wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer name -> (module, function).  The layers are the library's modules.
TIMED = {
    "cli.main": ("adspet.cli", "main"),
    "charges.compute_charges": ("adspet.charges", "compute_charges"),
    "charges.charge_surface_values": ("adspet.charges", "charge_surface_values"),
    "charges.derived": ("adspet.charges", "derived"),
    "initial_data.mass_aspect_grid": ("adspet.initial_data", "mass_aspect_grid"),
    "initial_data.momentum_aspect_grid": ("adspet.initial_data", "momentum_aspect_grid"),
    "geometry.spin_connection_grid": ("adspet.geometry", "spin_connection_grid"),
    "geometry.sphere_grid": ("adspet.geometry", "sphere_grid"),
    "geometry.radial_limit": ("adspet.geometry", "radial_limit"),
    "killing.killing_vector_frame": ("adspet.killing", "killing_vector_frame"),
    "spinors.killing_spinor_grid": ("adspet.spinors", "killing_spinor_grid"),
    "spinors.profiles": ("adspet.spinors", "profiles"),
    "qmatrix.boundary_identity": ("adspet.qmatrix", "boundary_identity"),
    "qmatrix.sample_momenta": ("adspet.qmatrix", "sample_momenta"),
    "qmatrix.theorem_bounds": ("adspet.qmatrix", "theorem_bounds"),
    "qmatrix.assemble_q": ("adspet.qmatrix", "assemble_q"),
    "qmatrix.psd_check": ("adspet.qmatrix", "psd_check"),
    "qmatrix.rigidity_check": ("adspet.qmatrix", "rigidity_check"),
}
# Model field evaluation: these methods of every model class, summed.
MODEL_EVAL = "initial_data.model_eval"
MODEL_METHODS = ("a", "h", "da_coord")
# Counted, not timed: it runs in microseconds.
COUNTED = {"clifford.gamma": ("adspet.clifford", "gamma")}
# Spans that keep the node counts of their grid: (ntheta, npsi, nphi).
NODE_ARGS = {
    "geometry.sphere_grid": lambda args: tuple(args[0:3]),
    "charges.charge_surface_values": lambda args: tuple(args[2:5]),
}


def _model_classes():
    from adspet import initial_data

    return [cls for cls in vars(initial_data).values()
            if isinstance(cls, type) and issubclass(cls, initial_data.InitialDataModel)]


def _holders(original):
    """(module, attribute) pairs of every loaded adspet module bound to it."""
    for name, module in list(sys.modules.items()):
        if name == "adspet" or name.startswith("adspet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


class Tracer:
    def __init__(self, base_nodes: tuple):
        self.base_nodes = tuple(base_nodes)
        self.spans = []
        self.counts = Counter()              # calls of COUNTED functions
        self.op_id = None
        self._stack = []                     # [span id, child time] per open span
        self._next_id = 0

    def _timed(self, name, fn):
        node_args = NODE_ARGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                info = node_args(args) if node_args else None
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent else None, self.op_id,
                                   duration - frame[1], info))

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced attribute; restore all of them on exit."""
        patches = []
        try:
            for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
                for name, (module_name, attr) in table.items():
                    original = getattr(importlib.import_module(module_name), attr)
                    wrapper = make(name, original)
                    for holder, holder_attr in _holders(original):
                        patches.append((holder, holder_attr, original))
                        setattr(holder, holder_attr, wrapper)
            for cls in _model_classes():
                for attr in MODEL_METHODS:
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        patches.append((cls, attr, original))
                        setattr(cls, attr, self._timed(MODEL_EVAL, original))
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def layer_metrics(self, n_ops: int, wall_s: float) -> dict:
        """Per-layer metrics over the traced ops: self time per op (s),
        calls per op, and share of the ops' wall time."""
        names = [*TIMED, MODEL_EVAL]
        self_s = Counter()
        calls = Counter()
        by_id = {}
        for span in self.spans:
            span_id, name, start, end, parent, op, own, info = span
            self_s[name] += own
            calls[name] += 1
            by_id[span_id] = span
        out = {}
        for name in names:
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s")
            out[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
            out[f"{name}.share"] = (self_s[name] / wall_s, "ratio")

        def parent_name(span):
            parent = by_id.get(span[4])
            return parent[1] if parent else None

        surface = [s for s in self.spans if s[1] == "charges.charge_surface_values"]
        base = [s for s in surface if s[7] == self.base_nodes]
        doubled = [s for s in surface if s[7] != self.base_nodes]
        out["charges.charge_surface_values.base_s"] = (
            sum(s[3] - s[2] for s in base) / n_ops, "s")
        out["charges.charge_surface_values.doubled_s"] = (
            sum(s[3] - s[2] for s in doubled) / n_ops, "s")
        out["charges.charge_surface_values.nodes"] = (
            sum(s[7][0] * s[7][1] * s[7][2] for s in surface) / n_ops, "count/op")

        frames = sum(1 for s in self.spans if s[1] == "killing.killing_vector_frame"
                     and parent_name(s) == "charges.charge_surface_values")
        out["killing.killing_vector_frame.per_surface"] = (
            frames / len(surface) if surface else 0.0, "count")

        identities = calls["qmatrix.boundary_identity"]
        nested = sum(1 for s in self.spans if s[1] == "charges.compute_charges"
                     and parent_name(s) == "qmatrix.boundary_identity")
        out["qmatrix.compute_charges_per_identity"] = (
            nested / identities if identities else 0.0, "count")

        grids = defaultdict(list)
        for s in self.spans:
            if s[1] == "geometry.sphere_grid":
                grids[s[5]].append(s[7])
        ratios = [len(set(g)) / len(g) for g in grids.values()]
        out["geometry.sphere_grid.distinct_ratio"] = (
            sum(ratios) / len(ratios) if ratios else 0.0, "ratio")

        for name in COUNTED:
            out[f"{name}.calls"] = (self.counts[name] / n_ops, "count/op")
        return out

    def self_time_total(self) -> float:
        return sum(span[6] for span in self.spans)
