"""Layer spans around srq1's public functions, installed from outside.

Each public function is wrapped at the name its caller looks it up by: a
module that did ``from .quadrature import quad_adaptive`` keeps its own
reference, so ``integrals.quad_adaptive`` and ``analysis.quad_adaptive`` are
wrapped rather than ``quadrature.quad_adaptive``.  The closures returned by
``density_profile_*`` are wrapped as they are handed out, and so is the
integrand passed to ``quad_adaptive``: each call of it is one GK15 panel.

A span is (name, parent, start, end, points).  Spans stay in flat arrays in
memory and are written once, at the end.  A layer's self time is the
duration of its spans minus the part their child spans cover; a layer is
entered (``calls``) when a span's parent belongs to another layer.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from srq1 import analysis, boson, cli, electron, integrals, kinematics
from srq1.errors import ConvergenceError

LAYERS = ("cli", "io", "kinematics", "boson", "electron", "analysis",
          "integrals", "quadrature", "integrand")

# (module, attribute, layer); the attribute is the name callers use
_TARGETS = [
    (cli, "parse_range", "cli"), (cli, "parse_angle", "cli"),
    (cli, "serialize", "io"),
]
_TARGETS += [(kinematics, name, "kinematics")
             for name in ("validate_s", "boson", "electron", "state_from_field",
                          "state_from_beta", "photon_frequency", "power_prefactor")]
_TARGETS += [(mod, name, "kinematics")
             for mod in (boson, electron) for name in ("validate_s", "power_prefactor")]
_TARGETS += [(boson, name, "boson")
             for name in ("xbar0", "boson_deformation", "phi_b", "shape_integral_b",
                          "total_power_b", "half_plane_fraction_b",
                          "angular_density_b", "local_polarization_b")]
_TARGETS += [(electron, name, "electron")
             for name in ("x0", "electron_deformation", "spin_factor", "phi_e",
                          "shape_integral_e", "total_power_e", "half_plane_fraction_e",
                          "ultrarelativistic_density", "limit_shape",
                          "is_double_limit_point", "angular_density_e",
                          "local_polarization_e")]
_TARGETS += [(analysis, name, "analysis")
             for name in ("power_ratio", "crossover_beta", "table1", "max_angle",
                          "asymptotic_max_angle", "effective_angle")]
_TARGETS += [(boson, "f_b", "integrals"), (electron, "f_e", "integrals")]
_TARGETS += [(integrals, name, "integrals") for name in ("f_b", "f_e", "f1_b", "f1_e")]
_FACTORIES = [(boson, "density_profile_b", "boson"),
              (electron, "density_profile_e", "electron")]
_QUADS = [(integrals, "quad_adaptive"), (analysis, "quad_adaptive")]

# functions whose first theta-like argument sets the number of points
_POINT_ARG = {"phi_b": 2, "local_polarization_b": 2, "angular_density_b": 2,
              "phi_e": 3, "local_polarization_e": 3, "angular_density_e": 3,
              "ultrarelativistic_density": 2}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.stack: list[int] = []
        self.analysis_depth = 0
        self.counts = {"profile_calls": 0, "convergence_errors": 0,
                       "io_rows": 0, "io_bytes": 0}

    def _name(self, name, layer):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _span(self, fn, name, layer, **kw):
        return self._wrap(fn, self._name(name, layer), **kw)

    def _wrap(self, fn, nid, point_arg=None, after=None, analysis_layer=False,
              profile=False):
        name_id, parent, start, end, points = (self.name_id, self.parent, self.start,
                                               self.end, self.points)
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            points.append(0 if point_arg is None else int(np.size(args[point_arg])))
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if profile and self.analysis_depth:
                counts["profile_calls"] += 1
            if analysis_layer:
                self.analysis_depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if analysis_layer:
                    self.analysis_depth -= 1
            if after is not None:
                out = after(out, args)
            return out

        return wrapper

    def wrap_root(self, run_cli):
        return self._span(run_cli, "cli.run_cli", "cli")

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(mod, attr, new):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        for mod, attr, layer in _TARGETS:
            after = self._count_io if layer == "io" else None
            patch(mod, attr, self._span(getattr(mod, attr), f"{layer}.{attr}", layer,
                                        point_arg=_POINT_ARG.get(attr), after=after,
                                        analysis_layer=layer == "analysis"))
        for mod, attr, layer in _FACTORIES:
            closure_id = self._name(f"{layer}.profile", layer)

            def wrap_closure(profile, args, closure_id=closure_id):
                return self._wrap(profile, closure_id, point_arg=0, profile=True)

            patch(mod, attr, self._span(getattr(mod, attr), f"{layer}.{attr}", layer,
                                        after=wrap_closure))
        for mod, attr in _QUADS:
            patch(mod, attr, self._quad_wrapper(getattr(mod, attr), mod.__name__))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _count_io(self, text, args):
        self.counts["io_rows"] += len(args[0].rows)
        self.counts["io_bytes"] += len(text.encode())
        return text

    def _quad_wrapper(self, quad, caller):
        integrand_id = self._name("quadrature.integrand", "integrand")
        counts = self.counts

        def counted(f, *args, **kwargs):
            try:
                return quad(self._wrap(f, integrand_id), *args, **kwargs)
            except ConvergenceError:
                counts["convergence_errors"] += 1
                raise

        return self._span(counted, f"quadrature.quad_adaptive@{caller}", "quadrature")

    # ------------------------------------------------------------ results

    def _arrays(self):
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        points = np.frombuffer(self.points, dtype=np.int64)
        return name, parent, start, end, points

    def summary(self, passes: int) -> dict:
        """Per-layer metrics per traced pass."""
        name, parent, start, end, points = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int32)[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        entry = layer != parent_layer
        names = np.asarray(self.names)[name] if len(name) else np.asarray([], dtype=str)

        def lid(n):
            return LAYERS.index(n)

        def is_layer(n):
            return layer == lid(n)

        def per_pass(v):
            return float(v) / passes

        m = {}
        for n in ("cli", "kinematics", "boson", "electron", "analysis", "integrals"):
            m[f"{n}.calls"] = per_pass(np.count_nonzero(is_layer(n) & entry))
            m[f"{n}.self_s"] = per_pass(self_time[is_layer(n)].sum())
        m["cli.calls"] = per_pass(np.count_nonzero(names == "cli.run_cli"))
        parse = (names == "cli.parse_range") | (names == "cli.parse_angle")
        parse_parent = np.zeros_like(parse)
        parse_parent[has_parent] = parse[parent[has_parent]]
        m["cli.parse_s"] = per_pass(dur[parse & ~parse_parent].sum())

        io = is_layer("io")
        m["io.serialize_s"] = per_pass(dur[io].sum())
        m["io.rows"] = per_pass(self.counts["io_rows"])
        m["io.bytes"] = per_pass(self.counts["io_bytes"])
        m["io.us_per_row"] = _ratio(1e6 * dur[io].sum(), self.counts["io_rows"])

        for n in ("boson", "electron"):
            pts = points[is_layer(n) & entry].sum()
            m[f"{n}.points"] = per_pass(pts)
            m[f"{n}.us_per_point"] = _ratio(1e6 * self_time[is_layer(n)].sum(), pts)
        m["electron.limit_points"] = per_pass(
            np.count_nonzero(names == "electron.ultrarelativistic_density"))

        m["analysis.profile_calls"] = per_pass(self.counts["profile_calls"])

        quad = is_layer("quadrature")
        panels = is_layer("integrand")
        quad_from_integrals = quad & (parent_layer == lid("integrals"))
        integral_entries = np.count_nonzero(is_layer("integrals") & entry)
        m["integrals.quad_per_call"] = _ratio(np.count_nonzero(quad_from_integrals),
                                              integral_entries)
        m["quadrature.calls"] = per_pass(np.count_nonzero(quad))
        m["quadrature.self_s"] = per_pass(self_time[quad].sum())
        m["quadrature.integrand_s"] = per_pass(dur[panels].sum())
        m["quadrature.panels"] = per_pass(np.count_nonzero(panels))
        m["quadrature.panels_per_call"] = _ratio(np.count_nonzero(panels),
                                                 np.count_nonzero(quad))
        m["quadrature.convergence_errors"] = per_pass(self.counts["convergence_errors"])
        return m

    def save(self, path):
        name, parent, start, end, points = self._arrays()
        np.savez(path, names=np.asarray(self.names), layers=np.asarray(LAYERS),
                 layer_of=np.asarray(self.layer_of), name_id=name, parent=parent,
                 start=start, end=end, points=points)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0
