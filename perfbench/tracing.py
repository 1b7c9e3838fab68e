"""Traced run of one ``prevmap`` command, and per-layer metrics from spans.

Run as a script, it replaces the public functions of each ``prevmap``
module with timing wrappers, wherever the program looks them up, then runs
``prevmap.cli.main`` on the given command.  No program file changes.  Spans
(name, start, end, parent span, run id, attributes) are kept in memory and
written as JSON when the command ends:

    python3 perfbench/tracing.py --run-id R --spans out.json fit -c config.ini

``layer_metrics`` turns the span files of one pipeline run into the
per-layer metrics listed in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys
import time
import warnings
from collections import defaultdict

USEFUL_WEIGHT = 1e-4   # a theta-grid point with a smaller weight is wasted


class Tracer:
    """Records nested spans of a single-threaded process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.warnings = []

    def wrap(self, func, name, after=None):
        """Wrapper that records a span around ``func``.

        ``after(span, args, kwargs, result)`` reads counts from the call once
        the span has ended, so that reading them is not timed.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer.stack[-1]["id"] if tracer.stack else None,
                    "run": tracer.run_id, "attrs": {}}
            tracer.spans.append(span)
            tracer.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def on_warning(self, message, category, filename, lineno, file=None,
                   line=None):
        self.warnings.append({"category": category.__name__,
                              "message": str(message),
                              "open_spans": [s["name"] for s in self.stack]})

    def dump(self, path, command):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "command": command,
                       "spans": self.spans, "warnings": self.warnings}, fh)


def _patch(owner, attr, wrapped):
    """Replace ``owner.attr`` and every prevmap module's binding of the same
    function, so callers that imported it by name see the wrapper too."""
    orig = getattr(owner, attr)
    setattr(owner, attr, wrapped)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("prevmap")
                and mod.__dict__.get(attr) is orig):
            setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap the layer boundaries of the program in ``tracer`` spans."""
    import numpy as np
    from prevmap import (areal, cli, functionals, geometry, inference,
                         meshing, render, simulate, spde, sparsela, survey)

    def wrap(owner, attr, name, after=None):
        _patch(owner, attr, tracer.wrap(getattr(owner, attr), name, after))

    # Exporting L copies the whole factor, so it is read once per input
    # pattern, keyed by (size, nnz): within one model every theta and Newton
    # step factorizes the same pattern.
    nnz_l = {}

    def factor_done(span, args, kwargs, result):
        chol, q = args[0], args[1]
        key = (chol.n, getattr(q, "nnz", None))
        if key not in nnz_l:
            nnz_l[key] = int(chol._lu.L.nnz)
        span["attrs"]["nnz_L"] = nnz_l[key]

    def solve_done(span, args, kwargs, result):
        b = np.asarray(args[1])
        span["attrs"]["rhs_cols"] = 1 if b.ndim == 1 else int(b.shape[1])

    def approx_done(span, args, kwargs, result):
        span["attrs"]["n_iter"] = int(result.n_iter)

    def fit_done(span, args, kwargs, result):
        w = np.asarray(result.weights, dtype=float)
        span["attrs"].update(points=len(w), neff=float(1.0 / np.sum(w ** 2)),
                             useful=int(np.sum(w >= USEFUL_WEIGHT)))

    def mesh_done(span, args, kwargs, result):
        span["attrs"]["vertices"] = int(result.num_vertices)

    def project_done(span, args, kwargs, result):
        span["attrs"]["points"] = int(np.atleast_2d(args[1]).shape[0])

    def areas_done(span, args, kwargs, result):
        span["attrs"]["cells"] = (len(result.area_ids) * result.points_per_area
                                  * int(args[0].num_samples))

    def excursions_done(span, args, kwargs, result):
        span["attrs"].update(
            cells=len(args[2]) * int(args[0].num_samples),
            above_n=int(np.sum(result.labels == "above")),
            below_n=int(np.sum(result.labels == "below")))

    def file_bytes(span, args, kwargs, result):
        span["attrs"]["bytes"] = os.path.getsize(args[0])

    cls = sparsela.SparseCholesky
    wrap(cls, "__init__", "sparsela.factor", factor_done)
    wrap(cls, "solve", "sparsela.solve", solve_done)
    wrap(cls, "sample", "sparsela.sample")
    wrap(inference, "gaussian_approx", "inference.gaussian_approx",
         approx_done)
    wrap(inference, "minimize", "inference.mode_search")
    wrap(inference, "fit_latent_model", "inference.fit_latent_model",
         fit_done)
    wrap(inference, "marginals", "inference.marginals")
    wrap(inference, "sample_joint", "inference.sample_joint")
    wrap(spde, "assemble_precision", "spde.assemble_precision")
    wrap(meshing, "build_mesh", "meshing.build_mesh", mesh_done)
    wrap(geometry, "fem_matrices", "geometry.fem_matrices")
    wrap(geometry, "project", "geometry.project", project_done)
    wrap(functionals, "make_grid", "functionals.make_grid")
    wrap(functionals, "area_averages", "functionals.area_averages",
         areas_done)
    wrap(functionals, "simultaneous_excursions",
         "functionals.simultaneous_excursions", excursions_done)
    for name in ("svg_heatmap", "svg_choropleth", "svg_excursions"):
        wrap(render, name, "render.svg", file_bytes)
    wrap(render, "write_pgm", "render.pgm")
    wrap(np, "savez_compressed", "cli.fit_state.write", file_bytes)
    wrap(cli, "_load_state", "cli.fit_state.read")
    wrap(survey, "read_frame_csv", "survey.read_frame")
    wrap(survey, "direct_estimates", "survey.direct_estimates")
    wrap(areal, "adjacency_from_polygons", "areal.adjacency")
    wrap(areal, "fit_bym", "areal.fit_bym")
    wrap(simulate, "simulate_survey", "simulate.simulate_survey")
    wrap(simulate, "lattice_field", "simulate.lattice_field")


# ---------------------------------------------------------------------------
# per-layer metrics from span files
# ---------------------------------------------------------------------------

def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("frac"):
        return "ratio"
    return "count"


def load_spans(paths):
    """Spans and warnings of several span files, with globally unique ids."""
    spans, warns = [], []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        base = len(spans)
        for s in doc["spans"]:
            s = dict(s, id=s["id"] + base)
            if s["parent"] is not None:
                s["parent"] += base
            spans.append(s)
        warns.extend(doc["warnings"])
    return spans, warns


def layer_metrics(spans, warns):
    """Per-layer metrics of one pipeline run, in report order."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s["dur"] for s in by_name[name])

    def self_total(name):
        return sum(s["dur"] - child_time[s["id"]] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        p = span["parent"]
        while p is not None:
            yield by_id[p]
            p = by_id[p]["parent"]

    def under(span, ancestor):
        return any(a["name"] == ancestor for a in ancestors(span))

    factors = by_name["sparsela.factor"]
    approxes = by_name["inference.gaussian_approx"]
    iters = [s["attrs"]["n_iter"] for s in approxes if "n_iter" in s["attrs"]]
    # The theta-grid figures describe one model: the SPDE fit where the
    # workload runs one, else the BYM fit.
    fits = by_name["inference.fit_latent_model"]
    grid = next((s for s in fits if not under(s, "areal.fit_bym")),
                fits[0] if fits else None)
    grid_attrs = grid["attrs"] if grid else {}
    points = grid_attrs.get("points", 0)
    grid_evals = sum(any(a is grid for a in ancestors(s)) for s in approxes)
    m = {
        "sparsela.factor.calls": calls("sparsela.factor"),
        "sparsela.factor.s": total("sparsela.factor"),
        "sparsela.factor.nnz_L_max": max(
            [s["attrs"].get("nnz_L", 0) for s in factors], default=0),
        "sparsela.factor.failed": sum("error" in s for s in factors),
        "sparsela.solve.calls": calls("sparsela.solve"),
        "sparsela.solve.rhs_cols": attr_sum("sparsela.solve", "rhs_cols"),
        "sparsela.solve.s": total("sparsela.solve"),
        "sparsela.sample.s": total("sparsela.sample"),
        "inference.gaussian_approx.calls": len(approxes),
        "inference.gaussian_approx.self_s":
            self_total("inference.gaussian_approx"),
        "inference.newton_iters_mean":
            statistics.fmean(iters) if iters else 0.0,
        "inference.newton_iters_max": max(iters, default=0),
        "inference.mode_search.evals": sum(
            under(s, "inference.mode_search") for s in approxes),
        "inference.grid.points": points,
        "inference.grid.neff": grid_attrs.get("neff", 0.0),
        "inference.grid.useful_frac":
            grid_attrs.get("useful", 0) / points if points else 0.0,
        "inference.laplace.useful_frac":
            points / grid_evals if grid_evals else 0.0,
        "inference.marginals.s": total("inference.marginals"),
        "inference.sample_joint.s": total("inference.sample_joint"),
        "inference.convergence_errors": sum(
            s.get("error") == "ConvergenceError" for s in approxes),
        "inference.warnings": sum(
            any(n.startswith("inference.") for n in w["open_spans"])
            for w in warns),
        "spde.assemble_precision.calls": calls("spde.assemble_precision"),
        "spde.assemble_precision.s": total("spde.assemble_precision"),
        "meshing.build_mesh.s": total("meshing.build_mesh"),
        "meshing.vertices": attr_sum("meshing.build_mesh", "vertices"),
        "geometry.fem_matrices.s": total("geometry.fem_matrices"),
        "geometry.project.calls": calls("geometry.project"),
        "geometry.project.points": attr_sum("geometry.project", "points"),
        "geometry.project.s": total("geometry.project"),
        "functionals.make_grid.s": total("functionals.make_grid"),
        "functionals.area_averages.s": total("functionals.area_averages"),
        "functionals.simultaneous_excursions.s":
            total("functionals.simultaneous_excursions"),
        "functionals.surface_cells":
            attr_sum("functionals.area_averages", "cells")
            + attr_sum("functionals.simultaneous_excursions", "cells"),
        "functionals.excursion.above_n":
            attr_sum("functionals.simultaneous_excursions", "above_n"),
        "functionals.excursion.below_n":
            attr_sum("functionals.simultaneous_excursions", "below_n"),
        "render.svg.s": total("render.svg"),
        "render.svg.bytes": attr_sum("render.svg", "bytes"),
        "render.pgm.s": total("render.pgm"),
        "cli.fit_state.write_s": total("cli.fit_state.write"),
        "cli.fit_state.read_s": total("cli.fit_state.read"),
        "cli.fit_state.bytes": attr_sum("cli.fit_state.write", "bytes"),
        "survey.read_frame.s": total("survey.read_frame"),
        "survey.direct_estimates.s": total("survey.direct_estimates"),
        "areal.adjacency.s": total("areal.adjacency"),
        "areal.fit_bym.s": total("areal.fit_bym"),
        "areal.fit_bym.self_s": self_total("areal.fit_bym"),
        "simulate.simulate_survey.s": total("simulate.simulate_survey"),
        "simulate.lattice_field.s": total("simulate.lattice_field"),
    }
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", required=True,
                        help="JSON file the spans are written to")
    parser.add_argument("command")
    parser.add_argument("-c", "--config", required=True)
    args = parser.parse_args(argv)

    from prevmap import cli

    tracer = Tracer(args.run_id)
    install(tracer)
    run_command = tracer.wrap(cli.main, f"cli.{args.command}")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = tracer.on_warning
        try:
            rc = run_command([args.command, "-c", args.config])
        finally:
            tracer.dump(args.spans, args.command)
    return rc


if __name__ == "__main__":
    sys.exit(main())
