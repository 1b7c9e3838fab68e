"""Config-driven pipeline: simulate -> fit -> areas/excursions -> report.

Exit codes: 0 success; 2 a ConfigError, naming its ``section.key``; 3 a
DataError (a geometry or empty-data error too) or a missing file, naming
the file; 4 any other package error or a LinAlgError, a numerical failure.
Each command reads and checks all its inputs (``load_config`` checks that
the files exist) before it computes or writes anything.  All outputs are
flat files under [paths] output_dir; identical config + seed give
byte-identical CSV and pixel-identical PGM outputs.

Each command runs as its own process, so import time is part of its run
time.  Module level therefore imports only the standard library, numpy,
``_csv``, ``config`` and ``errors``; each command imports the layers it
runs when it is called.  Only ``fit`` loads scipy; ``simulate``,
``areas``, ``excursions`` and ``report`` run on numpy alone.  Shutdown
is part of it too: the interpreter's last collections walk every
container object still tracked, ~22k after the post-fit commands'
imports and ~46k after ``fit``'s, nearly all of them module state that
lives to the end.  The process entry :func:`run` therefore freezes the
heap (``gc.freeze``) once the command has returned, and those
collections skip it.  Freezing changes only what the collector scans:
files are still closed and stdout still flushed, and an object freed by
its reference count (every array) is still freed.  :func:`main` leaves
the collector as it found it, for callers that run a command in-process.
"""

import argparse
import gc
import os
import sys

import numpy as np

from ._csv import _read_csv, _write_csv
from .config import load_config
from .errors import ConfigError, DataError, PrevmapError, reading

__all__ = ["main", "run", "cmd_simulate", "cmd_fit", "cmd_areas",
           "cmd_excursions", "cmd_report"]


def _read_polygons(path):
    from .geometry import read_polygons_csv, read_polygons_geojson

    if path.endswith(".csv"):
        return read_polygons_csv(path)
    return read_polygons_geojson(path)


def _boundary(cfg):
    polys = _read_polygons(cfg.boundary)
    if len(polys) != 1:
        raise DataError(f"{cfg.boundary}: boundary file must contain "
                        f"exactly one polygon, got {len(polys)}")
    return polys[0]


def _areas(cfg):
    """The area polygons (None without ``paths.areas``): at least one, and
    no id twice, since every output names an area by its id."""
    if not cfg.areas:
        return None
    areas = _read_polygons(cfg.areas)
    if not areas:
        raise DataError(f"{cfg.areas}: the areas file holds no polygon")
    seen = set()
    for pid in (str(p.id) for p in areas):
        if pid in seen:
            raise DataError(f"{cfg.areas}: area id {pid} names two polygons")
        seen.add(pid)
    return areas


def _grid(cfg, boundary):
    """The evaluation grid over ``boundary`` at ``functionals.grid_spacing``,
    refused when no cell centre falls inside the boundary."""
    from .functionals import make_grid

    grid = make_grid(boundary, cfg.grid_spacing)
    if not len(grid.points):
        raise ConfigError("functionals.grid_spacing",
                          f"{cfg.grid_spacing} leaves no grid cell inside "
                          f"the boundary")
    return grid


def cmd_simulate(cfg):
    from . import simulate, survey

    boundary = _boundary(cfg)
    areas = _areas(cfg)
    sizes = (simulate.read_household_size_csv(cfg.household_sizes)
             if cfg.household_sizes else None)
    locs = None
    if cfg.cluster_locations:
        locs = simulate.read_locations_csv(cfg.cluster_locations)
        _check_inside(cfg.cluster_locations, boundary, locs)
    sim = simulate.simulate_survey(cfg, boundary, sizes, areas=areas,
                                   cluster_locations=locs)
    os.makedirs(cfg.output_dir, exist_ok=True)
    survey.write_frame_csv(cfg.out("frame.csv"), sim.frame)
    simulate.write_truth_lattice_csv(cfg.out("truth_lattice.csv"), sim.truth)
    if sim.area_truth:
        simulate.write_truth_areas_csv(cfg.out("truth_areas.csv"),
                                       sim.area_truth)
    cfg.echo(cfg.out("config_resolved.ini"))
    # households come cluster by cluster, at least one each (m_min >= 1):
    # the clusters are the runs of cluster_id (np.unique loads numpy.ma)
    n_clusters = 1 + np.count_nonzero(np.diff(sim.frame.cluster_id))
    print(f"simulate: {sim.frame.num_households} households in "
          f"{n_clusters} clusters -> {cfg.output_dir}")
    return 0


def _check_inside(path, boundary, locs):
    """Refuse the file at ``path`` if a location of ``locs`` lies outside
    ``boundary``, naming the first one."""
    outside = locs[~boundary.contains(locs)]
    if len(outside):
        x, y = (float(v) for v in outside[0])
        raise DataError(f"{path}: column x, y: {len(outside)} locations "
                        f"outside the boundary, e.g. ({x}, {y})")


def _frame_path(cfg):
    return cfg.data or cfg.out("frame.csv")


def _load_frame(cfg, boundary, areas=None):
    """The survey frame, with every cluster inside ``boundary`` and, when
    ``areas`` are given, every area_id one of theirs."""
    from .survey import read_frame_csv

    path = _frame_path(cfg)
    if not os.path.exists(path):
        raise DataError(f"survey frame not found: {path} (run simulate or "
                        f"set paths.data)")
    frame = read_frame_csv(path)
    # one test per location: households of a cluster share theirs
    _check_inside(path, boundary,
                  np.unique(np.column_stack([frame.x, frame.y]), axis=0))
    if areas is not None:
        unknown = sorted({str(a) for a in frame.area_id}
                         - {str(p.id) for p in areas})
        if unknown:
            raise DataError(f"{path}: column area_id: ids not in "
                            f"{cfg.areas}: {', '.join(unknown[:5])}")
    return frame


def _spde_theta_init(cfg):
    from .matern import tau_from_sigma

    kappa0 = np.sqrt(8.0) / cfg.range_init
    tau0 = tau_from_sigma(cfg.sigma2_init, kappa0, 1.0)
    init = [float(np.log(tau0)), float(np.log(kappa0))]
    if cfg.nugget:
        init.append(float(np.log(1.0 / cfg.nugget_var_init)))
    return init


def _write_npz(path, **arrays):
    """The archive ``np.savez`` writes, each array's bytes taken from its
    own buffer: ``np.savez`` copies any array under 16 MiB whole on its way
    into the zip file."""
    import zipfile
    from numpy.lib import format as npy

    with zipfile.ZipFile(path, "w") as archive:
        for name, value in arrays.items():
            value = np.asarray(value)
            if not value.flags.f_contiguous:
                value = np.ascontiguousarray(value)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                npy.write_array_header_1_0(
                    fh, npy.header_data_from_array_1_0(value))
                fh.write(value.ravel(order="K"))


def _fit_spde(cfg, boundary, areas, frame, grid):
    """SPDE fit: theta grid, fixed-effect summary, median field and the
    saved samples the post-fit commands read.  Returns the files written.

    ``fit_state.npz`` holds what ``areas`` and ``excursions`` read:
    ``mesh_vertices``, ``mesh_triangles`` and ``mesh_interior``, the
    sub-mesh of the triangles that can hold a point of the boundary or of
    an area polygon (:meth:`TriMesh.submesh`), on which the projection of
    such a point is the full mesh's bit for bit; ``samples``, one row per
    joint draw, Fortran-ordered, with the field at the sub-mesh's vertices
    in its vertex order in columns ``field_start:field_stop`` (0 to the
    number of its vertices) and beta0 in column ``beta0_index`` (the next
    one); and ``theta_index``, the grid point of each draw.
    """
    from . import functionals
    from .geometry import fem_matrices, project
    from .inference import (BinomialObs, fit_latent_model, make_spde_model,
                            sample_with_marginals, write_fit_summary_csv,
                            write_theta_grid_csv)
    from .meshing import build_mesh

    mesh = build_mesh(boundary, cfg.interior_max_edge,
                      cfg.extension_factor, cfg.exterior_max_edge)
    c_mat, g_mat = fem_matrices(mesh)
    locs = np.column_stack([frame.x, frame.y])
    proj = project(mesh, locs)
    obs = BinomialObs(frame.positives, frame.n_members)
    model = make_spde_model(obs, proj, c_mat, g_mat, nugget=cfg.nugget,
                            theta_init=_spde_theta_init(cfg))
    fit = fit_latent_model(model)
    # downstream commands read only the field at points of the boundary
    # and the areas, and beta0: draw those columns alone, the field first,
    # so that the nugget is never solved for and the draws are the saved
    # matrix as they are
    saved, vertices = mesh.submesh([boundary] + (areas or []))
    field_ix = np.arange(model.latent_dim)[model.slices["field"]][vertices]
    b0 = model.slices["fixed"].start + model.fixed_names.index("beta0")
    n_field = len(field_ix)
    samples, marg = sample_with_marginals(
        fit, cfg.samples, cfg.seed, coords=np.r_[field_ix, b0],
        marginal_coords=np.arange(model.slices["fixed"].start,
                                  model.latent_dim))
    write_theta_grid_csv(cfg.out("theta_grid.csv"), fit)
    write_fit_summary_csv(cfg.out("fit_summary.csv"), marg)

    field = functionals.SurfaceSpec(mesh=saved,
                                    field_slice=slice(0, n_field))
    functionals.write_grid_csv(
        cfg.out("field_median_lattice.csv"), grid,
        mean=functionals.pointwise_median(samples, field, grid.points))
    _write_npz(
        cfg.out("fit_state.npz"),
        samples=samples.samples,
        theta_index=samples.theta_index,
        field_start=0,
        field_stop=n_field,
        beta0_index=n_field,
        mesh_vertices=saved.vertices,
        mesh_triangles=saved.triangles,
        mesh_interior=saved.interior_flag,
    )
    return ["theta_grid.csv", "fit_summary.csv", "field_median_lattice.csv",
            "fit_state.npz"]


def _bym_inputs(cfg, frame, areas):
    """The direct estimates, and the BYM model of their logits on the
    adjacency graph of the areas."""
    from . import areal, survey

    with reading(_frame_path(cfg)):  # a survey with no positive, say
        ests = survey.direct_estimates(frame)
    order = {str(p.id): i for i, p in enumerate(areas)}
    y, v = np.full((2, len(areas)), np.nan)
    for e in ests:  # every area_id is one of the areas (_load_frame)
        k = order[str(e.area_id)]
        y[k], v[k] = e.y_logit, e.v_logit
    graph = (areal.adjacency_from_csv(cfg.adjacency, [p.id for p in areas])
             if cfg.adjacency else areal.adjacency_from_polygons(areas))
    return ests, areal.BymModel(y=y, v_hat=v, graph=graph)


def _fit_bym(cfg, areas, ests, model):
    """BYM smoothing of the direct estimates.  Returns the files written."""
    from . import areal, survey
    from .inference import write_theta_grid_csv

    survey.write_direct_estimates_csv(cfg.out("direct_estimates.csv"), ests)
    bym = areal.fit_bym(model)
    _write_csv(cfg.out("bym_summary.csv"),
               ["area_id", "eta_mean", "eta_sd", "eta_q025", "eta_q50",
                "eta_q975", "p_mean", "p_q025", "p_q50", "p_q975",
                "singleton"],
               [[p.id for p in areas], bym.eta_mean, bym.eta_sd,
                bym.eta_q025, bym.eta_q50, bym.eta_q975, bym.p_mean,
                bym.p_q025, bym.p_q50, bym.p_q975,
                [int(i in bym.singleton_areas) for i in range(len(areas))]])
    write_theta_grid_csv(cfg.out("bym_theta_grid.csv"), bym.fit)
    return ["direct_estimates.csv", "bym_summary.csv", "bym_theta_grid.csv"]


def cmd_fit(cfg):
    if cfg.fit_bym and not cfg.areas:
        raise ConfigError("paths.areas", "required for the BYM path")
    boundary = _boundary(cfg)
    areas = _areas(cfg)
    grid = _grid(cfg, boundary) if cfg.fit_spde else None
    frame = _load_frame(cfg, boundary, areas if cfg.fit_bym else None)
    bym = _bym_inputs(cfg, frame, areas) if cfg.fit_bym else None
    os.makedirs(cfg.output_dir, exist_ok=True)
    wrote = []
    if cfg.fit_spde:
        wrote += _fit_spde(cfg, boundary, areas, frame, grid)
    if cfg.fit_bym:
        wrote += _fit_bym(cfg, areas, *bym)
    cfg.echo(cfg.out("config_resolved.ini"))
    print(f"fit: wrote {', '.join(wrote)} -> {cfg.output_dir}")
    return 0


def _load_state(cfg):
    """The joint samples and the surface they describe, from the
    ``fit_state.npz`` that ``fit`` wrote (its layout: :func:`_fit_spde`)."""
    path = cfg.out("fit_state.npz")
    if not os.path.exists(path):
        raise DataError(f"fit state not found: {path} (run fit first)")
    from .functionals import JointSamples, SurfaceSpec
    from .geometry import TriMesh

    with reading(path), np.load(path) as z:
        spec = SurfaceSpec(
            mesh=TriMesh(z["mesh_vertices"], z["mesh_triangles"],
                         z["mesh_interior"]),
            field_slice=slice(int(z["field_start"]), int(z["field_stop"])),
            beta0_index=int(z["beta0_index"]))
        samples = JointSamples(samples=z["samples"],
                               theta_index=z["theta_index"])
    return samples, spec


def cmd_areas(cfg):
    from . import functionals

    areas = _areas(cfg)
    samples, spec = _load_state(cfg)
    res = functionals.area_averages(samples, spec, areas,
                                    points_per_area=cfg.points_per_area,
                                    seed=cfg.seed)
    functionals.write_area_csv(cfg.out("area_averages.csv"), res)
    print(f"areas: {len(res.area_ids)} area averages -> "
          f"{cfg.out('area_averages.csv')}")
    return 0


def cmd_excursions(cfg):
    from . import functionals

    boundary = _boundary(cfg)
    samples, spec = _load_state(cfg)
    grid = _grid(cfg, boundary)
    exc = functionals.simultaneous_excursions(
        samples, spec, grid.points, u=cfg.u, alpha_level=cfg.alpha_level)
    functionals.write_grid_csv(
        cfg.out("excursion_grid.csv"), grid, mean=exc.mean,
        sd=exc.sd, exceed_prob=exc.exceed_prob, labels=exc.labels)
    sets = []
    for label, p in (("above", exc.joint_above_prob),
                     ("below", exc.joint_below_prob)):
        se = np.sqrt(p * (1.0 - p) / samples.num_samples)
        sets.append(f"{int((exc.labels == label).sum())} {label} "
                    f"(joint P {p:.4f}, s.e. {se:.4f})")
    n_ind = int((exc.labels == "indeterminate").sum())
    print(f"excursions: u={cfg.u} level={1 - cfg.alpha_level}: "
          f"{', '.join(sets)}, {n_ind} indeterminate")
    return 0


def _read_column(path, column, key=None):
    """One column of a CSV output: floats, or strings for ``label``.  With
    ``key``, a dict from the ``key`` column to float values instead."""
    with reading(path):
        if key is not None:
            values, keys = _read_csv(path, [column, key])
            return dict(zip(keys, map(float, values)))
        values, = _read_csv(path, [column])
        if column == "label":
            return np.array(values)
        return np.array(list(map(float, values)))


# area maps: input CSV, its value column, output SVG, title
_CHOROPLETHS = (
    ("area_averages.csv", "mean", "area_averages.svg",
     "area-average prevalence (SPDE)"),
    ("bym_summary.csv", "p_mean", "bym_areas.svg",
     "area-average prevalence (BYM)"),
    ("truth_areas.csv", "t_true", "true_areas.svg",
     "true area-average prevalence"),
)


def cmd_report(cfg):
    from . import render

    boundary = _boundary(cfg)
    areas = _areas(cfg)
    # grid maps: the posterior median field and the excursion labels
    grid_inputs = {}
    for name, column in (("field_median_lattice.csv", "mean"),
                         ("excursion_grid.csv", "label")):
        if os.path.exists(cfg.out(name)):
            grid_inputs[name] = _read_column(cfg.out(name), column)
    if grid_inputs:
        grid = _grid(cfg, boundary)
    for name, values in grid_inputs.items():
        if grid.points.shape[0] != len(values):
            raise DataError(f"{cfg.out(name)}: does not match the "
                            f"configured grid spacing")
    choropleths = [
        (svg, title, _read_column(cfg.out(name), column, key="area_id"))
        for name, column, svg, title in _CHOROPLETHS
        if areas and os.path.exists(cfg.out(name))]

    os.makedirs(cfg.output_dir, exist_ok=True)
    wrote = []
    med = grid_inputs.get("field_median_lattice.csv")
    if med is not None:
        render.svg_heatmap(cfg.out("median_field.svg"), grid, med,
                           title="posterior median field")
        render.write_pgm(cfg.out("median_field.pgm"),
                         render.field_to_gray(grid.full(med)))
        wrote += ["median_field.svg", "median_field.pgm"]

    for svg, title, vals in choropleths:
        v = np.array([vals.get(str(p.id), np.nan) for p in areas])
        render.svg_choropleth(cfg.out(svg), areas, v, title=title)
        wrote.append(svg)

    labels = grid_inputs.get("excursion_grid.csv")
    if labels is not None:
        render.svg_excursions(cfg.out("excursions.svg"), grid, labels,
                              title=f"excursions at u={cfg.u}")
        render.write_pgm(cfg.out("excursions.pgm"),
                         render.excursion_to_gray(grid.full(labels,
                                                            fill=None)))
        wrote += ["excursions.svg", "excursions.pgm"]

    if not wrote:
        raise DataError("no fit outputs found to report on; run fit / areas "
                        "/ excursions first")
    print(f"report: wrote {', '.join(wrote)} -> {cfg.output_dir}")
    return 0


_REQUIRED_FILES = {
    "simulate": ("boundary",),
    "fit": ("boundary",),
    "areas": ("areas",),
    "excursions": ("boundary",),
    "report": ("boundary",),
}

_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "areas": cmd_areas,
    "excursions": cmd_excursions,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="prevmap",
        description="geostatistical prevalence-mapping pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True,
                       help="path to the INI configuration file")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config,
                          require_files=_REQUIRED_FILES[args.command])
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (PrevmapError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def run():
    """The process entry, of ``prevmap`` and ``python -m prevmap.cli``:
    :func:`main` on ``sys.argv``, then exit with its code, the heap frozen
    so that shutdown does not scan it (module docstring)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
