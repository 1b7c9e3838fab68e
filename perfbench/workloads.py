"""Workload generator: a workload name and a seed become input files.

Every workload is a 10 x 10 square boundary with a rectangular area
partition and INI configs with ``threads = 1``.  The program receives only
these files; ``prevmap simulate`` generates the survey from the seed in
``simulate.ini``, and the other commands take their Monte Carlo seed from
``config.ini``, so the same seed gives the same inputs.  Nothing here
imports from the program or from its tests.
"""

import csv
import os
from typing import NamedTuple

SIDE = 10.0


class Workload(NamedTuple):
    areas_per_side: int
    survey_seed: object  # simulation seed; None: the run seed
    overrides: dict      # config section -> key -> value

    @property
    def paths(self):
        """The model paths it runs: a subset of ("spde", "bym")."""
        model = self.overrides["model"]
        return tuple(p for p in ("spde", "bym")
                     if model[f"fit_{p}"] == "true")


# Config keys left out take the program's defaults.  Why each workload exists
# is in BENCHMARK.json; areal_many, which the benchmark does not list and is
# run by hand, is described in README.md.
#
# The SPDE workloads simulate one fixed survey, as ROADMAP's "fixed-seed
# canonical config" asks, and the run seed drives only their Monte Carlo
# draws (joint samples, area points).  Their fit's work depends on the
# survey: with two surveys per run, canonical seeds 1-5 fitted in 18-33 s,
# the same seeds fast or slow again when rerun, because Newton iterations
# and theta-mode evaluations vary with the data; no number of surveys a run
# can afford averages that out.  areal_many's BYM fit times showed no such
# per-seed pattern, so it draws a new survey per seed.
WORKLOADS = {
    # the canonical config: 7 x 7 areas, 400 clusters, edge 0.6, nugget on,
    # SPDE + BYM, 1000 samples
    "canonical": Workload(7, 1, {
        "model": {"interior_max_edge": "0.6", "nugget": "true",
                  "fit_spde": "true", "fit_bym": "true"},
        "run": {"samples": "1000"},
        "sim": {"n_clusters": "400"},
    }),
    # cheap Laplace fit; the time goes to sampling, projection, fit-state
    # I/O, area averages, greedy excursions and SVG.  u = 0.05 because at
    # the default u = 0.07 both excursion sets come out empty.
    "posterior_maps": Workload(7, 1, {
        "model": {"interior_max_edge": "1.0", "nugget": "false",
                  "fit_spde": "true", "fit_bym": "false"},
        "run": {"samples": "2000"},
        "sim": {"n_clusters": "400"},
        "functionals": {"grid_spacing": "0.1", "points_per_area": "400",
                        "u": "0.05"},
    }),
    # no mesh and no SPDE: survey masks, O(K^2) adjacency, BYM variances and
    # many-right-hand-side solves over 1600 areas, some empty or with a
    # single cluster
    "areal_many": Workload(40, None, {
        "model": {"fit_spde": "false", "fit_bym": "true"},
        "sim": {"n_clusters": "4000", "truth_resolution": "100"},
    }),
}


def _write_polygons(path, cells):
    """Polygon CSV rows (id, ring_index, vertex_index, x, y)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "ring_index", "vertex_index", "x", "y"])
        for pid, ring in cells:
            for vi, (x, y) in enumerate(ring):
                w.writerow([pid, 0, vi, repr(float(x)), repr(float(y))])


def _box(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _grid_cells(n):
    edges = [SIDE * i / n for i in range(n + 1)]
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append((f"A{j * n + i}",
                          _box(edges[i], edges[j], edges[i + 1],
                               edges[j + 1])))
    return cells


def _write_config(path, sections):
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def generate(name, seed, directory):
    """Write boundary.csv, areas.csv, simulate.ini and config.ini.

    ``config.ini`` carries the run seed; ``simulate.ini`` is the same but
    for the seed of the survey to simulate.  Returns both paths
    (simulate config, pipeline config).  Outputs go to ``out/`` inside
    ``directory``.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    spec = WORKLOADS[name]
    os.makedirs(directory, exist_ok=True)
    boundary = os.path.join(directory, "boundary.csv")
    areas = os.path.join(directory, "areas.csv")
    _write_polygons(boundary, [("boundary", _box(0.0, 0.0, SIDE, SIDE))])
    _write_polygons(areas, _grid_cells(spec.areas_per_side))

    paths = []
    survey_seed = seed if spec.survey_seed is None else spec.survey_seed
    for fname, run_seed in (("simulate.ini", survey_seed),
                            ("config.ini", seed)):
        sections = {
            "paths": {"output_dir": os.path.join(directory, "out"),
                      "boundary": boundary, "areas": areas},
            "run": {"seed": str(int(run_seed)), "threads": "1"},
        }
        for section, keys in spec.overrides.items():
            sections.setdefault(section, {}).update(keys)
        paths.append(os.path.join(directory, fname))
        _write_config(paths[-1], sections)
    return tuple(paths)
