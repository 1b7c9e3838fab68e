"""Correctness gate and accuracy figures, read from a pipeline's output files.

Each check returns a list of problems (empty when the outputs are correct).
The gate only reads files; the one place it calls into the program is the
barycentric projection used to re-evaluate excursion sets from the saved
joint samples.
"""

import configparser
import csv
import hashlib
import math
import os

import numpy as np

# files each command must write, by model path ("any", "spde", "bym")
PRODUCES = {
    "simulate": {"any": ["frame.csv", "truth_lattice.csv", "truth_areas.csv"]},
    "fit": {"spde": ["theta_grid.csv", "fit_summary.csv",
                     "field_median_lattice.csv", "fit_state.npz"],
            "bym": ["direct_estimates.csv", "bym_summary.csv",
                    "bym_theta_grid.csv"]},
    "areas": {"spde": ["area_averages.csv"]},
    "excursions": {"spde": ["excursion_grid.csv"]},
    "report": {"any": ["true_areas.svg"],
               "spde": ["median_field.svg", "median_field.pgm",
                        "area_averages.svg", "excursions.svg",
                        "excursions.pgm"],
               "bym": ["bym_areas.svg"]},
}


def resolved_config(out_dir):
    parser = configparser.ConfigParser()
    parser.read(os.path.join(out_dir, "config_resolved.ini"))
    return parser


def expected_files(command, paths):
    """Output files of ``command`` when the model runs ``paths``."""
    by_path = PRODUCES[command]
    return [f for p in ("any", *paths) for f in by_path.get(p, [])]


def missing_files(out_dir, names):
    return [f"missing output {n}" for n in names
            if not os.path.isfile(os.path.join(out_dir, n))]


def digests(out_dir, names):
    """sha256 of the CSV and PGM files among ``names``: these must come out
    byte-identical for the same code, config and seed."""
    out = {}
    for n in names:
        if n.endswith((".csv", ".pgm")):
            with open(os.path.join(out_dir, n), "rb") as fh:
                out[n] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest_mismatches(found, reference):
    return [f"{n} differs from an earlier run of the same seed"
            for n, h in found.items() if n in reference and reference[n] != h]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def theta_weight_problems(out_dir, paths):
    problems = []
    names = {"spde": "theta_grid.csv", "bym": "bym_theta_grid.csv"}
    for p in paths:
        total = sum(float(r["weight"])
                    for r in _rows(os.path.join(out_dir, names[p])))
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{names[p]}: weights sum to {total!r}")
    return problems


def excursion_problems(out_dir):
    """Re-evaluate each non-empty excursion set on the saved joint samples:
    the share of samples in which every member lies on its side of u must be
    at least 1 - alpha."""
    from prevmap.geometry import TriMesh, project

    cfg = resolved_config(out_dir)
    u = cfg.getfloat("functionals", "u")
    level = 1.0 - cfg.getfloat("functionals", "alpha_level")
    rows = _rows(os.path.join(out_dir, "excursion_grid.csv"))
    state = np.load(os.path.join(out_dir, "fit_state.npz"))
    mesh = TriMesh(state["mesh_vertices"], state["mesh_triangles"],
                   state["mesh_interior"])
    samples = state["samples"]
    field = samples[:, int(state["field_start"]):int(state["field_stop"])]
    beta0 = samples[:, int(state["beta0_index"])]
    thresh = math.log(u / (1.0 - u))
    problems = []
    for side, sign in (("above", 1.0), ("below", -1.0)):
        pts = np.array([(float(r["x"]), float(r["y"])) for r in rows
                        if r["label"] == side]).reshape(-1, 2)
        if not len(pts):
            continue
        eta = project(mesh, pts).matrix @ field.T + beta0[None, :]
        joint = float(np.mean(np.all(sign * (eta - thresh) > 0, axis=0)))
        if joint < level:
            problems.append(f"{side} set of {len(pts)} points holds jointly "
                            f"with probability {joint} < {level}")
    return problems


def accuracy(out_dir, paths):
    """RMSE of posterior-mean area prevalence against the simulated truth,
    and |share of 95% intervals covering the truth - 0.95|, per model."""
    truth = {r["area_id"]: float(r["t_true"])
             for r in _rows(os.path.join(out_dir, "truth_areas.csv"))}
    sources = {"spde": ("area_averages.csv", "mean", "q025", "q975"),
               "bym": ("bym_summary.csv", "p_mean", "p_q025", "p_q975")}
    out = {}
    for p in paths:
        name, mean, lo, hi = sources[p]
        err, cover = [], []
        for r in _rows(os.path.join(out_dir, name)):
            t = truth.get(r["area_id"])
            m = float(r[mean])
            if t is None or not math.isfinite(m):
                continue
            err.append((m - t) ** 2)
            cover.append(float(r[lo]) <= t <= float(r[hi]))
        out[f"{p}_area_rmse"] = math.sqrt(sum(err) / len(err))
        out[f"{p}_cover_gap"] = abs(sum(cover) / len(cover) - 0.95)
    return out
