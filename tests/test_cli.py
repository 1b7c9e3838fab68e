"""End-to-end smoke test of the five CLI commands on a tiny configuration."""

import csv
import io
import json
import os
import re
import shutil

import numpy as np
import pytest

from prevmap import cli, geometry, inference
from prevmap.config import _SETTINGS
from prevmap.errors import ConvergenceError, NotPositiveDefiniteError
from prevmap.geometry import Polygon, write_polygons_csv

from conftest import grid_areas

COMMANDS = ("simulate", "fit", "areas", "excursions", "report")

EXPECTED = {
    "simulate": ("frame.csv", "truth_lattice.csv", "truth_areas.csv",
                 "config_resolved.ini"),
    "fit": ("theta_grid.csv", "fit_summary.csv", "field_median_lattice.csv",
            "fit_state.npz", "direct_estimates.csv", "bym_summary.csv",
            "bym_theta_grid.csv"),
    "areas": ("area_averages.csv",),
    "excursions": ("excursion_grid.csv",),
    "report": ("median_field.svg", "median_field.pgm", "area_averages.svg",
               "bym_areas.svg", "true_areas.svg", "excursions.svg",
               "excursions.pgm"),
}

# a 10 x 10 square with 2 x 2 areas and a coarse mesh: the whole pipeline
# runs in a few seconds
TINY = {
    "run": {"seed": "3", "samples": "100", "threads": "1"},
    "model": {"interior_max_edge": "2.0"},
    "sim": {"n_clusters": "60", "truth_resolution": "40"},
    "functionals": {"grid_spacing": "1.0", "points_per_area": "20"},
}


def _write_config(directory, extra=None):
    """Boundary, areas and config.ini in ``directory``; returns the config."""
    os.makedirs(directory, exist_ok=True)
    boundary = os.path.join(directory, "boundary.csv")
    areas = os.path.join(directory, "areas.csv")
    write_polygons_csv(boundary, [
        Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)]], id="boundary")])
    write_polygons_csv(areas, grid_areas(0, 0, 10, 10, 2, 2))
    sections = {"paths": {"output_dir": os.path.join(directory, "out"),
                          "boundary": boundary, "areas": areas}}
    sections.update(TINY)
    for section, keys in (extra or {}).items():
        sections[section] = dict(sections.get(section, {}), **keys)
    ini = os.path.join(directory, "config.ini")
    with open(ini, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
    return ini


def _run_pipeline(directory):
    ini = _write_config(directory)
    return {cmd: cli.main([cmd, "-c", ini]) for cmd in COMMANDS}


def _outputs(directory):
    """Bytes of every CSV, PGM and SVG output, by file name."""
    out = os.path.join(directory, "out")
    files = {}
    for name in sorted(os.listdir(out)):
        if name.endswith((".csv", ".pgm", ".svg")):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return files


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("run_a"))
    return directory, _run_pipeline(directory)


def test_cli_all_commands_succeed_and_write_outputs(first_run):
    directory, codes = first_run
    assert codes == {cmd: 0 for cmd in COMMANDS}
    present = set(os.listdir(os.path.join(directory, "out")))
    for cmd in COMMANDS:
        missing = set(EXPECTED[cmd]) - present
        assert not missing, f"{cmd} did not write {sorted(missing)}"


def test_cli_rerun_is_byte_identical(first_run, tmp_path):
    directory, _ = first_run
    codes = _run_pipeline(str(tmp_path))
    assert codes == {cmd: 0 for cmd in COMMANDS}
    first, second = _outputs(directory), _outputs(str(tmp_path))
    assert sorted(first) == sorted(second)
    assert {n for n in first if n.endswith(".pgm")} == {
        "median_field.pgm", "excursions.pgm"}
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def test_cli_csv_outputs_are_what_csv_writer_writes(first_run):
    # every table the pipeline writes, parsed by csv.reader and written
    # again by csv.writer, comes back byte for byte
    directory, _ = first_run
    out = os.path.join(directory, "out")
    names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    assert {n for cmd in COMMANDS for n in EXPECTED[cmd]
            if n.endswith(".csv")} <= set(names)
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            written = fh.read()
        again = io.StringIO()
        csv.writer(again).writerows(
            csv.reader(io.StringIO(written.decode(), newline="")))
        assert again.getvalue().encode() == written, name


def test_cli_unknown_config_key_exits_2(tmp_path):
    # fix_policy is no key: every area gets the shrink boundary fix
    for extra in ({"model": {"no_such_key": "1"}},
                  {"survey": {"fix_policy": "shrink"}}):
        ini = _write_config(str(tmp_path), extra=extra)
        assert cli.main(["fit", "-c", ini]) == 2


@pytest.mark.parametrize(
    "setting", [s for s in _SETTINGS if s.type in (int, float)],
    ids=lambda s: f"{s.section}.{s.key}")
def test_cli_numeric_setting_text_exits_2(tmp_path, capsys, setting):
    name = f"{setting.section}.{setting.key}"
    ini = _write_config(str(tmp_path),
                        extra={setting.section: {setting.key: "abc"}})
    capsys.readouterr()
    assert cli.main(["fit", "-c", ini]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "areas"])
def test_cli_missing_areas_path_exits_2(tmp_path, capsys, command):
    # fit_bym is on by default, so fit needs the areas as areas does
    ini = _write_config(str(tmp_path), extra={"paths": {"areas": ""}})
    capsys.readouterr()
    assert cli.main([command, "-c", ini]) == 2
    assert "config error: [paths.areas] required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "areas"])
def test_cli_missing_areas_file_exits_2(tmp_path, capsys, command):
    # fit_bym is on by default: fit refuses a missing areas file as areas
    # does, before it reads anything else
    missing = str(tmp_path / "no_such_areas.csv")
    ini = _write_config(str(tmp_path), extra={"paths": {"areas": missing}})
    capsys.readouterr()
    assert cli.main([command, "-c", ini]) == 2
    assert (f"config error: [paths.areas] file not found: {missing}"
            in capsys.readouterr().err)


def test_cli_post_fit_outputs_do_not_depend_on_block_size(first_run,
                                                          tmp_path,
                                                          monkeypatch):
    # the fitted tiny study, copied; areas, excursions and report at one
    # block for everything and at a 7-cell cap, which gives one-row blocks
    # and area tiles of 2 samples
    directory, _ = first_run
    ini = _write_config(str(tmp_path))
    shutil.copytree(os.path.join(directory, "out"), tmp_path / "out")
    runs = []
    for cells in (10 ** 9, 7):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
        for command in ("areas", "excursions", "report"):
            assert cli.main([command, "-c", ini]) == 0
        runs.append(_outputs(str(tmp_path)))
    assert {n for n in runs[0] if n.endswith(".svg")} == {
        n for n in EXPECTED["report"] if n.endswith(".svg")}
    assert sorted(runs[0]) == sorted(runs[1])
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], f"{name} depends on blocks"


@pytest.mark.parametrize("damage", ["missing_column", "ragged_row",
                                    "long_row", "text_value"])
def test_cli_report_bad_fit_output_exits_3_naming_it(first_run, tmp_path,
                                                      capsys, damage):
    directory, _ = first_run
    ini = _write_config(str(tmp_path))
    shutil.copytree(os.path.join(directory, "out"), tmp_path / "out")
    path = tmp_path / "out" / "field_median_lattice.csv"
    header, first, *rest = path.read_text().splitlines()
    if damage == "missing_column":
        header = header.replace("mean", "median")
    elif damage == "ragged_row":
        first = first.rsplit(",", 1)[0]
    elif damage == "long_row":
        first += ",999"
    else:
        first = first.rsplit(",", 1)[0] + ",abc"
    path.write_text("\n".join([header, first] + rest) + "\n")
    capsys.readouterr()
    assert cli.main(["report", "-c", ini]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    if damage.endswith("_row"):
        n = 4 if damage == "long_row" else 2
        assert (f"data error: {path}: data row 1 has {n} fields, the header "
                f"3") in err


def _drop_beta0_index(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != "beta0_index"}
    np.savez(path, **arrays)


_STATE_DAMAGE = {
    "garbage_bytes": lambda path: path.write_bytes(b"not an archive\n" * 8),
    "truncated": lambda path: path.write_bytes(
        path.read_bytes()[:path.stat().st_size // 2]),
    "missing_beta0_index": _drop_beta0_index,
}


@pytest.mark.parametrize("damage", sorted(_STATE_DAMAGE))
def test_cli_damaged_fit_state_exits_3_naming_it(first_run, tmp_path, capsys,
                                                 damage):
    directory, _ = first_run
    ini = _write_config(str(tmp_path))
    shutil.copytree(os.path.join(directory, "out"), tmp_path / "out")
    path = tmp_path / "out" / "fit_state.npz"
    _STATE_DAMAGE[damage](path)
    for command in ("areas", "excursions"):
        capsys.readouterr()
        assert cli.main([command, "-c", ini]) == 3
        assert f"data error: {path}: " in capsys.readouterr().err


def test_cli_excursions_line_reports_joint_probabilities(first_run, capsys):
    directory, _ = first_run
    capsys.readouterr()
    assert cli.main(["excursions", "-c",
                     os.path.join(directory, "config.ini")]) == 0
    line = capsys.readouterr().out
    sets = re.findall(r"(\d+) (above|below) \(joint P ([\d.]+), "
                      r"s\.e\. ([\d.]+)\)", line)
    assert [label for _, label, _, _ in sets] == ["above", "below"], line
    level = 1 - 0.05  # the default alpha_level
    samples = int(TINY["run"]["samples"])
    assert any(int(n) for n, _, _, _ in sets), line
    for n, _, p, se in sets:
        p, se = float(p), float(se)
        if int(n):
            assert p >= level, line
        assert se == pytest.approx(np.sqrt(p * (1 - p) / samples),
                                   abs=1e-4), line


def test_cli_areas_before_fit_exits_3(tmp_path):
    ini = _write_config(str(tmp_path))
    assert cli.main(["areas", "-c", ini]) == 3
    assert not os.path.exists(tmp_path / "out" / "fit_state.npz")


def test_cli_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    ini = _write_config(str(tmp_path))
    assert cli.main(["simulate", "-c", ini]) == 0
    for error in (ConvergenceError("Newton did not converge"),
                  NotPositiveDefiniteError("Q_post is not positive definite")):
        def fail(*args, error=error, **kwargs):
            raise error

        # cmd_fit imports fit_latent_model when it runs, so the patch goes
        # on its owner module
        monkeypatch.setattr(inference, "fit_latent_model", fail)
        capsys.readouterr()
        assert cli.main(["fit", "-c", ini]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(error) in err


# ---------------------------------------------------------------------------
# input branches the default pipeline does not take
# ---------------------------------------------------------------------------

def _out(ini, name):
    return os.path.join(os.path.dirname(ini), "out", name)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


def test_cli_cluster_locations_and_household_sizes(tmp_path):
    locs = [(x + 0.5, y + 0.5) for x in range(0, 10, 2)
            for y in range(0, 10, 2)]
    loc_csv = _write_rows(str(tmp_path / "locs.csv"), ["x", "y"], locs)
    size_csv = _write_rows(str(tmp_path / "sizes.csv"),
                           ["size", "probability"],
                           [(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])
    ini = _write_config(str(tmp_path), extra={"paths": {
        "cluster_locations": loc_csv, "household_sizes": size_csv}})
    assert cli.main(["simulate", "-c", ini]) == 0
    with open(_out(ini, "frame.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(float(r["x"]), float(r["y"])) for r in rows} == set(locs)
    assert {int(r["N"]) for r in rows} <= {1, 2, 3, 4}


@pytest.mark.parametrize("key", ["cluster_locations", "household_sizes"])
def test_cli_missing_simulation_input_exits_2(tmp_path, capsys, key):
    # load_config checks every input file a [paths] key names
    missing = str(tmp_path / "missing.csv")
    ini = _write_config(str(tmp_path), extra={"paths": {key: missing}})
    assert cli.main(["simulate", "-c", ini]) == 2
    assert (f"config error: [paths.{key}] file not found: {missing}"
            in capsys.readouterr().err)


def test_cli_simulate_sampling_error_names_the_boundary(tmp_path, capsys):
    # a boundary ring around a hole that leaves it almost no area: drawing
    # the clusters fails, and the areas file, which simulate also reads, is
    # not blamed
    ini = _write_config(str(tmp_path))
    lo, hi = 1e-7, 10 - 1e-7
    boundary = str(tmp_path / "boundary.csv")
    write_polygons_csv(boundary, [Polygon(
        [[(0, 0), (10, 0), (10, 10), (0, 10)],
         [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]], id="boundary")])
    capsys.readouterr()
    assert cli.main(["simulate", "-c", ini]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"data error: {boundary}: polygon boundary: fills "), err
    assert "areas.csv" not in err
    assert not os.path.exists(_out(ini, "frame.csv"))


def test_cli_simulate_clusters_in_no_area_exits_3(tmp_path, capsys):
    # areas.csv holds 3 of the 49 cells of a 7 x 7 partition, so most
    # clusters lie in no area
    ini = _write_config(str(tmp_path))
    areas = str(tmp_path / "areas.csv")
    write_polygons_csv(areas, grid_areas(0, 0, 10, 10, 7, 7)[:3])
    capsys.readouterr()
    assert cli.main(["simulate", "-c", ini]) == 3
    err = capsys.readouterr().err
    assert f"{areas}: " in err and "clusters lie in no area" in err
    assert not os.path.exists(_out(ini, "frame.csv"))


def test_cli_geojson_boundary_matches_csv(tmp_path):
    by_csv = _write_config(str(tmp_path / "csv"))
    geojson = str(tmp_path / "boundary.geojson")
    with open(geojson, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"id": "boundary"},
            "geometry": {"type": "Polygon", "coordinates": [
                [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]]}}]}, fh)
    by_json = _write_config(str(tmp_path / "json"),
                            extra={"paths": {"boundary": geojson}})
    for ini in (by_csv, by_json):
        assert cli.main(["simulate", "-c", ini]) == 0
    for name in ("frame.csv", "truth_lattice.csv", "truth_areas.csv"):
        assert _read(_out(by_json, name)) == _read(_out(by_csv, name))


def test_cli_bym_only_with_adjacency_csv_then_report(tmp_path):
    adjacency = _write_rows(str(tmp_path / "adjacency.csv"),
                            ["area_i", "area_j"],
                            [("A0", "A1"), ("A0", "A2"), ("A1", "A3"),
                             ("A2", "A3")])
    bym_only = {"model": {"fit_spde": "false"}}
    from_csv = _write_config(str(tmp_path / "csv"), extra=dict(
        bym_only, paths={"adjacency": adjacency}))
    from_polygons = _write_config(str(tmp_path / "polygons"), extra=bym_only)
    for ini in (from_csv, from_polygons):
        assert cli.main(["simulate", "-c", ini]) == 0
        assert cli.main(["fit", "-c", ini]) == 0
    out = set(os.listdir(os.path.dirname(_out(from_csv, "x"))))
    assert {"direct_estimates.csv", "bym_summary.csv",
            "bym_theta_grid.csv"} <= out
    assert not out & {"theta_grid.csv", "fit_state.npz"}
    # the CSV lists the same edges as the shared polygon sides
    assert (_read(_out(from_csv, "bym_summary.csv"))
            == _read(_out(from_polygons, "bym_summary.csv")))

    assert cli.main(["report", "-c", from_csv]) == 0
    out = set(os.listdir(os.path.dirname(_out(from_csv, "x"))))
    assert {"bym_areas.svg", "true_areas.svg"} <= out
    assert "median_field.svg" not in out


def test_cli_spde_only_fit(tmp_path):
    ini = _write_config(str(tmp_path), extra={"model": {"fit_bym": "false"}})
    assert cli.main(["simulate", "-c", ini]) == 0
    assert cli.main(["fit", "-c", ini]) == 0
    out = set(os.listdir(os.path.dirname(_out(ini, "x"))))
    assert set(EXPECTED["fit"][:4]) <= out
    assert not out & {"direct_estimates.csv", "bym_summary.csv",
                      "bym_theta_grid.csv"}


def test_cli_fit_state_holds_the_field_and_beta0_draws(tmp_path,
                                                      monkeypatch):
    # fit draws only the field at the vertices of the sub-mesh it saves,
    # and beta0; the saved matrix is the full draw's columns at those
    # vertices, in the sub-mesh's vertex order, then its beta0 column
    drawn, cut = [], []
    draw = inference.sample_with_marginals
    submesh = geometry.TriMesh.submesh

    def draw_spy(fit, num_samples, seed, coords, marginal_coords):
        drawn.append((fit, num_samples, seed))
        return draw(fit, num_samples, seed, coords, marginal_coords)

    def submesh_spy(mesh, polygons):
        cut.append((mesh, submesh(mesh, polygons)))
        return cut[-1][1]

    monkeypatch.setattr(inference, "sample_with_marginals", draw_spy)
    monkeypatch.setattr(geometry.TriMesh, "submesh", submesh_spy)
    ini = _write_config(str(tmp_path))
    assert cli.main(["simulate", "-c", ini]) == 0
    assert cli.main(["fit", "-c", ini]) == 0
    (fit, num_samples, seed), = drawn
    (mesh, (sub, vertices)), = cut
    model = fit.model
    assert model.slices["field"] == slice(0, mesh.num_vertices)
    assert 0 < len(vertices) < mesh.num_vertices
    with np.load(_out(ini, "fit_state.npz")) as z:
        state = {key: z[key] for key in z.files}
    assert np.array_equal(state["mesh_vertices"], mesh.vertices[vertices])
    assert np.array_equal(state["mesh_vertices"], sub.vertices)
    assert np.array_equal(state["mesh_triangles"], sub.triangles)
    assert np.array_equal(state["mesh_interior"],
                          mesh.interior_flag[vertices])
    n_field = len(vertices)
    assert state["samples"].shape == (int(TINY["run"]["samples"]),
                                      n_field + 1)
    assert state["samples"].flags.f_contiguous
    assert int(state["field_start"]) == 0
    assert int(state["field_stop"]) == int(state["beta0_index"]) == n_field
    full = inference.sample_joint(fit, num_samples, seed)
    b0 = model.slices["fixed"].start + model.fixed_names.index("beta0")
    assert np.array_equal(state["samples"][:, :n_field],
                          full.samples[:, vertices])
    assert np.array_equal(state["samples"][:, n_field], full.samples[:, b0])
    assert np.array_equal(state["theta_index"], full.theta_index)


# ---------------------------------------------------------------------------
# bad inputs: exit 2 naming the config key, exit 3 naming the file
# ---------------------------------------------------------------------------

_FRAME_COLS = ["cluster_id", "area_id", "x", "y", "household_id", "N", "Y",
               "weight"]


def _frame_case(directory, drop=None, y_above_n=False, adjacency=None,
                bad=None, positives=None, spde=False):
    """A hand-written frame (two clusters of two households in each of the
    2 x 2 areas) without column ``drop``, with one Y > N if asked, the
    first row's value of one column replaced if ``bad`` = (column, text),
    every Y set to ``positives`` if given, and an adjacency CSV of the
    given edges if any; with ``positives`` or ``adjacency``, a BYM fit
    alone unless ``spde``.  Returns the config overrides, the exit code
    and the file (and the bad column) the error message must name."""
    rows = [[2 * a + c, f"A{a}", x + c, y, h, 4, 1 + c, 10.0]
            for a, (x, y) in enumerate([(2, 2), (7, 2), (2, 7), (7, 7)])
            for c in range(2) for h in range(2)]
    if y_above_n:
        rows[0][6] = 9
    for row in rows if positives is not None else ():
        row[6] = positives
    if bad is not None:
        rows[0][_FRAME_COLS.index(bad[0])] = bad[1]
    keep = [i for i, name in enumerate(_FRAME_COLS) if name != drop]
    frame = _write_rows(os.path.join(directory, "frame_in.csv"),
                        [_FRAME_COLS[i] for i in keep],
                        [[row[i] for i in keep] for row in rows])
    if bad is not None:
        return {"paths": {"data": frame}}, 3, f"{frame}: column {bad[0]}"
    models = {} if spde else {"model": {"fit_spde": "false"}}
    if positives is not None:
        return ({"paths": {"data": frame}, **models}, 3,
                f"data error: {frame}: ")
    if adjacency is None:
        return {"paths": {"data": frame}}, 3, frame
    adj = _write_rows(os.path.join(directory, "adjacency.csv"),
                      ["area_i", "area_j"], adjacency)
    return {"paths": {"data": frame, "adjacency": adj}, **models}, 3, adj


def _polygons_without_ring_index(directory):
    path = _write_rows(os.path.join(directory, "boundary_in.csv"),
                       ["id", "vertex_index", "x", "y"],
                       [("b", 0, 0, 0), ("b", 1, 10, 0), ("b", 2, 10, 10),
                        ("b", 3, 0, 10)])
    return {"paths": {"boundary": path}}, 3, path


_SQUARE = {"type": "Polygon",
           "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10]]]}


def _two_polygon_boundary(directory):
    path = os.path.join(directory, "boundary_in.csv")
    write_polygons_csv(path, grid_areas(0, 0, 10, 10, 2, 1))
    return {"paths": {"boundary": path}}, 3, f"data error: {path}: "


def _geojson_case(directory, obj, key="boundary", message=""):
    """A GeoJSON file holding ``obj`` for the polygon file of config key
    ``key``, refused with ``message``."""
    path = os.path.join(directory, f"{key}_in.geojson")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return {"paths": {key: path}}, 3, f"data error: {path}: {message}"


def _ragged_row(path, extra):
    """Give data row 2 of the CSV file at ``path`` one field more (``extra``
    = 1) or one fewer (-1); returns the error line that must name it."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = len(lines[0].split(","))
    lines[2] = (lines[2] + ",999" if extra > 0
                else lines[2].rsplit(",", 1)[0])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return (f"data error: {path}: data row 2 has {n + extra} fields, "
            f"the header {n}")


def _ragged_case(directory, key, extra):
    """Inputs of a BYM fit, a frame, an adjacency CSV and a boundary, with
    a ragged data row in the file of config key ``key``."""
    overrides, _, _ = _frame_case(directory, adjacency=[
        ("A0", "A1"), ("A0", "A2"), ("A1", "A3"), ("A2", "A3")])
    boundary = os.path.join(directory, "boundary_in.csv")
    write_polygons_csv(boundary, [
        Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)]], id="boundary")])
    overrides["paths"]["boundary"] = boundary
    return overrides, 3, _ragged_row(overrides["paths"][key], extra)


BAD_INPUTS = {
    "exterior_max_edge_text": lambda d: (
        {"model": {"exterior_max_edge": "abc"}}, 2, "model.exterior_max_edge"),
    "grid_spacing_text": lambda d: (
        {"functionals": {"grid_spacing": "abc"}}, 2, "functionals.grid_spacing"),
    "grid_spacing_nan": lambda d: (
        {"functionals": {"grid_spacing": "nan"}}, 2, "functionals.grid_spacing"),
    "grid_spacing_no_cell": lambda d: (
        {"functionals": {"grid_spacing": "20"}}, 2,
        "config error: [functionals.grid_spacing] 20.0 leaves no grid cell"),
    "threads_text": lambda d: ({"run": {"threads": "abc"}}, 2, "run.threads"),
    "threads_two": lambda d: ({"run": {"threads": "2"}}, 2, "run.threads"),
    "frame_y_above_n": lambda d: _frame_case(d, y_above_n=True),
    "frame_without_weight": lambda d: _frame_case(d, drop="weight"),
    "frame_without_y": lambda d: _frame_case(d, drop="Y"),
    "frame_x_nan": lambda d: _frame_case(d, bad=("x", "nan")),
    "frame_weight_nan": lambda d: _frame_case(d, bad=("weight", "nan")),
    "frame_weight_inf": lambda d: _frame_case(d, bad=("weight", "inf")),
    "frame_y_fractional": lambda d: _frame_case(d, bad=("Y", "0.5")),
    "frame_x_outside_boundary": lambda d: _frame_case(d, bad=("x", "50")),
    "frame_unknown_area_id": lambda d: _frame_case(d, bad=("area_id", "zzz")),
    "frame_no_positive": lambda d: _frame_case(d, positives=0),
    "frame_no_positive_spde": lambda d: _frame_case(d, positives=0,
                                                    spde=True),
    "frame_all_positive": lambda d: _frame_case(d, positives=4),
    "polygons_without_ring_index": _polygons_without_ring_index,
    "boundary_two_polygons": _two_polygon_boundary,
    "geojson_top_level_array": lambda d: _geojson_case(
        d, [{"type": "Feature", "geometry": _SQUARE, "properties": {}}]),
    "geojson_top_level_string": lambda d: _geojson_case(d, "Polygon"),
    "geojson_feature_not_object": lambda d: _geojson_case(
        d, {"type": "FeatureCollection", "features": ["Feature"]}),
    "geojson_properties_not_object": lambda d: _geojson_case(
        d, {"type": "Feature", "geometry": _SQUARE, "properties": ["id"]}),
    "geojson_point": lambda d: _geojson_case(
        d, {"type": "Point", "coordinates": [1, 2]}),
    "geojson_ring_of_two": lambda d: _geojson_case(
        d, {"type": "Polygon", "coordinates": [[[0, 0], [10, 0]]]}),
    "areas_no_polygon": lambda d: _geojson_case(
        d, {"type": "FeatureCollection", "features": []}, "areas",
        "the areas file holds no polygon"),
    "areas_repeated_id": lambda d: _geojson_case(
        d, {"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": _SQUARE,
             "properties": {"id": "A0"}}] * 2},
        "areas", "area id A0 names two polygons"),
    "adjacency_unknown_area": lambda d: _frame_case(
        d, adjacency=[("A0", "A1"), ("A0", "A9")]),
    "adjacency_unknown_area_spde": lambda d: _frame_case(
        d, adjacency=[("A0", "A1"), ("A0", "A9")], spde=True),
    "frame_long_row": lambda d: _ragged_case(d, "data", 1),
    "frame_short_row": lambda d: _ragged_case(d, "data", -1),
    "polygons_long_row": lambda d: _ragged_case(d, "boundary", 1),
    "polygons_short_row": lambda d: _ragged_case(d, "boundary", -1),
    "adjacency_long_row": lambda d: _ragged_case(d, "adjacency", 1),
    "adjacency_short_row": lambda d: _ragged_case(d, "adjacency", -1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exit_code_names_the_culprit(tmp_path, capsys, case):
    extra, code, culprit = BAD_INPUTS[case](str(tmp_path))
    ini = _write_config(str(tmp_path), extra=extra)
    capsys.readouterr()
    assert cli.main(["fit", "-c", ini]) == code
    assert culprit in capsys.readouterr().err
    # fit reads and checks every input before it writes anything
    out = tmp_path / "out"
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("case", ["areas_repeated_id", "grid_spacing"])
def test_cli_refused_report_writes_no_map(first_run, tmp_path, capsys, case):
    # the fitted tiny study's outputs without its maps, then a report on a
    # bad areas file or at a grid spacing the fit did not use
    directory, _ = first_run
    shutil.copytree(os.path.join(directory, "out"), tmp_path / "out",
                    ignore=shutil.ignore_patterns("*.svg", "*.pgm"))
    if case == "grid_spacing":
        extra = {"functionals": {"grid_spacing": "0.5"}}
        culprit = (f"data error: {tmp_path / 'out'}/field_median_lattice.csv"
                   f": does not match the configured grid spacing")
    else:
        extra, _, culprit = BAD_INPUTS[case](str(tmp_path))
    ini = _write_config(str(tmp_path), extra=extra)
    capsys.readouterr()
    assert cli.main(["report", "-c", ini]) == 3
    assert culprit in capsys.readouterr().err
    assert not [name for name in os.listdir(tmp_path / "out")
                if name.endswith((".svg", ".pgm"))]


# simulation inputs: (config key, header, rows) of a bad file
BAD_SIMULATE_INPUTS = {
    "household_sizes_sum_below_1": ("household_sizes", ["size", "probability"],
                                    [(1, 0.5), (2, 0.25)]),
    "household_sizes_negative": ("household_sizes", ["size", "probability"],
                                 [(1, 1.5), (2, -0.5)]),
    "household_sizes_size_negative": ("household_sizes",
                                      ["size", "probability"],
                                      [(-1, 0.5), (2, 0.5)]),
    "cluster_locations_no_rows": ("cluster_locations", ["x", "y"], []),
    "cluster_locations_nan": ("cluster_locations", ["x", "y"],
                              [(1.5, 2.5), ("nan", 3.0)]),
    "cluster_locations_outside": ("cluster_locations", ["x", "y"],
                                  [(1.5, 2.5), (50, 50), (7.5, 7.5)]),
    "cluster_locations_long_row": ("cluster_locations", ["x", "y"],
                                   [(1.5, 2.5), (3.5, 4.5, 9), (7.5, 7.5)]),
    "cluster_locations_short_row": ("cluster_locations", ["x", "y"],
                                    [(1.5, 2.5), (3.5,), (7.5, 7.5)]),
    "household_sizes_long_row": ("household_sizes", ["size", "probability"],
                                 [(1, 0.5), (2, 0.5, 9)]),
    "household_sizes_short_row": ("household_sizes", ["size", "probability"],
                                  [(1, 0.5), (2,)]),
}


@pytest.mark.parametrize("case", sorted(BAD_SIMULATE_INPUTS))
def test_cli_bad_simulation_input_exits_3_naming_the_file(tmp_path, capsys,
                                                          case):
    key, header, rows = BAD_SIMULATE_INPUTS[case]
    path = _write_rows(str(tmp_path / f"{key}.csv"), header, rows)
    ini = _write_config(str(tmp_path), extra={"paths": {key: path}})
    capsys.readouterr()
    assert cli.main(["simulate", "-c", ini]) == 3
    err = capsys.readouterr().err
    assert f"data error: {path}: " in err
    ragged = [k for k, row in enumerate(rows, 1) if len(row) != len(header)]
    if ragged:
        k = ragged[0]
        assert (f"{path}: data row {k} has {len(rows[k - 1])} fields, the "
                f"header {len(header)}") in err
    assert not os.path.exists(_out(ini, "frame.csv"))


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_cli_outside_location_is_named_in_plain_floats(tmp_path, capsys,
                                                       command):
    # simulate refuses the location file (the truth field would be clamped
    # to its lattice edge), fit the frame; both name the first outside
    # point as plain numbers
    if command == "simulate":
        path = _write_rows(str(tmp_path / "locs.csv"), ["x", "y"],
                           [(1.5, 2.5), (50, 50), (7.5, 7.5)])
        extra = {"paths": {"cluster_locations": path}}
    else:
        extra, _, _ = _frame_case(str(tmp_path), bad=("x", "50"))
        path = extra["paths"]["data"]
    ini = _write_config(str(tmp_path), extra=extra)
    capsys.readouterr()
    assert cli.main([command, "-c", ini]) == 3
    err = capsys.readouterr().err
    assert f"data error: {path}: column x, y: 1 locations outside the " \
        "boundary, e.g. (50.0, " in err
    assert "np.float64" not in err
