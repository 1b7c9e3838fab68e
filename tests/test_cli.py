"""End-to-end smoke test of the five CLI commands on a tiny configuration."""

import os

import pytest

from prevmap import cli
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
    """Bytes of every CSV and PGM output, by file name."""
    out = os.path.join(directory, "out")
    files = {}
    for name in sorted(os.listdir(out)):
        if name.endswith((".csv", ".pgm")):
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


def test_cli_unknown_config_key_exits_2(tmp_path):
    ini = _write_config(str(tmp_path), extra={"model": {"no_such_key": "1"}})
    assert cli.main(["fit", "-c", ini]) == 2


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

        monkeypatch.setattr(cli, "fit_latent_model", fail)
        capsys.readouterr()
        assert cli.main(["fit", "-c", ini]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(error) in err
