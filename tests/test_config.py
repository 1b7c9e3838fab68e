"""Pipeline configuration: the echoed config re-parses to the same values,
every input file it names is checked, and the pipeline reads every key."""

import dataclasses
import glob
import os
import re

import pytest

import prevmap
from prevmap.config import _SETTINGS, PipelineConfig, load_config
from prevmap.errors import ConfigError

# keys the pipeline does not read, each with the reason it stays
UNREAD = {"threads": "configs written with threads = 1 must still parse"}


def test_echoed_config_reparses_to_same_values(tmp_path):
    # derived values (exterior edge, grid spacing) left blank, some defaults
    # overridden, others left out
    ini = tmp_path / "config.ini"
    ini.write_text(
        "[paths]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[run]\nseed = 7\nthreads = 1\n"
        "[model]\ninterior_max_edge = 0.45\nnugget = false\n"
        "[sim]\nbeta0 = -2.5\nm_max = 9\n"
        "[functionals]\nu = 0.1\n")
    cfg = load_config(str(ini))
    echo = tmp_path / "config_resolved.ini"
    cfg.echo(str(echo))
    again = load_config(str(echo))
    assert dataclasses.asdict(again) == dataclasses.asdict(cfg)
    assert cfg.exterior_max_edge == 5.0 * 0.45
    assert cfg.grid_spacing == 0.45 / 2.0


@pytest.mark.parametrize("key", [s.key for s in _SETTINGS
                                 if s.section == "paths"
                                 and s.key != "output_dir"])
def test_every_named_input_file_must_exist(tmp_path, key):
    # whichever command runs: none requires the key here
    ini = tmp_path / "config.ini"
    path = str(tmp_path / "in.csv")
    ini.write_text(f"[paths]\n{key} = {path}\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(ini))
    assert str(err.value) == f"[paths.{key}] file not found: {path}"
    open(path, "w").close()
    assert getattr(load_config(str(ini)), key) == path


def test_pipeline_reads_every_setting():
    # a key that nothing reads only looks like an option: every field but
    # the raw sections is read as cfg.<field> by the package's modules
    read = set()
    for path in glob.glob(os.path.join(os.path.dirname(prevmap.__file__),
                                       "*.py")):
        with open(path) as fh:
            read |= set(re.findall(r"\bcfg\.(\w+)", fh.read()))
    fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"raw"}
    assert fields - read == set(UNREAD)
