"""Pipeline configuration: the echoed config re-parses to the same values,
every input file it names is checked, and the pipeline reads every key."""

import contextlib
import dataclasses
import glob
import io
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import prevmap
from prevmap import cli
from prevmap.config import _SETTINGS, PipelineConfig, load_config
from prevmap.errors import ConfigError

from test_cli import _write_config

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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "config.ini"
    ini.write_bytes(b"[paths]\noutput_dir = caf\xe9\n")
    assert cli.main(["report", "-c", str(ini)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: [config] parse error: ")


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


# what one config line can hold: any text but a line break
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=12)
_NUMBERS = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "1", "0.5", "1e-300", "1e400", "nan",
                     "-inf", " 2 ", "1_000", "0x10", "3.0"]))
_BOOLEANS = st.sampled_from(["true", "false", "1", "0", "yes", "no", "on",
                             "off", "TRUE", " Off ", "2", "y"])
_VALUES = {int: st.one_of(_NUMBERS, _TEXT),
           float: st.one_of(_NUMBERS, _TEXT),
           bool: st.one_of(_BOOLEANS, _TEXT),
           str: st.one_of(st.sampled_from([".", "..", "/", "%(x)s"]), _TEXT)}


def _setting_and_value():
    # output_dir is drawn blank only: any other text names a directory to
    # write, which is the file system's business, not the config's
    return st.sampled_from(_SETTINGS).flatmap(lambda s: st.tuples(
        st.just(s), st.sampled_from(["", " "]) if s.key == "output_dir"
        else _VALUES[s.type]))


@pytest.fixture(scope="module")
def bym_outputs(tmp_path_factory):
    """The tiny study's config, and an output directory holding a BYM
    summary alone: ``report`` draws its one map and reads no other value
    of the config than the paths."""
    directory = str(tmp_path_factory.mktemp("config_values"))
    _write_config(directory)
    os.makedirs(os.path.join(directory, "out"))
    os.makedirs(os.path.join(directory, "empty"))
    with open(os.path.join(directory, "out", "bym_summary.csv"), "w") as fh:
        fh.write("area_id,p_mean\n" + "".join(f"A{k},0.{k + 1}\n"
                                              for k in range(4)))
    return directory


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_setting_and_value())
def test_every_config_value_runs_or_exits_2_naming_its_key(
        bym_outputs, monkeypatch, drawn):
    # one key of the tiny study's config set to the drawn text: report
    # exits 0, or 2 naming the key; run from an empty directory, so that a
    # relative path names no file
    setting, value = drawn
    name = f"{setting.section}.{setting.key}"
    monkeypatch.chdir(os.path.join(bym_outputs, "empty"))
    ini = _write_config(bym_outputs, extra={setting.section: {
        setting.key: value}})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["report", "-c", ini])
    if rc == 3:
        # without areas report has no map to draw
        assert name == "paths.areas" and not value.strip(), err.getvalue()
        return
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        assert name in err.getvalue()
