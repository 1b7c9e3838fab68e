"""Pipeline configuration: the echoed config re-parses to the same values."""

import dataclasses

from prevmap.config import load_config


def test_echoed_config_reparses_to_same_values(tmp_path):
    # derived values (exterior edge, grid spacing) left blank, some defaults
    # overridden, others left out
    ini = tmp_path / "config.ini"
    ini.write_text(
        "[paths]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[run]\nseed = 7\nthreads = 2\n"
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


def test_echo_records_threads_from_the_environment(tmp_path, monkeypatch):
    # run.threads left blank resolves from PREVMAP_THREADS; the echo holds
    # the resolved count, so it re-parses the same without the variable
    ini = tmp_path / "config.ini"
    ini.write_text(f"[paths]\noutput_dir = {tmp_path / 'out'}\n")
    monkeypatch.setenv("PREVMAP_THREADS", "3")
    cfg = load_config(str(ini))
    assert cfg.threads == 3
    echo = tmp_path / "config_resolved.ini"
    cfg.echo(str(echo))
    monkeypatch.delenv("PREVMAP_THREADS")
    assert load_config(str(ini)).threads == 1
    assert dataclasses.asdict(load_config(str(echo))) == dataclasses.asdict(cfg)
