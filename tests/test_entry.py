"""The process entry: ``python -m prevmap.cli`` and the ``prevmap`` script
run ``cli.run``, which exits with the command's code; ``cli.main``, which
callers also run in-process, leaves the garbage collector as it found it."""

import ast
import gc
import os
import re
import subprocess
import sys
import tomllib

from prevmap import cli

from test_cli import COMMANDS, _write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args):
    """``python -m prevmap.cli`` with ``args`` in a fresh interpreter, its
    stdout a pipe, as a script's is."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "prevmap.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_process_exit_codes_and_report_line(tmp_path):
    ini = _write_config(str(tmp_path))
    done = _cli("simulate", "-c", ini)
    assert done.returncode == 0, done.stderr
    out = os.path.join(str(tmp_path), "out")
    assert re.fullmatch(rf"simulate: \d+ households in \d+ clusters -> "
                        rf"{re.escape(out)}\n", done.stdout), done.stdout

    missing = _cli("simulate", "-c", str(tmp_path / "no_such.ini"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("config error: [config] file not found")

    os.remove(os.path.join(out, "frame.csv"))
    no_frame = _cli("fit", "-c", ini)
    assert no_frame.returncode == 3
    assert no_frame.stderr.startswith("data error: survey frame not found")
    assert no_frame.stdout == ""


def test_script_and_module_run_the_same_entry():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"prevmap": "prevmap.cli:run"}
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    guard, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in guard.body] == ["run()"]


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    ini = _write_config(str(tmp_path))
    for command in COMMANDS:
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main([command, "-c", ini]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before, command
