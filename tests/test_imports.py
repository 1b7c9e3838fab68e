"""Import budgets: each CLI command loads only the layers it runs.

Every command runs as its own process, so what it imports is part of its
run time.  Each case here starts a fresh interpreter and checks the modules
it loaded against a deny-list.
"""

import json
import os
import subprocess
import sys

import pytest

from test_cli import _write_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# modules the cheap post-fit commands must not load: the fit layers, scipy
# at all, as the projector weighs field samples with numpy gathers, and
# numpy.ma, which np.median and np.quantile load
POST_FIT_DENIED = ("scipy", "prevmap.inference", "prevmap.sparsela",
                   "prevmap.spde", "prevmap.meshing", "prevmap.areal",
                   "prevmap.simulate", "prevmap.survey", "numpy.ma")
# the survey simulator runs on numpy alone: the circulant embedding finds
# its FFT lengths itself and prevmap.matern evaluates the Bessel function;
# its report line counts clusters without np.unique, which loads numpy.ma
SIMULATE_DENIED = ("scipy", "prevmap.spde", "prevmap.sparsela",
                   "prevmap.inference", "prevmap.meshing", "numpy.ma")
# the theta mode search is inference.minimize, not scipy's
FIT_DENIED = ("scipy.optimize",)


def _run(code):
    """JSON value printed on the last stdout line of ``code`` run in a fresh
    interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _command_modules(command, ini):
    """Exit code of ``prevmap <command>`` and every module it loaded."""
    code = ("import json, sys\n"
            "from prevmap import cli\n"
            f"rc = cli.main([{command!r}, '-c', {ini!r}])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))")
    rc, modules = _run(code)
    return rc, set(modules)


def _loaded(modules, denied):
    """Members of ``modules`` that are, or sit under, a denied name."""
    return sorted(m for m in modules
                  if any(m == d or m.startswith(d + ".") for d in denied))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Config of a tiny study whose simulate and fit have run."""
    from prevmap import cli

    ini = _write_config(str(tmp_path_factory.mktemp("imports")))
    assert cli.main(["simulate", "-c", ini]) == 0
    assert cli.main(["fit", "-c", ini]) == 0
    return ini


def test_import_prevmap_loads_no_scipy():
    modules = set(_run("import json, sys\nimport prevmap\n"
                       "print(json.dumps(sorted(sys.modules)))"))
    assert _loaded(modules, ("scipy",)) == []
    assert _loaded(modules, ("prevmap.",)) == []


def test_import_matern_loads_no_scipy():
    modules = set(_run("import json, sys\nimport prevmap.matern\n"
                       "print(json.dumps(sorted(sys.modules)))"))
    assert _loaded(modules, ("scipy",)) == []


@pytest.mark.parametrize("command", ["areas", "excursions"])
def test_post_fit_command_loads_no_fit_layer(fitted, command):
    rc, modules = _command_modules(command, fitted)
    assert rc == 0
    assert _loaded(modules, POST_FIT_DENIED) == []


def test_excursions_loads_no_numpy_ma(fitted):
    # the projector's bin size is a median by one partition, not np.median
    rc, modules = _command_modules("excursions", fitted)
    assert rc == 0
    assert _loaded(modules, ("numpy.ma",)) == []


def test_report_loads_no_scipy(fitted):
    for command in ("areas", "excursions"):
        assert _command_modules(command, fitted)[0] == 0
    rc, modules = _command_modules("report", fitted)
    assert rc == 0
    assert _loaded(modules, ("scipy",)) == []


def test_simulate_loads_no_fit_layer(tmp_path):
    rc, modules = _command_modules("simulate", _write_config(str(tmp_path)))
    assert rc == 0
    assert _loaded(modules, SIMULATE_DENIED) == []


def test_fit_loads_no_scipy_optimize(fitted):
    rc, modules = _command_modules("fit", fitted)
    assert rc == 0
    assert "prevmap.inference" in modules
    assert _loaded(modules, FIT_DENIED) == []


def test_exports_resolve_to_their_owner():
    code = """\
import json, sys
import prevmap
wrong = [name for name in prevmap.__all__
         if getattr(prevmap, name)
         is not getattr(sys.modules[getattr(prevmap, name).__module__], name)]
try:
    prevmap.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps([wrong, unknown, sorted(set(prevmap.__all__)
                                          - set(dir(prevmap)))]))
"""
    wrong, unknown, undiscoverable = _run(code)
    assert wrong == []
    assert unknown == "AttributeError"
    assert undiscoverable == []


def test_joint_samples_is_one_class():
    from prevmap import JointSamples, functionals, inference

    assert inference.JointSamples is functionals.JointSamples is JointSamples
