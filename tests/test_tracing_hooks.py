"""The benchmark's traced runs wrap layer boundaries of the program by
name; each of those names must still resolve."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


class _StubTracer:
    """Records the span names it is asked for and wraps nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, func, name, after=None):
        self.names.append(name)
        return func


def test_perfbench_tracing_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = _StubTracer()
    tracing.install(tracer)  # an AttributeError names a hook that is gone
    assert {"sparsela.factor", "inference.gaussian_approx",
            "inference.mode_search", "spde.assemble_precision",
            "areal.adjacency", "areal.fit_bym"} <= set(tracer.names)
