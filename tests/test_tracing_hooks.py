"""The benchmark's traced runs wrap layer boundaries of the program by
name; each of those names must still resolve, and the hooks that read
counts from a call must still find them."""

import importlib.util
import os

import numpy as np
import scipy.sparse as sp

from prevmap.sparsela import BandLayout, SparseCholesky

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


class _StubTracer:
    """Records the span names it is asked for with their ``after`` hooks,
    and wraps nothing."""

    def __init__(self):
        self.hooks = {}

    def wrap(self, func, name, after=None):
        self.hooks[name] = after
        return func


def _installed():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = _StubTracer()
    tracing.install(tracer)  # an AttributeError names a hook that is gone
    return tracer


def test_perfbench_tracing_hooks_resolve():
    assert {"sparsela.factor", "inference.gaussian_approx",
            "inference.mode_search", "spde.assemble_precision",
            "areal.adjacency", "areal.fit_bym"} <= set(_installed().hooks)


def test_perfbench_factor_hook_reads_nnz_of_l():
    # the hook behind sparsela.factor.nnz_L_max, on a matrix factored in
    # the order it is laid out in
    q = sp.diags([np.full(29, -1.0), np.full(30, 4.0), np.full(29, -1.0)],
                 [-1, 0, 1], format="csc")
    layout = BandLayout(q.indptr, q.indices)
    chol = SparseCholesky(q, layout=layout)
    span = {"attrs": {}}
    _installed().hooks["sparsela.factor"](span, (chol, q), {"layout": layout},
                                          None)
    assert span["attrs"]["nnz_L"] == chol._lu.L.nnz
