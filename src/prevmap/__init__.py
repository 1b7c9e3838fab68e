"""prevmap: geostatistical prevalence mapping.

Matern fields via the sparse SPDE/finite-element construction, latent
Gaussian models fitted by nested Gaussian/Laplace approximation, survey-
weighted direct estimates with BYM smoothing, area-average prevalences and
simultaneous excursion regions.

The names below resolve on first use (PEP 562): ``import prevmap`` loads
no layer, and ``prevmap.fit_latent_model`` imports ``prevmap.inference``
only when it is first read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DataError",
               "InvalidGeometryError", "NoDataError",
               "NotPositiveDefiniteError", "PrevmapError", "RefinementError"),
    "geometry": ("Polygon", "Projector", "TriMesh", "fem_matrices",
                 "project"),
    "meshing": ("build_mesh",),
    "matern": ("MaternParams", "matern_cov", "practical_range",
               "sigma_from_tau", "tau_from_sigma"),
    "spde": ("assemble_precision",),
    "inference": ("BinomialObs", "FitResult", "GaussianObs",
                  "LatentComponent", "LatentModel", "fit_latent_model",
                  "gaussian_approx", "hyper_grid", "make_spde_model",
                  "marginals", "sample_joint"),
    "survey": ("DirectEstimate", "SurveyFrame", "design_variance",
               "design_weights", "direct_estimates", "empirical_logit",
               "hajek"),
    "areal": ("AdjacencyGraph", "BymModel", "adjacency_from_polygons",
              "fit_bym", "icar_precision"),
    "functionals": ("JointSamples", "area_averages", "make_grid",
                    "sample_points_in_polygon", "simultaneous_excursions"),
    "simulate": ("lattice_field", "simulate_survey"),
}

_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
