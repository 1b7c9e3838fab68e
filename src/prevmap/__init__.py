"""prevmap: geostatistical prevalence mapping.

Matern fields via the sparse SPDE/finite-element construction, latent
Gaussian models fitted by nested Gaussian/Laplace approximation, survey-
weighted direct estimates with BYM smoothing, area-average prevalences and
simultaneous excursion regions.
"""

from .errors import (ConfigError, ConvergenceError, DataError,
                     InvalidGeometryError, NoDataError,
                     NotPositiveDefiniteError, PrevmapError, RefinementError)
from .geometry import (Polygon, Projector, TriMesh, fem_matrices,
                       point_in_area, project)
from .meshing import build_mesh
from .spde import (MaternParams, SpdeTheta, assemble_precision, matern_cov,
                   practical_range, sigma_from_tau, tau_from_sigma)
from .inference import (BinomialObs, FitResult, GaussianObs, JointSamples,
                        LatentComponent, LatentModel, fit_latent_model,
                        gaussian_approx, hyper_grid, make_spde_model,
                        marginals, sample_joint)
from .survey import (DirectEstimate, SurveyFrame, design_variance,
                     design_weights, direct_estimates, empirical_logit, hajek)
from .areal import (AdjacencyGraph, BymModel, adjacency_from_polygons,
                    fit_bym, icar_precision)
from .functionals import (area_averages, make_grid, pointwise_exceedance,
                          sample_points_in_polygon, simultaneous_excursions)
from .simulate import SimConfig, lattice_field, simulate_survey

__version__ = "0.1.0"
