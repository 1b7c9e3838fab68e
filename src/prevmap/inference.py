"""Latent Gaussian model engine.

Fits models of the form

    y_i ~ Binomial(N_i, expit(eta_i))   or   y_i ~ N(eta_i, V_i)
    eta = B u,   u ~ N(0, Q_prior(theta)^{-1})

by a Gaussian approximation at the conditional mode (chord Newton with
step-halving), a small grid over the hyperparameters theta weighted by the
Laplace evidence, and joint sampling from the resulting mixture of sparse
Gaussians.  The grid is INLA's (Rue, Martino & Chopin 2009): a BFGS search
for the theta mode on finite-difference gradients, a finite-difference
Hessian there, a skewness correction per axis of the coordinates it
standardizes, and a central composite design in those coordinates whose
integration weights keep a Gaussian posterior's covariance
(:func:`hyper_grid`).  Linear equality constraints (sum-to-zero terms) are
enforced by conditioning by kriging; they must remove the null space of an
intrinsic prior block, whose precision then gives its generalized
log-determinant.

Q_post = Q_prior + B^T diag(h) B is never assembled whole.  A latent block
whose prior block is a full diagonal and whose design has at most one
nonzero per row and per column, on observation rows no other such block
uses, is integrated out exactly: its own block of Q_post is then diagonal,
q = p + b^2 h, so the Schur complement S over the remaining coordinates is
again Q_prior + B^T diag(h~) B over those coordinates, with a rescaled
curvature h~ = h p / q on the rows those coordinates observe, and
log|Q_post| = log|S| + sum log q.  Solves and draws eliminate through q
with no approximation; a joint draw computes eliminated coordinates only
when :func:`sample_joint` is asked for them.  The SPDE model's household
nugget and the BYM model's iid area effects are such blocks; the field,
the ICAR block and the fixed effects are not.  With no such block S is
Q_post itself.

The sparsity of Q_prior and of S does not change with theta or with the
Newton iterate, so each :class:`LatentModel` caches what depends only on
it (a ``_Pattern``): which blocks are integrated out, and one symbolic
pattern of S in ascending latent order, with its band layout, which holds
its bandwidth-reducing order, and the maps that fill it (the positions of
each kept prior block, and a sparse map from h~ to the data of
B^T diag(h~) B).  A refactorization then assembles S as one data vector
and factors it numerically on that layout.

Newton does not refactor at every step.  It keeps the factor it holds
while that factor still contracts the gradient, the chord (Shamanskii)
variant of Newton's method (Kelley 2003, *Solving Nonlinear Equations
with Newton's Method*, ch. 5): it refactors where a step leaves the
gradient's max-norm above ``_CHORD_RATE`` times the one before it, and
once at the exit, so the mode, the factor and the log-evidence it
returns are taken at the last iterate with that iterate's own factor.
Within one :func:`hyper_grid`, each Laplace evaluation hands its final
factor to the next as the factor Newton starts on; the theta points
of one search lie close together (1e-3 apart for the forward-difference
gradient, 0.05 for the Hessian), so that factor is a near-exact
preconditioner there.  log|Q_prior| is a sum over the prior's diagonal
blocks: the block's own ``logdet`` where its precision has one (the SPDE
field's, the ICAR block's generalized one), the closed form for other
diagonal blocks, and a factorization otherwise.
"""

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, gammaln, ndtr

from ._csv import _write_csv
from .errors import ConvergenceError, NotPositiveDefiniteError
from .functionals import JointSamples
from .geometry import _ranges
from .sparsela import BandLayout, SparseCholesky, coo_indices, union_pattern

__all__ = [
    "GaussianObs",
    "BinomialObs",
    "LatentComponent",
    "LatentModel",
    "GaussianApprox",
    "HyperPoint",
    "FitResult",
    "JointSamples",
    "gaussian_approx",
    "hyper_grid",
    "fit_latent_model",
    "marginals",
    "sample_joint",
    "sample_with_marginals",
    "make_spde_model",
    "write_fit_summary_csv",
    "write_theta_grid_csv",
]

_DENSE_CUTOFF = 2500  # rows per chunk of dense variance solves
_MAX_ITER = 100       # Newton iterations before ConvergenceError
_NEWTON_TOL = 1e-9    # Newton's gradient and relative step tolerance
_CHORD_RATE = 0.1     # gradient contraction below which a factor is kept
_QUANTILE_TOL = 1e-8  # bracket width at which quantile bisection stops
_MAX_HALVINGS = 30    # step cuts of one line search (Newton, BFGS)
_FIXED_PREC = 1e-3    # prior precision of each fixed effect
_THETA_PRIOR_SD = 1.5  # prior sd of each hyperparameter about theta_init
_FD_STEP = 1e-3       # forward-difference step of the mode search's gradient
_MODE_GTOL = 2e-2     # largest gradient entry at which the mode search stops
_HESS_STEP = 0.05     # finite-difference step of the Hessian at the mode
_CCD_F0 = 1.1         # radius factor f0 of the central composite design


# ---------------------------------------------------------------------------
# observation stages
# ---------------------------------------------------------------------------

@dataclass
class GaussianObs:
    """Gaussian stage with fixed, known variances."""

    y: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.variance = np.broadcast_to(
            np.asarray(self.variance, dtype=float), self.y.shape).copy()
        if np.any(self.variance <= 0):
            raise ValueError("observation variances must be positive")

    def loglik(self, eta):
        r = self.y - eta
        return float(np.sum(-0.5 * (r * r / self.variance
                                    + np.log(2 * np.pi * self.variance))))

    def grad(self, eta):
        return (self.y - eta) / self.variance

    def neg_hess(self, eta):
        return 1.0 / self.variance

    @property
    def n(self):
        return len(self.y)


@dataclass
class BinomialObs:
    """Binomial counts with a logit link."""

    y: np.ndarray
    n_trials: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.n_trials = np.broadcast_to(
            np.asarray(self.n_trials, dtype=float), self.y.shape).copy()
        if np.any(self.y < 0) or np.any(self.y > self.n_trials):
            raise ValueError("need 0 <= y <= n_trials")
        # log binomial coefficients, the same for every eta
        self._log_choose = gammaln(self.n_trials + 1) - gammaln(self.y + 1) \
            - gammaln(self.n_trials - self.y + 1)

    def loglik(self, eta):
        return float(np.sum(self._log_choose + self.y * eta
                            - self.n_trials * np.logaddexp(0.0, eta)))

    def grad(self, eta):
        return self.y - self.n_trials * expit(eta)

    def neg_hess(self, eta):
        p = expit(eta)
        h = self.n_trials * p * (1.0 - p)
        if np.any(h < 1e-12):
            warnings.warn("binomial curvature clamped at 1e-12", stacklevel=2)
            h = np.maximum(h, 1e-12)
        return h

    @property
    def n(self):
        return len(self.y)


# ---------------------------------------------------------------------------
# model description
# ---------------------------------------------------------------------------

@dataclass
class LatentComponent:
    """One additive term of the linear predictor.

    ``design`` maps the component's coefficients to observations and
    ``precision`` builds the prior precision from the component's block of
    theta (a plain sparse matrix is accepted for theta-free components).
    The precision must be symmetric; a callable ``precision`` that also has
    a ``logdet(theta_block)`` method gives its log-determinant without a
    factorization.  ``constraint`` rows, if given, are enforced as exact
    zero sums; they need a precision whose ``logdet`` is the generalized
    one on their complement, as :class:`prevmap.areal.IcarPrecision` has
    for the rows of its ``constraint``.
    """

    name: str
    design: sp.spmatrix
    precision: object
    n_theta: int = 0
    theta_names: tuple = ()
    constraint: np.ndarray = None

    @property
    def size(self):
        return self.design.shape[1]

    def prior_precision(self, theta_block):
        if callable(self.precision):
            q = sp.csc_matrix(self.precision(theta_block))
        else:
            q = sp.csc_matrix(self.precision)
        if not q.has_canonical_format:
            q = q.copy()
            q.sum_duplicates()
        return q


class LatentModel:
    """Observation stage plus linear predictor layout and priors.

    The latent vector is the concatenation of the component coefficient
    blocks followed by the fixed effects (intercept and covariates), which
    carry an exchangeable Gaussian prior with precision ``_FIXED_PREC``.
    Hyperparameters get independent Gaussian priors centered at
    ``theta_init`` with standard deviation ``_THETA_PRIOR_SD``.
    """

    def __init__(self, obs, components, fixed_design=None, fixed_names=None,
                 theta_init=None):
        self.obs = obs
        self.components = list(components)
        n = obs.n
        for comp in self.components:
            if comp.design.shape[0] != n:
                raise ValueError(f"component {comp.name}: design rows != n_obs")
        if fixed_design is not None:
            fixed_design = np.atleast_2d(np.asarray(fixed_design, dtype=float))
            if fixed_design.shape[0] != n:
                raise ValueError("fixed_design rows != n_obs")
        self.fixed_design = fixed_design
        p = 0 if fixed_design is None else fixed_design.shape[1]
        if fixed_names is None:
            fixed_names = ["beta0"] + [f"beta{j}" for j in range(1, p)]
        self.fixed_names = list(fixed_names)[:p]

        sizes = [c.size for c in self.components] + [p]
        offsets = np.cumsum([0] + sizes)
        self.slices = {}
        for i, comp in enumerate(self.components):
            self.slices[comp.name] = slice(offsets[i], offsets[i + 1])
        self.slices["fixed"] = slice(offsets[-2], offsets[-1])
        self.latent_dim = int(offsets[-1])

        self.n_theta = sum(c.n_theta for c in self.components)
        if theta_init is None:
            theta_init = np.zeros(self.n_theta)
        self.theta_init = np.asarray(theta_init, dtype=float)
        if len(self.theta_init) != self.n_theta:
            raise ValueError("theta_init length mismatch")

        blocks = [sp.csr_matrix(c.design) for c in self.components]
        if p:
            blocks.append(sp.csr_matrix(fixed_design))
        self.design = sp.hstack(blocks).tocsr() if blocks else None

        rows = []
        for i, comp in enumerate(self.components):
            if comp.constraint is None:
                continue
            if not hasattr(comp.precision, "logdet"):
                raise ValueError(f"{comp.name}: constraints need a logdet")
            a = np.atleast_2d(np.asarray(comp.constraint, dtype=float))
            full = np.zeros((a.shape[0], self.latent_dim))
            full[:, self.slices[comp.name]] = a
            rows.append(full)
        self.constraint = np.vstack(rows) if rows else None

        self.theta_names = []
        for comp in self.components:
            names = comp.theta_names or tuple(
                f"{comp.name}.theta{j}" for j in range(comp.n_theta))
            self.theta_names.extend(names)
        # how Q_post is factored (a _Pattern, with its band layout): it
        # depends only on the sparsity of the prior blocks, which does not
        # change with eta and rarely with theta
        self._pattern = None

    def coord_names(self):
        names = []
        for comp in self.components:
            names.extend(f"{comp.name}[{i}]" for i in range(comp.size))
        names.extend(self.fixed_names)
        return names

    def theta_blocks(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = {}
        k = 0
        for comp in self.components:
            out[comp.name] = theta[k:k + comp.n_theta]
            k += comp.n_theta
        return out

    def prior_blocks(self, theta):
        """The diagonal blocks of Q_prior: one per component, then the
        fixed effects' (if any), each a CSC matrix in canonical format."""
        blocks = self.theta_blocks(theta)
        mats = [c.prior_precision(blocks[c.name]) for c in self.components]
        p = 0 if self.fixed_design is None else self.fixed_design.shape[1]
        if p:
            mats.append(sp.identity(p, format="csc") * _FIXED_PREC)
        return mats

    def prior_precision(self, theta):
        return sp.block_diag(self.prior_blocks(theta), format="csc")

    def log_theta_prior(self, theta):
        z = (np.asarray(theta) - self.theta_init) / _THETA_PRIOR_SD
        return float(np.sum(-0.5 * z * z - np.log(_THETA_PRIOR_SD)
                            - 0.5 * np.log(2 * np.pi)))


# ---------------------------------------------------------------------------
# Gaussian approximation at the conditional mode
# ---------------------------------------------------------------------------

@dataclass
class GaussianApprox:
    """Gaussian matched to value and curvature of the conditional posterior."""

    mean: np.ndarray            # constraint-corrected mean
    factor: object              # _PosteriorFactor of Q_post and A
    log_evidence: float
    n_iter: int


class _Pattern:
    """How Q_post = Q_prior + B^T diag(h) B is factored, for one sparsity of
    the prior blocks: which latent coordinates are integrated out, and the
    sparsity pattern of the Schur complement S over the rest with the maps
    that lay data on it.

    A block is eliminated (its coordinates join E) when its prior block is
    a full diagonal and its design has at most one nonzero per row and per
    column, on observation rows that no earlier eliminated block uses.
    Q_post's block over E is then the diagonal q = p + b^2 h (prior
    diagonal p, design value b of the coordinate's observation, none for
    an unobserved coordinate), and S = Q_prior,R + B_R^T diag(h~) B_R over
    the remaining coordinates R, with h~ = h p / q on the rows of
    eliminated coordinates and h elsewhere.  R may be empty.

    The pattern of S holds every entry of each kept prior block and of its
    transpose, and every (a, b) with B_ka B_kb != 0 in B_R.  ``curvature``
    is the sparse map C with data(B_R^T diag(h~) B_R) = C @ h~: its row for
    entry (a, b) holds B_ka B_kb in column k.  The rows of (a, b) and
    (b, a) are equal, so C @ h~ is exactly symmetric.  Kept block i sits at
    ``pos[i]`` in the data and its transpose at ``pos_t[i]``;
    ``diagonal[i]`` says whether prior block i is a full diagonal.  With E
    empty, S is Q_post.

    ``keep`` lists R in ascending latent order, the order of S, ``design``
    and ``design_e``.  ``layout``, the band layout of S's pattern, holds
    its band order (reverse Cuthill-McKee, with dense columns such as the
    fixed effects last), and every S of the pattern factors on it.
    """

    def __init__(self, model, blocks):
        b = sp.csr_matrix(model.design)
        if not b.has_canonical_format:
            b = b.copy()
            b.sum_duplicates()
        self.diagonal = [q.nnz == q.shape[0]
                         and np.array_equal(q.indices, np.arange(q.nnz))
                         and np.array_equal(q.indptr, np.arange(q.nnz + 1))
                         for q in blocks]
        starts = np.cumsum([0] + [q.shape[0] for q in blocks])
        columns = b.tocsc()
        used = np.zeros(b.shape[0], dtype=bool)
        elim = []
        for i, diagonal in enumerate(self.diagonal):
            part = columns[:, starts[i]:starts[i + 1]]
            part.eliminate_zeros()
            rows = part.indices
            if (diagonal and np.all(np.diff(part.indptr) <= 1)
                    and len(np.unique(rows)) == len(rows)
                    and not used[rows].any()):
                used[rows] = True
                elim.append(i)
        self.kept_blocks = [i for i in range(len(blocks)) if i not in elim]
        self.elim_blocks = elim
        self.elim = np.concatenate(
            [np.arange(starts[i], starts[i + 1]) for i in elim]
            + [np.zeros(0, dtype=int)]).astype(np.intp)
        # the observed eliminated coordinates: observation row, position
        # in E and design value
        b_e = columns[:, self.elim].tocoo()
        nonzero = b_e.data != 0
        self.e_rows = b_e.row[nonzero]
        self.e_cols = b_e.col[nonzero]
        self.e_vals = b_e.data[nonzero]
        # the pattern of S and the maps onto it, R in ascending latent order
        self.keep = np.setdiff1d(np.arange(model.latent_dim), self.elim)
        self.design = b = b[:, self.keep]
        self.design_e = b[self.e_rows]  # B_R's rows that E observes
        self.design_e_t = self.design_e.T
        kept = [blocks[i] for i in self.kept_blocks]
        # pairs (e, f) of stored entries of B in the same row k
        per_row = np.diff(b.indptr)
        obs = np.repeat(np.arange(b.shape[0]), per_row)
        reps = per_row[obs]
        first = np.repeat(np.arange(b.nnz), reps)
        second = _ranges(b.indptr[obs], reps)
        vals = b.data[first] * b.data[second]
        nonzero = vals != 0
        first, second, vals = first[nonzero], second[nonzero], vals[nonzero]

        d = b.shape[1]
        starts = np.cumsum([0] + [q.shape[0] for q in kept])
        entries = [(r + s0, c + s0) for (r, c), s0
                   in zip(map(coo_indices, kept), starts)]
        self.indptr, self.indices, pos = union_pattern(
            d, entries + [(c, r) for r, c in entries]
            + [(b.indices[first], b.indices[second])])
        self.pos, self.pos_t = pos[:len(kept)], pos[len(kept):-1]
        self.curvature = sp.csr_matrix((vals, (pos[-1], obs[first])),
                                       shape=(len(self.indices), b.shape[0]))
        self.shape = (d, d)
        self.layout = BandLayout(self.indptr, self.indices)
        self.blocks = [(q.indptr.copy(), q.indices.copy()) for q in blocks]

    def fits(self, blocks):
        return len(blocks) == len(self.blocks) and all(
            np.array_equal(ptr, q.indptr) and np.array_equal(ind, q.indices)
            for (ptr, ind), q in zip(self.blocks, blocks))

    def prior(self, blocks):
        """Q_prior as the data of its kept blocks on the pattern, each the
        mean of the block and its transpose (equal to the block when the
        block is symmetric), and the diagonal p of its eliminated blocks."""
        data = np.zeros(len(self.indices))
        for i, pos, pos_t in zip(self.kept_blocks, self.pos, self.pos_t):
            half = 0.5 * blocks[i].data
            data[pos] += half
            data[pos_t] += half
        p = np.concatenate([blocks[i].data for i in self.elim_blocks]
                           + [np.zeros(0)])
        return data, p

    def matrix(self, data):
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def schur(self, prior, h):
        """S at the curvature h, with the diagonal q of Q_post's block over
        E, from the prior as laid out by :meth:`prior`."""
        data, p = prior
        rows, cols, b = self.e_rows, self.e_cols, self.e_vals
        q = p.copy()
        q[cols] += b * b * h[rows]
        h_schur = h.copy()
        h_schur[rows] *= p[cols] / q[cols]
        return self.matrix(data + self.curvature @ h_schur), q


def _pattern(model, blocks):
    """The model's pattern, rebuilt when the prior blocks' sparsity differs
    from the one it was built for."""
    pat = model._pattern
    if pat is None or not pat.fits(blocks):
        pat = _Pattern(model, blocks)
        model._pattern = pat
    return pat


class _PosteriorFactor:
    """Factor of Q_post = Q_prior + B^T diag(h) B on the full latent vector,
    with the pattern's eliminated coordinates E integrated out exactly:
    only the Schur complement S over R is factored (``schur``), and

        log|Q_post| = log|S| + sum_j log q_j.

    Q_post's off-diagonal block is Q_ER = B_E^T diag(h) B_R, so a solve
    eliminates forward, solves S and substitutes back through q, and a
    draw takes x_R from S and x_E = -(Q_ER x_R) / q + z_E / sqrt(q).

    With constraint rows A (None for none), :meth:`krige` conditions on
    A x = 0 by kriging (Rue & Held 2005, section 2.3) with the kept
    W = Q_post^{-1} A^T and M = (A W)^{-1}.
    """

    def __init__(self, pat, prior, h, constraint):
        s, q = pat.schur(prior, h)
        if not np.all(q > 0) or not np.all(np.isfinite(q)):
            raise NotPositiveDefiniteError(
                "an eliminated diagonal of Q_post is not positive")
        self.schur = SparseCholesky(s, layout=pat.layout)
        self.h = h
        self.logdet = self.schur.logdet + float(np.log(q).sum())
        self._pat = pat
        self._q = q
        self._c = pat.e_vals * h[pat.e_rows]  # nonzeros of B_E^T diag(h)
        self.constraint = constraint
        if constraint is not None:
            self.w = self.solve(constraint.T)
            self.m = np.linalg.inv(constraint @ self.w)

    def krige(self, x):
        """Condition x (d,) or (d, k) on A x = 0: x - W M A x."""
        if self.constraint is None:
            return x
        return x - self.w @ (self.m @ (self.constraint @ x))

    def _q_er(self, x_r):
        """Q_ER x_R for x_R of shape (|R|,) or (|R|, k)."""
        pat = self._pat
        t = pat.design_e @ x_r
        out = np.zeros((len(self._q),) + t.shape[1:])
        out[pat.e_cols] = _rows(self._c, t) * t
        return out

    def _q_re(self, x_e):
        """Q_RE x_E for x_E of shape (|E|,) or (|E|, k)."""
        return self._pat.design_e_t @ (_rows(self._c, x_e)
                                       * x_e[self._pat.e_cols])

    def solve(self, rhs):
        """Solve Q_post x = rhs; rhs may be a vector or a (d, k) matrix."""
        rhs = np.asarray(rhs, dtype=float)
        pat = self._pat
        r, e = rhs[pat.keep], rhs[pat.elim]
        x_r = self.schur.solve(r - self._q_re(e / _rows(self._q, e)))
        x = np.empty_like(rhs)
        x[pat.keep] = x_r
        x[pat.elim] = (e - self._q_er(x_r)) / _rows(self._q, e)
        return x

    def sample(self, z):
        """Map standard normal draws z (d,) or (d, k) to N(0, Q_post^{-1})
        draws."""
        z = np.asarray(z, dtype=float)
        pat = self._pat
        # z's kept entries, in ascending latent index, feed S's factor rows
        x_r = self.schur.sample(z[pat.keep])
        q = _rows(self._q, z)
        x = np.empty_like(z)
        x[pat.keep] = x_r
        x[pat.elim] = z[pat.elim] / np.sqrt(q) - self._q_er(x_r) / q
        return x

    def draw(self, rng, k, coords=None):
        """Rows ``coords`` (all for None) of krige(sample(z)) for one
        (d, k) standard normal draw z from ``rng``.

        Where ``coords`` holds no eliminated coordinate and there are no
        constraints, only S's half-solve runs: z's rows are drawn run by
        run in latent order, the eliminated runs dropped, which leaves the
        stream and every kept value as the whole draw gives them."""
        pat = self._pat
        d = len(pat.keep) + len(pat.elim)
        if coords is None or self.constraint is not None \
                or np.isin(coords, pat.elim).any():
            x = self.krige(self.sample(rng.standard_normal((d, k))))
            return x if coords is None else x[coords]
        kept = np.zeros(d, dtype=bool)
        kept[pat.keep] = True
        edges = np.r_[0, np.flatnonzero(np.diff(kept)) + 1, d]
        z_r = np.empty((len(pat.keep), k))
        row = 0
        for start, stop in zip(edges[:-1], edges[1:]):
            if kept[start]:
                rng.standard_normal(out=z_r[row:row + stop - start])
                row += stop - start
            else:
                rng.standard_normal((stop - start, k))
        return self.schur.sample(z_r)[np.searchsorted(pat.keep, coords)]


def _rows(v, x):
    """The vector v shaped to scale the rows of x, (n,) or (n, k)."""
    return v.reshape(-1, *([1] * (np.ndim(x) - 1)))


def _prior_logdet(model, theta, blocks, pat):
    """log|Q_prior| as a sum over its diagonal blocks: a block whose
    precision has a ``logdet`` method contributes that, any other diagonal
    block the sum of its log entries, and any other block is factored."""
    theta_blocks = model.theta_blocks(theta)
    names = [c.name for c in model.components] + ["fixed"]
    logdet = 0.0
    for i, q in enumerate(blocks):
        comp = model.components[i] if i < len(model.components) else None
        if hasattr(getattr(comp, "precision", None), "logdet"):
            logdet += float(comp.precision.logdet(theta_blocks[comp.name]))
        elif pat.diagonal[i]:
            if not np.all(q.data > 0) or not np.all(np.isfinite(q.data)):
                raise NotPositiveDefiniteError(
                    f"prior block {names[i]} has a non-positive diagonal")
            logdet += float(np.log(q.data).sum())
        else:
            logdet += SparseCholesky(q).logdet
    return logdet


def gaussian_approx(model, theta, u0=None, hint=None):
    """Chord Newton Gaussian approximation of pi(u | y, theta).

    Returns the (constrained) mode, the factor of the posterior precision
    at the mode and the Laplace log-evidence log pi(y | theta).  With a
    Gaussian observation stage the first Newton step is exact.

    Each iteration evaluates eta, the curvature h and the gradient of the
    log conditional density at the current iterate once, and stops there
    when every entry of the (projected) gradient is below ``_NEWTON_TOL``
    in absolute value, or when the last step changed u by less than
    ``_NEWTON_TOL`` relative to its size; after ``_MAX_ITER`` steps it
    raises :class:`ConvergenceError`.  The gradient test does not scale
    with the density, so where Newton started moves the log-evidence by
    about 0.1 ``_NEWTON_TOL`` at most on the test models, far below what
    the finite differences in theta of :func:`hyper_grid` resolve.

    A step solves with the factor it holds, which need not be Q_post at
    the current iterate: the chord (Shamanskii) variant of Newton's method
    (Kelley 2003, ch. 5).  Q_post is refactored at the current iterate
    only where there is no factor yet, where the last step left the
    gradient's max-norm above ``_CHORD_RATE`` times the one before it, and
    once at the exit, so the returned factor, the mean (one Newton step
    from the last iterate) and the log-evidence are all taken with Q_post
    at the last iterate, as a Newton step at every iterate would take
    them.  ``n_iter`` counts the steps, chord steps among them.  A factor
    built here at the current curvature is never rebuilt, so a Gaussian
    stage, whose h does not depend on u, builds one.  A factor is built
    only after the last one is freed, so one factor is alive at a time,
    and log|Q_prior| is computed just before the first one is built, when
    none is.

    Newton starts from ``u0`` (default zero) and, with ``hint``, on the
    factor of another approximation of the same model: the caller hands
    it over and keeps no reference, and it is freed before the first
    factor is built.  A hint built on another pattern of the prior's
    sparsity is dropped, and so is any hint for a Gaussian stage, whose
    one exact step needs the one factor it builds anyway.  ``u0`` must
    satisfy the model's constraints, A u0 = 0, as the ``mean`` of an
    earlier approximation of the same model does.  Starting from the mean
    at a nearby theta saves iterations, and starting on its factor saves
    factorizations; neither changes the result beyond the Newton
    tolerance.
    """
    blocks = model.prior_blocks(theta)
    pat = _pattern(model, blocks)
    prior = pat.prior(blocks)
    q_prior_r = pat.matrix(prior[0])
    b = model.design
    b_t = b.T
    a_con = model.constraint
    d = model.latent_dim
    u = np.zeros(d) if u0 is None else np.array(u0, dtype=float)
    if u.shape != (d,):
        raise ValueError(f"u0 must have shape ({d},), got {u.shape}")
    if hint is not None and (hint._pat is not pat
                             or isinstance(model.obs, GaussianObs)):
        hint = None
    factor, hint = hint, None
    own = False  # whether factor was built here, at this theta
    prior_logdet = None

    def prior_times(u_):
        out = np.empty(d)
        out[pat.keep] = q_prior_r @ u_[pat.keep]
        out[pat.elim] = prior[1] * u_[pat.elim]
        return out

    def objective(u_):
        eta = b @ u_
        return model.obs.loglik(eta) - 0.5 * float(u_ @ prior_times(u_))

    f_u = objective(u)
    trace = [f_u]
    rel_change = np.inf
    last = np.inf  # the gradient's max-norm before the last step
    for n_iter in range(_MAX_ITER + 1):
        eta = b @ u
        h = model.obs.neg_hess(eta)
        grad = np.asarray(b_t @ model.obs.grad(eta)).ravel() - prior_times(u)
        if a_con is not None:
            # projected gradient: remove the constrained directions
            grad_proj = grad - a_con.T @ np.linalg.solve(
                a_con @ a_con.T, a_con @ grad)
        else:
            grad_proj = grad
        norm = np.max(np.abs(grad_proj))
        done = norm < _NEWTON_TOL or rel_change < _NEWTON_TOL
        if factor is None or ((done or norm > _CHORD_RATE * last)
                              and not (own and np.array_equal(h, factor.h))):
            factor = None  # free the last factor before building the next
            if prior_logdet is None:
                prior_logdet = _prior_logdet(model, theta, blocks, pat)
            factor = _PosteriorFactor(pat, prior, h, a_con)
            own = True
        if done:
            break
        if n_iter == _MAX_ITER:
            raise ConvergenceError(
                f"Gaussian approximation did not converge in {_MAX_ITER} "
                f"iterations", trace=trace)
        last = norm
        delta = factor.solve(grad)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            u_try = factor.krige(u + step * delta)
            f_try = objective(u_try)
            if f_try >= f_u - 1e-12 * (1 + abs(f_u)):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search failed at iteration {n_iter}",
                trace=trace)
        rel_change = np.max(np.abs(u_try - u)) / (1.0 + np.max(np.abs(u_try)))
        u, f_u = u_try, f_try
        trace.append(f_u)

    # the mean of the last quadratic model, unconstrained, then kriged
    mu_hat = u + factor.solve(grad)
    log_ev = (model.obs.loglik(eta)
              + 0.5 * prior_logdet
              - 0.5 * float(u @ prior_times(u))
              - 0.5 * factor.logdet)
    if a_con is not None:
        # Laplace integral over {A u = 0}, normal to the gradient A^T lambda
        log_ev += 0.5 * (np.linalg.slogdet(a_con @ a_con.T)[1]
                         - np.linalg.slogdet(a_con @ factor.w)[1])
    return GaussianApprox(mean=factor.krige(mu_hat), factor=factor,
                          log_evidence=log_ev, n_iter=n_iter)


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------

@dataclass
class HyperPoint:
    """A grid point: theta, log pi~(theta | y), its normalized weight, and
    the constraint-corrected mean and the curvature h at the last Newton
    iterate of its Gaussian approximation.  It holds no factor;
    :func:`_factor` rebuilds it from theta and h."""

    theta: np.ndarray
    log_post: float
    weight: float
    mean: np.ndarray
    h: np.ndarray


def _log_post(model, theta, u0=None, carry=None):
    """Laplace log pi~(theta | y) up to a constant, with the mean and the
    curvature h of its approximation (Newton started from ``u0``).

    Without ``carry`` the approximation starts cold and its factor is
    freed on return.  ``carry`` is a list that holds the factor of the
    evaluation before, or nothing: that factor is taken out of it and
    handed to :func:`gaussian_approx` as its hint, and this evaluation's
    factor is left in it on return."""
    approx = gaussian_approx(model, theta, u0, carry.pop() if carry else None)
    if carry is not None:
        carry.append(approx.factor)
    return (approx.log_evidence + model.log_theta_prior(theta), approx.mean,
            approx.factor.h)


def _weighted_points(model, thetas, u0=None, log_scale=0.0, carry=None):
    """Evaluate the Laplace log-posterior at each theta in order, every
    Newton solve started from the same ``u0`` (and on the factor in
    ``carry``, as :func:`_log_post` hands it on), and normalize the weights
    exp(log_post + log_scale) over the given points.  One point's factor
    is held at a time."""
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    results = [_log_post(model, t, u0, carry) for t in thetas]
    lps = np.array([r[0] for r in results])
    w = np.exp(lps + log_scale - np.max(lps + log_scale))
    w /= w.sum()
    return [HyperPoint(t, float(lp), float(wi), mean, h)
            for t, lp, wi, (_, mean, h) in zip(thetas, lps, w, results)]


def _factor(model, point):
    """The factor of ``point``'s Q_post, rebuilt from its theta and
    curvature: the assembly and factorization :func:`gaussian_approx` ended
    on, so equal to its factor bit for bit."""
    blocks = model.prior_blocks(point.theta)
    pat = _pattern(model, blocks)
    return _PosteriorFactor(pat, pat.prior(blocks), point.h, model.constraint)


def minimize(fun, grad, x0):
    """Minimize ``fun`` by BFGS from ``x0`` (Nocedal & Wright 2006,
    algorithm 6.1), for a handful of coordinates.  Returns the last
    accepted point and None, or that point and why the search stopped
    short.

    ``grad(x, f)`` is the gradient at a point ``x`` the line search has
    accepted, whose value is ``f``; a trial point it rejects costs one call
    of ``fun``.  The line search backtracks from the full step to the
    minimum of the quadratic through f, its slope and the rejected value,
    kept within [0.1, 0.5] of the step, until the Armijo condition holds.
    The inverse Hessian starts as the identity and the first step is at
    most 1 long.  (The rescaling s^T y / y^T y of N&W eq. 6.20 after the
    first step fits the stiffest direction; on the theta posteriors here,
    whose curvatures differ a hundredfold, it shrank every later step along
    the flat ones and took more evaluations than the identity.)  Stops once
    the largest gradient entry is at most ``_MODE_GTOL``."""
    x = np.array(x0, dtype=float)
    f = fun(x)
    g = grad(x, f)
    h_inv = np.eye(len(x))
    for it in range(200 * len(x)):
        if np.max(np.abs(g)) <= _MODE_GTOL:
            return x, None
        p = -h_inv @ g
        slope = g @ p
        if not slope < 0:  # not a descent direction: restart from -g
            h_inv, p = np.eye(len(x)), -g
            slope = g @ p
        alpha = min(1.0, 1.0 / np.linalg.norm(p)) if it == 0 else 1.0
        for _ in range(_MAX_HALVINGS):
            f_new = fun(x + alpha * p)
            if f_new < f + 1e-4 * alpha * slope:
                break
            cut = -slope * alpha / (2.0 * (f_new - f - slope * alpha)) \
                if np.isfinite(f_new) else 0.1
            alpha *= min(max(cut, 0.1), 0.5)
        else:
            return x, "the line search found no decrease"
        s = alpha * p
        x = x + s
        g_new = grad(x, f_new)
        y, f, g = g_new - g, f_new, g_new
        sy = s @ y
        if sy > 0:  # BFGS update, skipped where the curvature is not positive
            v = np.eye(len(x)) - np.outer(s, y) / sy
            h_inv = v @ h_inv @ v.T + np.outer(s, s) / sy
    return x, "the iteration limit was reached"


def _mode_search(model, carry=None):
    """The theta mode: BFGS (:func:`minimize`) on -log pi~(theta | y) from
    ``theta_init``, with a forward-difference gradient of step _FD_STEP.
    Every Newton solve starts from the mode, and on the factor in
    ``carry``, of the evaluation before it.  Returns the best theta
    evaluated outside the gradients, its log posterior and its latent
    mean."""
    start = None  # mean of the previous evaluation
    best = (None, -np.inf, None)  # theta, log posterior and mean

    def evaluate(t):
        nonlocal start
        lp, start, _ = _log_post(model, t, start, carry)
        return lp

    def objective(t):
        nonlocal best
        lp = evaluate(t)
        if lp > best[1]:
            best = (t.copy(), lp, start)
        return -lp

    def gradient(t, f):
        grad = np.empty(len(t))
        for j in range(len(t)):
            step = t.copy()
            step[j] += _FD_STEP
            grad[j] = (-evaluate(step) - f) / _FD_STEP
        return grad

    _, failure = minimize(objective, gradient, model.theta_init)
    if failure:
        warnings.warn(f"theta mode search did not fully converge "
                      f"({failure}); using the best point found",
                      stacklevel=3)
    return best


def _neg_hessian(model, mode, lp_mode, u0, carry=None):
    """-d^2 log pi~ / d theta^2 at the mode by finite differences of step
    _HESS_STEP: 2 dim axial points and the dim (dim - 1) / 2 one-sided
    cross points mode + h (e_i + e_j), evaluated in that order."""
    dim, h = len(mode), _HESS_STEP
    eye = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    thetas = [mode + h * e for e in eye] + [mode - h * e for e in eye] \
        + [mode + h * (eye[i] + eye[j]) for i, j in pairs]
    lps = [_log_post(model, t, u0, carry)[0] for t in thetas]
    up, down = np.array(lps[:dim]), np.array(lps[dim:2 * dim])
    hess = np.diag(up - 2.0 * lp_mode + down)
    for (i, j), lp in zip(pairs, lps[2 * dim:]):
        hess[i, j] = hess[j, i] = lp - up[i] - up[j] + lp_mode
    return -hess / (h * h)


def _ccd_design(dim):
    """Central composite design in standardized coordinates z and the log
    of each point's integration weight Delta.

    The points are the centre, 2 dim axial points at radius f0 sqrt(dim)
    and the 2^dim factorial corners at +-f0 (none for dim = 1, where they
    are the axial points), f0 = _CCD_F0; every point but the centre lies
    at |z|^2 = dim f0^2.  Delta is 1 at the centre and

        Delta = exp(dim f0^2 / 2) / ((n - 1)(f0^2 - 1))

    at the other n - 1 points: the weights Delta pi(z) then give a
    standard Gaussian pi its exact mean and covariance, sum w z z^T =
    sum w I, so a Gaussian theta posterior keeps its spread.  (Rue et al.
    2009 give Delta = [(n - 1)(f0^2 - 1)(1 + exp(-dim f0^2 / 2))]^{-1};
    times pi(z) that keeps 0.63 of a Gaussian's variance for dim = 2 and
    0.48 for dim = 3.)
    """
    axial = _CCD_F0 * np.sqrt(dim) * np.vstack([np.eye(dim), -np.eye(dim)])
    corners = np.array(list(product((1.0, -1.0), repeat=dim))) * _CCD_F0 \
        if dim > 1 else np.zeros((0, dim))
    z = np.vstack([np.zeros((1, dim)), axial, corners])
    log_delta = np.full(len(z), dim * _CCD_F0 ** 2 / 2 - np.log(
        (len(z) - 1) * (_CCD_F0 ** 2 - 1)))
    log_delta[0] = 0.0
    return z, log_delta


def hyper_grid(model):
    """Explore the hyperparameter posterior as INLA does (Rue, Martino &
    Chopin 2009, sections 6.1 and 6.5) and return the weighted grid.

    1. The mode theta* of log pi~(theta | y), the Laplace evidence plus
       the theta prior, by this module's BFGS (:func:`minimize`, with a
       backtracking line search) from ``theta_init`` on a
       forward-difference gradient of step _FD_STEP, taken only at the
       points the line search accepts, stopped at a gradient of
       _MODE_GTOL (with a warning if it does not converge).
    2. The Hessian H of log pi~ at theta* by finite differences of step
       _HESS_STEP.  -H = V Lambda V^T, with every eigenvalue floored at
       the theta prior's precision 1 / _THETA_PRIOR_SD^2, so that a flat
       direction cannot stretch the grid past the prior.
    3. Standardized coordinates theta = theta* + V Lambda^{-1/2} S z, with
       S = diag(sigma) a skewness correction per axis and side: sigma =
       D^{-1/2} for the log-density drop D from theta* to z = +-sqrt(2)
       on that axis (1 for a Gaussian; 1 where D is not positive).
    4. A central composite design in z (:func:`_ccd_design`, f0 =
       _CCD_F0): 15 points for 3 theta, 9 for 2.  Each point is weighted
       by pi~(theta) times its integration weight Delta, chosen so that
       the design gives a Gaussian posterior its exact covariance, and
       the weights are normalized.

    Each Newton solve of the mode search starts from the mode of the
    evaluation before it, and every point of steps 2-4 from the latent
    mean at theta*.  Each evaluation after the first starts on the
    factor of Q_post the evaluation before it ended on (the hint of
    :func:`gaussian_approx`), which is handed on, never shared.  A point
    therefore depends on the points evaluated before it, but only within
    the Newton tolerance.  With no hyperparameters the grid is
    ``theta_init`` alone, evaluated cold.
    """
    dim = model.n_theta
    if dim == 0:
        return _weighted_points(model, [model.theta_init])
    carry = []  # the factor of the last evaluation, handed to the next
    mode, lp_mode, u_mode = _mode_search(model, carry)
    lam, vecs = np.linalg.eigh(_neg_hessian(model, mode, lp_mode, u_mode,
                                            carry))
    scale = vecs / np.sqrt(np.maximum(lam, _THETA_PRIOR_SD ** -2))
    # skewness: the drop at z = +sqrt(2) e_i (row i) and -sqrt(2) e_i
    # (row dim + i)
    z_skew = np.sqrt(2.0) * np.vstack([np.eye(dim), -np.eye(dim)])
    drop = lp_mode - np.array([_log_post(model, t, u_mode, carry)[0]
                               for t in mode + z_skew @ scale.T])
    sigma = np.ones(2 * dim)
    sigma[drop > 0] = drop[drop > 0] ** -0.5
    z, log_delta = _ccd_design(dim)
    z = np.where(z > 0, z * sigma[:dim], z * sigma[dim:])
    return _weighted_points(model, mode + z @ scale.T, u_mode,
                            log_scale=log_delta, carry=carry)


# ---------------------------------------------------------------------------
# fit container, marginals, sampling
# ---------------------------------------------------------------------------

@dataclass
class MarginalSummaries:
    names: list
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q50: np.ndarray
    q975: np.ndarray


@dataclass
class FitResult:
    model: LatentModel
    points: list

    @property
    def weights(self):
        return np.array([p.weight for p in self.points])


def fit_latent_model(model, thetas=None):
    """Fit the model: the hyperparameter grid, each point with the mean and
    curvature of its Gaussian approximation (:class:`HyperPoint`).

    ``thetas`` may give explicit grid points (list of vectors) to skip the
    mode search, e.g. a single point for a fixed-theta fit.  Each of them
    is evaluated cold, from u = 0 and with no factor handed on, so that
    each point's result is :func:`gaussian_approx` at its theta alone.
    """
    if thetas is not None:
        points = _weighted_points(model, thetas)
    else:
        points = hyper_grid(model)
    return FitResult(model=model, points=points)


def _mixture_quantiles(mus, sds, weights, probs):
    """Quantiles of a Gaussian mixture by bisection of the CDF.

    mus, sds: (k, m) component parameters per coordinate; weights: (k,).
    Returns an array of shape (len(probs), m).
    """
    k, m = mus.shape
    lo = np.min(mus - 12 * sds, axis=0)
    hi = np.max(mus + 12 * sds, axis=0)
    out = np.empty((len(probs), m))
    w = weights[:, None]
    for pi, p in enumerate(probs):
        a, bnd = lo.copy(), hi.copy()
        for _ in range(200):
            mid = 0.5 * (a + bnd)
            cdf = np.sum(w * ndtr((mid[None, :] - mus) / sds), axis=0)
            high = cdf >= p
            bnd = np.where(high, mid, bnd)
            a = np.where(high, a, mid)
            if np.max(bnd - a) < _QUANTILE_TOL:
                break
        out[pi] = 0.5 * (a + bnd)
    return out


def _combination_variance(factor, op):
    """Constraint-corrected variances of the rows of ``op @ u`` under one
    grid point's factor, by dense solves in chunks of rows."""
    out = np.empty(op.shape[0])
    for s in range(0, op.shape[0], _DENSE_CUTOFF):
        dense = op[s:s + _DENSE_CUTOFF].toarray()
        out[s:s + _DENSE_CUTOFF] = np.einsum(
            "kd,dk->k", dense, factor.solve(dense.T))
    if factor.constraint is not None:
        out -= np.sum((op @ (factor.w @ factor.m)) * (op @ factor.w), axis=1)
    return out


def _grid_pass(fit, op=None, draws=None):
    """The one walk over the grid points, in index order, that needs their
    factors.  Each point's factor is rebuilt once (:func:`_factor`), used
    for everything asked of that point and freed before the next point's,
    so one factor is held at a time; a point with no work is not rebuilt.

    ``draws``, a tuple (num_samples, seed, coords), asks for the joint
    draws :func:`sample_joint` describes; ``op``, a sparse CSR matrix,
    for the per-point means and sds of the linear combinations ``op @ u``,
    one row per combination.  Returns the :class:`JointSamples` (None
    without ``draws``), whose matrix is Fortran-ordered so that a block of
    its columns is contiguous, and the means and sds, shape (points,
    rows) (None without ``op``).
    """
    mus, sds = [], []
    samples = None
    if draws is not None:
        num_samples, seed, coords = draws
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(fit.points), size=num_samples, p=fit.weights)
        rows = slice(None) if coords is None else coords
        width = fit.model.latent_dim if coords is None else len(coords)
        samples = JointSamples(
            samples=np.empty((num_samples, width), order="F"),
            theta_index=idx)
    for j, point in enumerate(fit.points):
        sel = np.flatnonzero(idx == j) if draws is not None else ()
        if op is None and not len(sel):
            continue
        factor = _factor(fit.model, point)
        if len(sel):
            s = factor.draw(rng, len(sel), coords)
            samples.samples[sel] = (point.mean[rows, None] + s).T
        if op is not None:
            mus.append(op @ point.mean)
            sds.append(np.sqrt(np.maximum(_combination_variance(factor, op),
                                          1e-300)))
        del factor
    if op is None:
        return samples, None, None
    return samples, np.vstack(mus), np.vstack(sds)


def _mixture(weights, mus, sds):
    """Mixture mean, sd and (0.025, 0.5, 0.975) quantiles per column of
    the per-point means and sds ``mus`` and ``sds``."""
    mean = weights @ mus
    second = weights @ (sds ** 2 + mus ** 2)
    sd = np.sqrt(np.maximum(second - mean ** 2, 0.0))
    q = _mixture_quantiles(mus, sds, weights, (0.025, 0.5, 0.975))
    return mean, sd, q


def _coordinate_op(model, coords):
    """The rows ``coords`` of the identity, which pick those coordinates."""
    return sp.identity(model.latent_dim, format="csr")[coords]


def _summaries(fit, coords, mus, sds):
    mean, sd, q = _mixture(fit.weights, mus, sds)
    all_names = fit.model.coord_names()
    return MarginalSummaries(names=[all_names[i] for i in coords], mean=mean,
                             sd=sd, q025=q[0], q50=q[1], q975=q[2])


def marginals(fit, coords=None):
    """Mixture-of-Gaussians marginal mean, sd and quantiles per coordinate."""
    model = fit.model
    if coords is None:
        coords = np.arange(model.latent_dim)
    coords = np.asarray(coords, dtype=int)
    _, mus, sds = _grid_pass(fit, op=_coordinate_op(model, coords))
    return _summaries(fit, coords, mus, sds)


def sample_joint(fit, num_samples, seed, coords=None):
    """Sample theta from the grid weights, then the latent field given theta.

    Deterministic under a fixed seed: theta indices are drawn first, then
    one (d, k) block of standard normals per grid point in index order, k
    the number of samples at that point.  ``coords``, as in
    :func:`marginals`, selects the latent coordinates kept, in its order
    (None: all of them).  Where it holds no eliminated coordinate and the
    model has no constraints, a grid point solves only S's half for x_R and
    drops the eliminated rows of its normal block unused; the stream, and
    so every kept value, is the same as the full draw's bit for bit.  The
    sample matrix is Fortran-ordered.
    """
    if coords is not None:
        coords = np.asarray(coords, dtype=int)
    return _grid_pass(fit, draws=(num_samples, seed, coords))[0]


def sample_with_marginals(fit, num_samples, seed, coords, marginal_coords):
    """:func:`sample_joint` with ``coords`` and :func:`marginals` of
    ``marginal_coords`` from one :func:`_grid_pass`, which rebuilds each
    grid point's factor once for both.  Returns the samples and the
    summaries, each equal to what its own function gives."""
    coords = np.asarray(coords, dtype=int)
    marginal_coords = np.asarray(marginal_coords, dtype=int)
    samples, mus, sds = _grid_pass(
        fit, op=_coordinate_op(fit.model, marginal_coords),
        draws=(num_samples, seed, coords))
    return samples, _summaries(fit, marginal_coords, mus, sds)


# ---------------------------------------------------------------------------
# convenience builder for the geostatistical model
# ---------------------------------------------------------------------------

def make_spde_model(obs, projector, c_mat, g_mat, nugget=True,
                    theta_init=None):
    """Binomial/Gaussian observations driven by an SPDE field.

    eta = beta0 + (A w) + eps with A the mesh projector at the data
    locations, w the field weights with SPDE precision Q(log tau, log kappa)
    and eps an optional iid nugget, one coordinate per observation, whose
    log-precision is a hyperparameter.  beta0 and theta take the priors of
    :class:`LatentModel`'s defaults.  The nugget is integrated out of every
    factorization, so a Newton step factors a matrix over the mesh
    vertices and beta0 only, however many observations there are.
    """
    from .spde import SpdePrecision

    a = projector.matrix
    n = a.shape[0]
    comps = [LatentComponent(
        name="field",
        design=a,
        precision=SpdePrecision(c_mat, g_mat),
        n_theta=2,
        theta_names=("log_tau", "log_kappa"),
    )]
    if nugget:
        comps.append(LatentComponent(
            name="eps",
            design=sp.identity(n, format="csr"),
            precision=lambda th: sp.identity(n, format="csc") * np.exp(th[0]),
            n_theta=1,
            theta_names=("log_nugget_prec",),
        ))
    if theta_init is None:
        theta_init = [0.0, 0.0] + ([np.log(100.0)] if nugget else [])
    return LatentModel(obs, comps, fixed_design=np.ones((n, 1)),
                       fixed_names=["beta0"], theta_init=theta_init)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_fit_summary_csv(path, summaries):
    _write_csv(path, ["coordinate", "mean", "sd", "q025", "q50", "q975"],
               [summaries.names, summaries.mean, summaries.sd, summaries.q025,
                summaries.q50, summaries.q975])


def write_theta_grid_csv(path, fit):
    theta = np.array([p.theta for p in fit.points], dtype=float)
    _write_csv(path, list(fit.model.theta_names) + ["log_post", "weight"],
               list(theta.T) + [[p.log_post for p in fit.points],
                                [p.weight for p in fit.points]])
