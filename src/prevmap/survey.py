"""Two-stage cluster survey machinery: weights, direct estimates, logits.

A frame holds one row per sampled household.  Design weights are the
reciprocal two-stage selection probabilities; prevalence is estimated per
area by the Hajek ratio with a with-replacement first-stage linearization
variance, then moved to the logit scale by the delta method.  Zero/one
prevalences, variances too small for the logit and single-cluster areas
are repaired by one rule (:func:`direct_estimates`), which groups the
households by area once and estimates each area from its sub-frame.
"""

from dataclasses import dataclass, fields

import numpy as np

from ._csv import _read_csv, _write_csv
from .errors import NoDataError, reading

__all__ = [
    "SurveyFrame",
    "DirectEstimate",
    "design_weights",
    "hajek",
    "design_variance",
    "empirical_logit",
    "direct_estimates",
    "read_frame_csv",
    "write_frame_csv",
    "write_direct_estimates_csv",
]


@dataclass
class SurveyFrame:
    """Household-level records of a two-stage cluster sample.

    All arrays have one entry per household; cluster location and area
    membership repeat across the households of a cluster.  ``n_members``
    is the count of tested individuals N_ij and ``positives`` is Y_ij.
    """

    cluster_id: np.ndarray
    area_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    household_id: np.ndarray
    n_members: np.ndarray
    positives: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.cluster_id = np.asarray(self.cluster_id)
        self.area_id = np.asarray(self.area_id)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.household_id = np.asarray(self.household_id)
        self.n_members = np.asarray(self.n_members, dtype=float)
        self.positives = np.asarray(self.positives, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        n = len(self.cluster_id)
        for name in ("area_id", "x", "y", "household_id", "n_members",
                     "positives", "weight"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        for col, v in (("x", self.x), ("y", self.y), ("weight", self.weight)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"column {col}: values must be finite")
        for col, v in (("N", self.n_members), ("Y", self.positives)):
            if np.any(v % 1 != 0):
                raise ValueError(f"column {col}: counts must be whole numbers")
        if np.any(self.positives < 0) or np.any(self.positives > self.n_members):
            raise ValueError("need 0 <= positives <= n_members")
        if np.any(self.weight <= 0):
            raise ValueError("weights must be positive")

    @property
    def num_households(self):
        return len(self.cluster_id)

    def take(self, rows):
        """The sub-frame of ``rows`` (indices or a mask), in that order."""
        return SurveyFrame(*(getattr(self, f.name)[rows]
                             for f in fields(self)))


@dataclass
class DirectEstimate:
    area_id: object
    p_hat: float
    v_star: float
    y_logit: float
    v_logit: float
    n_clusters: int
    flags: list


def design_weights(num_psu_sampled, total_psu, m_i, households_per_ea):
    """Inverse selection probability of a two-stage cluster sample.

    pi_ij = (num_psu_sampled / total_psu) * (m_i / households_per_ea);
    the weight is 1 / pi_ij and applies to every member of the household.
    """
    m_i = np.asarray(m_i, dtype=float)
    if num_psu_sampled <= 0 or total_psu <= 0 or households_per_ea <= 0:
        raise ValueError("counts must be positive")
    if np.any(m_i <= 0) or np.any(m_i > households_per_ea):
        raise ValueError("need 0 < m_i <= households_per_ea")
    pi = (num_psu_sampled / total_psu) * (m_i / households_per_ea)
    if np.any(pi <= 0):
        raise ValueError("zero selection probability")
    w = 1.0 / pi
    return w if np.ndim(m_i) else float(w)


def hajek(frame):
    """Weighted prevalence p_hat = sum(w Y) / sum(w N) over a frame: one
    area's sub-frame (:meth:`SurveyFrame.take`) or the whole survey."""
    if frame.n_members.sum() == 0:
        areas = ", ".join(str(a) for a in np.unique(frame.area_id))
        raise NoDataError(f"area {areas}: no sampled households with members")
    num = float(np.sum(frame.weight * frame.positives))
    den = float(np.sum(frame.weight * frame.n_members))
    return num / den


def design_variance(frame, p_hat):
    """With-replacement first-stage linearization variance of the Hajek
    ratio over a frame, usually one area's sub-frame.

    Cluster-level weighted residual totals z_i = sum_j w_ij (Y_ij - p N_ij)
    give v = [n_c/(n_c-1)] sum_i (z_i - zbar)^2 / (sum w N)^2.  Areas with a
    single cluster return NaN; the pooling rule lives in
    :func:`direct_estimates`.
    """
    if not frame.num_households:
        raise NoDataError("empty frame")
    w = frame.weight
    resid = w * (frame.positives - p_hat * frame.n_members)
    clusters, inv = np.unique(frame.cluster_id, return_inverse=True)
    n_c = len(clusters)
    if n_c < 2:
        return float("nan")
    z = np.zeros(n_c)
    np.add.at(z, inv, resid)
    den = float(np.sum(w * frame.n_members)) ** 2
    zbar = z.mean()
    return float(n_c / (n_c - 1) * np.sum((z - zbar) ** 2) / den)


def empirical_logit(p_hat, v_star):
    """Logit of ``p_hat`` in (0, 1) and the delta-method variance there."""
    if not 0.0 < p_hat < 1.0:
        raise ValueError("p_hat must lie strictly inside (0, 1)")
    y = float(np.log(p_hat / (1.0 - p_hat)))
    v = float(v_star / (p_hat * (1.0 - p_hat)) ** 2)
    return y, v


def _area_estimate(area, sub, p, v, n_c, p_nat, pooled_v_logit):
    """The estimate of ``area`` repaired as :func:`direct_estimates` says."""
    wn = np.sum(sub.weight * sub.n_members)
    fixed = not 0.0 < p < 1.0
    if fixed:  # half a pseudo-observation at the mean weight, toward p_nat
        half = 0.5 * float(np.mean(sub.weight))
        p = (p * float(wn) + half * p_nat) / (float(wn) + half)
    single = n_c < 2 or not np.isfinite(v)
    if single:
        y, v_logit = empirical_logit(p, 0.0)[0], pooled_v_logit
    else:
        # Kish effective person count: the persons of household j share w_j
        n_eff = wn ** 2 / np.sum(sub.weight ** 2 * sub.n_members)
        floor = p * (1 - p) / max(n_eff, 1.0)
        if v < floor * 1e-12:  # always so at a 0/1 p: all residuals are 0
            v, fixed = floor, True
        y, v_logit = empirical_logit(p, v)
        if fixed:
            p = 1.0 / (1.0 + np.exp(-y))
    if single or fixed:
        v = v_logit * (p * (1 - p)) ** 2
    flags = ["single_cluster"] * single + ["boundary_fix"] * fixed
    return DirectEstimate(area, p, v, y, v_logit, n_c, flags)


def direct_estimates(frame):
    """Per-area Hajek estimates on the probability and logit scales.

    A 0/1 prevalence shrinks toward the survey-wide estimate by half a
    pseudo-observation at the area's mean weight.  A single-cluster area
    takes the median logit variance of the multi-cluster, interior-p areas
    (flag ``single_cluster``).  A multi-cluster variance below 1e-12 of the
    Kish binomial variance p(1 - p) / n_eff is raised to it, at any p, and
    p comes back through the logit.  Either repair flags ``boundary_fix``.
    Areas come out sorted by id.  A survey with no positive or no negative
    person raises :class:`NoDataError`.
    """
    # a stable sort lists each area's households in frame order, so every
    # per-area sum runs over the same sequence as a mask of the frame would
    order = np.argsort(frame.area_id, kind="stable")
    areas, starts = np.unique(frame.area_id[order], return_index=True)
    p_nat = hajek(frame)
    if not 0.0 < p_nat < 1.0:  # the shrink toward p_nat would leave a 0/1 p
        raise NoDataError(f"every tested person is "
                          f"{'positive' if p_nat else 'negative'}: no area "
                          f"estimate has a logit")
    raw = []
    for a, rows in zip(areas, np.split(order, starts[1:])):
        sub = frame.take(rows)
        p = hajek(sub)
        raw.append((a, sub, p, design_variance(sub, p),
                    len(np.unique(sub.cluster_id))))
    # logit-scale variances for multi-cluster, interior-p areas set the pool
    pool = [v / (p * (1 - p)) ** 2 for _, _, p, v, n_c in raw
            if n_c >= 2 and 0 < p < 1 and np.isfinite(v) and v > 0]
    pooled_v_logit = float(np.median(pool)) if pool else 1.0
    return [_area_estimate(*r, p_nat, pooled_v_logit) for r in raw]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_FRAME_COLS = ["cluster_id", "area_id", "x", "y", "household_id", "N", "Y",
               "weight"]


def write_frame_csv(path, frame):
    _write_csv(path, _FRAME_COLS,
               [frame.cluster_id, frame.area_id, frame.x, frame.y,
                frame.household_id, frame.n_members.astype(np.int64),
                frame.positives.astype(np.int64), frame.weight])


def read_frame_csv(path):
    """Read a frame CSV.  A malformed file, or one without a weight in
    every row, raises :class:`DataError` naming it."""
    with reading(path):
        cid, aid, x, y, hid, n, pos, w = _read_csv(path, _FRAME_COLS)
        if not cid:
            raise NoDataError("empty frame")
        x, y, n, pos, w = (list(map(float, c)) for c in (x, y, n, pos, w))
        return SurveyFrame(cluster_id=cid, area_id=aid, x=x, y=y,
                           household_id=hid, n_members=n, positives=pos,
                           weight=w)


def write_direct_estimates_csv(path, estimates):
    _write_csv(path, ["area_id", "p_hat", "v_star", "y_logit", "v_logit",
                      "n_clusters", "flags"],
               [[e.area_id for e in estimates],
                [float(e.p_hat) for e in estimates],
                [float(e.v_star) for e in estimates],
                [float(e.y_logit) for e in estimates],
                [float(e.v_logit) for e in estimates],
                [e.n_clusters for e in estimates],
                [";".join(e.flags) for e in estimates]])
