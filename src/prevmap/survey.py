"""Two-stage cluster survey machinery: weights, direct estimates, logits.

A frame holds one row per sampled household.  Design weights are the
reciprocal two-stage selection probabilities; prevalence is estimated per
area by the Hajek ratio with a with-replacement first-stage linearization
variance, then moved to the logit scale by the delta method.  Zero/one
prevalences get a pluggable boundary fix.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from ._csv import _write_csv
from .errors import DataError, NoDataError, reading

__all__ = [
    "SurveyFrame",
    "DirectEstimate",
    "design_weights",
    "hajek",
    "design_variance",
    "empirical_logit",
    "ShrinkFix",
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
        if np.any(self.positives < 0) or np.any(self.positives > self.n_members):
            raise ValueError("need 0 <= positives <= n_members")
        if np.any(self.weight <= 0):
            raise ValueError("weights must be positive")

    @property
    def num_households(self):
        return len(self.cluster_id)

    def areas(self):
        return np.unique(self.area_id)

    def area_mask(self, area_id):
        return self.area_id == area_id


@dataclass
class DirectEstimate:
    area_id: object
    p_hat: float
    v_star: float
    y_logit: float
    v_logit: float
    n_clusters: int
    flags: list = field(default_factory=list)


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


def hajek(frame, area_id):
    """Weighted prevalence p_hat = sum(w Y) / sum(w N) over an area."""
    mask = frame.area_mask(area_id)
    if not mask.any() or frame.n_members[mask].sum() == 0:
        raise NoDataError(f"area {area_id}: no sampled households with members")
    w = frame.weight[mask]
    num = float(np.sum(w * frame.positives[mask]))
    den = float(np.sum(w * frame.n_members[mask]))
    return num / den


def design_variance(frame, area_id, p_hat):
    """With-replacement first-stage linearization variance of the Hajek ratio.

    Cluster-level weighted residual totals z_i = sum_j w_ij (Y_ij - p N_ij)
    give v = [n_c/(n_c-1)] sum_i (z_i - zbar)^2 / (sum w N)^2.  Areas with a
    single cluster return NaN; the pooling rule lives in
    :func:`direct_estimates`.
    """
    mask = frame.area_mask(area_id)
    if not mask.any():
        raise NoDataError(f"area {area_id}: empty")
    cl = frame.cluster_id[mask]
    w = frame.weight[mask]
    resid = w * (frame.positives[mask] - p_hat * frame.n_members[mask])
    clusters, inv = np.unique(cl, return_inverse=True)
    n_c = len(clusters)
    if n_c < 2:
        return float("nan")
    z = np.zeros(n_c)
    np.add.at(z, inv, resid)
    den = float(np.sum(w * frame.n_members[mask])) ** 2
    zbar = z.mean()
    return float(n_c / (n_c - 1) * np.sum((z - zbar) ** 2) / den)


@dataclass
class ShrinkFix:
    """Boundary fix pulling p toward a reference mean with half a
    pseudo-observation at the average person weight.

    Applied only when p_hat is 0 or 1; the variance is floored at a
    binomial variance with the Kish effective sample size so the logit
    variance stays finite.
    """

    p_ref: float
    mean_weight: float
    n_eff: float

    def __call__(self, p_hat, v_star, sum_wn):
        fixed = False
        if p_hat <= 0.0 or p_hat >= 1.0:
            num = p_hat * sum_wn + 0.5 * self.mean_weight * self.p_ref
            den = sum_wn + 0.5 * self.mean_weight
            p_hat = num / den
            fixed = True
        floor = p_hat * (1 - p_hat) / max(self.n_eff, 1.0)
        if not np.isfinite(v_star) or v_star < floor * 1e-12 or (fixed and v_star <= 0):
            v_star = max(v_star if np.isfinite(v_star) else 0.0, floor)
            fixed = True
        return p_hat, v_star, fixed


def empirical_logit(p_hat, v_star, fix_policy=None, sum_wn=None):
    """Empirical logit and its delta-method variance.

    ``fix_policy`` (e.g. :class:`ShrinkFix`) repairs boundary estimates;
    without one, p_hat must lie strictly inside (0, 1).
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("p_hat must lie in [0, 1]")
    fixed = False
    if fix_policy is not None:
        p_hat, v_star, fixed = fix_policy(p_hat, v_star, sum_wn or 1.0)
    if p_hat <= 0.0 or p_hat >= 1.0:
        raise ValueError("boundary p_hat requires a fix policy")
    y = float(np.log(p_hat / (1.0 - p_hat)))
    v = float(v_star / (p_hat * (1.0 - p_hat)) ** 2)
    return y, v, fixed


def _kish_neff(w, n):
    # Kish effective person count: persons in household j share weight w_j
    sw = np.sum(w * n)
    sw2 = np.sum(w ** 2 * n)
    return sw ** 2 / sw2 if sw2 > 0 else 1.0


def direct_estimates(frame, fix_policy="shrink"):
    """Per-area Hajek estimates on the probability and logit scales.

    Single-cluster areas inherit the median logit variance of the
    multi-cluster areas and are flagged ``single_cluster``; boundary
    prevalences are repaired by the fix policy and flagged ``boundary_fix``.
    """
    areas = frame.areas()
    p_nat = hajek_all(frame)
    out = []
    raw = []
    for a in areas:
        mask = frame.area_mask(a)
        p = hajek(frame, a)
        v = design_variance(frame, a, p)
        n_c = len(np.unique(frame.cluster_id[mask]))
        raw.append((a, p, v, n_c, mask))
    # logit-scale variances for multi-cluster, interior-p areas set the pool
    pool = []
    for a, p, v, n_c, mask in raw:
        if n_c >= 2 and 0 < p < 1 and np.isfinite(v) and v > 0:
            pool.append(v / (p * (1 - p)) ** 2)
    pooled_v_logit = float(np.median(pool)) if pool else 1.0
    for a, p, v, n_c, mask in raw:
        flags = []
        w = frame.weight[mask]
        n = frame.n_members[mask]
        sum_wn = float(np.sum(w * n))
        policy = None
        if fix_policy == "shrink":
            policy = ShrinkFix(p_ref=p_nat, mean_weight=float(np.mean(w)),
                               n_eff=_kish_neff(w, n))
        elif fix_policy not in (None, "none"):
            policy = fix_policy
        if n_c < 2 or not np.isfinite(v):
            flags.append("single_cluster")
            p_fix = p
            if policy is not None and (p <= 0 or p >= 1):
                p_fix, _, _ = policy(p, 0.0, sum_wn)
                flags.append("boundary_fix")
            y = float(np.log(p_fix / (1 - p_fix)))
            v_logit = pooled_v_logit
            v_use = v_logit * (p_fix * (1 - p_fix)) ** 2
            out.append(DirectEstimate(a, p_fix, v_use, y, v_logit, n_c, flags))
            continue
        y, v_logit, fixed = empirical_logit(p, v, policy, sum_wn)
        if fixed:
            flags.append("boundary_fix")
            p = 1.0 / (1.0 + np.exp(-y))
            v = v_logit * (p * (1 - p)) ** 2
        out.append(DirectEstimate(a, p, v, y, v_logit, n_c, flags))
    return out


def hajek_all(frame):
    """Weighted prevalence pooled over the whole frame."""
    return float(np.sum(frame.weight * frame.positives)
                 / np.sum(frame.weight * frame.n_members))


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


def read_frame_csv(path, design=None):
    """Read a frame CSV; the weight column may be omitted when ``design``
    supplies (num_psu_sampled, total_psu, households_per_ea).  A malformed
    file raises :class:`DataError` naming it."""
    with reading(path):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            has_w = "weight" in (reader.fieldnames or [])
            rows = list(reader)
        if not rows:
            raise NoDataError(f"{path}: empty frame")
        if not has_w or any(not r.get("weight") for r in rows):
            if design is None:
                raise DataError(f"{path}: frame has no weights and no "
                                f"design was given")
            num_psu, total_psu, hh_per_ea = design
            m_by_cluster = {}
            for r in rows:
                m_by_cluster[r["cluster_id"]] = \
                    m_by_cluster.get(r["cluster_id"], 0) + 1
            weights = np.array([
                design_weights(num_psu, total_psu,
                               m_by_cluster[r["cluster_id"]], hh_per_ea)
                for r in rows])
        else:
            weights = np.array([float(r["weight"]) for r in rows])
        return SurveyFrame(
            cluster_id=np.array([r["cluster_id"] for r in rows]),
            area_id=np.array([r["area_id"] for r in rows]),
            x=np.array([float(r["x"]) for r in rows]),
            y=np.array([float(r["y"]) for r in rows]),
            household_id=np.array([r["household_id"] for r in rows]),
            n_members=np.array([float(r["N"]) for r in rows]),
            positives=np.array([float(r["Y"]) for r in rows]),
            weight=weights,
        )


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
