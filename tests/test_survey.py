"""Survey estimators: weights, Hajek, linearization variance, logits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prevmap.errors import DataError, NoDataError
from prevmap.survey import (DirectEstimate, SurveyFrame, design_variance,
                            design_weights, direct_estimates,
                            empirical_logit, hajek, read_frame_csv,
                            write_frame_csv, write_direct_estimates_csv)


def _frame(cluster, area, n, y, w, x=None):
    k = len(cluster)
    return SurveyFrame(
        cluster_id=np.asarray(cluster),
        area_id=np.asarray(area),
        x=np.zeros(k) if x is None else np.asarray(x, dtype=float),
        y=np.zeros(k),
        household_id=np.arange(k),
        n_members=np.asarray(n, dtype=float),
        positives=np.asarray(y, dtype=float),
        weight=np.asarray(w, dtype=float),
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_design_weights_paper_formula():
    w = design_weights(400, 46034, 4, 100)
    assert w == pytest.approx(1.0 / ((400 / 46034) * 0.04), rel=1e-12)
    assert w == pytest.approx(2877.125, abs=1e-3)


def test_design_weights_census_is_one():
    assert design_weights(10, 10, 100, 100) == pytest.approx(1.0)


def test_design_weights_inverse_in_m():
    w4 = design_weights(400, 46034, 4, 100)
    w8 = design_weights(400, 46034, 8, 100)
    assert w8 == pytest.approx(w4 / 2)


def test_design_weights_validation():
    with pytest.raises(ValueError):
        design_weights(0, 10, 1, 10)
    with pytest.raises(ValueError):
        design_weights(10, 10, 20, 10)


# ---------------------------------------------------------------------------
# Hajek
# ---------------------------------------------------------------------------

def test_hajek_equal_weights_is_pooled_proportion():
    fr = _frame([0, 0, 1, 1], ["a"] * 4, [5, 3, 4, 8], [1, 0, 2, 3],
                [7.0] * 4)
    assert hajek(fr) == pytest.approx(6 / 20)


def test_hajek_hand_case():
    fr = _frame([0, 1], ["a", "a"], [2, 2], [1, 0], [1.0, 3.0])
    assert hajek(fr) == pytest.approx(1 / 8)


def test_hajek_boundary_one():
    fr = _frame([0, 1], ["a", "a"], [3, 4], [3, 4], [2.0, 5.0])
    assert hajek(fr) == pytest.approx(1.0)


def test_hajek_empty_area_raises():
    fr = _frame([0], ["a"], [2], [1], [1.0])
    with pytest.raises(NoDataError):
        hajek(fr.take(fr.area_id == "b"))


def test_hajek_weight_scale_invariance():
    rng = np.random.default_rng(0)
    n = rng.integers(1, 10, 30)
    y = rng.binomial(n, 0.3)
    w = rng.uniform(0.5, 5, 30)
    fr1 = _frame(np.repeat(np.arange(10), 3), ["a"] * 30, n, y, w)
    fr2 = _frame(np.repeat(np.arange(10), 3), ["a"] * 30, n, y, w * 17.3)
    p1, p2 = hajek(fr1), hajek(fr2)
    assert p1 == pytest.approx(p2, rel=1e-12)
    v1 = design_variance(fr1, p1)
    v2 = design_variance(fr2, p2)
    assert v1 == pytest.approx(v2, rel=1e-12)


def _estimates_or_error(frame):
    try:
        return hajek(frame), direct_estimates(frame)
    except DataError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(households=st.lists(st.tuples(
    st.integers(0, 4), st.sampled_from(["a", "b", "c"]), st.integers(0, 6),
    st.floats(0, 1), st.sampled_from([0.5, 1.0, 3.0, 100.0])),
    min_size=1, max_size=12),
    scale=st.sampled_from([1.0, 17.3, 1e-3]), data=st.data())
def test_hajek_and_direct_estimates_ignore_row_order_and_weight_scale(
        households, scale, data):
    cluster, area, n, share, w = (np.array(c) for c in zip(*households))
    frame = _frame(cluster, area, n, np.floor(share * n), w)
    perm = np.array(data.draw(st.permutations(range(len(cluster)))))
    moved = _frame(cluster[perm], area[perm], n[perm],
                   np.floor(share * n)[perm], w[perm] * scale)
    got, want = _estimates_or_error(moved), _estimates_or_error(frame)
    if isinstance(want[0], type):  # a DataError, the same either way
        assert got == want
        return
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
    assert len(got[1]) == len(want[1])
    for g, e in zip(got[1], want[1]):
        assert (g.area_id, g.n_clusters, g.flags) == (e.area_id,
                                                      e.n_clusters, e.flags)
        np.testing.assert_allclose(
            [g.p_hat, g.v_star, g.y_logit, g.v_logit],
            [e.p_hat, e.v_star, e.y_logit, e.v_logit], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# design variance
# ---------------------------------------------------------------------------

def test_design_variance_identical_clusters_zero():
    fr = _frame([0, 1, 2], ["a"] * 3, [4, 4, 4], [1, 1, 1], [2.0] * 3)
    p = hajek(fr)
    assert design_variance(fr, p) == pytest.approx(0.0, abs=1e-15)


def test_design_variance_two_cluster_hand_computation():
    fr = _frame([0, 0, 1], ["a"] * 3, [2, 3, 4], [1, 2, 1], [1.0, 2.0, 3.0])
    p = hajek(fr)
    # hand linearization
    z0 = 1.0 * (1 - p * 2) + 2.0 * (2 - p * 3)
    z1 = 3.0 * (1 - p * 4)
    den = (1 * 2 + 2 * 3 + 3 * 4) ** 2
    zbar = (z0 + z1) / 2
    expected = 2 / 1 * ((z0 - zbar) ** 2 + (z1 - zbar) ** 2) / den
    assert design_variance(fr, p) == pytest.approx(expected, abs=1e-12)


def test_design_variance_single_cluster_flagged_nan():
    fr = _frame([0, 0], ["a"] * 2, [2, 3], [1, 1], [1.0, 1.0])
    p = hajek(fr)
    assert np.isnan(design_variance(fr, p))


def _simulate_two_stage(rng, n_clusters=400, p_area=0.15, icc_sd=0.3):
    """One replicate of a two-stage sample with cluster random effects."""
    m = rng.integers(4, 12, n_clusters)
    hh_cluster = np.repeat(np.arange(n_clusters), m)
    sizes = rng.integers(1, 13, len(hh_cluster))
    logit = np.log(p_area / (1 - p_area)) + rng.normal(0, icc_sd, n_clusters)
    p = 1 / (1 + np.exp(-logit))
    y = rng.binomial(sizes, p[hh_cluster])
    w = design_weights(n_clusters, 46034, m[hh_cluster], 100)
    return _frame(hh_cluster, ["a"] * len(hh_cluster), sizes, y, w)


def test_design_variance_against_cluster_bootstrap():
    rng = np.random.default_rng(42)
    fr = _simulate_two_stage(rng)
    p = hajek(fr)
    v = design_variance(fr, p)
    # cluster bootstrap with 2000 replicates
    clusters, inv = np.unique(fr.cluster_id, return_inverse=True)
    n_c = len(clusters)
    wy = np.zeros(n_c)
    wn = np.zeros(n_c)
    np.add.at(wy, inv, fr.weight * fr.positives)
    np.add.at(wn, inv, fr.weight * fr.n_members)
    boot_rng = np.random.default_rng(7)
    idx = boot_rng.integers(0, n_c, size=(2000, n_c))
    p_star = wy[idx].sum(axis=1) / wn[idx].sum(axis=1)
    v_boot = p_star.var(ddof=1)
    assert v == pytest.approx(v_boot, rel=0.15)


# ---------------------------------------------------------------------------
# empirical logit
# ---------------------------------------------------------------------------

def test_empirical_logit_paper_intercept():
    y, v = empirical_logit(0.07, 0.0)
    assert y == pytest.approx(np.log(0.07 / 0.93), rel=1e-12)
    assert y == pytest.approx(-2.5867, abs=1e-4)


def test_empirical_logit_delta_method():
    y, v = empirical_logit(0.5, 0.01)
    assert v == pytest.approx(0.01 / 0.0625, rel=1e-12)
    # delta-method identity: v_logit * (p(1-p))^2 == v_star
    for p, vs in [(0.3, 0.004), (0.9, 0.0002)]:
        yv, vv = empirical_logit(p, vs)
        assert vv * (p * (1 - p)) ** 2 == pytest.approx(vs, rel=1e-12)


def test_direct_estimates_repairs_pinned():
    # (cluster, area, N, Y, weight) per household
    rows = [
        # a: two clusters, no positives: shrunk toward the survey, floored
        (0, "a", 3, 0, 2.0), (0, "a", 2, 0, 6.0), (1, "a", 4, 0, 1.0),
        # b: two identical clusters at p = 1/14: zero variance, floored
        (2, "b", 2, 1, 1.0), (2, "b", 4, 0, 3.0),
        (3, "b", 2, 1, 1.0), (3, "b", 4, 0, 3.0),
        # c: one cluster at p = 3/8: the pooled logit variance
        (4, "c", 5, 2, 4.0), (4, "c", 3, 1, 4.0),
        # d: three clusters, the only area in the pool
        (5, "d", 4, 1, 2.0), (5, "d", 3, 2, 2.0), (6, "d", 5, 1, 3.0),
        (7, "d", 2, 0, 1.0),
        # e: one cluster, all positive: shrunk, pooled
        (8, "e", 2, 2, 5.0), (8, "e", 3, 3, 1.0),
    ]
    cluster, area, n, y, w = zip(*rows)
    fr = _frame(cluster, area, n, y, w)
    ests = {e.area_id: e for e in direct_estimates(fr)}
    p_nat = np.dot(w, y) / np.dot(w, n)
    p_d = hajek(fr.take(np.flatnonzero(fr.area_id == "d")))
    pooled = design_variance(fr.take(np.flatnonzero(fr.area_id == "d")),
                             p_d) / (p_d * (1 - p_d)) ** 2

    def logit(p):
        return np.log(p / (1 - p))

    # a: sum wN = 22 and mean weight 3 give half a pseudo-observation of
    # weight 1.5; Kish n_eff = 22^2 / (4*3 + 36*2 + 1*4) = 5.5
    p_a = 1.5 * p_nat / (22 + 1.5)
    a = ests["a"]
    assert a.flags == ["boundary_fix"]
    assert a.p_hat == pytest.approx(p_a, rel=1e-12)
    assert a.v_star == pytest.approx(p_a * (1 - p_a) / 5.5, rel=1e-12)
    assert a.y_logit == pytest.approx(logit(p_a), rel=1e-12)
    assert a.v_logit == pytest.approx(1 / (5.5 * p_a * (1 - p_a)), rel=1e-12)
    # b: an interior p keeps its value; n_eff = 28^2 / (2 * (2 + 36))
    b = ests["b"]
    assert b.flags == ["boundary_fix"]
    assert b.p_hat == pytest.approx(1 / 14, rel=1e-12)
    assert b.v_star == pytest.approx((1 / 14) * (13 / 14) / (784 / 76),
                                     rel=1e-12)
    for key, p, flags in (("c", 3 / 8, ["single_cluster"]),
                          ("e", (13 + 1.5 * p_nat) / (13 + 1.5),
                           ["single_cluster", "boundary_fix"])):
        e = ests[key]
        assert e.flags == flags and e.n_clusters == 1
        assert e.p_hat == pytest.approx(p, rel=1e-12)
        assert e.y_logit == pytest.approx(logit(p), rel=1e-12)
        assert e.v_logit == pytest.approx(pooled, rel=1e-12)
        assert e.v_star == pytest.approx(pooled * (p * (1 - p)) ** 2,
                                         rel=1e-12)
    assert ests["d"].flags == []
    assert ests["d"].v_logit == pytest.approx(pooled, rel=1e-12)


def test_empirical_logit_boundary_without_fix_raises():
    with pytest.raises(ValueError):
        empirical_logit(0.0, 0.0)


# ---------------------------------------------------------------------------
# direct estimates end to end
# ---------------------------------------------------------------------------

def test_direct_estimates_single_cluster_pooling():
    rng = np.random.default_rng(1)
    frames = []
    cluster = np.r_[np.repeat(np.arange(6), 4), [99, 99]]
    area = np.r_[np.repeat(["a", "b"], 12), ["c", "c"]]
    n = rng.integers(2, 8, len(cluster))
    y = rng.binomial(n, 0.3)
    fr = _frame(cluster, area, n, y, np.full(len(cluster), 3.0))
    ests = {e.area_id: e for e in direct_estimates(fr)}
    assert "single_cluster" in ests["c"].flags
    multi = [ests["a"].v_logit, ests["b"].v_logit]
    assert ests["c"].v_logit == pytest.approx(np.median(multi))


def test_direct_estimates_interleaved_areas_match_sub_frames():
    # the areas' households are interleaved, not contiguous rows
    rng = np.random.default_rng(3)
    cluster = np.tile(np.arange(9), 4)
    area = np.array(["c", "a", "b"])[cluster % 3]
    n = rng.integers(2, 8, len(cluster))
    fr = _frame(cluster, area, n, rng.binomial(n, 0.4),
                rng.uniform(1, 9, len(cluster)))
    ests = direct_estimates(fr)
    assert [e.area_id for e in ests] == ["a", "b", "c"]
    for e in ests:
        sub = fr.take(np.flatnonzero(fr.area_id == e.area_id))
        assert e.flags == [] and e.n_clusters == 3
        assert e.p_hat == hajek(sub)
        assert e.v_star == design_variance(sub, hajek(sub))


def test_direct_estimates_boundary_area_fixed():
    cluster = np.repeat(np.arange(4), 2)
    area = ["a"] * 4 + ["b"] * 4
    n = [3, 4, 2, 5, 3, 3, 4, 2]
    y = [0, 0, 0, 0, 1, 2, 1, 1]
    fr = _frame(cluster, area, n, y, np.full(8, 10.0))
    ests = {e.area_id: e for e in direct_estimates(fr)}
    assert "boundary_fix" in ests["a"].flags
    assert 0 < ests["a"].p_hat < 1
    assert np.isfinite(ests["a"].y_logit)
    assert ests["a"].v_logit > 0


def test_unbiasedness_and_coverage_finite_population():
    """Hajek unbiasedness and logit-interval coverage over 500 replicates
    of a two-stage sample from a fixed finite population."""
    rng = np.random.default_rng(2024)
    total_psu = 20000
    hh_per_ea = 100
    n_psu_sampled = 400
    n_areas = 4
    # finite population: household sizes and positive counts fixed once
    psu_area = np.repeat(np.arange(n_areas), total_psu // n_areas)
    pop_sizes = rng.integers(1, 13, size=(total_psu, hh_per_ea))
    p_by_area = np.array([0.05, 0.10, 0.20, 0.35])
    pop_pos = rng.binomial(pop_sizes, p_by_area[psu_area][:, None])
    true_p = np.array([
        pop_pos[psu_area == a].sum() / pop_sizes[psu_area == a].sum()
        for a in range(n_areas)])
    true_logit = np.log(true_p / (1 - true_p))

    reps = 500
    hits = np.zeros((reps, n_areas), dtype=bool)
    p_hats = np.zeros((reps, n_areas))
    for r in range(reps):
        psus = rng.choice(total_psu, size=n_psu_sampled, replace=False)
        m = rng.integers(4, 12, n_psu_sampled)
        rows_cluster = np.repeat(psus, m)
        rows_m = np.repeat(m, m)
        # sample m_i households WOR within each sampled PSU
        hh_ix = np.concatenate([
            rng.choice(hh_per_ea, size=mi, replace=False) for mi in m])
        n_mem = pop_sizes[rows_cluster, hh_ix].astype(float)
        pos = pop_pos[rows_cluster, hh_ix].astype(float)
        w = design_weights(n_psu_sampled, total_psu, rows_m, hh_per_ea)
        area = psu_area[rows_cluster]
        for a in range(n_areas):
            mask = area == a
            wy = float(np.sum(w[mask] * pos[mask]))
            wn = float(np.sum(w[mask] * n_mem[mask]))
            p_hat = wy / wn
            p_hats[r, a] = p_hat
            cl = rows_cluster[mask]
            resid = w[mask] * (pos[mask] - p_hat * n_mem[mask])
            clusters, inv = np.unique(cl, return_inverse=True)
            z = np.zeros(len(clusters))
            np.add.at(z, inv, resid)
            n_c = len(clusters)
            v = n_c / (n_c - 1) * np.sum((z - z.mean()) ** 2) / wn ** 2
            y_l = np.log(p_hat / (1 - p_hat))
            v_l = v / (p_hat * (1 - p_hat)) ** 2
            half = 1.959963985 * np.sqrt(v_l)
            hits[r, a] = (y_l - half) <= true_logit[a] <= (y_l + half)
    # unbiasedness: mean of p_hat within 3 MC standard errors of truth
    for a in range(n_areas):
        se = p_hats[:, a].std(ddof=1) / np.sqrt(reps)
        assert abs(p_hats[:, a].mean() - true_p[a]) < 3 * se
    coverage = hits.mean()
    assert 0.90 <= coverage <= 0.98


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

def test_frame_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    n = rng.integers(1, 9, 12)
    fr = _frame(np.repeat([0, 1, 2], 4), ["a"] * 6 + ["b"] * 6, n,
                rng.binomial(n, 0.2), rng.uniform(1, 9, 12),
                x=rng.random(12))
    path = tmp_path / "frame.csv"
    write_frame_csv(path, fr)
    back = read_frame_csv(path)
    assert np.allclose(back.weight, fr.weight)
    assert np.allclose(back.n_members, fr.n_members)
    assert list(back.area_id) == list(fr.area_id)


def test_direct_estimates_csv(tmp_path):
    ests = [DirectEstimate("a", 0.1, 0.001, -2.2, 0.12, 5, []),
            DirectEstimate("b", 0.2, 0.002, -1.4, 0.08, 1,
                           ["single_cluster"])]
    path = tmp_path / "direct.csv"
    write_direct_estimates_csv(path, ests)
    text = path.read_text()
    assert "single_cluster" in text
    assert text.startswith("area_id,")
