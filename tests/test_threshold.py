import math

import numpy as np
import pytest

from helpers import (
    active_pattern,
    brute_force_quantile,
    central_diff,
    grid_solve,
    is_stable,
    oracle_surrogate_quantile,
    oracle_top_k_mean,
    random_dataset,
    tied_integer_dataset,
)
from topclf.data import Dataset, synth_example
from topclf.surrogate import HINGE, QUADRATIC_HINGE
from topclf.threshold import (
    NEGATIVE_KINDS,
    ThresholdRule,
    exact_quantile,
    rule_from_token,
    scores,
    surrogate_quantile,
    threshold,
    threshold_scored,
    top_k_mean,
)

GRAD_KINDS = [
    "top_push",
    "top_push_k",
    "top_mean",
    "top_mean_np",
    "surrogate_quantile",
    "surrogate_quantile_np",
]
CONVEX_KINDS = GRAD_KINDS


def make_rule(kind, k=2, tau=0.4, beta=0.7):
    return ThresholdRule(
        kind=kind,
        k=k if kind == "top_push_k" else None,
        tau=tau if kind not in ("top_push", "top_push_k") else None,
        beta=beta if kind.startswith("surrogate") else None,
    )


class TestScores:
    def test_zero_weights(self):
        d = random_dataset(np.random.default_rng(0))
        assert np.all(scores(np.zeros(d.m), d) == 0.0)

    def test_outlier_score(self):
        d = synth_example(100, seed=0)
        z = scores(np.array([1.0, 0.0]), d)
        assert z.max() == 2.0

    def test_plain_dot(self):
        d = Dataset(np.array([[0.5, -0.5]]), [True])
        assert scores(np.array([1.0, 1.0]), d)[0] == 0.0

    def test_dimension_mismatch(self):
        d = random_dataset(np.random.default_rng(0), m=3)
        with pytest.raises(ValueError, match="shape"):
            scores(np.zeros(4), d)


class TestTopKMean:
    def test_mean_of_two_largest(self):
        mean, support = top_k_mean(np.array([0.5, 2.0, 1.0]), 2)
        assert mean == 1.5
        assert sorted(support.tolist()) == [1, 2]

    def test_k_one_is_max(self):
        mean, support = top_k_mean(np.array([0.5, 2.0, 1.0]), 1)
        assert mean == 2.0 and support.tolist() == [1]

    def test_ties_take_lowest_indices(self):
        mean, support = top_k_mean(np.array([1.0, 1.0, 1.0]), 2)
        assert mean == 1.0
        assert support.tolist() == [0, 1]

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k must be"):
            top_k_mean(np.array([1.0]), 2)


class TestExactQuantile:
    def test_worked_case(self):
        # oracle: brute force over candidate thresholds with the count rule
        values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        assert brute_force_quantile(values, 0.4) == 4.0
        assert exact_quantile(values, 0.4) == 4.0

    def test_smallest_tau_gives_max(self):
        values = np.array([3.0, 7.0, 5.0])
        assert exact_quantile(values, 0.1) == 7.0

    def test_constant_vector(self):
        assert exact_quantile(np.full(9, 2.5), 0.5) == 2.5

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            values = np.round(rng.normal(size=n), 2)
            tau = float(rng.uniform(0.01, 1.0))
            assert exact_quantile(values, tau) == brute_force_quantile(values, tau)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            exact_quantile(np.array([]), 0.5)


class TestSurrogateQuantile:
    def test_zero_scores_closed_form(self):
        t = surrogate_quantile(np.zeros(50), tau=0.2, beta=0.1)
        assert t == (1.0 - 0.2) / 0.1
        assert t == 8.0

    def test_zero_scores_unit_beta(self):
        assert surrogate_quantile(np.zeros(10), tau=0.5, beta=1.0) == 0.5

    def test_two_point_case_vs_grid_search(self):
        values = np.array([1.0, -1.0])

        def residual(t):
            return np.mean(np.maximum(0.0, 1.0 + (values - t))) - 0.5

        oracle = grid_solve(residual, -3.0, 3.0)
        t = surrogate_quantile(values, tau=0.5, beta=1.0)
        assert abs(t - 1.0) < 1e-8
        assert abs(t - oracle) < 1e-6

    @pytest.mark.parametrize("loss", [HINGE, QUADRATIC_HINGE], ids=lambda l: l.kind)
    def test_residual_tolerance_random(self, loss):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            values = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
            tau = float(rng.uniform(0.05, 0.95))
            beta = float(10.0 ** rng.uniform(-2, 1))
            t = surrogate_quantile(values, tau, beta, loss)
            residual = np.mean(loss.value(beta * (values - t))) - tau
            assert abs(residual) <= 1e-10 * max(1.0, tau)

    @pytest.mark.parametrize("loss", [HINGE, QUADRATIC_HINGE], ids=lambda l: l.kind)
    def test_matches_bisection_oracle(self, loss):
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 300))
            values = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
            tau = float(rng.uniform(0.01, 0.95))
            beta = float(10.0 ** rng.uniform(-3, 1))
            cases.append((values, tau, beta, None))
        for tau in (0.1, 0.2, 0.5):
            for beta in (0.05, 1.0, 10.0):
                values = tied_integer_dataset(rng, 40, tau).features[:, 0]
                cases.append((values, tau, beta, None))
        cases += [
            (rng.normal(scale=0.01, size=50), 0.9, 1.0, 50),  # every sample active
            (np.r_[5.0, np.zeros(9)], 0.05, 1.0, 1),  # only the top score active
            (rng.normal(size=100), 0.1, 10.0, None),
        ]
        for values, tau, beta, active in cases:
            t = surrogate_quantile(values, tau, beta, loss)
            oracle = oracle_surrogate_quantile(values, tau, beta, loss)
            assert abs(t - oracle) <= 1e-9 * max(1.0, abs(oracle))
            if active is not None:
                assert np.count_nonzero(beta * (values - t) > -1.0) == active

    def test_quadratic_scan_ignores_score_offset(self):
        values = np.random.default_rng(17).normal(size=2000)
        for tau, beta in ((0.05, 1.0), (0.01, 10.0)):
            t = surrogate_quantile(values, tau, beta, QUADRATIC_HINGE)
            shifted = surrogate_quantile(values + 1e8, tau, beta, QUADRATIC_HINGE)
            assert abs(shifted - 1e8 - t) <= 1e-6

    def test_solution_unique_and_monotone_in_tau(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=30)
        ts = [surrogate_quantile(values, tau, 0.5) for tau in (0.1, 0.3, 0.5, 0.7)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            surrogate_quantile(np.ones(3), tau=0.0, beta=1.0)
        with pytest.raises(ValueError):
            surrogate_quantile(np.ones(3), tau=0.5, beta=0.0)


class TestRuleValidation:
    def test_top_push_is_top_push_k_with_k_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            a = threshold(ThresholdRule("top_push"), w, d)
            b = threshold(ThresholdRule("top_push_k", k=1), w, d)
            assert a.t == b.t
            assert np.array_equal(a.support, b.support)

    def test_parameter_requirements(self):
        with pytest.raises(ValueError, match="tau"):
            ThresholdRule("top_mean")
        with pytest.raises(ValueError, match="beta"):
            ThresholdRule("surrogate_quantile", tau=0.3)
        with pytest.raises(ValueError, match="positive integer k"):
            ThresholdRule("top_push_k")
        with pytest.raises(ValueError, match="no k"):
            ThresholdRule("quantile", k=2, tau=0.3)

    def test_token_mapping(self):
        assert rule_from_token("toppush").kind == "top_push"
        assert rule_from_token("patmat-np", tau=0.1, beta=2.0).kind == "surrogate_quantile_np"
        with pytest.raises(ValueError, match="unknown method"):
            rule_from_token("svm")


class TestDispatch:
    def test_top_push_finds_outlier(self):
        d = synth_example(500, seed=2)
        res = threshold(ThresholdRule("top_push"), np.array([1.0, 0.0]), d)
        assert res.t == 2.0
        assert d.features[res.support[0]].tolist() == [2.0, 0.0]

    def test_surrogate_quantile_at_zero_weights(self):
        d = random_dataset(np.random.default_rng(1), n=40, m=3)
        rule = ThresholdRule("surrogate_quantile", tau=0.25, beta=0.5)
        res = threshold(rule, np.zeros(3), d)
        assert res.t == pytest.approx((1 - 0.25) / 0.5, abs=1e-12)
        grad_t = res.weights @ d.features[res.support]
        np.testing.assert_allclose(grad_t, d.features.mean(axis=0))

    def test_top_push_k_support_mean(self):
        features = np.array([[3.0], [1.0], [2.0], [9.0]])
        labels = np.array([False, False, False, True])
        d = Dataset(features, labels)
        res = threshold(ThresholdRule("top_push_k", k=2), np.array([1.0]), d)
        assert res.t == 2.5
        grad_t = res.weights @ d.features[res.support]
        np.testing.assert_allclose(grad_t, [(3.0 + 2.0) / 2])

    def test_quantile_gradient_is_zero(self):
        d = random_dataset(np.random.default_rng(2))
        for kind in ("quantile", "quantile_np"):
            res = threshold(make_rule(kind), np.ones(d.m), d)
            assert np.all(res.weights @ d.features[res.support] == 0.0)
            assert res.support.size >= 1

    def test_np_kinds_use_negatives_only(self):
        features = np.array([[100.0], [0.0], [1.0], [2.0]])
        labels = np.array([True, False, False, False])
        d = Dataset(features, labels)
        res = threshold(ThresholdRule("top_mean_np", tau=0.5), np.array([1.0]), d)
        # ceil(3 * 0.5) = 2 largest negative scores: 2 and 1
        assert res.t == 1.5

    def test_k_exceeding_negatives(self):
        d = random_dataset(np.random.default_rng(3), n=10)
        with pytest.raises(ValueError, match="exceeds"):
            threshold(ThresholdRule("top_push_k", k=d.n_neg + 1), np.ones(d.m), d)

    def test_tau_pool_too_small(self):
        d = random_dataset(np.random.default_rng(4), n=12)
        with pytest.raises(ValueError, match="tau"):
            threshold(ThresholdRule("top_mean", tau=0.01), np.ones(d.m), d)


class TestConvexityAndScaling:
    @pytest.mark.parametrize("kind", CONVEX_KINDS)
    def test_threshold_convex_in_w(self, kind):
        rng = np.random.default_rng(17)
        rule = make_rule(kind)
        for _ in range(200):
            d = random_dataset(rng)
            w1 = rng.uniform(-1, 1, d.m)
            w2 = rng.uniform(-1, 1, d.m)
            lam = float(rng.uniform(0, 1))
            mix = threshold(rule, lam * w1 + (1 - lam) * w2, d).t
            bound = lam * threshold(rule, w1, d).t + (1 - lam) * threshold(rule, w2, d).t
            assert mix <= bound + 1e-9

    @pytest.mark.parametrize(
        "kind", ["top_push", "top_push_k", "top_mean", "top_mean_np", "quantile", "quantile_np"]
    )
    def test_positive_homogeneity(self, kind):
        rng = np.random.default_rng(19)
        rule = make_rule(kind)
        for _ in range(100):
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            c = float(rng.uniform(0.1, 5.0))
            t1 = threshold(rule, w, d).t
            tc = threshold(rule, c * w, d).t
            assert tc == pytest.approx(c * t1, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["quantile", "quantile_np"])
    def test_exact_quantile_lipschitz(self, kind):
        rng = np.random.default_rng(23)
        rule = make_rule(kind)
        for _ in range(200):
            d = random_dataset(rng)
            pool = d.neg_idx if kind == "quantile_np" else np.arange(d.n)
            L = float(np.linalg.norm(d.features[pool], axis=1).max())
            w1 = rng.uniform(-2, 2, d.m)
            w2 = rng.uniform(-2, 2, d.m)
            dt = abs(threshold(rule, w1, d).t - threshold(rule, w2, d).t)
            assert dt <= L * np.linalg.norm(w1 - w2) + 1e-12


def all_thresholds(w, d, k, tau, beta):
    out = {}
    for kind in (
        "top_push",
        "top_push_k",
        "quantile",
        "quantile_np",
        "surrogate_quantile",
        "surrogate_quantile_np",
        "top_mean",
        "top_mean_np",
    ):
        out[kind] = threshold(make_rule(kind, k=k, tau=tau, beta=beta), w, d).t
    return out


class TestOrderings:
    def test_chain_on_random_data(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = random_dataset(rng, n=int(rng.integers(20, 60)))
            tau = float(rng.uniform(0.2, 0.8))
            k_cap = math.ceil(d.n_neg * tau)
            k = int(rng.integers(1, k_cap + 1))
            beta = float(10.0 ** rng.uniform(-1.5, 0.5))
            w = rng.uniform(-1, 1, d.m)
            t = all_thresholds(w, d, k, tau, beta)
            eps = 1e-9
            assert t["top_push"] >= t["top_push_k"] - eps
            assert t["top_push_k"] >= t["top_mean_np"] - eps
            assert t["surrogate_quantile"] >= t["top_mean"] - eps
            assert t["top_mean"] >= t["quantile"] - eps
            assert t["surrogate_quantile_np"] >= t["top_mean_np"] - eps
            assert t["top_mean_np"] >= t["quantile_np"] - eps

    def test_np_comparison_under_hypothesis(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(400):
            d = random_dataset(rng, n=int(rng.integers(20, 60)))
            tau = float(rng.uniform(0.2, 0.8))
            w = rng.uniform(-1, 1, d.m)
            z = scores(w, d)
            zp = np.sort(z[d.pos_idx])[::-1]
            zn = np.sort(z[d.neg_idx])[::-1]
            kp = math.ceil(d.n_pos * tau)
            kn = math.ceil(d.n_neg * tau)
            t = all_thresholds(w, d, 1, tau, 1.0)
            if zp[kp - 1] > zn[kn - 1]:
                assert t["quantile"] >= t["quantile_np"] - 1e-12
                checked += 1
            if zp[:kp].mean() > zn[:kn].mean():
                assert t["top_mean"] > t["top_mean_np"]
        assert checked > 50

    def test_quantile_np_strict_on_constructed_data(self):
        # positives score in (5, 10), negatives in (-5, 0): with tau = 0.3
        # the overall quantile ceil(30*0.3) = 9 <= 20 lands on a positive
        # score, strictly above every negative
        rng = np.random.default_rng(37)
        pos = rng.uniform(5.0, 10.0, 20)
        neg = rng.uniform(-5.0, 0.0, 10)
        features = np.concatenate([pos, neg])[:, None]
        labels = np.array([True] * 20 + [False] * 10)
        d = Dataset(features, labels)
        w = np.array([1.0])
        tau = 0.3
        t_q = threshold(make_rule("quantile", tau=tau), w, d).t
        t_np = threshold(make_rule("quantile_np", tau=tau), w, d).t
        z = scores(w, d)
        zp = np.sort(z[d.pos_idx])[::-1]
        zn = np.sort(z[d.neg_idx])[::-1]
        assert zp[math.ceil(20 * tau) - 1] > zn[math.ceil(10 * tau) - 1]
        assert t_q > t_np


class TestThresholdGradient:
    @pytest.mark.parametrize("kind", GRAD_KINDS)
    @pytest.mark.parametrize("loss", [HINGE, QUADRATIC_HINGE], ids=lambda l: l.kind)
    def test_matches_finite_differences_at_stable_points(self, kind, loss):
        rng = np.random.default_rng(41)
        rule = make_rule(kind)
        h = 1e-6
        stable_checked = 0
        matched = 0
        attempts = 0
        while stable_checked < 40 and attempts < 400:
            attempts += 1
            d = random_dataset(rng, n=30, m=4)
            w = rng.uniform(-1, 1, d.m)
            if not is_stable(lambda v: active_pattern(rule, v, d, loss), w, h):
                continue
            stable_checked += 1
            res = threshold(rule, w, d, loss)
            grad = res.weights @ d.features[res.support]
            fd = central_diff(lambda v: threshold(rule, v, d, loss).t, w, h)
            if np.linalg.norm(fd - grad) <= 1e-4 * max(1.0, np.linalg.norm(grad)):
                matched += 1
        assert stable_checked == 40
        assert matched >= 0.95 * stable_checked

    def test_support_feature_mean_for_top_k(self):
        rng = np.random.default_rng(43)
        d = random_dataset(rng, n=25, m=3)
        res = threshold(ThresholdRule("top_push_k", k=3), rng.uniform(-1, 1, 3), d)
        grad_t = res.weights @ d.features[res.support]
        np.testing.assert_allclose(grad_t, d.features[res.support].mean(axis=0))


def tied_scores_dataset(rng, n):
    """One integer feature in [-3, 3], so scores at w = 1 tie heavily."""
    labels = rng.random(n) < 0.5
    labels[:3] = (True, False, False)
    return Dataset(rng.integers(-3, 4, size=(n, 1)).astype(float), labels)


class TestTopKMeanOracle:
    """Linear-time selection against the full stable sort, bit for bit."""

    @staticmethod
    def tie_position(values, k):
        """Where k ends relative to the tie block of the k-th largest value."""
        top = np.sort(values)[::-1]
        block = np.flatnonzero(top == top[k - 1])
        if block.size > 1:
            return "at" if k == block[-1] + 1 else "inside"
        if k >= 3 and top[k - 2] == top[k - 3]:
            return "past"
        return "untied"

    def test_matches_stable_sort_on_tied_integers(self):
        rng = np.random.default_rng(2014)
        seen = {"at": 0, "inside": 0, "past": 0, "untied": 0}
        for _ in range(80):
            n = int(rng.integers(1, 40))
            values = rng.integers(-3, 4, size=n).astype(float)
            # mix signed zeros into the ties
            values = np.where(rng.random(n) < 0.5, -values, values)
            for k in range(1, n + 1):
                seen[self.tie_position(values, k)] += 1
                mean, support = top_k_mean(values, k)
                want_mean, want_support = oracle_top_k_mean(values, k)
                assert np.float64(mean).tobytes() == np.float64(want_mean).tobytes()
                assert support.dtype == want_support.dtype
                assert np.array_equal(support, want_support)
        assert min(seen.values()) >= 20

    @pytest.mark.parametrize("kind", ["top_push", "top_push_k", "top_mean", "top_mean_np"])
    def test_threshold_support_matches_stable_sort(self, kind):
        rng = np.random.default_rng(17)
        rule = make_rule(kind, k=3, tau=0.3)
        for _ in range(40):
            d = tied_scores_dataset(rng, n=int(rng.integers(12, 60)))
            z = d.features[:, 0].copy()
            res = threshold_scored(rule, z, d)
            sel = d.neg_idx if kind in NEGATIVE_KINDS else np.arange(d.n)
            k = {"top_push": 1, "top_push_k": 3}.get(kind, math.ceil(0.3 * sel.size))
            want_t, local = oracle_top_k_mean(z[sel], k)
            assert np.float64(res.t).tobytes() == np.float64(want_t).tobytes()
            assert np.array_equal(res.support, sel[local])
            assert np.array_equal(res.weights, np.full(k, 1.0 / k))

