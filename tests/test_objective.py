import math

import numpy as np
import pytest

from helpers import (
    central_diff,
    is_stable,
    objective_pattern,
    oracle_gradient,
    random_dataset,
)
from topclf.data import Dataset, synth_example
from topclf.objective import ObjectiveSpec, evaluate, objective
from topclf.surrogate import HINGE, QUADRATIC_HINGE
from topclf.threshold import ThresholdRule, scores, threshold_scored

CONVEX_KINDS = [
    "top_push",
    "top_push_k",
    "top_mean",
    "top_mean_np",
    "surrogate_quantile",
    "surrogate_quantile_np",
]
TOP_K_KINDS = ["top_push", "top_push_k", "top_mean", "top_mean_np"]


def make_spec(kind, k=2, tau=0.4, beta=0.7, lam=0.0, loss=HINGE):
    rule = ThresholdRule(
        kind=kind,
        k=k if kind == "top_push_k" else None,
        tau=tau if kind not in ("top_push", "top_push_k") else None,
        beta=beta if kind.startswith("surrogate") else None,
    )
    return ObjectiveSpec(rule=rule, loss=loss, lam=lam)


class TestObjectiveSpec:
    def test_include_fp_follows_rule(self):
        assert make_spec("quantile").include_fp is True
        assert make_spec("top_push").include_fp is False

    def test_flag_is_not_settable(self):
        with pytest.raises(TypeError, match="include_fp"):
            ObjectiveSpec(rule=ThresholdRule("top_push"), include_fp=True)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            make_spec("top_push", lam=-1.0)


class TestObjectiveValues:
    def test_table_values_on_synthetic_data(self):
        d = synth_example(2000, seed=0)
        w1, w2 = np.zeros(2), np.array([1.0, 0.0])
        spec = make_spec("top_push")
        assert objective([spec], w1[None], d)[0] == 1.0
        assert objective([spec], w2[None], d)[0] == pytest.approx(2.5, abs=0.1)

    def test_patmat_closed_form(self):
        d = synth_example(2000, seed=1)
        tau, beta = 0.05, 0.01
        spec = make_spec("surrogate_quantile", tau=tau, beta=beta)
        f = objective([spec], np.array([[1.0, 0.0]]), d)[0]
        assert f == pytest.approx(0.5 + (1 - tau) / beta, abs=0.1)

    def test_regularizer_term(self):
        d = random_dataset(np.random.default_rng(1))
        w = np.ones(d.m)
        base = objective([make_spec("top_push")], w[None], d)[0]
        reg = objective([make_spec("top_push", lam=0.2)], w[None], d)[0]
        assert reg == pytest.approx(base + 0.1 * d.m, rel=1e-12)


class TestGradient:
    def test_vanishing_hinge_leaves_regularizer(self):
        # positive far above threshold: t - w.x < -1, all derivatives zero
        d = Dataset(np.array([[10.0], [0.0]]), [True, False])
        spec = make_spec("top_push", lam=0.5)
        w = np.array([1.0])
        np.testing.assert_allclose(evaluate([spec], w[None], d)[1][0], 0.5 * w)

    def test_hand_expanded_top_push_at_zero(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((6, 3))
        labels = np.array([True] * 5 + [False])
        d = Dataset(features, labels)
        g = evaluate([make_spec("top_push")], np.zeros((1, 3)), d)[1][0]
        x_neg = features[5]
        expected = (x_neg - features[:5]).mean(axis=0)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", CONVEX_KINDS)
    @pytest.mark.parametrize("loss", [HINGE, QUADRATIC_HINGE], ids=lambda l: l.kind)
    def test_matches_finite_differences_at_stable_points(self, kind, loss):
        rng = np.random.default_rng(5)
        spec = make_spec(kind, loss=loss, lam=0.01)
        h = 1e-6
        stable = matched = attempts = 0
        while stable < 40 and attempts < 400:
            attempts += 1
            d = random_dataset(rng, n=30, m=4)
            w = rng.uniform(-1, 1, d.m)
            if not is_stable(lambda v: objective_pattern(spec, v, d), w, h):
                continue
            stable += 1
            g = evaluate([spec], w[None], d)[1][0]
            fd = central_diff(lambda v: objective([spec], v[None], d)[0], w, h)
            if np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g)):
                matched += 1
        assert stable == 40
        assert matched >= 0.95 * stable

    def test_evaluate_consistent_with_parts(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng)
        spec = make_spec("surrogate_quantile", tau=0.3, beta=0.5, lam=0.05)
        w = rng.uniform(-1, 1, d.m)
        value, grad, tres = evaluate([spec], w[None], d)
        assert value == objective([spec], w[None], d)
        np.testing.assert_array_equal(grad, evaluate([spec], w[None], d)[1])
        assert tres.t == threshold_scored([spec.rule], scores(w[None], d), d).t


class TestConvexityOfObjective:
    @pytest.mark.parametrize("kind", CONVEX_KINDS)
    def test_random_triples(self, kind):
        rng = np.random.default_rng(11)
        spec = make_spec(kind)
        for _ in range(200):
            d = random_dataset(rng)
            w1 = rng.uniform(-1, 1, d.m)
            w2 = rng.uniform(-1, 1, d.m)
            lam = float(rng.uniform(0, 1))
            mix = objective([spec], (lam * w1 + (1 - lam) * w2)[None], d)[0]
            bound = (
                lam * objective([spec], w1[None], d)[0]
                + (1 - lam) * objective([spec], w2[None], d)[0]
            )
            assert mix <= bound + 1e-9


class TestZeroMinimumConditions:
    @pytest.mark.parametrize("kind", TOP_K_KINDS)
    def test_zero_beats_w_when_threshold_dominates_positive_mean(self, kind):
        rng = np.random.default_rng(13)
        spec = make_spec(kind)
        conditioned = 0
        for _ in range(300):
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            t = threshold_scored([spec.rule], scores(w, d)[None], d).t[0]
            pos_mean = scores(w, d)[d.pos_idx].mean()
            if t >= pos_mean:
                conditioned += 1
                f0 = objective([spec], np.zeros((1, d.m)), d)[0]
                assert f0 <= objective([spec], w[None], d)[0] + 1e-12
        assert conditioned > 100

    def test_top_mean_unconditional_when_positives_fill_quantile(self):
        # with n_pos >= ceil(n*tau) the top-mean threshold always dominates
        # the positive mean, so zero weights are a global minimum
        rng = np.random.default_rng(17)
        spec = make_spec("top_mean", tau=0.3)
        for _ in range(300):
            d = random_dataset(rng, n=40, pos_frac=0.6)
            if d.n_pos < math.ceil(d.n * 0.3):
                continue
            w = rng.uniform(-2, 2, d.m)
            f0 = objective([spec], np.zeros((1, d.m)), d)[0]
            assert f0 <= objective([spec], w[None], d)[0] + 1e-12

    @pytest.mark.parametrize("kind", TOP_K_KINDS)
    def test_score_mean_implications(self, kind):
        # hypothesis stated on sorted scores, independently of threshold_scored()
        rng = np.random.default_rng(19)
        tau = 0.4
        k = 2
        spec = make_spec(kind, k=k, tau=tau)
        conditioned = 0
        for _ in range(300):
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            z = scores(w, d)
            zn = np.sort(z[d.neg_idx])[::-1]
            pos_mean = z[d.pos_idx].mean()
            if kind == "top_push":
                lhs = zn[0]
            elif kind == "top_push_k":
                lhs = zn[:k].mean()
            elif kind == "top_mean_np":
                lhs = zn[: math.ceil(d.n_neg * tau)].mean()
            else:
                lhs = np.sort(z)[::-1][: math.ceil(d.n * tau)].mean()
            if lhs >= pos_mean:
                conditioned += 1
                f0 = objective([spec], np.zeros((1, d.m)), d)[0]
                assert f0 <= objective([spec], w[None], d)[0] + 1e-12
        assert conditioned > 100


def constructed_beta(z_all, pool_mean, tau):
    """Scaling parameter from the constructive no-zero-minimum argument."""
    z_min, z_max = float(z_all.min()), float(z_all.max())
    b1 = tau / (pool_mean - z_min) if pool_mean > z_min else np.inf
    b2 = (1.0 - tau) / (z_max - pool_mean) if z_max > pool_mean else np.inf
    return min(b1, b2)


class TestSurrogateQuantileEscapesZero:
    @pytest.mark.parametrize("kind", ["surrogate_quantile", "surrogate_quantile_np"])
    def test_constructed_beta_beats_zero(self, kind):
        rng = np.random.default_rng(23)
        tau = 0.3
        hits = 0
        while hits < 100:
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            z = scores(w, d)
            if z[d.pos_idx].mean() <= z[d.neg_idx].mean():
                w = -w
                z = -z
            if z[d.pos_idx].mean() <= z[d.neg_idx].mean():
                continue
            hits += 1
            pool = z if kind == "surrogate_quantile" else z[d.neg_idx]
            beta = constructed_beta(z, float(pool.mean()), tau)
            spec = make_spec(kind, tau=tau, beta=beta)
            assert objective([spec], w[None], d)[0] < objective([spec], np.zeros((1, d.m)), d)[0]


ALL_KINDS = CONVEX_KINDS + ["quantile", "quantile_np"]


class TestGradientOracle:
    """The single c @ X product against the gathered-row formula."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("loss", [HINGE, QUADRATIC_HINGE], ids=lambda l: l.kind)
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_matches_gathered_formula(self, kind, loss, lam):
        rng = np.random.default_rng(1009)
        spec = make_spec(kind, k=3, tau=0.3, beta=0.8, lam=lam, loss=loss)
        assert spec.include_fp == (kind in ("quantile", "quantile_np"))
        for _ in range(30):
            d = random_dataset(rng, n=int(rng.integers(30, 90)), m=4, pos_frac=rng.uniform(0.25, 0.75))
            w = rng.uniform(-2.0, 2.0, d.m)
            _, (grad,), _ = evaluate([spec], w[None], d)
            want = oracle_gradient(spec, w, d)
            assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)
