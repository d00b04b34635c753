import math

import numpy as np
import pytest

from helpers import random_dataset, tied_integer_dataset
from topclf.data import Dataset
from topclf.evaluation import (
    Counts,
    build_report,
    counts,
    criterion,
    pr_curve,
    precision_recall,
    ptau_curve,
    write_curve_csv,
)
from topclf.threshold import exact_quantile, scores


def dataset_from_scores(pos_scores, neg_scores):
    """One-feature dataset whose scores under w = (1,) are the given values."""
    values = list(pos_scores) + list(neg_scores)
    labels = [True] * len(pos_scores) + [False] * len(neg_scores)
    return Dataset(np.array(values, dtype=float)[:, None], np.array(labels))


W1 = np.array([1.0])


def brute_counts(w, t, d):
    z = scores(w, d)
    tp = sum(1 for i in d.pos_idx if z[i] >= t)
    fn = sum(1 for i in d.pos_idx if z[i] < t)
    tn = sum(1 for i in d.neg_idx if z[i] < t)
    fp = sum(1 for i in d.neg_idx if z[i] >= t)
    q = sum(1 for zi in z if zi == t)
    return Counts(tp=tp, fn=fn, tn=tn, fp=fp, q=q)


def brute_pr_curve(w, d):
    z = scores(w, d)
    best = {}
    for t in sorted(set(z), reverse=True):
        c = brute_counts(w, t, d)
        p, r = precision_recall(c)
        if r not in best or p > best[r]:
            best[r] = p
    return sorted(best.items())


class TestCounts:
    def test_all_zero_scores(self):
        d = random_dataset(np.random.default_rng(0))
        c = counts(np.zeros(d.m), 0.0, d)
        assert (c.tp, c.fp, c.fn, c.tn, c.q) == (d.n_pos, d.n_neg, 0, 0, d.n)

    def test_mixed_case(self):
        d = dataset_from_scores([1.0, -1.0], [0.5, -0.5])
        c = counts(W1, 0.0, d)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_nothing_above_max(self):
        d = dataset_from_scores([1.0, 2.0], [0.0])
        c = counts(W1, 3.0, d)
        assert c.tp == 0 and c.fp == 0

    def test_class_totals_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_dataset(rng, n=int(rng.integers(5, 30)))
            c = counts(rng.uniform(-1, 1, d.m), float(rng.normal()), d)
            assert c.tp + c.fn == d.n_pos
            assert c.tn + c.fp == d.n_neg

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = random_dataset(rng, n=int(rng.integers(4, 13)))
            w = rng.uniform(-1, 1, d.m)
            t = float(rng.normal())
            assert counts(w, t, d) == brute_counts(w, t, d)


class TestPrecisionRecall:
    def test_arithmetic(self):
        assert precision_recall(Counts(tp=3, fn=2, tn=0, fp=1, q=0)) == (0.75, 0.6)

    def test_vacuous_precision(self):
        p, _ = precision_recall(Counts(tp=0, fn=2, tn=1, fp=0, q=0))
        assert p == 1.0

    def test_perfect_recall(self):
        _, r = precision_recall(Counts(tp=5, fn=0, tn=1, fp=1, q=0))
        assert r == 1.0


class TestPtauCurve:
    def test_separated_data_has_unit_precision(self):
        d = dataset_from_scores([3.0, 2.0], [1.0, 0.0, -1.0])
        pts = ptau_curve(W1, d, [0.2, 0.4])
        assert all(p == 1.0 for _, p in pts)

    def test_tau_one_gives_base_rate(self):
        d = dataset_from_scores([3.0, 2.0], [1.0, 0.0, -1.0])
        (_, p), = ptau_curve(W1, d, [1.0])
        assert p == 2 / 5

    def test_shuffled_labels_hit_base_rate(self):
        rng = np.random.default_rng(3)
        n, n_pos = 2000, 800
        labels = np.zeros(n, bool)
        labels[rng.choice(n, n_pos, replace=False)] = True
        d = Dataset(rng.standard_normal((n, 1)), labels)
        p_base = n_pos / n
        for tau, prec in ptau_curve(W1, d, [0.1, 0.3, 0.7]):
            k = math.ceil(tau * n)
            sigma = math.sqrt(k * p_base * (1 - p_base) * (n - k) / (n - 1)) / k
            assert abs(prec - p_base) <= max(3 * sigma, 1e-9)

    def test_taus_must_increase(self):
        d = dataset_from_scores([1.0], [0.0])
        with pytest.raises(ValueError, match="increasing"):
            ptau_curve(W1, d, [0.5, 0.5])


class TestPrCurve:
    def test_separated_contains_perfect_point(self):
        d = dataset_from_scores([3.0, 2.0], [1.0, 0.0])
        assert (1.0, 1.0) in pr_curve(W1, d)

    def test_single_positive_ranked_last(self):
        d = dataset_from_scores([-5.0], [1.0, 2.0, 3.0])
        pts = dict(pr_curve(W1, d))
        assert pts[1.0] == 1 / 4

    def test_recalls_strictly_increasing(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, n=25)
        recalls = [r for r, _ in pr_curve(rng.uniform(-1, 1, d.m), d)]
        assert all(b > a for a, b in zip(recalls, recalls[1:]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = random_dataset(rng, n=20)
            w = rng.uniform(-1, 1, d.m)
            assert pr_curve(w, d) == brute_pr_curve(w, d)
        for _ in range(100):
            # integer scores with many ties, zero weights and one-class data
            n = int(rng.integers(1, 30))
            z = rng.integers(-3, 4, n).astype(float)
            d = Dataset(z[:, None], rng.random(n) < rng.choice([0.0, 0.3, 1.0]))
            for w in (W1, np.zeros(1)):
                got = pr_curve(w, d)
                assert got == brute_pr_curve(w, d)
                assert all(type(x) is float for point in got for x in point)


class TestCriterion:
    def test_separated_positives_at_top(self):
        d = dataset_from_scores([3.0, 2.0], [1.0, 0.0])
        assert criterion("positives_at_top", W1, d) == 1.0

    def test_zero_weights_tie_everywhere(self):
        d = random_dataset(np.random.default_rng(6))
        assert criterion("positives_at_quantile", np.zeros(d.m), d, 0.3) == 1.0

    def test_boundary_negative_included(self):
        d = dataset_from_scores([3.0, 1.0], [2.0, 0.0])
        assert criterion("positives_at_top", W1, d) == 0.5

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(7)
        for kind in ("positives_at_quantile", "positives_at_np"):
            for _ in range(50):
                d = random_dataset(rng, n=30)
                w = rng.uniform(-1, 1, d.m)
                values = [criterion(kind, w, d, tau) for tau in (0.1, 0.3, 0.5, 0.9)]
                assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_brute_force_thresholds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = random_dataset(rng, n=int(rng.integers(4, 13)))
            if d.n_neg == 0:
                continue
            w = rng.uniform(-1, 1, d.m)
            z = scores(w, d)
            tau = float(rng.uniform(0.05, 0.95))
            t_top = max(z[i] for i in d.neg_idx)
            expect = sum(1 for i in d.pos_idx if z[i] >= t_top) / d.n_pos
            assert criterion("positives_at_top", w, d) == expect
            t_q = exact_quantile(z, tau)
            expect = sum(1 for i in d.pos_idx if z[i] >= t_q) / d.n_pos
            assert criterion("positives_at_quantile", w, d, tau) == expect

    def test_requires_tau(self):
        d = dataset_from_scores([1.0], [0.0])
        with pytest.raises(ValueError, match="tau"):
            criterion("positives_at_np", W1, d)

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.5])
    def test_tau_outside_unit_interval_rejected(self, tau):
        d = dataset_from_scores([1.0], [0.0])
        for kind in ("positives_at_quantile", "positives_at_np"):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                criterion(kind, W1, d, tau)

    def test_tau_one_is_the_whole_pool(self):
        d = dataset_from_scores([3.0, -1.0], [0.0, 1.0])
        assert criterion("positives_at_quantile", W1, d, 1.0) == 1.0


class TestQuantileCountIdentity:
    def test_exact_identity_with_forced_ties(self):
        rng = np.random.default_rng(9)
        alphas = (0.0, 0.25, 0.5, 1.0)
        for _ in range(100):
            n = int(rng.choice([10, 20, 40]))
            tau = float(rng.choice([0.1, 0.2, 0.5]))
            if n * tau != round(n * tau):
                continue
            d = tied_integer_dataset(rng, n, tau)
            z = scores(W1, d)
            t = exact_quantile(z, tau)
            c = counts(W1, t, d)
            assert c.q >= 2
            assert c.tp + c.fp == n * tau + c.q - 1
            for alpha in alphas:
                rhs = (
                    alpha * c.fp
                    + (1 - alpha) * c.fn
                    + (1 - alpha) * (n * tau - d.n_pos)
                    + (1 - alpha) * (c.q - 1)
                )
                assert c.fp == rhs


class TestReport:
    def test_report_fields_and_json(self, tmp_path):
        rng = np.random.default_rng(10)
        d = random_dataset(rng, n=30)
        w = rng.uniform(-1, 1, d.m)
        report = build_report(w, 0.0, d, [0.1, 0.5])
        assert 0.0 <= report.precision <= 1.0
        assert set(report.criteria) == {
            "positives_at_top",
            "positives_at_quantile@0.1",
            "positives_at_np@0.1",
            "positives_at_quantile@0.5",
            "positives_at_np@0.5",
        }
        assert all(0.0 <= v <= 1.0 for v in report.criteria.values())
        out = tmp_path / "report.json"
        report.to_json(out)
        assert out.exists() and out.stat().st_size > 0

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv([(0.1, 0.9), (0.2, 0.8)], path, ("tau", "precision"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,precision"
        assert len(lines) == 3
