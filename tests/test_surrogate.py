import numpy as np
import pytest

from topclf.surrogate import HINGE, QUADRATIC_HINGE, SurrogateLoss, make_loss

LOSSES = [HINGE, QUADRATIC_HINGE]


class TestValues:
    def test_hinge_at_zero(self):
        assert HINGE.value(0.0) == 1.0

    def test_hinge_clamped(self):
        assert HINGE.value(-3.0) == 0.0

    def test_quadratic_hinge(self):
        assert QUADRATIC_HINGE.value(1.0) == 4.0
        assert QUADRATIC_HINGE.value(0.0) == 1.0

    def test_vectorized(self):
        np.testing.assert_allclose(HINGE.value(np.array([-2.0, 0.0, 1.0])), [0.0, 1.0, 2.0])

    def test_non_finite_rejected(self):
        for loss in LOSSES:
            with pytest.raises(ValueError):
                loss.value(np.inf)
            with pytest.raises(ValueError):
                loss.deriv(np.nan)


class TestDerivatives:
    def test_hinge_slope(self):
        assert HINGE.deriv(0.0) == 1.0

    def test_hinge_right_derivative_at_kink(self):
        assert HINGE.deriv(-1.0) == 1.0

    def test_hinge_flat_branch(self):
        assert HINGE.deriv(-2.0) == 0.0

    def test_quadratic_deriv(self):
        assert QUADRATIC_HINGE.deriv(0.0) == 2.0
        assert QUADRATIC_HINGE.deriv(-2.0) == 0.0

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_matches_finite_differences_away_from_kink(self, loss):
        rng = np.random.default_rng(0)
        h = 1e-6
        z = rng.uniform(-5, 5, 10_000)
        z = z[np.abs(z + 1.0) > 1e-3]
        fd = (loss.value(z + h) - loss.value(z - h)) / (2 * h)
        np.testing.assert_allclose(loss.deriv(z), fd, atol=1e-6)


class TestValueAndDeriv:
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_same_bits_as_value_and_deriv(self, loss):
        kink = np.nextafter(-1.0, [-np.inf, np.inf])
        z = np.concatenate(
            ([-1.0, *kink, 0.0, -0.0, 1e300, -1e300], np.random.default_rng(3).uniform(-5, 5, 1000))
        )
        # (1 + 1e300)^2 overflows to inf in both paths
        with np.errstate(over="ignore"):
            expected = (loss.value(z), loss.deriv(z))
            got = loss.value_and_deriv(z)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    @pytest.mark.parametrize("z", [-1.0, 0.0, -0.0, 2.5])
    def test_scalar_input(self, loss, z):
        value, deriv = loss.value_and_deriv(z)
        assert (value, deriv) == (loss.value(z), loss.deriv(z))
        assert np.ndim(value) == np.ndim(deriv) == 0

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, loss, bad):
        with pytest.raises(ValueError, match="surrogate loss input must be finite"):
            loss.value_and_deriv(np.array([0.0, bad]))


class TestShapeProperties:
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_convexity_on_random_pairs(self, loss):
        rng = np.random.default_rng(1)
        z1 = rng.uniform(-10, 10, 10_000)
        z2 = rng.uniform(-10, 10, 10_000)
        lam = rng.uniform(0, 1, 10_000)
        mix = loss.value(lam * z1 + (1 - lam) * z2)
        bound = lam * loss.value(z1) + (1 - lam) * loss.value(z2)
        assert np.all(mix <= bound + 1e-12)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_dominates_step_function(self, loss):
        rng = np.random.default_rng(2)
        z = rng.uniform(-10, 10, 10_000)
        assert np.all(loss.value(z) >= (z >= 0.0))

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_non_negative_and_non_decreasing(self, loss):
        z = np.linspace(-10, 10, 5001)
        v = loss.value(z)
        assert np.all(v >= 0)
        assert np.all(np.diff(v) >= 0)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
    def test_normalized_at_zero(self, loss):
        assert loss.value(0.0) == 1.0


class TestConstruction:
    def test_token_lookup(self):
        assert make_loss("hinge") == HINGE
        assert make_loss("quadratic_hinge") == QUADRATIC_HINGE

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown surrogate"):
            SurrogateLoss("logistic")
