import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from helpers import central_diff, oracle_adam_step, random_dataset
from topclf import experiment, solver
from topclf.data import Dataset, minibatch_epoch, synth_example
from topclf.experiment import Grid, ManifestError, grid_points, run_manifest
from topclf.objective import ObjectiveSpec, evaluate, objective
from topclf.solver import (
    AdamParams,
    AdamState,
    Model,
    TrainConfig,
    adam_step,
    project_l2_ball,
    train,
)
from topclf.surrogate import QUADRATIC_HINGE, make_loss
from topclf.threshold import (
    CLI_TOKENS,
    RuleStack,
    ThresholdRule,
    method_params,
    rule_from_token,
    scores,
    threshold_scored,
)


def toppush_spec(lam=0.0):
    return ObjectiveSpec(rule=ThresholdRule("top_push"), lam=lam)


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        state = AdamState.fresh(3)
        state, delta = adam_step(state, np.zeros(3), AdamParams())
        assert np.all(delta == 0.0)

    def test_first_step_normalized(self):
        params = AdamParams(step_size=0.1)
        g = np.array([2.0, -0.5, 0.0])
        _, delta = adam_step(AdamState.fresh(3), g, params)
        np.testing.assert_allclose(delta, -0.1 * g / (np.abs(g) + params.epsilon))

    def test_constant_gradient_limit_is_sign(self):
        params = AdamParams(step_size=0.01)
        g = np.array([3.0, -0.2])
        state = AdamState.fresh(2)
        for _ in range(1000):
            state, delta = adam_step(state, g, params)
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-3)

    def test_non_finite_gradient_rejected(self):
        state = AdamState.fresh(2)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, np.array([1.0, np.inf]), AdamParams())
        assert state.step == 0 and not state.m.any() and not state.v.any()

    def test_gradient_shape_must_match_state(self):
        with pytest.raises(ValueError, match=r"gradient shape \(2,\) does not match state"):
            adam_step(AdamState.fresh(3), np.zeros(2), AdamParams())

    @pytest.mark.parametrize("dim", [1, 2, 30])
    def test_matches_functional_oracle_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        params = AdamParams(step_size=0.05)
        state, expected = AdamState.fresh(dim), AdamState.fresh(dim)
        for _ in range(1000):
            # gradients spanning many magnitudes, signs and exact zeros
            scale = 10.0 ** rng.integers(-8, 4, dim) * (rng.random(dim) < 0.9)
            g = rng.standard_normal(dim) * scale
            returned, delta = adam_step(state, g, params)
            expected, want = oracle_adam_step(expected, g, params)
            assert returned is state
            assert delta.tobytes() == want.tobytes()
            assert state.m.tobytes() == expected.m.tobytes()
            assert state.v.tobytes() == expected.v.tobytes()
            assert state.step == expected.step

    def test_step_counter_advances(self):
        state = AdamState.fresh(1)
        state, _ = adam_step(state, np.ones(1), AdamParams())
        state, _ = adam_step(state, np.ones(1), AdamParams())
        assert state.step == 2


class TestProjection:
    def test_exterior_point_scaled(self):
        np.testing.assert_allclose(project_l2_ball(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_interior_point_unchanged(self):
        w = np.array([0.1, 0.0])
        assert project_l2_ball(w) is w

    def test_zero_unchanged(self):
        assert np.all(project_l2_ball(np.zeros(4)) == 0.0)


class TestTrainConfig:
    def test_projection_auto_resolution(self):
        cfg = TrainConfig()
        assert cfg.resolve_projection(ThresholdRule("quantile", tau=0.3)) is True
        assert cfg.resolve_projection(ThresholdRule("top_push")) is False
        forced = TrainConfig(project_unit_ball=True)
        assert forced.resolve_projection(ThresholdRule("top_push")) is True

    def test_json_roundtrip(self):
        cfg = TrainConfig(
            iterations=50,
            adam=AdamParams(step_size=0.2),
            n_minibatch=4,
            seed=9,
            project_unit_ball=False,
            init="uniform",
        )
        assert TrainConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(init="laplace")
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            AdamParams(beta1=1.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            AdamParams(epsilon=0.0)


class TestTrain:
    def test_zero_step_size_is_noop(self):
        d = random_dataset(np.random.default_rng(0))
        cfg = TrainConfig(iterations=20, adam=AdamParams(step_size=0.0), init="uniform", seed=3)
        model = train(toppush_spec(), d, cfg)
        w_init = np.random.default_rng(3).uniform(-1, 1, d.m)
        np.testing.assert_array_equal(model.w, w_init)
        assert np.all(model.history.objective == model.history.objective[0])

    def test_bitwise_deterministic(self):
        d = random_dataset(np.random.default_rng(1), n=40)
        cfg = TrainConfig(iterations=60, n_minibatch=2, seed=11, init="uniform")
        spec = ObjectiveSpec(rule=ThresholdRule("surrogate_quantile", tau=0.3, beta=0.5))
        a = train(spec, d, cfg)
        b = train(spec, d, cfg)
        assert np.array_equal(a.w, b.w)
        assert a.t_final == b.t_final
        assert np.array_equal(a.history.objective, b.history.objective)

    def test_projection_bounds_norm_every_iteration(self):
        d = random_dataset(np.random.default_rng(2))
        spec = ObjectiveSpec(rule=ThresholdRule("quantile", tau=0.3))
        cfg = TrainConfig(iterations=80, init="uniform", seed=5)
        model = train(spec, d, cfg)
        assert np.all(model.history.w_norm <= 1.0 + 1e-12)

    def test_t_final_matches_full_data_threshold(self):
        d = random_dataset(np.random.default_rng(3), n=40)
        cfg = TrainConfig(iterations=30, n_minibatch=2, seed=1)
        model = train(toppush_spec(), d, cfg)
        refit = threshold_scored([model.spec.rule], scores(model.w[None], d), d)
        assert model.t_final == refit.t[0]

    def test_exact_iteration_count(self):
        d = random_dataset(np.random.default_rng(4))
        model = train(toppush_spec(), d, TrainConfig(iterations=17))
        assert len(model.history.objective) == 17

    def test_converges_to_zero_on_outlier_data(self):
        # the planted outlier dominates every direction, so the global
        # minimum sits at w = 0; a few random starts must all collapse
        d = synth_example(300, seed=0)
        for seed in (0, 1, 2):
            cfg = TrainConfig(iterations=600, seed=seed, init="uniform")
            model = train(toppush_spec(), d, cfg)
            assert np.linalg.norm(model.w) < 0.05

    def test_patmat_recovers_separating_direction(self):
        d = synth_example(500, seed=4)
        spec = ObjectiveSpec(rule=rule_from_token("patmat", tau=0.05, beta=0.01))
        model = train(spec, d, TrainConfig(iterations=1000, seed=0, init="zeros"))
        assert model.w[0] > 5.0 * abs(model.w[1])

    def test_best_so_far_improves_in_most_trials(self):
        rng = np.random.default_rng(6)
        improved = 0
        trials = 40
        for _ in range(trials):
            d = random_dataset(rng, n=30)
            spec = ObjectiveSpec(rule=ThresholdRule("top_push_k", k=2), lam=0.001)
            cfg = TrainConfig(iterations=150, seed=int(rng.integers(1 << 31)), init="uniform")
            model = train(spec, d, cfg)
            if model.history.objective.min() < model.history.objective[0]:
                improved += 1
        assert improved >= 0.95 * trials

    def test_minibatch_gradient_is_exact_on_chunk(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, n=40, m=3)
        chunk = minibatch_epoch(d, 4, seed=2, epoch=0)[1]
        spec = ObjectiveSpec(rule=ThresholdRule("top_push_k", k=2), lam=0.01)
        w = rng.uniform(-1, 1, 3)
        fd = central_diff(lambda v: objective([spec], v[None], chunk)[0], w)
        np.testing.assert_allclose(evaluate([spec], w[None], chunk)[1][0], fd, atol=1e-5)

    def test_non_finite_objective_aborts(self):
        d = Dataset(np.array([[-1e200], [1e200]]), [True, False])
        spec = ObjectiveSpec(rule=ThresholdRule("top_push"), loss=QUADRATIC_HINGE)
        cfg = TrainConfig(iterations=3, init="uniform", seed=0)
        with np.errstate(over="ignore"), pytest.raises((FloatingPointError, ValueError)):
            train(spec, d, cfg)

    @pytest.mark.parametrize("labels", [[True, True], [False, False]], ids=["no-neg", "no-pos"])
    def test_one_class_data_rejected(self, labels):
        d = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), labels)
        message = "need at least one positive and one negative sample"
        with pytest.raises(ValueError, match=message):
            train(toppush_spec(), d, TrainConfig(iterations=3))

    def test_infeasible_minibatch_point_rejected_before_any_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a training step was taken")

        monkeypatch.setattr(solver, "evaluate", fail)
        # the smallest of 4 minibatches of the 31 negatives holds 7 of them
        spec = ObjectiveSpec(rule=rule_from_token("toppushk", k=8))
        with pytest.raises(ValueError, match="k=8 exceeds the 7 negative samples"):
            train(spec, synth_example(30, seed=1), TrainConfig(iterations=1, n_minibatch=4))

    def test_one_minibatch_epoch_call_per_epoch(self, monkeypatch):
        epochs = []

        def counted(d, n_minibatch, seed, epoch):
            epochs.append(epoch)
            return minibatch_epoch(d, n_minibatch, seed, epoch)

        monkeypatch.setattr(solver, "minibatch_epoch", counted)
        d = random_dataset(np.random.default_rng(9), n=40)
        train(toppush_spec(), d, TrainConfig(iterations=3 * 4, n_minibatch=4, seed=0))
        assert epochs == [0, 1, 2]

    def test_minibatch_training_holds_one_epoch_copy(self):
        # each epoch gathers one shuffled copy of the rows; the previous
        # epoch's copy must be released before the next one is gathered
        d = random_dataset(np.random.default_rng(8), n=20_000, m=30)
        cfg = TrainConfig(iterations=12, n_minibatch=4, seed=0)
        tracemalloc.start()
        try:
            train(toppush_spec(), d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.features.nbytes


class TestModelSerialization:
    def test_roundtrip(self):
        d = random_dataset(np.random.default_rng(8))
        spec = ObjectiveSpec(
            rule=ThresholdRule("surrogate_quantile", tau=0.2, beta=0.3), lam=0.01
        )
        model = train(spec, d, TrainConfig(iterations=10))
        clone = Model.from_dict(model.to_dict())
        assert np.array_equal(clone.w, model.w)
        assert clone.spec == model.spec
        assert clone.t_final == model.t_final
        assert clone.config == model.config


class TestImbalancedMinibatches:
    def test_rare_positives_train_with_every_batch_mixed(self):
        rng = np.random.default_rng(48)
        labels = np.zeros(20_000, bool)
        labels[rng.choice(20_000, size=48, replace=False)] = True
        d = Dataset(rng.standard_normal((20_000, 5)), labels)
        cfg = TrainConfig(iterations=64, n_minibatch=32, seed=3)
        model = train(ObjectiveSpec(rule=ThresholdRule("top_push")), d, cfg)
        assert np.all(np.isfinite(model.history.objective))
        # the same labels with a row-index feature deal the same rows
        rows = Dataset(np.arange(float(d.n))[:, None], labels)
        for epoch in range(2):
            batches = minibatch_epoch(rows, 32, seed=3, epoch=epoch)
            taken = np.concatenate([b.features[:, 0] for b in batches]).astype(int)
            assert sorted(taken.tolist()) == list(range(d.n))
            assert {b.n_pos for b in batches} == {1, 2}
            assert max(b.n for b in batches) - min(b.n for b in batches) <= 1

    def test_more_batches_than_positives_rejected(self):
        labels = np.zeros(200, bool)
        labels[:4] = True
        d = Dataset(np.arange(400.0).reshape(200, 2), labels)
        assert len(minibatch_epoch(d, 4, seed=0, epoch=0)) == 4
        with pytest.raises(ValueError, match="one class"):
            minibatch_epoch(d, 5, seed=0, epoch=0)


def default_grid_specs(token, loss):
    """The specs of ``token``'s default six-point grid, as a grid run builds them."""
    specs = []
    for point in grid_points(token, Grid()):
        swept = {key: value for key, value in point.items() if key != "lambda"}
        tau = 0.2 if "tau" in method_params(token) else None
        rule = rule_from_token(token, tau=tau, **swept)
        specs.append(ObjectiveSpec(rule=rule, loss=make_loss(loss), lam=point["lambda"]))
    return specs


class TestLockstep:
    @pytest.mark.parametrize("token", sorted(CLI_TOKENS))
    @pytest.mark.parametrize("loss", ["hinge", "quadratic_hinge"])
    @pytest.mark.parametrize("n_minibatch", [1, 3])
    @pytest.mark.parametrize("init", ["zeros", "uniform"])
    def test_grid_matches_one_point_at_a_time(self, token, loss, n_minibatch, init):
        # every minibatch holds 80 rows, enough positives that a sum taken
        # in another order than the 1-D one would move the objective's last bits
        d = random_dataset(np.random.default_rng(17), n=240, m=3, pos_frac=0.4)
        cfg = TrainConfig(iterations=12, n_minibatch=n_minibatch, seed=5, init=init)
        specs = default_grid_specs(token, loss)
        models = train(specs, d, cfg)
        assert len(models) == len(specs) == 6
        for spec, model in zip(specs, models):
            alone = train(spec, d, cfg)
            assert model.spec == spec
            # bytes, not values: array_equal would take -0.0 for 0.0
            assert model.w.tobytes() == alone.w.tobytes()
            assert np.float64(model.t_final).tobytes() == np.float64(alone.t_final).tobytes()
            assert model.history.objective.tobytes() == alone.history.objective.tobytes()
            assert model.history.w_norm.tobytes() == alone.history.w_norm.tobytes()

    def test_iteration_time_is_shared_by_the_points(self):
        d = random_dataset(np.random.default_rng(18), n=60)
        specs = [toppush_spec(lam) for lam in (0.0, 1e-3, 1e-2)]
        models = train(specs, d, TrainConfig(iterations=4))
        first = models[0].history.iter_ms
        assert first.shape == (4,) and np.all(first > 0.0)
        for model in models[1:]:
            assert np.array_equal(model.history.iter_ms, first)

    def test_mixed_losses_rejected(self):
        d = random_dataset(np.random.default_rng(19), n=30)
        specs = [toppush_spec(), ObjectiveSpec(ThresholdRule("top_push"), loss=QUADRATIC_HINGE)]
        with pytest.raises(ValueError, match="one loss"):
            train(specs, d, TrainConfig(iterations=2))

    def test_mixed_rule_kinds_rejected(self):
        d = random_dataset(np.random.default_rng(20), n=30)
        for specs in (
            [toppush_spec(), ObjectiveSpec(rule=ThresholdRule("quantile", tau=0.5))],
            [ObjectiveSpec(rule=rule_from_token("grill", tau=tau)) for tau in (0.1, 0.2)],
        ):
            with pytest.raises(ValueError, match="rules of one kind"):
                train(specs, d, TrainConfig(iterations=2))


def _no_step(monkeypatch):
    """Make any training step fail, so a refusal must come before the first one."""
    def fail(*args):
        raise AssertionError("a training step was taken")

    for name in ("evaluate", "adam_step"):
        monkeypatch.setattr(solver, name, fail)


# the smallest of 4 minibatches of synth_example(30, seed=1) holds 7 of its 31 negatives
STACK_REFUSALS = {
    "mixed losses": (
        [toppush_spec(), ObjectiveSpec(ThresholdRule("top_push"), loss=QUADRATIC_HINGE)], 1,
        "a weight stack takes specs of one loss",
    ),
    "mixed kinds": (
        [toppush_spec(), ObjectiveSpec(rule=ThresholdRule("top_push_k", k=2))], 1,
        "a score stack takes rules of one kind and one tau",
    ),
    "mixed taus": (
        [ObjectiveSpec(rule=rule_from_token("grill", tau=tau)) for tau in (0.1, 0.2)], 1,
        "a score stack takes rules of one kind and one tau",
    ),
    "k over a batch pool": (
        [ObjectiveSpec(rule=rule_from_token("toppushk", k=k)) for k in (2, 8)], 4,
        "k=8 exceeds the 7 negative samples",
    ),
    "tau over a batch pool": (
        [ObjectiveSpec(rule=rule_from_token("topmean-np", tau=0.1))], 4,
        "top_mean_np needs tau * pool >= 1; got tau=0.1 over 7 samples",
    ),
    "empty stack": ([], 1, "the stack is empty: it needs at least one row"),
}


class TestStackChecks:
    """``train`` checks a stack once, before any step; ``evaluate`` and ``threshold_scored``
    check every stack they are given, with the same messages."""

    @pytest.mark.parametrize("case", sorted(STACK_REFUSALS))
    def test_train_refuses_before_the_first_step(self, case, monkeypatch):
        specs, parts, message = STACK_REFUSALS[case]
        _no_step(monkeypatch)
        cfg = TrainConfig(iterations=3, n_minibatch=parts)
        with pytest.raises(ValueError) as err:
            train(specs, synth_example(30, seed=1), cfg)
        assert str(err.value) == message

    @pytest.mark.parametrize("case", sorted(STACK_REFUSALS))
    def test_public_layers_refuse_on_the_smallest_batch(self, case):
        specs, parts, message = STACK_REFUSALS[case]
        d = synth_example(30, seed=1)
        if parts > 1:
            d = min(minibatch_epoch(d, parts, seed=0, epoch=0), key=lambda batch: batch.n_neg)
            assert d.n_neg == 7
        w = np.zeros((len(specs), d.m))
        with pytest.raises(ValueError) as err:
            evaluate(specs, w, d)
        assert str(err.value) == message
        if case != "mixed losses":
            with pytest.raises(ValueError) as err:
                threshold_scored([sg.rule for sg in specs], scores(w, d), d)
            assert str(err.value) == message

    def test_wrong_shapes_refused(self):
        # train builds its own (G, m) stack; the public layers check the one they are given
        d = synth_example(30, seed=1)
        specs = [toppush_spec(lam) for lam in (0.0, 0.1)]
        with pytest.raises(ValueError) as err:
            evaluate(specs, np.zeros((3, d.m)), d)
        assert str(err.value) == "weight shape (3, 2) does not match 2 specs"
        rules = [sg.rule for sg in specs]
        with pytest.raises(ValueError) as err:
            threshold_scored(rules, np.zeros(d.n), d)
        assert str(err.value) == f"score shape ({d.n},) is not a (G, n) stack"
        with pytest.raises(ValueError) as err:
            threshold_scored(rules, np.zeros((3, d.n)), d)
        assert str(err.value) == "3 score rows for 2 rules"

    def test_empty_stack_is_a_clear_error(self, monkeypatch):
        d = synth_example(30, seed=1)
        message = "the stack is empty"
        with pytest.raises(ValueError, match=message):
            evaluate([], np.zeros((0, d.m)), d)
        with pytest.raises(ValueError, match=message):
            threshold_scored([], np.zeros((0, d.n)), d)
        _no_step(monkeypatch)
        with pytest.raises(ValueError, match=message):
            train([], d, TrainConfig(iterations=2))

    def test_checked_stack_is_reused_by_every_step(self, monkeypatch):
        # the checks run once per train call, not once per iteration
        built = []
        original = solver.SpecStack

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "SpecStack", counted)
        specs = default_grid_specs("toppushk", "hinge")
        train(specs, synth_example(60, seed=2), TrainConfig(iterations=9, n_minibatch=3))
        assert len(built) == 1


class TestFirstRowOverThePool:
    """A k stack names its first row, in row order, whose k the smallest batch pool cannot
    hold: the same refusal from the stack itself, from train and from a grid run."""

    ks = (2, 9, 8)
    message = "k=9 exceeds the 7 negative samples"

    def test_rule_stack(self):
        rules = [rule_from_token("toppushk", k=k) for k in self.ks]
        with pytest.raises(ValueError) as err:
            RuleStack(rules, synth_example(30, seed=1), 4)
        assert str(err.value) == self.message

    def test_train_refuses_before_the_first_step(self, monkeypatch):
        specs = [ObjectiveSpec(rule=rule_from_token("toppushk", k=k)) for k in self.ks]
        _no_step(monkeypatch)
        with pytest.raises(ValueError) as err:
            train(specs, synth_example(30, seed=1), TrainConfig(iterations=3, n_minibatch=4))
        assert str(err.value) == self.message

    def test_grid_run_names_the_dataset_and_method(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("a grid point was trained")

        monkeypatch.setattr(experiment, "train", fail)
        # the training split of synth n=30 holds 15 negatives, 7 in the smaller of 2 minibatches
        manifest = {
            "datasets": [{"name": "s", "format": "synth", "n": 30, "seed": 0}],
            "methods": [{"method": "toppushk"}],
            "grid": {"ks": list(self.ks)},
            "train": {"iterations": 3, "n_minibatch": 2},
            "select": {"criterion": "positives_at_top"},
        }
        with pytest.raises(ManifestError) as err:
            run_manifest(manifest, tmp_path / "out")
        where = "dataset 's', method toppushk, training split (smallest of 2 minibatches)"
        assert str(err.value) == f"{where}: {self.message}"
        assert not (tmp_path / "out").exists()
