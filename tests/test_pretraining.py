"""Masking protocol, invalid candidates, and the composite loss law."""

import numpy as np
import pytest

from tsrm.autodiff import Tensor
from tsrm.errors import ConfigError, DataError
from tsrm.model import ForwardTrace, ModelConfig
from tsrm.pretraining import (
    LossBreakdown,
    PretrainBatch,
    build_model_input,
    build_pretrain_batch,
    generate_mask,
    make_invalid_candidate,
    pretrain_loss,
    subset_length_bounds,
)

# the default loss weights (alpha, beta, gamma), which ModelConfig holds
WEIGHTS = (ModelConfig.alpha, ModelConfig.beta, ModelConfig.gamma)


def run_lengths(step_mask: np.ndarray) -> list:
    """Lengths of maximal True runs."""
    lengths, current = [], 0
    for v in step_mask:
        if v:
            current += 1
        elif current:
            lengths.append(current)
            current = 0
    if current:
        lengths.append(current)
    return lengths


class TestGenerateMask:
    def test_length_bounds(self):
        assert subset_length_bounds(100) == (5, 10)
        assert subset_length_bounds(96) == (5, 9)
        assert subset_length_bounds(20) == (1, 2)

    def test_t100_run_lengths_and_total(self):
        observed = np.ones((100, 1), dtype=bool)
        rng = np.random.default_rng(0)
        for _ in range(200)        :
            mask = generate_mask(100, observed, rng)
            steps = mask[:, 0]
            for run in run_lengths(steps):
                assert 5 <= run <= 10
            assert 30 <= steps.sum() <= 50 + 10  # target plus one-run overshoot

    def test_monte_carlo_fraction_window(self):
        observed = np.ones((96, 1), dtype=bool)
        rng = np.random.default_rng(1)
        lo_seen, hi_seen = 1.0, 0.0
        for _ in range(2000):
            frac = generate_mask(96, observed, rng).mean()
            lo_seen = min(lo_seen, frac)
            hi_seen = max(hi_seen, frac)
        assert lo_seen >= 0.30
        assert hi_seen < 0.60

    def test_runs_are_contiguous_with_bounded_lengths(self):
        rng = np.random.default_rng(2)
        lo, hi = subset_length_bounds(96)
        observed = np.ones((96, 2), dtype=bool)
        for _ in range(500):
            mask = generate_mask(96, observed, rng)
            np.testing.assert_array_equal(mask[:, 0], mask[:, 1])  # step-wise default
            for run in run_lengths(mask[:, 0]):
                assert lo <= run <= hi

    def test_only_observed_positions_masked(self):
        rng = np.random.default_rng(3)
        observed = np.random.default_rng(9).random((48, 3)) > 0.3
        mask = generate_mask(48, observed, rng)
        assert not (mask & ~observed).any()

    def test_fraction_counts_observed_values_only(self):
        rng = np.random.default_rng(4)
        observed = np.ones((96, 1), dtype=bool)
        observed[:48] = False  # half the window is already missing
        fracs = []
        for _ in range(300):
            mask = generate_mask(96, observed, rng)
            fracs.append(mask.sum() / observed.sum())
        assert min(fracs) >= 0.30  # the target is relative to observed count

    def test_per_feature_mode_masks_independently(self):
        rng = np.random.default_rng(5)
        observed = np.ones((96, 2), dtype=bool)
        differ = False
        for _ in range(20):
            mask = generate_mask(96, observed, rng, per_feature=True)
            differ = differ or not np.array_equal(mask[:, 0], mask[:, 1])
        assert differ

    def test_too_short_window_rejected(self):
        with pytest.raises(ConfigError, match="20"):
            generate_mask(19, np.ones((19, 1), dtype=bool), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        observed = np.ones((96, 1), dtype=bool)
        a = generate_mask(96, observed, np.random.default_rng(42))
        b = generate_mask(96, observed, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestInvalidCandidates:
    def test_rotation_moves_columns_forward(self):
        values = np.stack([np.full(10, f, dtype=float) for f in range(3)], axis=1)
        observed = np.ones((10, 3), dtype=bool)

        class FixedRng:
            def integers(self, lo, hi):
                return 1

        rotated, _ = make_invalid_candidate(values, observed, FixedRng())
        # original column j moves to (j + 1) mod 3: new order is (2, 0, 1)
        np.testing.assert_array_equal(rotated[0], [2.0, 0.0, 1.0])

    def test_rotation_preserves_multiset(self):
        rng = np.random.default_rng(6)
        values = rng.random((20, 4))
        observed = np.ones((20, 4), dtype=bool)
        rotated, _ = make_invalid_candidate(values, observed, rng)
        np.testing.assert_allclose(np.sort(rotated, axis=1), np.sort(values, axis=1))

    def test_univariate_noise_has_no_autocorrelation(self):
        rng = np.random.default_rng(7)
        rhos = []
        for _ in range(300):
            noise, observed = make_invalid_candidate(np.zeros((96, 1)), np.zeros((96, 1), bool), rng)
            assert observed.all()
            x = noise[:, 0] - noise[:, 0].mean()
            rhos.append((x[:-1] * x[1:]).sum() / (x * x).sum())
        assert abs(np.mean(rhos)) < 0.1

    def test_invalid_rate_binomial_bound(self):
        rng = np.random.default_rng(8)
        values = np.full((10_000, 20, 1), 0.5, dtype=np.float32)
        observed = np.ones_like(values, dtype=bool)
        batch = build_pretrain_batch(values, observed, rng)
        rate = 1.0 - batch.validity.mean()
        assert abs(rate - 0.20) < 0.012  # 3 sigma of Binomial(1e4, .2)


class TestModelInput:
    def test_eval_positions_hold_missing_token(self):
        rng = np.random.default_rng(9)
        values = rng.random((8, 24, 2)).astype(np.float32)
        observed = rng.random((8, 24, 2)) > 0.2
        values[~observed] = np.nan
        batch = build_pretrain_batch(values, observed, np.random.default_rng(10))
        assert (batch.model_input[batch.eval_mask] == -1.0).all()
        assert (batch.model_input[~batch.observed] == -1.0).all()
        visible = batch.observed & ~batch.eval_mask
        np.testing.assert_array_equal(batch.model_input[visible], batch.values[visible])

    def test_eval_subset_of_observed_and_disjoint_from_repr(self):
        rng = np.random.default_rng(11)
        values = rng.random((4, 48, 3)).astype(np.float32)
        observed = rng.random((4, 48, 3)) > 0.1
        values[~observed] = np.nan
        batch = build_pretrain_batch(values, observed, np.random.default_rng(12))
        assert not (batch.eval_mask & ~batch.observed).any()
        repr_mask = batch.observed & ~batch.eval_mask
        assert not (repr_mask & batch.eval_mask).any()
        np.testing.assert_array_equal(repr_mask | batch.eval_mask, batch.observed)


def fabricated_trace(output: np.ndarray, logits: np.ndarray) -> ForwardTrace:
    return ForwardTrace(output=Tensor(np.asarray(output, dtype=np.float32)),
                        class_logits=Tensor(np.asarray(logits, dtype=np.float32)),
                        attention=np.zeros((1, output.shape[0], output.shape[2], 4)))


class TestPretrainLoss:
    def batch(self, B=1, T=20, F=1, validity=1.0):
        values = np.zeros((B, T, F), dtype=np.float32)
        observed = np.ones((B, T, F), dtype=bool)
        eval_mask = np.zeros((B, T, F), dtype=bool)
        eval_mask[:, :8] = True
        return PretrainBatch(
            model_input=build_model_input(values, observed, eval_mask),
            values=values, observed=observed, eval_mask=eval_mask,
            validity=np.full(B, validity, dtype=np.float32))

    def test_weighted_sum_law(self):
        batch = self.batch()
        # output 1 everywhere: MSE is 1 on both position sets; logit 0: ln 2
        trace = fabricated_trace(np.ones((1, 20, 1)), np.zeros((1, 1)))
        loss, bd = pretrain_loss(trace, batch, alpha=3.5, beta=1.2, gamma=5.0)
        np.testing.assert_allclose(bd.l_repr, 1.0, rtol=1e-6)
        np.testing.assert_allclose(bd.l_imp, 1.0, rtol=1e-6)
        np.testing.assert_allclose(bd.l_class, np.log(2), rtol=1e-5)
        want = (1.0 + 1.0 * 3.5) * 1.2 + np.log(2) * 5.0
        np.testing.assert_allclose(bd.total, want, rtol=1e-5)
        np.testing.assert_allclose(loss.item(), want, rtol=1e-5)

    def test_law_on_random_component_values(self):
        # arrange outputs so the component MSEs hit chosen values exactly
        rng = np.random.default_rng(13)
        for _ in range(20):
            r, i = rng.uniform(0.01, 2.0, 2)
            alpha, beta, gamma = rng.uniform(0.5, 5.0, 3)
            batch = self.batch()
            out = np.zeros((1, 20, 1), dtype=np.float64)
            out[:, :8] = np.sqrt(i)   # eval positions
            out[:, 8:] = np.sqrt(r)   # observed, unmasked positions
            trace = fabricated_trace(out, np.zeros((1, 1)))
            loss, bd = pretrain_loss(trace, batch, alpha, beta, gamma)
            want = (r + i * alpha) * beta + np.log(2) * gamma
            np.testing.assert_allclose(bd.total, want, rtol=1e-4)
            np.testing.assert_allclose(
                bd.total, (bd.l_repr + bd.l_imp * alpha) * beta + bd.l_class * gamma,
                rtol=1e-6)

    def test_invalid_sample_keeps_only_class_term(self):
        batch = self.batch(validity=0.0)
        trace = fabricated_trace(np.ones((1, 20, 1)) * 7.0, np.zeros((1, 1)))
        loss, bd = pretrain_loss(trace, batch, *WEIGHTS)
        np.testing.assert_allclose(bd.total, np.log(2) * 5.0, rtol=1e-5)
        assert bd.l_repr == 0.0 and bd.l_imp == 0.0

    def test_invalid_sample_ignores_reconstruction_entirely(self):
        batch = self.batch(validity=0.0)
        a = pretrain_loss(fabricated_trace(np.zeros((1, 20, 1)), np.zeros((1, 1))),
                          batch, *WEIGHTS)[1]
        b = pretrain_loss(fabricated_trace(np.full((1, 20, 1), 123.0), np.zeros((1, 1))),
                          batch, *WEIGHTS)[1]
        assert a.total == b.total

    def test_multi_class_logits_rejected(self):
        # one validity target per sample cannot score three logits
        trace = fabricated_trace(np.zeros((1, 20, 1)), np.zeros((1, 3)))
        with pytest.raises(ConfigError, match="num_classes must be 1"):
            pretrain_loss(trace, self.batch(), *WEIGHTS)

    def test_validity_other_than_zero_or_one_rejected(self):
        # the loss would weight the reconstruction terms by it and score a
        # BCE target outside [0, 1], which can go negative
        batch = self.batch(B=2)
        batch.validity = np.array([0.5, 3.0], dtype=np.float32)
        trace = fabricated_trace(np.ones((2, 20, 1)), np.zeros((2, 1)))
        with pytest.raises(DataError, match="validity must be 0 or 1"):
            pretrain_loss(trace, batch, *WEIGHTS)

    def test_eval_mask_on_unobserved_positions_rejected(self):
        batch = self.batch()
        batch.observed[:, :4] = False  # inside the eval mask, still -1 in the input
        trace = fabricated_trace(np.ones((1, 20, 1)), np.zeros((1, 1)))
        with pytest.raises(DataError, match="eval mask covers unobserved"):
            pretrain_loss(trace, batch, *WEIGHTS)

    @pytest.mark.parametrize("position", [3, 15])  # masked, then unobserved
    def test_value_left_visible_where_hidden_rejected(self, position):
        batch = self.batch()
        batch.observed[:, 15] = False
        batch.model_input[:, 15] = -1.0
        batch.model_input[:, position] = 0.5
        trace = fabricated_trace(np.ones((1, 20, 1)), np.zeros((1, 1)))
        with pytest.raises(DataError, match="model input shows values"):
            pretrain_loss(trace, batch, *WEIGHTS)

    def test_perfect_prediction_drives_loss_to_zero(self):
        batch = self.batch()
        trace = fabricated_trace(np.zeros((1, 20, 1)), np.full((1, 1), 30.0))
        loss, bd = pretrain_loss(trace, batch, *WEIGHTS)
        assert bd.total < 1e-6

    def test_empty_component_contributes_zero(self):
        values = np.zeros((1, 20, 1), dtype=np.float32)
        observed = np.ones((1, 20, 1), dtype=bool)
        eval_mask = np.zeros((1, 20, 1), dtype=bool)  # no masked positions at all
        batch = PretrainBatch(build_model_input(values, observed, eval_mask),
                              values, observed, eval_mask,
                              np.ones(1, dtype=np.float32))
        trace = fabricated_trace(np.ones((1, 20, 1)), np.zeros((1, 1)))
        _, bd = pretrain_loss(trace, batch, *WEIGHTS)
        assert bd.l_imp == 0.0
        np.testing.assert_allclose(bd.l_repr, 1.0, rtol=1e-6)

    def test_gradient_reaches_output(self):
        batch = self.batch()
        out = Tensor(np.ones((1, 20, 1), dtype=np.float64), requires_grad=True)
        trace = ForwardTrace(output=out,
                             class_logits=Tensor(np.zeros((1, 1), dtype=np.float64),
                                                 requires_grad=True),
                             attention=np.zeros((1, 1, 1, 4)))
        loss, _ = pretrain_loss(trace, batch, *WEIGHTS)
        loss.backward()
        assert out.grad is not None and np.abs(out.grad).sum() > 0
