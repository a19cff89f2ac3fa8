import io
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import skew

from taraarch.baselines import canned_model_spec
from taraarch.model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    conditional_mean,
    regime_indices,
)
from taraarch.montecarlo import reference_spec, symmetric_reference_spec
from taraarch.simulate import (
    SimConfig,
    SimulationError,
    _open_unit,
    box_cox_sqrt_transform,
    log_return_transform,
    mix_seed,
    normal_stream,
    path_to_csv,
    relative_return_transform,
    simulate_path,
)


def noise_only_spec(alpha0=1.0):
    return ModelSpec(
        partition=ThresholdPartition.single_regime(),
        tar=TarParams(np.array([[0.0]])),
        aarch=AarchParams(alpha0, np.zeros(1), np.zeros(1)),
    )


class TestSeeding:
    def test_mix_seed_is_order_sensitive_and_stable(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
        assert 0 <= mix_seed(2**63, -5) < 2**64

    def test_mix_seed_masks_each_word_to_64_bits(self):
        assert mix_seed(2**63, -5) == mix_seed(2**63, 2**64 - 5) == 17662771176422891397

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 1.5])
    def test_normal_stream_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be (in \[0, 2\*\*64\)|a whole number)"):
            normal_stream(seed, 3)

    def test_normal_stream_takes_every_64_bit_seed(self):
        assert normal_stream(0, 2).shape == normal_stream(2**64 - 1, 2).shape == (2,)
        assert not np.array_equal(normal_stream(0, 2), normal_stream(2**64 - 1, 2))

    def test_top_raw_words_map_below_one(self):
        # (2**53 - 1) + 0.5 rounds to 2**53, so the top 2,048 words would map to
        # 1.0, whose inverse normal CDF is inf; they are clamped to 1 - 2**-53.
        raw = np.array([0, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1],
                       dtype=np.uint64)
        u = _open_unit(raw)
        assert u.tolist() == [2.0**-54, 0.5 + 2.0**-54, 1.0 - 2.0**-52,
                              1.0 - 2.0**-53, 1.0 - 2.0**-53]
        assert np.isfinite(ndtri(u)).all()

    def test_normal_stream_depends_only_on_seed_and_index(self):
        long = normal_stream(99, 100)
        short = normal_stream(99, 40)
        np.testing.assert_array_equal(long[:40], short)

    def test_normal_stream_moments(self):
        z = normal_stream(4, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01


def three_regime_spec():
    return ModelSpec(
        partition=ThresholdPartition(delay=2, thresholds=np.array([-0.5, 0.4])),
        tar=TarParams(np.array([[0.1, 0.3, -0.2], [0.0, 0.5, 0.1], [-0.1, -0.4, 0.2]])),
        aarch=AarchParams(0.2, np.array([0.3, 0.2, 0.1]), np.array([0.1, -0.05, 0.05])),
    )


def late_delay_spec():
    """Delay beyond the mean lags: x[t-3] picks the regime of an AR(1) row."""
    return ModelSpec(
        partition=ThresholdPartition(delay=3, thresholds=np.array([0.1])),
        tar=TarParams(np.array([[0.2, 0.6], [-0.1, -0.5]])),
        aarch=AarchParams(0.4, np.array([0.4, 0.2]), np.array([-0.2, 0.1])),
    )


def loop_oracle(spec, config):
    """The step loop with explicit presample branches and a linear regime scan."""
    p, q, d = spec.p, spec.q, spec.partition.delay
    total = config.burn_in + config.n
    z = normal_stream(config.seed, total).tolist()
    thresholds = spec.partition.thresholds.tolist()
    coeffs = [tuple(row) for row in spec.tar.coefficients.tolist()]
    alphas = spec.aarch.alphas.tolist()
    betas = spec.aarch.betas.tolist()
    xs = [0.0] * total
    es = [0.0] * total
    hs = [0.0] * total
    for t in range(total):
        h = spec.aarch.alpha0
        for k in range(1, q + 1):
            idx = t - k
            ev = es[idx] if idx >= 0 else 0.0
            term = alphas[k - 1] * abs(ev) + betas[k - 1] * ev
            h += term * term
        idx = t - d
        xd = xs[idx] if idx >= 0 else 0.0
        j = 0
        while j < len(thresholds) and xd > thresholds[j]:
            j += 1
        row = coeffs[j]
        mean = row[0]
        for k in range(1, p + 1):
            idx = t - k
            mean += row[k] * (xs[idx] if idx >= 0 else 0.0)
        eps = z[t] * math.sqrt(h)
        x = mean + eps
        if not math.isfinite(x) or abs(x) > 1e12:
            raise SimulationError(
                f"simulated path exploded at step {t} "
                f"(|x| = {abs(x):.3g}, burn_in = {config.burn_in})",
                index=t,
            )
        xs[t], es[t], hs[t] = x, eps, h
    b = config.burn_in
    return np.array(xs[b:]), np.array(z[b:]), np.array(hs[b:])


def assert_explosion_matches_oracle(tar, alphas, betas):
    boom = ModelSpec(
        partition=ThresholdPartition(delay=1, thresholds=np.array([0.0])),
        tar=TarParams(np.array(tar)),
        aarch=AarchParams(1.0, np.array(alphas), np.array(betas)),
    )
    cfg = SimConfig(n=2000, seed=4)
    with pytest.raises(SimulationError) as got:
        simulate_path(boom, cfg)
    with pytest.raises(SimulationError) as want:
        loop_oracle(boom, cfg)
    assert got.value.index == want.value.index
    assert str(got.value) == str(want.value)


class TestSimulatePath:
    @pytest.mark.parametrize("make_spec", [
        reference_spec, symmetric_reference_spec, three_regime_spec, noise_only_spec,
        late_delay_spec,
    ])
    @pytest.mark.parametrize("config", [
        {"n": 5},
        {"n": 60},
        {"n": 60, "burn_in": 0},
        {"n": 3000},
    ])
    def test_step_loop_matches_oracle_bitwise(self, make_spec, config):
        spec = make_spec()
        for seed in range(20):
            cfg = SimConfig(seed=seed, **config)
            path = simulate_path(spec, cfg)
            got = (path.series.values, path.innovations, path.variances)
            for a, b in zip(got, loop_oracle(spec, cfg)):
                assert a.tobytes() == b.tobytes()

    def test_explosion_index_matches_oracle(self):
        assert_explosion_matches_oracle(
            [[0.0, 1.5], [0.0, 1.2]], [1.5, 0.5], [0.3, 0.0]
        )

    def test_variance_only_explosion_matches_oracle(self):
        # Stable mean coefficients; the loading of 3 makes h overflow to inf
        # (and then NaN) long before the loops end.
        assert_explosion_matches_oracle(
            [[0.2, 0.5], [-0.3, -0.4]], [3.0, 0.0], [0.5, 0.0]
        )

    def test_same_config_bitwise_identical(self):
        spec = reference_spec()
        a = simulate_path(spec, SimConfig(n=500, seed=8))
        b = simulate_path(spec, SimConfig(n=500, seed=8))
        np.testing.assert_array_equal(a.series.values, b.series.values)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.innovations, b.innovations)

    def test_innovations_are_the_stream_after_burn_in(self):
        cfg = SimConfig(n=300, seed=5, burn_in=40)
        path = simulate_path(reference_spec(), cfg)
        z = normal_stream(cfg.seed, cfg.burn_in + cfg.n)[cfg.burn_in:]
        assert path.innovations.tobytes() == z.tobytes()

    def test_noise_only_path_has_unit_variance(self):
        path = simulate_path(noise_only_spec(1.0), SimConfig(n=100_000, seed=12))
        assert 0.97 <= path.series.values.var() <= 1.03

    def test_lynx_mean_spec_occupies_both_regimes(self):
        spec = canned_model_spec("lynx")
        path = simulate_path(spec, SimConfig(n=10_000, seed=3))
        labels = regime_indices(spec.partition, path.series.values)
        frac = np.bincount(labels, minlength=3)[1:] / labels.size
        assert frac.min() >= 0.05

    def test_alignment_of_series_innovations_variances(self):
        spec = reference_spec()
        path = simulate_path(spec, SimConfig(n=300, seed=5, burn_in=0))
        x = path.series.values
        mpd = spec.mean_lag_length
        for t in range(mpd, 300):
            mean = conditional_mean(spec, x[:t])
            resid = x[t] - mean
            assert resid == pytest.approx(
                path.innovations[t] * math.sqrt(path.variances[t]), abs=1e-10
            )

    def test_symmetric_spec_innovation_skewness_vanishes(self):
        spec = ModelSpec(
            partition=ThresholdPartition.single_regime(),
            tar=TarParams(np.array([[0.0]])),
            aarch=AarchParams(0.2, np.array([0.6]), np.zeros(1)),
        )
        path = simulate_path(spec, SimConfig(n=100_000, seed=17))
        assert abs(skew(path.series.values)) < 0.1

    def test_explosive_path_raises_with_index(self):
        boom = ModelSpec(
            partition=ThresholdPartition.single_regime(),
            tar=TarParams(np.array([[0.0]])),
            aarch=AarchParams(1.0, np.array([2.5]), np.zeros(1)),
        )
        with pytest.raises(SimulationError, match="step") as err:
            simulate_path(boom, SimConfig(n=1000, seed=1))
        assert err.value.index >= 0

    def test_csv_export_shape(self):
        path = simulate_path(noise_only_spec(), SimConfig(n=4, seed=2))
        buf = io.StringIO()
        path_to_csv(path, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,x,h,z"
        assert len(lines) == 5
        assert lines[1].startswith("0,")


class TestTransforms:
    def test_log_return_scaled(self):
        out = log_return_transform(np.array([100.0, 101.0]))
        assert out.values[0] == pytest.approx(100 * math.log(1.01), abs=1e-12)
        assert out.values[0] == pytest.approx(0.99503, abs=1e-5)

    def test_log_return_unscaled_inverts(self):
        prices = np.array([100.0, 104.0, 99.5, 101.2, 103.7])
        r = log_return_transform(prices, scale100=False).values
        rebuilt = prices[0] * np.exp(np.cumsum(r))
        np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-9)

    def test_log_return_constant_prices(self):
        out = log_return_transform(np.full(5, 42.0))
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_log_return_rejects_nonpositive_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            log_return_transform(np.array([100.0, 0.0]))

    def test_relative_return_values(self):
        up = relative_return_transform(np.array([100.0, 101.0]))
        down = relative_return_transform(np.array([100.0, 99.0]))
        assert up.values[0] == pytest.approx(0.01, abs=1e-15)
        assert down.values[0] == pytest.approx(-0.01, abs=1e-15)

    def test_relative_return_rejects_zero_price(self):
        with pytest.raises(ValueError, match="index 1"):
            relative_return_transform(np.array([100.0, 0.0, 5.0]))

    def test_box_cox_fixed_points(self):
        out = box_cox_sqrt_transform(np.array([1.0, 4.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.0, 2.0, -2.0], atol=1e-15)

    def test_box_cox_rejects_negative(self):
        with pytest.raises(ValueError, match="index 2"):
            box_cox_sqrt_transform(np.array([1.0, 2.0, -0.5]))


class TestSimConfig:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            SimConfig(n=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=10, seed=1, burn_in=-1)

    @pytest.mark.parametrize("key, value", [
        ("n", 50.5), ("n", True), ("seed", 1.7), ("seed", "1"), ("burn_in", 10.5),
    ])
    def test_rejects_a_setting_that_is_not_whole(self, key, value):
        settings = {"n": 50, "seed": 1, "burn_in": 10, key: value}
        with pytest.raises(ValueError, match=f"{key} must be a whole number, got {value!r}"):
            SimConfig(**settings)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            SimConfig(n=5, seed=seed)
        assert SimConfig(n=5, seed=2**64 - 1).seed == 2**64 - 1

    def test_whole_float_and_numpy_settings_load_as_ints(self):
        config = SimConfig(n=50.0, seed=np.int64(3), burn_in=np.int32(10))
        assert (config.n, config.seed, config.burn_in) == (50, 3, 10)
        assert {type(v) for v in (config.n, config.seed, config.burn_in)} == {int}
