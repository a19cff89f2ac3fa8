import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taraarch.model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    TimeSeries,
    check_stationarity,
    conditional_mean,
    news_impact,
    param_names,
    param_vector,
    regime_index,
    regime_indices,
    replace_params,
    residuals,
    variance_path,
)
from taraarch.baselines import arch_variance
from taraarch.montecarlo import reference_spec
from taraarch.simulate import SimConfig, simulate_path

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def lynx_partition():
    return ThresholdPartition(regimes=2, delay=2, thresholds=np.array([3.25]))


def single_regime_spec(phi, alpha0=1.0, a1=0.0, b1=0.0, delay=1):
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    return ModelSpec(
        p=phi.shape[1] - 1,
        q=1,
        partition=ThresholdPartition.single_regime(delay=delay),
        tar=TarParams(phi),
        aarch=AarchParams(alpha0=alpha0, alphas=np.array([a1]), betas=np.array([b1])),
    )


class TestTypes:
    def test_time_series_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeries(np.array([1.0, np.nan]))

    def test_time_series_rejects_empty(self):
        with pytest.raises(ValueError, match="length"):
            TimeSeries(np.array([]))

    def test_partition_threshold_count(self):
        with pytest.raises(ValueError, match="thresholds"):
            ThresholdPartition(regimes=3, delay=1, thresholds=np.array([1.0]))

    def test_partition_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ThresholdPartition(regimes=3, delay=1, thresholds=np.array([2.0, 2.0]))

    def test_partition_delay_positive(self):
        with pytest.raises(ValueError, match="delay"):
            ThresholdPartition(regimes=1, delay=0, thresholds=np.array([]))

    def test_single_regime_has_no_thresholds(self):
        assert ThresholdPartition.single_regime().thresholds.size == 0

    def test_aarch_rejects_nonpositive_alpha0(self):
        with pytest.raises(ValueError, match="alpha0"):
            AarchParams(alpha0=0.0, alphas=np.array([0.1]), betas=np.array([0.0]))

    def test_aarch_rejects_q_zero(self):
        with pytest.raises(ValueError):
            AarchParams(alpha0=1.0, alphas=np.array([]), betas=np.array([]))

    def test_spec_dimension_consistency(self):
        part = lynx_partition()
        tar = TarParams(np.zeros((2, 3)))
        aarch = AarchParams(1.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="p="):
            ModelSpec(p=1, q=1, partition=part, tar=tar, aarch=aarch)
        with pytest.raises(ValueError, match="regimes"):
            ModelSpec(
                p=2,
                q=1,
                partition=ThresholdPartition.single_regime(),
                tar=tar,
                aarch=aarch,
            )

    def test_values_are_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestRegimeIndex:
    def test_below_threshold(self):
        assert regime_index(lynx_partition(), 3.0) == 1

    def test_boundary_belongs_to_lower_regime(self):
        assert regime_index(lynx_partition(), 3.25) == 1

    def test_above_threshold(self):
        assert regime_index(lynx_partition(), 4.0) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            regime_index(lynx_partition(), np.inf)

    def test_totality_on_a_million_points(self):
        part = ThresholdPartition(regimes=4, delay=1, thresholds=np.array([-1.0, 0.5, 2.0]))
        rng = np.random.Generator(np.random.Philox(key=7))
        x = rng.uniform(-1e6, 1e6, size=1_000_000)
        labels = regime_indices(part, x)
        assert labels.min() >= 1 and labels.max() <= 4
        # every point lands in exactly one regime
        counts = np.bincount(labels, minlength=5)
        assert counts[1:].sum() == x.size

    @given(x=finite_floats)
    @settings(deadline=None, max_examples=200)
    def test_membership_matches_interval_definition(self, x):
        part = ThresholdPartition(regimes=3, delay=1, thresholds=np.array([-0.5, 1.5]))
        j = regime_index(part, x)
        in_regime = [x <= -0.5, -0.5 < x <= 1.5, x > 1.5]
        assert sum(in_regime) == 1
        assert in_regime[j - 1]


class TestConditionalMean:
    def test_lynx_regime_one_intercept(self):
        spec = ModelSpec(
            p=2,
            q=1,
            partition=lynx_partition(),
            tar=TarParams(np.array([[0.62, 1.25, -0.43], [2.25, 1.52, -1.24]])),
            aarch=AarchParams(1.0, np.zeros(1), np.zeros(1)),
        )
        assert conditional_mean(spec, [0.0, 0.0]) == pytest.approx(0.62, abs=1e-15)

    def test_zero_coefficients_give_zero(self):
        spec = single_regime_spec([0.0, 0.0, 0.0])
        assert conditional_mean(spec, [3.1, -2.7, 0.4]) == 0.0

    def test_lynx_regime_two_arithmetic(self):
        spec = ModelSpec(
            p=2,
            q=1,
            partition=lynx_partition(),
            tar=TarParams(np.array([[0.62, 1.25, -0.43], [2.25, 1.52, -1.24]])),
            aarch=AarchParams(1.0, np.zeros(1), np.zeros(1)),
        )
        # x[t-2] = 4 > 3.25 selects regime 2
        expected = 2.25 + 1.52 * 4 - 1.24 * 4
        assert conditional_mean(spec, [4.0, 4.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.37, abs=1e-12)

    def test_insufficient_history(self):
        spec = single_regime_spec([0.0, 0.5, 0.1])
        with pytest.raises(ValueError, match="max\\(p, d\\)"):
            conditional_mean(spec, [1.0])


class TestResiduals:
    def test_zero_mean_returns_tail(self):
        spec = single_regime_spec([0.0, 0.0])
        x = np.array([0.3, -1.2, 0.7, 2.2])
        np.testing.assert_allclose(residuals(spec, x), x[1:], atol=0)

    def test_hand_case(self):
        spec = single_regime_spec([1.0, 0.5])
        e = residuals(spec, np.array([2.0, 3.0]))
        assert e.shape == (1,)
        assert e[0] == pytest.approx(1.0, abs=1e-15)

    def test_noiseless_mean_recursion_inverts_exactly(self):
        spec = single_regime_spec([0.4, 0.6])
        x = [1.0]
        for _ in range(50):
            x.append(0.4 + 0.6 * x[-1])
        e = residuals(spec, np.array(x))
        assert np.max(np.abs(e)) < 1e-12

    def test_too_short_series(self):
        spec = single_regime_spec([0.0, 0.5])
        with pytest.raises(ValueError, match="too short"):
            residuals(spec, np.array([1.0]))

    def test_inversion_of_simulated_path(self):
        # innovations recovered from a cold-started simulation match exactly
        # once every lag the variance needs is inside the residual window
        spec = reference_spec()
        sim = simulate_path(spec, SimConfig(n=400, seed=21, burn_in=0))
        e = residuals(spec, sim.series)
        h = variance_path(spec.aarch, e, 0.0)
        mpd = spec.mean_lag_length
        z = e[spec.q :] / np.sqrt(h[spec.q :])
        np.testing.assert_allclose(
            z, sim.innovations[mpd + spec.q :], atol=1e-10, rtol=0
        )


class TestVariancePath:
    def test_constant_variance_when_loadings_zero(self):
        aarch = AarchParams(0.7, np.zeros(1), np.zeros(1))
        h = variance_path(aarch, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(h, 0.7, atol=0)

    def test_asymmetry_hand_values(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
        h_pos = variance_path(aarch, np.array([1.0, 0.0]))[1]
        h_neg = variance_path(aarch, np.array([-1.0, 0.0]))[1]
        assert h_pos == pytest.approx(0.74, abs=1e-15)
        assert h_neg == pytest.approx(0.14, abs=1e-15)

    def test_symmetric_case_matches_arch_with_squared_coefficients(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        e = rng.normal(size=300)
        aarch = AarchParams(0.2, np.array([0.5, 0.3]), np.zeros(2))
        h = variance_path(aarch, e, 0.0)
        h_arch = arch_variance(0.2, np.array([0.25, 0.09]), e)
        np.testing.assert_allclose(h, h_arch, atol=1e-12, rtol=0)

    def test_presample_h_enters_variance_of_early_terms(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
        h = variance_path(aarch, np.array([1.0, 1.0]), presample_h=2.0)
        assert h[0] == pytest.approx(0.1 + (0.25 + 0.09) * 2.0, abs=1e-15)
        assert h[1] == pytest.approx(0.74, abs=1e-15)

    @given(
        data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
        a1=st.floats(0, 2),
        b1=st.floats(-2, 2),
        alpha0=st.floats(1e-6, 10),
    )
    @settings(deadline=None, max_examples=200)
    def test_positivity_floor(self, data, a1, b1, alpha0):
        aarch = AarchParams(alpha0, np.array([a1]), np.array([b1]))
        h = variance_path(aarch, np.array(data))
        assert np.all(h >= alpha0)


class TestNewsImpact:
    def test_hand_value(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
        assert news_impact(aarch, 1.0, 1) == pytest.approx(0.64, abs=1e-15)

    def test_symmetric_when_beta_zero(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.0]))
        assert news_impact(aarch, 1.0, 1) == pytest.approx(0.25, abs=1e-15)
        assert news_impact(aarch, -1.0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_zero_shock(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
        assert news_impact(aarch, 0.0, 1) == 0.0

    def test_lag_out_of_range(self):
        aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
        with pytest.raises(ValueError, match="lag"):
            news_impact(aarch, 1.0, 2)

    @given(
        shock=st.floats(0.01, 100),
        a1=st.one_of(st.just(0.0), st.floats(1e-3, 2)),
        b1=st.one_of(st.just(0.0), st.floats(1e-3, 2), st.floats(-2, -1e-3)),
    )
    @settings(deadline=None, max_examples=200)
    def test_sign_symmetry_iff_beta_zero(self, shock, a1, b1):
        # magnitudes bounded away from zero so float64 resolves the 4*a*b*s^2
        # cross term whenever it is mathematically nonzero
        aarch = AarchParams(0.1, np.array([a1]), np.array([b1]))
        same = math.isclose(
            news_impact(aarch, shock, 1),
            news_impact(aarch, -shock, 1),
            rel_tol=0,
            abs_tol=1e-12 * max(1.0, (a1 + abs(b1)) ** 2 * shock**2),
        )
        assert same == (a1 * b1 == 0.0)


class TestStationarityCheck:
    def test_reference_spec_passes_quietly(self, recwarn):
        assert check_stationarity(reference_spec())
        assert len(recwarn) == 0

    def test_violation_warns_but_does_not_raise(self):
        spec = single_regime_spec([0.0, 1.5], a1=0.9, b1=0.9)
        with pytest.warns(UserWarning, match="stationarity"):
            assert not check_stationarity(spec)


class TestSerialization:
    def test_json_round_trip_is_bit_stable(self):
        spec = ModelSpec(
            p=2,
            q=2,
            partition=ThresholdPartition(2, 3, np.array([1.0 / 3.0])),
            tar=TarParams(np.array([[0.1, 0.2, -0.3], [1e-17, 0.7, 2.0 / 7.0]])),
            aarch=AarchParams(0.1, np.array([0.5, 0.25]), np.array([-0.125, 0.3])),
        )
        again = ModelSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        np.testing.assert_array_equal(again.tar.coefficients, spec.tar.coefficients)
        np.testing.assert_array_equal(again.aarch.alphas, spec.aarch.alphas)
        np.testing.assert_array_equal(
            again.partition.thresholds, spec.partition.thresholds
        )
        # documented key set
        assert set(json.loads(spec.to_json())) == {
            "p", "q", "delay", "thresholds", "tar", "alpha0", "alphas", "betas",
        }

    @pytest.mark.parametrize("key, value", [
        ("p", 2.7), ("q", 1.5), ("delay", 2.9), ("q", True), ("p", "1"), ("delay", None),
    ])
    def test_order_or_delay_that_is_not_whole_is_rejected(self, key, value):
        doc = {**reference_spec().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"{key} must be a whole number, got"):
            ModelSpec.from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        (5, "model spec must be an object, got 5"),
        ([], "model spec must be an object, got []"),
        ("x", "model spec must be an object, got 'x'"),
        ({"tar": {}}, "tar must be a list of equal-length lists of numbers, got {}"),
        ({"tar": [[0.2, 0.5], [-0.3]]},
         "tar must be a list of equal-length lists of numbers, got [[0.2, 0.5], [-0.3]]"),
        ({"alphas": {}}, "alphas must be a list of numbers, got {}"),
        ({"betas": ["0.2"]}, "betas must be a number, got '0.2'"),
        ({"alphas": [True]}, "alphas must be a number, got True"),
        ({"thresholds": 0.0}, "thresholds must be a list of numbers, got 0.0"),
        ({"alpha0": [1]}, "alpha0 must be a number, got [1]"),
        ({"alpha0": "0.1"}, "alpha0 must be a number, got '0.1'"),
    ])
    def test_malformed_document_is_rejected_naming_the_field(self, doc, message):
        if isinstance(doc, dict):
            doc = {**reference_spec().to_dict(), **doc}
        with pytest.raises(ValueError) as excinfo:
            ModelSpec.from_dict(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("drop, extra, message", [
        (("alphas",), {}, "model spec is missing key(s): alphas"),
        (("betas", "p"), {}, "model spec is missing key(s): p, betas"),
        ((), {"gamma": 1}, "unknown model spec key(s): gamma"),
        (("alphas",), {"alpha": [0.4]}, "unknown model spec key(s): alpha"),
    ])
    def test_missing_or_unknown_key_is_rejected(self, drop, extra, message):
        doc = {k: v for k, v in reference_spec().to_dict().items() if k not in drop}
        with pytest.raises(ValueError) as excinfo:
            ModelSpec.from_dict({**doc, **extra})
        assert str(excinfo.value) == message

    def test_whole_float_order_and_delay_load_as_ints(self):
        doc = {**reference_spec().to_dict(), "p": 1.0, "q": 1.0, "delay": 1.0}
        spec = ModelSpec.from_dict(doc)
        assert (type(spec.p), type(spec.q), type(spec.partition.delay)) == (int, int, int)
        assert spec.to_dict() == reference_spec().to_dict()

    def test_param_vector_round_trip(self):
        spec = reference_spec()
        vec = param_vector(spec)
        assert len(param_names(spec)) == vec.size
        again = replace_params(spec, vec)
        assert again.to_dict() == spec.to_dict()
