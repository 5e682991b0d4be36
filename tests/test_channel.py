import numpy as np
import pytest
from scipy import integrate

from siotsec import (
    AntennaConfig,
    LinkGeometry,
    RngSeed,
    SnrModel,
    avg_received_snr,
    make_snr_model,
    sample_snr,
    snr_cdf,
    snr_pdf,
    snr_quantile,
)
from siotsec.channel import MC_MAX_SAMPLES

MODELS = [SnrModel(1.0, 1), SnrModel(1.0, 9), SnrModel(0.5, 2), SnrModel(3.0, 4)]


def test_avg_received_snr_direct_and_pathloss():
    geom = LinkGeometry(15.0, 2.0)
    assert avg_received_snr(0.0, geom, "direct") == pytest.approx(1.0)
    assert avg_received_snr(0.0, LinkGeometry(1.0, 2.0), "pathloss") == pytest.approx(1.0)
    assert avg_received_snr(0.0, geom, "pathloss") == pytest.approx(1.0 / 225.0)
    assert avg_received_snr(10.0, geom, "direct") == pytest.approx(10.0)


def test_avg_received_snr_rejects_bad_input():
    geom = LinkGeometry(1.0, 2.0)
    with pytest.raises(ValueError):
        avg_received_snr(float("nan"), geom, "direct")
    with pytest.raises(ValueError):
        avg_received_snr(float("inf"), geom, "direct")
    with pytest.raises(ValueError):
        avg_received_snr(0.0, geom, "bogus")


def test_geometry_and_antenna_validation():
    with pytest.raises(ValueError):
        LinkGeometry(0.0, 2.0)
    with pytest.raises(ValueError):
        LinkGeometry(1.0, -1.0)
    with pytest.raises(ValueError):
        LinkGeometry(float("inf"), 2.0)
    with pytest.raises(ValueError):
        AntennaConfig(0, 1)
    with pytest.raises(ValueError):
        AntennaConfig(2, -3)


def test_snr_model_validation():
    with pytest.raises(ValueError):
        SnrModel(0.0, 1)
    with pytest.raises(ValueError):
        SnrModel(-1.0, 1)
    with pytest.raises(ValueError):
        SnrModel(1.0, 0)


def test_make_snr_model():
    siso = make_snr_model(1.0, AntennaConfig(1, 1))
    assert siso.gamma_shape == 1 and siso.mean_total_snr == pytest.approx(1.0)
    m33 = make_snr_model(1.0, AntennaConfig(3, 3))
    assert m33.gamma_shape == 9 and m33.mean_total_snr == pytest.approx(9.0)
    m21 = make_snr_model(0.5, AntennaConfig(2, 1))
    assert m21.gamma_shape == 2 and m21.mean_total_snr == pytest.approx(1.0)


def test_cdf_examples():
    exponential = SnrModel(1.0, 1)
    assert snr_cdf(exponential, 1e9) == pytest.approx(1.0, abs=1e-12)
    assert snr_cdf(exponential, 1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    # oracle: P(X <= 9) for X ~ Gamma(9, 1) in closed form, 1 - e^-9 sum_{i<9} 9^i / i!
    assert snr_cdf(SnrModel(1.0, 9), 9.0) == pytest.approx(0.5443473956775812, abs=1e-12)


def test_cdf_rejects_negative():
    # the public functions check every input; only quadrature calls the unchecked kernels
    for fn in (snr_cdf, snr_pdf):
        for x in (-0.5, np.nan, np.inf, -np.inf, [1.0, np.nan, 2.0], [1.0, -2.0, 3.0]):
            with pytest.raises(ValueError, match=r"^x must be finite and >= 0$"):
                fn(SnrModel(1.0, 1), x)


def test_cdf_monotone_on_grid():
    grid = np.linspace(0.0, 60.0, 400)
    for model in MODELS:
        vals = snr_cdf(model, grid)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_pdf_integrates_to_one():
    for model in MODELS:
        hi = snr_quantile(model, 1.0 - 1e-12)
        total, _ = integrate.quad(lambda x: snr_pdf(model, x), 0.0, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_at_zero():
    assert snr_pdf(SnrModel(2.0, 1), 0.0) == pytest.approx(0.5)
    assert snr_pdf(SnrModel(1.0, 9), 0.0) == 0.0


def test_quantile_inverts_cdf():
    for model in MODELS:
        for p in (0.05, 0.3, 0.5, 0.9, 0.999):
            assert snr_cdf(model, snr_quantile(model, p)) == pytest.approx(p, abs=1e-10)


def test_sample_mean_law_of_large_numbers():
    draws = sample_snr(SnrModel(1.0, 1), 10**6, RngSeed(42, 0))
    assert np.mean(draws) == pytest.approx(1.0, abs=0.01)


def test_sample_variance_shape9():
    draws = sample_snr(SnrModel(1.0, 9), 10**6, RngSeed(42, 1))
    assert np.var(draws) == pytest.approx(9.0, abs=0.15)


def test_sampling_determinism_and_streams():
    model = SnrModel(2.0, 3)
    a = sample_snr(model, 1000, RngSeed(7, 5))
    b = sample_snr(model, 1000, RngSeed(7, 5))
    assert np.array_equal(a, b)
    c = sample_snr(model, 1000, RngSeed(7, 6))
    assert not np.array_equal(a, c)
    d = sample_snr(model, 1000, RngSeed(8, 5))
    assert not np.array_equal(a, d)


def test_empirical_quantiles_match_cdf():
    model = SnrModel(1.0, 9)
    draws = sample_snr(model, 10**6, RngSeed(11, 0))
    for p in (0.1, 0.5, 0.9):
        q_hat = np.quantile(draws, p)
        tol = 3.0 * np.sqrt(p * (1.0 - p) / draws.size)
        assert snr_cdf(model, q_hat) == pytest.approx(p, abs=tol)


def test_sample_snr_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_snr(SnrModel(1.0, 1), 0, RngSeed(0, 0))
    # rejected before one array of n floats is allocated
    with pytest.raises(ValueError, match=rf"must be an integer in \[1, {MC_MAX_SAMPLES}\]"):
        sample_snr(SnrModel(1.0, 1), MC_MAX_SAMPLES + 1, RngSeed(0, 0))


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(0, 2**64)
    assert RngSeed(3, 0).with_stream(9) == RngSeed(3, 9)
