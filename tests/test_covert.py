import numpy as np
import pytest
from scipy import special

from siotsec import (
    CovertScenario,
    RngSeed,
    WardenModel,
    covert_rate_shannon,
    dep_energy_detector,
    dep_optimal,
    dfp,
    dfp_mc,
    hypothesis_total_variation,
    num_detections,
    optimal_threshold,
    transmission_time_s,
)


def scenario(**overrides) -> CovertScenario:
    base = dict(dep=0.99, detection_rate_hz=5.0, covert_rate_bps_hz=20.0,
                bandwidth_hz=5.0e6, source_bits=1.0e9, compression_ratio=1.0)
    base.update(overrides)
    return CovertScenario(**base)


def test_covert_rate_shannon():
    assert covert_rate_shannon(1.0) == pytest.approx(1.0)
    assert covert_rate_shannon(0.0) == 0.0
    assert covert_rate_shannon(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        covert_rate_shannon(-0.1)


def test_num_detections_ten_second_transfer():
    # R*B = 1e8 bit/s moves 1e9 bits in 10 s; at 5 looks/s that is 50 looks
    s = scenario()
    assert transmission_time_s(s) == pytest.approx(10.0)
    assert num_detections(s) == pytest.approx(50.0)
    assert num_detections(scenario(compression_ratio=0.5)) == pytest.approx(25.0)
    assert num_detections(scenario(detection_rate_hz=0.0)) == 0.0


def test_num_detections_multiplies_left_to_right():
    # f * rho * D / (R * B) in this order; the CLI look counts depend on it bit for bit
    f, rho, d, r, b = 3.3, 0.37, 7.7e8, 13.0, 2.2e6
    s = scenario(detection_rate_hz=f, compression_ratio=rho, source_bits=d,
                 covert_rate_bps_hz=r, bandwidth_hz=b)
    assert num_detections(s) == f * rho * d / (r * b)


def test_dfp_power_law():
    assert dfp(0.99, 50.0) == pytest.approx(0.99**50, abs=1e-15)
    assert 1.0 - dfp(0.99, 50.0) == pytest.approx(0.395, abs=5e-4)
    assert dfp(1.0, 123.4) == 1.0
    assert dfp(0.37, 0.0) == 1.0
    assert dfp(0.0, 0.0) == 1.0
    assert dfp(0.0, 3.0) == 0.0


def test_dfp_validation():
    with pytest.raises(ValueError):
        dfp(1.1, 1.0)
    with pytest.raises(ValueError):
        dfp(0.5, -1.0)
    with pytest.raises(ValueError):
        dfp(0.5, float("inf"))


def test_dfp_exponent_additivity():
    for dep in (0.5, 0.9, 0.99):
        for a, b in ((1.0, 2.0), (0.3, 12.7), (5.5, 5.5)):
            assert dfp(dep, a + b) == pytest.approx(dfp(dep, a) * dfp(dep, b), abs=1e-12)


def test_dfp_monotonicity_over_scenario_grids():
    looks = [num_detections(scenario(detection_rate_hz=f)) for f in (0.0, 1.0, 2.0, 5.0)]
    vals = [dfp(0.95, n) for n in looks]
    assert all(b <= a for a, b in zip(vals, vals[1:]))

    looks = [num_detections(scenario(source_bits=d)) for d in (1e8, 5e8, 1e9, 2e9)]
    vals = [dfp(0.95, n) for n in looks]
    assert all(b <= a for a, b in zip(vals, vals[1:]))

    # heavier semantic compression (smaller rho) keeps the warden blind longer
    looks = [num_detections(scenario(compression_ratio=r)) for r in (1.0, 0.7, 0.4, 0.1)]
    vals = [dfp(0.95, n) for n in looks]
    assert all(b >= a for a, b in zip(vals, vals[1:]))

    vals = [dfp(dep, 20.0) for dep in (0.5, 0.8, 0.9, 0.99)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(dep=0.0)
    with pytest.raises(ValueError):
        scenario(dep=1.2)
    with pytest.raises(ValueError):
        scenario(bandwidth_hz=-5.0)
    with pytest.raises(ValueError):
        scenario(compression_ratio=0.0)
    with pytest.raises(ValueError):
        scenario(detection_rate_hz=-1.0)


def test_warden_validation():
    with pytest.raises(ValueError):
        WardenModel(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        WardenModel(1.0, -0.5, 10)
    with pytest.raises(ValueError):
        WardenModel(1.0, 1.0, 0)


def test_dep_silent_signal_is_blind():
    w = WardenModel(1.0, 0.0, 20)
    for tau in np.linspace(0.0, 80.0, 17):
        point = dep_energy_detector(w, float(tau))
        assert point.dep == pytest.approx(1.0, abs=1e-9)
    assert dep_optimal(w).dep_min == 1.0


def test_dep_extreme_threshold():
    w = WardenModel(1.0, 1.0, 20)
    point = dep_energy_detector(w, 1e6)
    assert point.p_fa == pytest.approx(0.0, abs=1e-12)
    assert point.p_md == pytest.approx(1.0, abs=1e-12)
    assert point.dep == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dep_energy_detector(w, -1.0)


def test_dep_error_rates_monotone_in_threshold():
    w = WardenModel(1.0, 0.5, 20)
    taus = np.linspace(0.0, 120.0, 60)
    points = [dep_energy_detector(w, float(t)) for t in taus]
    p_fa = [p.p_fa for p in points]
    p_md = [p.p_md for p in points]
    assert all(b <= a for a, b in zip(p_fa, p_fa[1:]))
    assert all(b >= a for a, b in zip(p_md, p_md[1:]))
    assert all(0.0 <= p.p_fa <= 1.0 and 0.0 <= p.p_md <= 1.0 for p in points)


def test_dep_matches_hypothesis_simulation():
    # independent oracle: draw raw complex-Gaussian samples per look and
    # threshold their total energy, rather than using the Gamma law
    w = WardenModel(1.0, 1.0, 20)
    tau = optimal_threshold(w)
    trials, n = 10**6, w.samples_per_detection
    rng = RngSeed(21, 0).generator()

    def energies(power: float) -> np.ndarray:
        parts = rng.normal(0.0, np.sqrt(power / 2.0), size=(trials, 2 * n))
        return np.sum(parts**2, axis=1)

    p_fa_hat = float(np.mean(energies(w.noise_power) > tau))
    p_md_hat = float(np.mean(energies(w.noise_power + w.received_signal_power) <= tau))
    point = dep_energy_detector(w, tau)
    se = np.sqrt(p_fa_hat * (1 - p_fa_hat) / trials + p_md_hat * (1 - p_md_hat) / trials)
    assert point.dep == pytest.approx(p_fa_hat + p_md_hat, abs=3.0 * se)


def test_dep_optimal_beats_grid_search():
    w = WardenModel(1.0, 0.5, 20)
    tau_star, dep_min = dep_optimal(w)
    taus = np.linspace(0.0, 4.0 * w.samples_per_detection * 1.5, 10**4)
    n = w.samples_per_detection
    grid = special.gammaincc(n, taus / 1.0) + special.gammainc(n, taus / 1.5)
    assert dep_min <= float(grid.min()) + 1e-6
    assert dep_energy_detector(w, tau_star).dep == pytest.approx(dep_min, abs=1e-12)


def test_dep_optimal_decreases_with_signal_power():
    vals = [dep_optimal(WardenModel(1.0, p, 20)).dep_min for p in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_dep_optimal_equals_one_minus_total_variation():
    for w in (WardenModel(1.0, 1.0, 20), WardenModel(2.0, 0.5, 8), WardenModel(1.0, 0.0, 5),
              WardenModel(1.0, 0.33, 20)):
        tv = hypothesis_total_variation(w)
        dep_min = dep_optimal(w).dep_min
        assert max(0.0, 1.0 - tv) <= dep_min + 1e-9 <= 1.0 + 1e-9
        assert dep_min == pytest.approx(1.0 - tv, abs=1e-7)


def test_dfp_mc_agrees_with_power_law():
    est = dfp_mc(0.99, 50, 10**6, RngSeed(31, 0))
    assert abs(est.value - 0.99**50) <= 3.0 * est.std_error
    est = dfp_mc(0.95, 20, 10**6, RngSeed(31, 1))
    assert abs(est.value - 0.3585) <= 3.0 * est.std_error
    for dep, n_int in ((0.5, 3), (0.9, 10), (0.99, 100)):
        est = dfp_mc(dep, n_int, 10**5, RngSeed(31, 2 + n_int))
        assert abs(est.value - dep**n_int) <= 3.0 * est.std_error


def test_dfp_mc_zero_detections_is_certain():
    est = dfp_mc(0.5, 0, 10**4, RngSeed(0, 0))
    assert est.value == 1.0 and est.std_error == 0.0


def test_dfp_mc_validation():
    with pytest.raises(ValueError):
        dfp_mc(0.5, -1, 10**4, RngSeed(0, 0))
    with pytest.raises(ValueError):
        dfp_mc(0.5, 5, 999, RngSeed(0, 0))
    with pytest.raises(ValueError):
        dfp_mc(1.5, 5, 10**4, RngSeed(0, 0))
