import itertools

import numpy as np
import pytest

from siotsec import (
    BracketError,
    EstimateWithError,
    QuadratureError,
    RngSeed,
    SecrecyScenario,
    SemanticProfile,
    SnrModel,
    asc,
    asc_mc,
    pnz,
    pnz_mc,
    secrecy,
    secrecy_capacity,
    semantic_sop,
    snr_cdf,
    snr_pdf,
    snr_quantile,
    snr_saving_db,
    sop_mc,
    sop_numeric,
)
from siotsec import channel


def siso(gb: float, ge: float, rs: float = 1.0) -> SecrecyScenario:
    return SecrecyScenario(SnrModel(gb), SnrModel(ge), rs)


def shaped(gb: float, ge: float, kb: int, ke: int, rs: float = 1.0) -> SecrecyScenario:
    return SecrecyScenario(SnrModel(gb, kb), SnrModel(ge, ke), rs)


FIG3_SCENARIO = shaped(1.0, 1.0, 9, 9, rs=1.0)


def test_secrecy_capacity_examples():
    assert secrecy_capacity(2.5, 2.5) == 0.0
    assert secrecy_capacity(3.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert secrecy_capacity(0.0, 5.0) == 0.0
    out = secrecy_capacity([3.0, 0.0], [1.0, 5.0])
    assert out == pytest.approx([1.0, 0.0])


def test_secrecy_capacity_rejects_negative():
    with pytest.raises(ValueError):
        secrecy_capacity(-1.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_capacity(1.0, float("nan"))


def test_sop_symmetric_links_at_rate_zero():
    # exchangeable continuous links: P(gB < gE) = 1/2
    assert sop_numeric(siso(2.0, 2.0, rs=0.0)) == pytest.approx(0.5, abs=1e-6)
    assert sop_numeric(shaped(1.0, 1.0, 9, 9, rs=0.0)) == pytest.approx(0.5, abs=1e-6)


def test_sop_impossible_rate():
    assert sop_numeric(siso(10.0, 1.0, rs=40.0)) == pytest.approx(1.0, abs=1e-9)


def test_sop_numeric_matches_mc():
    for scenario in (siso(10.0, 1.0), FIG3_SCENARIO, shaped(2.0, 0.5, 9, 3, rs=0.5)):
        est = sop_mc(scenario, 10**6, RngSeed(1, 0))
        assert abs(sop_numeric(scenario) - est.value) <= 3.0 * est.std_error


def test_sop_mc_determinism_and_symmetry():
    s = siso(1.0, 1.0, rs=0.0)
    a = sop_mc(s, 10**5, RngSeed(5, 9))
    b = sop_mc(s, 10**5, RngSeed(5, 9))
    assert a == b
    big = sop_mc(s, 10**6, RngSeed(5, 10))
    assert abs(big.value - 0.5) <= 3.0 * big.std_error


def test_sop_mc_rejects_small_n():
    with pytest.raises(ValueError):
        sop_mc(siso(1.0, 1.0), 999, RngSeed(0, 0))


def test_pnz_closed_form_siso():
    assert pnz(siso(1.0, 1.0)) == pytest.approx(0.5, abs=1e-9)
    assert pnz(siso(3.0, 1.0)) == pytest.approx(0.75, abs=1e-9)
    assert pnz(siso(10.0, 1.0)) == pytest.approx(10.0 / 11.0, abs=1e-9)


def test_pnz_numeric_matches_mc():
    s = shaped(2.0, 1.0, 9, 9)
    est = pnz_mc(s, 10**6, RngSeed(2, 0))
    assert abs(pnz(s) - est.value) <= 3.0 * est.std_error


def test_pnz_complement_sums_to_one():
    s = shaped(2.0, 1.0, 4, 2)
    rng = RngSeed(3, 0).generator()
    gb = rng.gamma(s.snr_b.gamma_shape, s.snr_b.mean_branch_snr, size=10**6)
    ge = rng.gamma(s.snr_e.gamma_shape, s.snr_e.mean_branch_snr, size=10**6)
    below = float(np.mean(gb < ge))
    se = np.sqrt(below * (1.0 - below) / 10**6)
    assert pnz(s) + below == pytest.approx(1.0, abs=3.0 * se)


def test_sop_at_rate_zero_equals_one_minus_pnz():
    for s in (siso(3.0, 1.0, rs=0.0), shaped(2.0, 1.0, 9, 3, rs=0.0)):
        assert sop_numeric(s) == pytest.approx(1.0 - pnz(s), abs=1e-6)


def test_asc_identical_links_half_absolute_gap():
    s = shaped(1.0, 1.0, 3, 3)
    rng = RngSeed(4, 0).generator()
    gb = rng.gamma(3, 1.0, size=10**6)
    ge = rng.gamma(3, 1.0, size=10**6)
    half_abs = 0.5 * np.abs(np.log2(1.0 + gb) - np.log2(1.0 + ge))
    se = np.std(half_abs) / np.sqrt(half_abs.size)
    assert asc(s) == pytest.approx(float(np.mean(half_abs)), abs=3.0 * se)


def test_asc_vanishes_without_main_channel():
    assert asc(siso(1e-6, 1.0)) < 1e-5


def test_asc_numeric_matches_mc():
    for s in (siso(10.0, 1.0), shaped(2.0, 0.5, 9, 3)):
        est = asc_mc(s, 10**6, RngSeed(6, 0))
        assert abs(asc(s) - est.value) <= 3.0 * est.std_error


def test_asc_monotone_in_legitimate_snr():
    values = [asc(siso(g, 1.0)) for g in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_semantic_sop_examples():
    assert semantic_sop(0.4, SemanticProfile(0.0)) == 0.4
    assert semantic_sop(0.5, SemanticProfile(0.3)) == pytest.approx(0.35, abs=1e-15)
    assert semantic_sop(0.7, SemanticProfile(1.0)) == 0.0


def test_semantic_sop_identity_on_grid():
    for sop in np.linspace(0.0, 1.0, 21):
        for sdep in np.linspace(0.0, 1.0, 21):
            assert semantic_sop(float(sop), SemanticProfile(float(sdep))) == sop * (1.0 - sdep)


def test_semantic_sop_validation():
    with pytest.raises(ValueError):
        semantic_sop(1.2, SemanticProfile(0.0))
    with pytest.raises(ValueError):
        SemanticProfile(-0.1)
    with pytest.raises(ValueError):
        SemanticProfile(1.1)


def test_semantic_profile_symbol_derivation():
    p = SemanticProfile.from_symbols(0.99, 50)
    assert p.sdep == pytest.approx(1.0 - 0.99**50, abs=1e-15)
    with pytest.raises(ValueError):
        SemanticProfile(0.5, per_symbol_success=0.9, num_symbols=None)
    with pytest.raises(ValueError):
        SemanticProfile(0.5, per_symbol_success=0.99, num_symbols=50)


def test_sop_monotone_in_snr_and_rate():
    sops = [sop_numeric(shaped(g, 1.0, 9, 9)) for g in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a for a, b in zip(sops, sops[1:]))
    sops_rate = [sop_numeric(shaped(2.0, 1.0, 9, 9, rs=r)) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(sops_rate, sops_rate[1:]))


def test_snr_saving_zero_without_semantic_advantage():
    assert snr_saving_db(FIG3_SCENARIO, SemanticProfile(0.0), 1e-2) == 0.0


def test_snr_saving_increases_with_sdep():
    savings = [snr_saving_db(FIG3_SCENARIO, SemanticProfile(sdep), 1e-2)
               for sdep in np.arange(0.0, 0.91, 0.1)]
    assert savings[0] == 0.0
    assert all(b > a for a, b in zip(savings, savings[1:]))


@pytest.mark.parametrize("sdep,saving,evals", [(0.3, 0.302734375, 21), (0.7, 1.07421875, 23)])
def test_snr_saving_integrates_each_snr_point_once(monkeypatch, sdep, saving, evals):
    # both bisections start from one bracket, so they share its ends and first midpoints
    points = []
    sop = secrecy.sop_numeric
    monkeypatch.setattr(secrecy, "sop_numeric",
                        lambda s: points.append(s.snr_b.mean_branch_snr) or sop(s))
    assert snr_saving_db(FIG3_SCENARIO, SemanticProfile(sdep), 1e-2) == saving
    assert len(points) == len(set(points)) == evals


def test_snr_saving_bracket_and_input_errors():
    with pytest.raises(ValueError):
        snr_saving_db(FIG3_SCENARIO, SemanticProfile(0.3), 0.0)
    with pytest.raises(ValueError):
        snr_saving_db(FIG3_SCENARIO, SemanticProfile(0.3), 1.0)
    with pytest.raises(BracketError):
        snr_saving_db(FIG3_SCENARIO, SemanticProfile(0.3), 1e-2, bracket=(-20.0, -15.0))
    with pytest.raises(BracketError):
        snr_saving_db(FIG3_SCENARIO, SemanticProfile(1.0), 1e-2)


def test_estimate_validation():
    with pytest.raises(ValueError):
        EstimateWithError(float("nan"), 0.0, 10)
    with pytest.raises(ValueError):
        EstimateWithError(0.5, -1.0, 10)
    with pytest.raises(ValueError):
        EstimateWithError(0.5, 0.1, 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        SecrecyScenario(SnrModel(1.0), SnrModel(1.0), -1.0)


def _checked_reference(metric, s: SecrecyScenario) -> float:
    """metric(s) with integrands that call the public, checked snr_pdf/snr_cdf."""
    x_e = snr_quantile(s.snr_e, 1.0 - secrecy._TAIL_PROB)
    if metric is sop_numeric:
        pow2 = 2.0**s.rate_threshold
        val = secrecy._quad(
            lambda x: snr_pdf(s.snr_e, x) * snr_cdf(s.snr_b, pow2 * (1.0 + x) - 1.0),
            0.0, x_e, "SOP")
        return min(1.0, max(0.0, val))
    if metric is pnz:
        val = secrecy._quad(lambda x: snr_pdf(s.snr_e, x) * (1.0 - snr_cdf(s.snr_b, x)),
                            0.0, x_e, "PNZ")
        return min(1.0, max(0.0, val))
    x_max = max(snr_quantile(s.snr_b, 1.0 - secrecy._TAIL_PROB), x_e)
    val = secrecy._quad(
        lambda x: snr_cdf(s.snr_e, x) * (1.0 - snr_cdf(s.snr_b, x)) / (1.0 + x),
        0.0, x_max, "ASC")
    return max(0.0, val / secrecy._LN2)


@pytest.mark.parametrize("metric", [sop_numeric, pnz, asc], ids=["sop", "pnz", "asc"])
def test_numeric_metrics_check_inputs_once_per_call(monkeypatch, metric):
    checks = []
    check = channel._check_nonnegative
    monkeypatch.setattr(channel, "_check_nonnegative",
                        lambda x, what: checks.append(what) or check(x, what))
    for s in (siso(10.0, 1.0), FIG3_SCENARIO, shaped(2.0, 0.5, 64, 9, rs=2.0),
              shaped(0.1, 3.0, 1, 64, rs=0.0), shaped(30.0, 30.0, 64, 64, rs=1.0)):
        value = metric(s)
        assert checks == []
        # the same integral, node for node, through the checked public functions
        assert value == _checked_reference(metric, s)
        assert checks  # the reference did go through the check
        checks.clear()


# scipy flags a few tiny ASC integrals on this grid as slowly convergent; the
# test reads the nodes quad evaluated, not its convergence
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integrands_read_only_finite_nonnegative_snrs(monkeypatch):
    # the integrands call channel's unchecked kernels; this is the check they skip
    args = []

    def recorder(kernel):
        return lambda model, x: args.append(x) or kernel(model, x)

    monkeypatch.setattr(secrecy, "_pdf", recorder(channel._pdf))
    monkeypatch.setattr(secrecy, "_cdf", recorder(channel._cdf))
    overflows = 0
    for kb, ke, db_b, db_e, rate in itertools.product(
            (1, 4, 64), (1, 4, 64), (-20, 0, 30, 60), (-20, 0, 30, 60), (0.0, 1.0, 1023.0)):
        s = shaped(10.0 ** (db_b / 10), 10.0 ** (db_e / 10), kb, ke, rs=rate)
        for metric in (sop_numeric, pnz, asc):
            args.clear()
            try:
                metric(s)
            except QuadratureError as err:
                # only SOP's range check raises here, before any node is read
                assert metric is sop_numeric and "cannot start" in err.message
                x_max = snr_quantile(s.snr_e, 1.0 - secrecy._TAIL_PROB)
                assert rate == 1023.0 and not np.isfinite(2.0**rate * (1.0 + x_max))
                assert args == []
                overflows += 1
                continue
            nodes = np.array(args)
            assert nodes.size > 0
            assert np.all(np.isfinite(nodes)) and np.all(nodes >= 0.0)
    # the same calls raise QuadratureError as when every node went through the check
    assert overflows == 120
