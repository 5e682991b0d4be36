import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siotsec import (
    AttackParams,
    ExperimentSpec,
    Fig3Params,
    Fig5Params,
    ResultTable,
    SemanticProfile,
    SingleMetricParams,
    SpecError,
    WardenModel,
    dfp,
    emit_table,
    num_detections,
    parse_spec,
    render_table,
    run_attack_demo,
    run_experiment,
    run_fig3_sweep,
    run_fig5_sweep,
    run_single_metric,
    serialize_spec,
    snr_saving_db,
)
from siotsec.harness import (
    MAX_ATTACK_ITERS,
    MAX_BLUR_RADIUS,
    MAX_EMBED_DIM,
    MAX_ATTACK_WORK,
    MAX_ENCODER_WEIGHTS,
    _grid,
    _secrecy_scenario,
    render_csv,
    render_json,
)


def spec_of(kind: str, body: str = "", seed: int = 1234) -> ExperimentSpec:
    return parse_spec(f"[experiment]\nkind = {kind}\nseed = {seed}\n{body}")


def test_fig3_defaults_match_reference_point():
    p = spec_of("fig3_sweep").fig3
    assert p.distance_b_m == 15.0
    assert p.distance_e_m == 18.0
    assert p.eve_snr_db == 0.0
    assert p.rate_threshold == 1.0
    assert p.tx_antennas == p.rx_antennas == p.eve_antennas == 3
    assert p.path_loss_exponent == 2.0
    assert p.snr_mode == "direct"
    assert p.sdep_list == (0.3, 0.7)


def test_fig5_defaults_match_reference_point():
    p = spec_of("fig5_sweep").fig5
    assert p.dep == 0.95
    assert p.covert_rate_bps_hz == 20.0
    assert p.bandwidth_hz == 5.0e6
    assert p.detection_rate_hz == 2.0
    assert p.source_bits == 1.0e9


def test_parse_rejects_bad_specs():
    with pytest.raises(SpecError, match="bandwidth_hz"):
        spec_of("fig5_sweep", "[fig5]\nbandwidth_hz = -1\n")
    with pytest.raises(SpecError, match="unknown key"):
        spec_of("fig3_sweep", "[fig3]\nwibble = 3\n")
    with pytest.raises(SpecError, match="unknown section"):
        spec_of("fig3_sweep", "[fig5]\ndep = 0.9\n")
    with pytest.raises(SpecError, match="kind"):
        parse_spec("[experiment]\nseed = 1\n")
    with pytest.raises(SpecError, match="line"):
        parse_spec("[experiment]\nkind = fig3_sweep\n:::nonsense\n")
    with pytest.raises(SpecError, match="sdep_list"):
        spec_of("fig3_sweep", "[fig3]\nsdep_list = 0.3, 1.7\n")
    with pytest.raises(SpecError, match="snr_db_step"):
        spec_of("fig3_sweep", "[fig3]\nsnr_db_step = 0.7\n")


@pytest.mark.parametrize("metric", ["ssop", "dep"])
def test_monte_carlo_method_rejected_where_there_is_none(metric):
    with pytest.raises(SpecError, match="method"):
        spec_of("single_metric", f"[metric]\nmetric = {metric}\nmethod = mc\n")


def test_fields_parse_by_resolved_type():
    spec = spec_of("fig3_sweep", "[fig3]\ntx_antennas = 2\nsdep_list = 0.1,0.2\n"
                   "snr_mode =  pathloss \n")
    assert spec.fig3.tx_antennas == 2 and isinstance(spec.fig3.tx_antennas, int)
    assert spec.fig3.sdep_list == (0.1, 0.2) and spec.fig3.snr_mode == "pathloss"
    with pytest.raises(SpecError, match="experiment.seed: cannot parse"):
        parse_spec("[experiment]\nkind = fig5_sweep\nseed = abc\n")
    with pytest.raises(SpecError, match="fig3.tx_antennas: cannot parse"):
        spec_of("fig3_sweep", "[fig3]\ntx_antennas = 2.5\n")


@pytest.mark.parametrize("kind,body,field", [
    ("fig3_sweep", "[fig3]\nsnr_db_step = 1e-9\n", "snr_db_step"),
    ("fig3_sweep", "[fig3]\nsnr_db_step = 5e-324\n", "snr_db_step"),
    ("fig5_sweep", "[fig5]\nratio_start = 1e-10\nratio_step = 1e-10\n", "ratio_step"),
])
def test_oversized_grids_rejected(kind, body, field):
    with pytest.raises(SpecError, match=f"{field}: gives more than 10001 grid points"):
        spec_of(kind, body)


def test_grid_size_limit_is_inclusive():
    Fig3Params(snr_db_stop=100.0, snr_db_step=0.01)
    with pytest.raises(SpecError, match="snr_db_step"):
        Fig3Params(snr_db_stop=100.01, snr_db_step=0.01)


def test_attack_size_limits_are_inclusive():
    AttackParams()
    AttackParams(height=32, width=32, channels=3, hidden_dim=64, embed_dim=16)
    AttackParams(max_iters=MAX_ATTACK_ITERS, embed_dim=MAX_EMBED_DIM,
                 blur_radius=MAX_BLUR_RADIUS)
    # 1000 * (998 * 4 * 1 + 8) weights
    assert MAX_ENCODER_WEIGHTS == 4_000_000
    AttackParams(height=998, width=4, hidden_dim=1000)
    with pytest.raises(SpecError, match="hidden_dim: gives 4004000 encoder weights"):
        AttackParams(height=999, width=4, hidden_dim=1000)


def test_attack_work_is_capped():
    # 4e6 weights take milliseconds per iteration: 100,000 iterations would run for minutes
    assert MAX_ATTACK_WORK == 10**10
    AttackParams(height=998, width=4, hidden_dim=1000, max_iters=2500)
    with pytest.raises(SpecError, match="max_iters: gives 400000000000 weight-iterations"):
        AttackParams(height=998, width=4, hidden_dim=1000, max_iters=100_000)
    with pytest.raises(SpecError, match="max_iters"):
        AttackParams(height=998, width=4, hidden_dim=1000, max_iters=2501)


def test_parse_accepts_annotated_configs():
    # the README documents configs with inline comments; they must parse
    spec = parse_spec(
        "[experiment]\n"
        "kind = fig3_sweep\n"
        "format = csv            # csv | json\n"
        "\n"
        "[fig3]\n"
        "snr_db_step = 0.5       # must evenly divide the span\n"
        "sdep_list = 0.3, 0.7    # one ssop_<sdep> column per entry\n"
        "snr_mode = direct       # direct | pathloss\n")
    assert spec.fig3.snr_mode == "direct"
    assert spec.fig3.sdep_list == (0.3, 0.7)
    with pytest.raises(SpecError, match="unknown key"):
        parse_spec("[experiment]\nkind = fig5_sweep\ncolour = red\n")


def test_readme_config_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert [parse_spec(b).kind for b in blocks] == [
        "fig3_sweep", "fig5_sweep", "attack_demo", "single_metric"]


def test_spec_roundtrip_all_kinds():
    specs = [
        spec_of("fig3_sweep", "[fig3]\nsnr_db_stop = 12.0\nsdep_list = 0.1, 0.5, 0.9\n"),
        spec_of("fig5_sweep", "[fig5]\ndep = 0.9\nratio_step = 0.05\n", seed=7),
        spec_of("attack_demo", "[attack]\nmax_iters = 50\nepsilon = 0.2\n"),
        spec_of("single_metric", "[metric]\nmetric = pnz\nmethod = mc\n"),
    ]
    for spec in specs:
        assert parse_spec(serialize_spec(spec)) == spec


def test_fig3_sweep_table_properties():
    spec = spec_of("fig3_sweep", "[fig3]\nsnr_db_stop = 10.0\nsnr_db_step = 1.0\n")
    t = run_fig3_sweep(spec)
    assert t.columns == ("snr_b_db", "sop", "ssop_0.3", "ssop_0.7")
    assert len(t.rows) == 11
    sop = t.column("sop")
    assert np.all(np.diff(sop) <= 0.0)
    for sdep in (0.3, 0.7):
        np.testing.assert_allclose(t.column(f"ssop_{sdep:g}"), (1.0 - sdep) * sop, atol=1e-12)
    assert np.all(t.column("ssop_0.7") <= t.column("ssop_0.3") + 1e-15)
    assert np.all(t.column("ssop_0.3") <= sop + 1e-15)


def test_fig3_sweep_with_zero_sdep_repeats_sop():
    spec = spec_of("fig3_sweep",
                   "[fig3]\nsnr_db_stop = 4.0\nsnr_db_step = 2.0\nsdep_list = 0.0\n")
    t = run_fig3_sweep(spec)
    np.testing.assert_array_equal(t.column("ssop_0"), t.column("sop"))


def _crossing_db(x: np.ndarray, y: np.ndarray, level: float) -> float:
    """Log-linear interpolation of the SNR where the curve crosses `level`."""
    logs = np.log10(y)
    target = np.log10(level)
    idx = np.nonzero(logs <= target)[0][0]
    x0, x1, y0, y1 = x[idx - 1], x[idx], logs[idx - 1], logs[idx]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def test_fig3_table_saving_consistent_with_bisection():
    spec = spec_of("fig3_sweep", "[fig3]\nsnr_db_start = 4.0\nsnr_db_stop = 12.0\n")
    t = run_fig3_sweep(spec)
    x = t.column("snr_b_db")
    table_saving = (_crossing_db(x, t.column("sop"), 1e-2)
                    - _crossing_db(x, t.column("ssop_0.7"), 1e-2))
    scenario = spec.fig3.scenario(0.0)
    exact = snr_saving_db(scenario, SemanticProfile(0.7), 1e-2)
    assert abs(table_saving - exact) <= spec.fig3.snr_db_step


def test_fig5_sweep_table():
    t = run_fig5_sweep(spec_of("fig5_sweep"))
    assert t.columns == ("ratio", "dfp_siot", "dfp_conventional")
    ratio = t.column("ratio")
    siot = t.column("dfp_siot")
    conv = t.column("dfp_conventional")
    assert ratio[-1] == 1.0
    assert siot[-1] == conv[-1]
    assert np.all(np.diff(siot) <= 0.0)
    # row-wise identity dfp = dep^(f * rho * D / (R * B))
    p = spec_of("fig5_sweep").fig5
    looks = p.detection_rate_hz * ratio * p.source_bits / (p.covert_rate_bps_hz * p.bandwidth_hz)
    np.testing.assert_allclose(siot, p.dep**looks, atol=1e-12)
    # halving the payload improves DFP by ~67%
    at_half = siot[np.argmin(np.abs(ratio - 0.5))]
    assert 1.60 <= at_half / conv[0] <= 1.75


def test_fig3_sweep_pathloss_mode():
    direct = run_fig3_sweep(spec_of(
        "fig3_sweep", "[fig3]\nsnr_db_stop = 6.0\nsnr_db_step = 3.0\n"))
    faded = run_fig3_sweep(spec_of(
        "fig3_sweep", "[fig3]\nsnr_db_stop = 6.0\nsnr_db_step = 3.0\nsnr_mode = pathloss\n"))
    # path loss shrinks both links' mean SNR (225x legit vs 324x eve), so at
    # equal reference dB the outage can only worsen
    assert np.all(faded.column("sop") >= direct.column("sop"))


def test_fig5_sweep_never_looking_warden():
    t = run_fig5_sweep(spec_of("fig5_sweep", "[fig5]\ndetection_rate_hz = 0.0\n"))
    assert np.all(t.column("dfp_siot") == 1.0)
    assert np.all(t.column("dfp_conventional") == 1.0)


def test_attack_demo_zero_budget_flat_trace():
    spec = spec_of("attack_demo", "[attack]\nepsilon = 0.0\nmax_iters = 10\n", seed=13)
    t = run_attack_demo(spec)
    sims = t.column("best_similarity")
    assert np.all(sims == sims[0])


def test_attack_demo_defaults_reach_target_and_defense_works():
    t = run_attack_demo(spec_of("attack_demo", seed=13))
    assert len(t.rows) == 302
    final = t.rows[-1]
    sim_before = t.column("summary_sim_before")[0]
    sim_after = t.column("summary_sim_after")[0]
    assert final[1] >= 0.9
    assert sim_after < sim_before
    assert final[1] == sim_before


def test_single_metric_all_metrics_run():
    for body, column in (
        ("metric = sop", "sop"),
        ("metric = pnz", "pnz"),
        ("metric = asc", "asc"),
        ("metric = ssop", "ssop"),
        ("metric = dep", "dep"),
        ("metric = dfp", "dfp"),
    ):
        t = run_single_metric(spec_of("single_metric", f"[metric]\n{body}\n"))
        assert column in t.columns
        assert len(t.rows) == 1

    t = run_single_metric(spec_of(
        "single_metric", "[metric]\nmetric = sop\nmethod = mc\nmc_samples = 10000\n"))
    assert t.columns == ("sop", "std_error", "n_samples")

    t = run_single_metric(spec_of(
        "single_metric",
        "[metric]\nmetric = dfp\nmethod = mc\nmc_samples = 10000\ndep = 0.9\ndetections = 5\n"))
    assert t.columns == ("detections", "dfp", "std_error", "n_samples")
    assert t.rows[0][1] == pytest.approx(0.9**5, abs=0.02)

    t = run_single_metric(spec_of(
        "single_metric", "[metric]\nmetric = dep\nthreshold = 24.0\n"))
    assert t.rows[0][0] == 24.0


def test_run_experiment_dispatch():
    assert run_experiment(spec_of("fig5_sweep")).columns[0] == "ratio"


def test_result_table_validation():
    with pytest.raises(ValueError):
        ResultTable(("a",), ((1.0, 2.0),), ())
    with pytest.raises(ValueError):
        ResultTable(("a",), ((float("nan"),),), ())
    t = ResultTable(("a", "b"), ((1.0, 2.0), (3.0, 4.0)), (("k", "v"),))
    np.testing.assert_array_equal(t.column("b"), [2.0, 4.0])


def test_csv_rendering_format():
    t = ResultTable(("x", "y"), ((0.3585, 1.0), (-0.5, 12345.678)), (("seed", "1"),))
    text = render_csv(t)
    lines = text.splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "x,y"
    assert lines[2] == "3.585000e-1,1.000000e0"
    assert lines[3] == "-5.000000e-1,1.234568e4"
    assert text.endswith("\n")


def test_csv_header_only_for_empty_rows():
    t = ResultTable(("x", "y"), (), ())
    assert render_csv(t) == "x,y\n"


def test_json_rendering_roundtrip():
    t = ResultTable(("x", "y"), ((1.0, 2.0), (3.0, 4.0)), (("seed", "9"),))
    obj = json.loads(render_json(t))
    assert obj["columns"] == ["x", "y"]
    assert obj["values"] == [[1.0, 3.0], [2.0, 4.0]]
    assert obj["metadata"]["seed"] == "9"
    with pytest.raises(ValueError):
        render_table(t, "xml")


def test_emit_table_writes_bytes(tmp_path):
    t = run_fig5_sweep(spec_of("fig5_sweep"))
    path = tmp_path / "out.csv"
    n = emit_table(t, "csv", path)
    assert n == len(path.read_bytes())
    with pytest.raises(OSError, match="missing"):
        emit_table(t, "csv", tmp_path / "missing" / "out.csv")


def test_sweep_determinism_byte_identical():
    for kind, body in (("fig3_sweep", "[fig3]\nsnr_db_stop = 5.0\nsnr_db_step = 1.0\n"),
                       ("fig5_sweep", ""),
                       ("attack_demo", "[attack]\nmax_iters = 40\n"),
                       ("single_metric", "[metric]\nmetric = sop\nmethod = mc\n")):
        spec = spec_of(kind, body, seed=99)
        a = render_table(run_experiment(spec), "csv")
        b = render_table(run_experiment(spec), "csv")
        assert a == b
        assert f"# seed=99" in a


def test_metadata_names_spec_hash():
    t = run_fig5_sweep(spec_of("fig5_sweep"))
    meta = dict(t.metadata)
    assert len(meta["spec_sha256"]) == 64
    assert meta["tool_version"]


def test_spec_kind_and_section_constraints():
    with pytest.raises(SpecError, match="kind"):
        ExperimentSpec(kind="unknown_kind")
    with pytest.raises(SpecError, match="does not belong"):
        ExperimentSpec(kind="fig5_sweep", fig5=Fig5Params(),
                       metric=SingleMetricParams())


def test_experiment_seed_validation():
    with pytest.raises(SpecError, match="seed"):
        ExperimentSpec(kind="fig5_sweep", seed=-1)


def _edgy(valid):
    """Mostly values from `valid`, now and then an infinity or a NaN."""
    return st.sampled_from(range(8)).flatmap(
        lambda i: st.sampled_from([math.inf, -math.inf, math.nan]) if i == 0 else valid)


# valid ranges that run to the ends of the float range, where a dB value
# overflows or underflows and a path loss d**-alpha can overflow
_DB = _edgy(st.floats(-4000, 4000))
_POSITIVE = _edgy(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_NONNEGATIVE = _edgy(st.floats(min_value=0.0, allow_infinity=False))
_PROBABILITY = _edgy(st.floats(0.0, 1.0))
_FRACTION = _edgy(st.floats(0.0, 1.0, exclude_min=True))
_COUNT = st.integers(1, 4)
# construction only, no quadrature: all three run in about a second
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _grid_fields(a: float, b: float, intervals: int) -> dict:
    lo, hi = min(a, b), max(a, b)
    return {"start": lo, "stop": hi, "step": (hi - lo) / intervals if hi > lo else 1.0}


def _grid_between(ends):
    return st.builds(_grid_fields, ends, ends, st.integers(1, 20))


@_PROPERTY
@given(grid=_grid_between(_DB),
       sdep_list=st.lists(_PROBABILITY, min_size=1, max_size=3).map(tuple), eve_snr_db=_DB,
       rate_threshold=_NONNEGATIVE, tx=_COUNT, rx=_COUNT, eve=_COUNT,
       distance_b_m=_POSITIVE, distance_e_m=_POSITIVE, path_loss_exponent=_NONNEGATIVE,
       snr_mode=st.sampled_from(["direct", "pathloss"]))
def test_accepted_fig3_spec_builds_at_every_grid_point(grid, sdep_list, eve_snr_db,
                                                       rate_threshold, tx, rx, eve, distance_b_m,
                                                       distance_e_m, path_loss_exponent, snr_mode):
    try:
        p = Fig3Params(snr_db_start=grid["start"], snr_db_stop=grid["stop"],
                       snr_db_step=grid["step"], sdep_list=sdep_list, eve_snr_db=eve_snr_db,
                       rate_threshold=rate_threshold, tx_antennas=tx, rx_antennas=rx,
                       eve_antennas=eve, distance_b_m=distance_b_m, distance_e_m=distance_e_m,
                       path_loss_exponent=path_loss_exponent, snr_mode=snr_mode)
    except SpecError:
        return
    for snr_db in _grid(p.snr_db_start, p.snr_db_stop, p.snr_db_step):
        p.scenario(snr_db)
    for sdep in p.sdep_list:
        SemanticProfile(sdep)


@_PROPERTY
@given(grid=_grid_between(_FRACTION), dep=_FRACTION, detection_rate_hz=_NONNEGATIVE,
       covert_rate_bps_hz=_POSITIVE, bandwidth_hz=_POSITIVE, source_bits=_POSITIVE)
def test_accepted_fig5_spec_builds_at_every_grid_point(grid, dep, detection_rate_hz,
                                                       covert_rate_bps_hz, bandwidth_hz,
                                                       source_bits):
    try:
        p = Fig5Params(ratio_start=grid["start"], ratio_stop=grid["stop"],
                       ratio_step=grid["step"], dep=dep, detection_rate_hz=detection_rate_hz,
                       covert_rate_bps_hz=covert_rate_bps_hz, bandwidth_hz=bandwidth_hz,
                       source_bits=source_bits)
    except SpecError:
        return
    looks_full = num_detections(p.scenario())
    for ratio in _grid(p.ratio_start, p.ratio_stop, p.ratio_step):
        p.scenario(ratio)
        dfp(p.dep, looks_full * ratio)


@_PROPERTY
@given(metric=st.sampled_from(["sop", "pnz", "asc", "ssop", "dep", "dfp"]),
       method=st.sampled_from(["numeric", "mc"]), snr_b_db=_DB, eve_snr_db=_DB, tx=_COUNT,
       rx=_COUNT, eve=_COUNT, rate_threshold=_NONNEGATIVE, sdep=_PROBABILITY,
       dep=_FRACTION, detections=st.integers(0, 40).map(float) | _NONNEGATIVE,
       noise_power=_POSITIVE, signal_power=_NONNEGATIVE, warden_samples=_COUNT)
def test_accepted_single_metric_spec_builds_its_domain_objects(
        metric, method, snr_b_db, eve_snr_db, tx, rx, eve, rate_threshold, sdep, dep,
        detections, noise_power, signal_power, warden_samples):
    try:
        p = SingleMetricParams(metric=metric, method=method, snr_b_db=snr_b_db,
                               eve_snr_db=eve_snr_db, tx_antennas=tx, rx_antennas=rx,
                               eve_antennas=eve, rate_threshold=rate_threshold, sdep=sdep,
                               dep=dep, detections=detections, noise_power=noise_power,
                               signal_power=signal_power, warden_samples=warden_samples)
    except SpecError:
        return
    _secrecy_scenario(p, p.snr_b_db)
    SemanticProfile(p.sdep)
    WardenModel(p.noise_power, p.signal_power, p.warden_samples)
    dfp(p.dep, p.detections)
