"""Declarative experiment runner: config parsing, metric sweeps, table output.

A spec file is INI-style text with an [experiment] section naming the kind
and one kind-specific section.  Defaults reproduce the reference operating
points: the secrecy sweep uses 15 m / 18 m links at 0 dB eavesdropper SNR,
rate threshold 1, three antennas everywhere, path loss exponent 2; the
covert sweep uses DEP 0.95, 20 bit/s/Hz, 5 MHz bandwidth, two looks per
second, and a 1 Gbit payload.

Tables render to CSV (leading '# key=value' metadata lines, then header and
rows in 6-digit scientific notation) or columnar JSON; identical spec+seed
gives byte-identical output.
"""
from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .attack import AttackConfig, ToyEncoder, _blurred_similarity, encode, run_attack
from .channel import (
    MC_MAX_SAMPLES,
    MC_MIN_SAMPLES,
    SNR_MODES,
    AntennaConfig,
    LinkGeometry,
    RngSeed,
    avg_received_snr,
    make_snr_model,
)
from .covert import (CovertScenario, WardenModel, dep_energy_detector, dfp, dfp_mc, num_detections,
                     optimal_threshold)
from .estimate import EstimateWithError
from .images import ImageTensor, gaussian_kernel, random_image
from .secrecy import (
    QuadratureError,
    SecrecyScenario,
    SemanticProfile,
    asc,
    asc_mc,
    pnz,
    pnz_mc,
    semantic_sop,
    sop_mc,
    sop_numeric,
)

MAX_GRID_POINTS = 10_001
# attack fixture limits, checked before any array is built.  The encoder has
# hidden_dim * (height * width * channels + embed_dim) float64 weights: 32 MB
# at the limit, where one attack iteration takes about 5.5 ms on one BLAS thread
# of a 2-vCPU host (2.5 ms on two); max_iters * weights is capped as well.  An
# attack stops early once its iterates cycle, but a run that never cycles takes
# every step, so the worst case is unchanged
MAX_ATTACK_ITERS = 100_000
MAX_ENCODER_WEIGHTS = 4_000_000
MAX_ATTACK_WORK = 10**10
MAX_EMBED_DIM = 1024
MAX_BLUR_RADIUS = 256


class SpecError(ValueError):
    """Config text is malformed or violates a field constraint."""


def _require(cond: bool, name: str, message: str):
    if not cond:
        raise SpecError(f"{name}: {message}")


@contextlib.contextmanager
def _field_errors(**renamed):
    """Re-raise a domain ValueError, whose message starts with its argument's
    name, as a SpecError naming the spec field; `renamed` maps names that differ."""
    try:
        yield
    except ValueError as e:
        arg, _, rest = str(e).partition(" ")
        raise SpecError(f"{renamed.get(arg, arg)}: {rest}") from e


def _secrecy_scenario(p, snr_b_db: float, snr_b_field: str = "snr_b_db", snr_mode="direct",
                      distances_m=(1.0, 1.0), path_loss_exponent=0.0) -> SecrecyScenario:
    """The links and rate of a fig3 or single_metric spec `p` at legitimate-link SNR
    snr_b_db (named snr_b_field in errors); the geometry counts only in pathloss mode."""
    links = []
    for snr_db, snr_field, rx_field, distance_m, distance_field in (
            (snr_b_db, snr_b_field, "rx_antennas", distances_m[0], "distance_b_m"),
            (p.eve_snr_db, "eve_snr_db", "eve_antennas", distances_m[1], "distance_e_m")):
        with _field_errors(ref_snr_db=snr_field, distance_m=distance_field,
                           rx_antennas=rx_field):
            geom = LinkGeometry(distance_m, path_loss_exponent)
            links.append(make_snr_model(avg_received_snr(snr_db, geom, snr_mode),
                                        AntennaConfig(p.tx_antennas, getattr(p, rx_field))))
    with _field_errors():
        return SecrecyScenario(*links, p.rate_threshold)


def _ssop(p) -> dict:
    sop = sop_numeric(p.scenario())
    return {"sop": sop, "ssop": semantic_sop(sop, SemanticProfile(p.sdep))}


def _dep(p) -> dict:
    w = WardenModel(p.noise_power, p.signal_power, p.warden_samples)
    tau = optimal_threshold(w) if p.threshold < 0 else p.threshold
    return {"threshold": tau, **dep_energy_detector(w, tau)._asdict()}


_SECRECY = ("snr_b_db", "eve_snr_db", "tx_antennas", "rx_antennas", "eve_antennas",
            "rate_threshold")
# metric -> (CLI help, the SingleMetricParams fields it reads in CLI flag order, numeric
# route(params), Monte Carlo route(params, RngSeed) or None).  Each route returns {column:
# value}; an EstimateWithError value is followed by std_error and n_samples columns.
SINGLE_METRICS = {
    "sop": ("secrecy outage probability", _SECRECY,
            lambda p: {"sop": sop_numeric(p.scenario())},
            lambda p, seed: {"sop": sop_mc(p.scenario(), p.mc_samples, seed)}),
    "pnz": ("probability of non-zero secrecy capacity", _SECRECY,
            lambda p: {"pnz": pnz(p.scenario())},
            lambda p, seed: {"pnz": pnz_mc(p.scenario(), p.mc_samples, seed)}),
    "asc": ("average secrecy capacity", _SECRECY,
            lambda p: {"asc": asc(p.scenario())},
            lambda p, seed: {"asc": asc_mc(p.scenario(), p.mc_samples, seed)}),
    "ssop": ("semantic secrecy outage probability", _SECRECY + ("sdep",), _ssop, None),
    "dep": ("warden detection error probability",
            ("noise_power", "signal_power", "warden_samples", "threshold"), _dep, None),
    "dfp": ("detection failure probability", ("dep", "detections"),
            lambda p: {"detections": p.detections, "dfp": dfp(p.dep, p.detections)},
            lambda p, seed: {"detections": p.detections,
                             "dfp": dfp_mc(p.dep, int(p.detections), p.mc_samples, seed)}),
}


def _doc(default, help_text: str):
    """A field default with the help text its CLI flag shows."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class Fig3Params:
    """Secrecy-sweep grid and scenario; defaults are the reference operating point."""

    snr_db_start: float = 0.0
    snr_db_stop: float = 15.0
    snr_db_step: float = 0.5
    sdep_list: tuple[float, ...] = (0.3, 0.7)
    eve_snr_db: float = 0.0
    rate_threshold: float = 1.0
    tx_antennas: int = 3
    rx_antennas: int = 3
    eve_antennas: int = 3
    distance_b_m: float = 15.0
    distance_e_m: float = 18.0
    path_loss_exponent: float = 2.0
    snr_mode: str = "direct"

    def __post_init__(self):
        _validate_grid("snr_db", self.snr_db_start, self.snr_db_stop, self.snr_db_step)
        _require(len(self.sdep_list) > 0, "sdep_list", "must be nonempty")
        _require(self.snr_mode in SNR_MODES, "snr_mode", f"must be one of {SNR_MODES}")
        with _field_errors(sdep="sdep_list"):
            for v in self.sdep_list:
                SemanticProfile(v)
        # the link SNR grows with dB, so the grid's ends cover every point
        self.scenario(self.snr_db_start, "snr_db_start")
        self.scenario(self.snr_db_stop, "snr_db_stop")

    def scenario(self, snr_b_db: float, snr_b_field: str = "snr_b_db") -> SecrecyScenario:
        """The secrecy scenario at legitimate-link reference SNR snr_b_db (dB)."""
        return _secrecy_scenario(self, snr_b_db, snr_b_field, self.snr_mode,
                                 (self.distance_b_m, self.distance_e_m), self.path_loss_exponent)


@dataclass(frozen=True)
class Fig5Params:
    """Covert-sweep grid over compression ratios; defaults per the reference setup."""

    ratio_start: float = 0.1
    ratio_stop: float = 1.0
    ratio_step: float = 0.1
    dep: float = 0.95
    detection_rate_hz: float = _doc(2.0, "warden looks per second")
    covert_rate_bps_hz: float = _doc(20.0, "covert rate, bit/s/Hz")
    bandwidth_hz: float = _doc(5.0e6, "bandwidth, Hz")
    source_bits: float = _doc(1.0e9, "uncompressed payload, bits")

    def __post_init__(self):
        _validate_grid("ratio", self.ratio_start, self.ratio_stop, self.ratio_step)
        for end in ("ratio_start", "ratio_stop"):
            with _field_errors(compression_ratio=end):
                self.scenario(getattr(self, end))
        with _field_errors():
            self.scenario()  # the runner's uncompressed baseline has the most looks

    def scenario(self, ratio: float = 1.0) -> CovertScenario:
        """The covert transfer at semantic compression ratio `ratio`."""
        return CovertScenario(self.dep, self.detection_rate_hz, self.covert_rate_bps_hz,
                              self.bandwidth_hz, self.source_bits, ratio)


@dataclass(frozen=True)
class AttackParams:
    """Seeded attack fixture: image/encoder sizes, budget, and blur defense."""

    mode: str = _doc(AttackConfig.mode, "targeted | untargeted")
    epsilon: float = _doc(AttackConfig.epsilon, "L-infinity pixel budget")
    step_size: float = _doc(AttackConfig.step_size, "sign-gradient step")
    max_iters: int = _doc(AttackConfig.max_iters, "attack iterations")
    height: int = _doc(16, "image height, pixels")
    width: int = _doc(16, "image width, pixels")
    channels: int = _doc(1, "image channels (1 gray, 3 color)")
    hidden_dim: int = _doc(32, "encoder hidden units")
    embed_dim: int = _doc(8, "embedding dimension")
    blur_sigma: float = _doc(1.5, "defense blur sigma, pixels")
    blur_radius: int = _doc(3, "defense blur radius, pixels")

    def __post_init__(self):
        with _field_errors():
            AttackConfig(self.mode, self.epsilon, self.step_size, self.max_iters)
        _require(self.max_iters <= MAX_ATTACK_ITERS, "max_iters",
                 f"must be <= {MAX_ATTACK_ITERS}")
        for name in ("height", "width", "channels", "hidden_dim"):
            _require(getattr(self, name) >= 1, name, "must be >= 1")
        _require(2 <= self.embed_dim <= MAX_EMBED_DIM, "embed_dim",
                 f"must be in [2, {MAX_EMBED_DIM}]")
        weights = self.hidden_dim * (self.height * self.width * self.channels + self.embed_dim)
        _require(weights <= MAX_ENCODER_WEIGHTS, "hidden_dim",
                 f"gives {weights} encoder weights, hidden_dim * (height * width * channels"
                 f" + embed_dim) must be <= {MAX_ENCODER_WEIGHTS}")
        _require(self.max_iters * weights <= MAX_ATTACK_WORK, "max_iters",
                 f"gives {self.max_iters * weights} weight-iterations, max_iters * encoder"
                 f" weights must be <= {MAX_ATTACK_WORK}")
        _require(self.blur_radius <= MAX_BLUR_RADIUS, "blur_radius",
                 f"must be <= {MAX_BLUR_RADIUS}")
        with _field_errors(sigma="blur_sigma", radius="blur_radius"):
            gaussian_kernel(self.blur_sigma, self.blur_radius)


@dataclass(frozen=True)
class SingleMetricParams:
    """One metric evaluation; which fields matter depends on `metric` (SINGLE_METRICS)."""

    metric: str = _doc("sop", " | ".join(SINGLE_METRICS))
    method: str = _doc("numeric", "numeric | mc (mc adds std_error, n_samples columns)")
    mc_samples: int = _doc(10**6, "Monte Carlo sample count")
    snr_b_db: float = _doc(10.0, "legitimate mean SNR, dB")
    eve_snr_db: float = _doc(0.0, "eavesdropper mean SNR, dB")
    tx_antennas: int = _doc(3, "transmit antennas")
    rx_antennas: int = _doc(3, "legitimate receive antennas")
    eve_antennas: int = _doc(3, "eavesdropper receive antennas")
    rate_threshold: float = _doc(1.0, "target secrecy rate, bit/s/Hz")
    sdep: float = _doc(0.3, "semantic decoding error probability")
    dep: float = _doc(0.95, "warden detection error probability per look")
    detections: float = _doc(20.0, "warden looks N = f*rho*D/(R*B)")
    noise_power: float = _doc(1.0, "warden noise power")
    signal_power: float = _doc(0.5, "signal power at the warden")
    warden_samples: int = _doc(20, "energy samples per look")
    threshold: float = _doc(-1.0, "energy threshold (negative = optimal)")

    def __post_init__(self):
        _require(self.metric in SINGLE_METRICS, "metric", f"must be one of {tuple(SINGLE_METRICS)}")
        _require(self.method in ("numeric", "mc"), "method", "must be 'numeric' or 'mc'")
        _require(self.method == "numeric" or SINGLE_METRICS[self.metric][3] is not None, "method",
                 f"{self.metric} has no Monte Carlo route; must be 'numeric'")
        # the numeric routes never read mc_samples
        _require(self.method == "numeric" or MC_MIN_SAMPLES <= self.mc_samples <= MC_MAX_SAMPLES,
                 "mc_samples", f"must be in [{MC_MIN_SAMPLES}, {MC_MAX_SAMPLES}]")
        _require(0.0 < self.dep <= 1.0, "dep", "must be in (0, 1]")
        _require(math.isfinite(self.threshold), "threshold", "must be finite (negative = optimal)")
        # Monte Carlo samples a whole number of looks, as a C long
        _require(self.method == "numeric" or self.metric != "dfp"
                 or (float(self.detections).is_integer() and self.detections < 2**63),
                 "detections", "must be a whole number below 2**63 for method = mc")
        # every field is checked whichever metric reads it
        self.scenario()
        with _field_errors(n_detections="detections", received_signal_power="signal_power",
                           samples_per_detection="warden_samples"):
            SemanticProfile(self.sdep)
            dfp(self.dep, self.detections)
            WardenModel(self.noise_power, self.signal_power, self.warden_samples)

    def scenario(self) -> SecrecyScenario:
        """The secrecy scenario of the sop, pnz, asc and ssop metrics."""
        return _secrecy_scenario(self, self.snr_b_db)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description; exactly one kind-params block is set."""

    kind: str
    seed: int = _doc(1234, "master RNG seed")
    out_format: str = _doc("csv", "output format, csv | json")
    out_path: str = ""
    fig3: Fig3Params | None = None
    fig5: Fig5Params | None = None
    attack: AttackParams | None = None
    metric: SingleMetricParams | None = None

    def __post_init__(self):
        _require(self.kind in KIND_SECTIONS, "kind", f"must be one of {tuple(KIND_SECTIONS)}")
        with _field_errors():
            RngSeed(self.seed)
        _require(self.out_format in ("csv", "json"), "format", "must be 'csv' or 'json'")
        section, cls, _ = KIND_SECTIONS[self.kind]
        if getattr(self, section) is None:
            object.__setattr__(self, section, cls())
        for other, _, _ in KIND_SECTIONS.values():
            if other != section and getattr(self, other) is not None:
                raise SpecError(f"{other}: section does not belong to kind {self.kind}")

    @property
    def params(self):
        return getattr(self, KIND_SECTIONS[self.kind][0])


def _validate_grid(name: str, start: float, stop: float, step: float):
    _require(math.isfinite(start) and math.isfinite(stop), f"{name}_start", "must be finite")
    _require(math.isfinite(step) and step > 0, f"{name}_step", "must be > 0")
    _require(start <= stop, f"{name}_start", "must be <= stop")
    # compared as a float first: a tiny step can make the span/step ratio inf
    intervals = (stop - start) / step
    _require(intervals < MAX_GRID_POINTS - 0.5, f"{name}_step",
             f"gives more than {MAX_GRID_POINTS} grid points")
    n = int(round(intervals)) + 1
    _require(abs(start + (n - 1) * step - stop) <= 1e-9 * max(1.0, abs(stop)),
             f"{name}_step", "must evenly divide the grid span")


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    n = int(round((stop - start) / step)) + 1
    return np.linspace(start, stop, n)


# [experiment] key -> ExperimentSpec field
_EXPERIMENT_KEYS = {"kind": "kind", "seed": "seed", "format": "out_format", "output": "out_path"}


@functools.cache
def _field_types(cls) -> dict:
    """Resolved field types of a dataclass, computed once per class."""
    return typing.get_type_hints(cls)


def _parse_value(tp, raw: str):
    if tp is str:
        return raw.strip()
    if typing.get_origin(tp) is tuple:
        # tuple[float, ...]: comma-separated values
        return tuple(typing.get_args(tp)[0](t) for t in raw.split(",") if t.strip())
    return tp(raw)


def _build(cls, raw: dict[str, str], section: str, **given):
    """cls(**given, **parsed raw values), naming the offending key on any error."""
    types = _field_types(cls)
    for key, value in raw.items():
        if key not in types:
            raise SpecError(f"{section}.{key}: unknown key")
        try:
            given[key] = _parse_value(types[key], value)
        except ValueError as e:
            raise SpecError(f"{section}.{key}: cannot parse {value!r}") from e
    return cls(**given)


def read_sections(text: str) -> dict[str, dict[str, str]]:
    """INI-style config text as {section: {key: raw value}}."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise SpecError(f"config syntax error: {e}") from e
    return {section: dict(cp.items(section)) for section in cp.sections()}


def build_spec(sections: dict[str, dict[str, str]]) -> ExperimentSpec:
    """Validate {section: {key: raw value}} into a spec; omitted keys take the
    dataclass defaults."""
    if "experiment" not in sections:
        raise SpecError("experiment: missing [experiment] section")
    exp = sections["experiment"]
    kind = exp.get("kind")
    if kind is None:
        raise SpecError("experiment.kind: required")
    if kind not in KIND_SECTIONS:
        raise SpecError(f"experiment.kind: must be one of {tuple(KIND_SECTIONS)}, got {kind!r}")
    unknown = sorted(set(exp) - set(_EXPERIMENT_KEYS))
    if unknown:
        raise SpecError(f"experiment.{unknown[0]}: unknown key")
    section, cls, _ = KIND_SECTIONS[kind]
    for other in sections:
        if other not in ("experiment", section):
            raise SpecError(f"{other}: unknown section for kind {kind}")
    params = _build(cls, sections.get(section, {}), section)
    return _build(ExperimentSpec, {_EXPERIMENT_KEYS[k]: v for k, v in exp.items()},
                  "experiment", **{section: params})


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate INI-style experiment config text."""
    return build_spec(read_sections(text))


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Canonical config text; parse_spec(serialize_spec(s)) == s."""
    lines = ["[experiment]", f"kind = {spec.kind}", f"seed = {spec.seed}",
             f"format = {spec.out_format}"]
    if spec.out_path:
        lines.append(f"output = {spec.out_path}")
    lines += ["", f"[{KIND_SECTIONS[spec.kind][0]}]"]
    for f in dataclasses.fields(spec.params):
        lines.append(f"{f.name} = {_format_value(getattr(spec.params, f.name))}")
    return "\n".join(lines) + "\n"


def spec_sha256(spec: ExperimentSpec) -> str:
    return hashlib.sha256(serialize_spec(spec).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ResultTable:
    """Rectangular table of finite reals with ordered columns and metadata.

    The rows are stored as tuples of Python floats, whatever sequences of
    reals they were given as.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("table must have at least one column")
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("rows must match the column count")
        values = np.array(self.rows, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("table values must be finite")
        object.__setattr__(self, "rows", tuple(map(tuple, values.tolist())))

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _make_table(spec: ExperimentSpec, columns, rows) -> ResultTable:
    meta = (("spec_sha256", spec_sha256(spec)), ("seed", str(spec.seed)),
            ("tool_version", __version__))
    return ResultTable(tuple(columns), rows, meta)


def run_fig3_sweep(spec: ExperimentSpec) -> ResultTable:
    """SOP and semantic SOP versus legitimate-link SNR in dB."""
    p = spec.fig3
    columns = ["snr_b_db", "sop"] + [f"ssop_{sdep:g}" for sdep in p.sdep_list]
    rows = []
    for snr_db in _grid(p.snr_db_start, p.snr_db_stop, p.snr_db_step):
        try:
            sop = sop_numeric(p.scenario(snr_db))
        except QuadratureError as e:
            raise QuadratureError(f"{e.message}, at snr_b_db={snr_db:g}", e.residual) from e
        rows.append([snr_db, sop] + [semantic_sop(sop, SemanticProfile(sdep))
                                     for sdep in p.sdep_list])
    return _make_table(spec, columns, rows)


def run_fig5_sweep(spec: ExperimentSpec) -> ResultTable:
    """DFP versus semantic compression ratio, against the uncompressed baseline."""
    p = spec.fig5
    looks_full = num_detections(p.scenario())
    dfp_conventional = dfp(p.dep, looks_full)
    rows = [[ratio, dfp(p.dep, looks_full * ratio), dfp_conventional]
            for ratio in _grid(p.ratio_start, p.ratio_stop, p.ratio_step)]
    return _make_table(spec, ["ratio", "dfp_siot", "dfp_conventional"], rows)


def attack_fixture(seed: int, p: AttackParams):
    """Deterministic (encoder, source, reference image, config) for a demo run.

    Streams: 0 encoder weights, 1 source image, 2 targeted-mode reference.
    Untargeted mode references the source's own embedding.
    """
    enc = ToyEncoder.from_seed(p.height * p.width * p.channels, p.hidden_dim, p.embed_dim,
                               RngSeed(seed, 0))
    src = random_image(p.height, p.width, p.channels, RngSeed(seed, 1))
    target_img = random_image(p.height, p.width, p.channels, RngSeed(seed, 2))
    reference_img = target_img if p.mode == "targeted" else src
    cfg = AttackConfig(p.mode, p.epsilon, p.step_size, p.max_iters)
    return enc, src, reference_img, cfg


def attack_demo(spec: ExperimentSpec) -> tuple[ResultTable, ImageTensor]:
    """Seeded attack trace plus the blur-defense summary of the final image,
    and that image.

    Rows 0..max_iters hold the best-so-far similarity; the defense summary
    pair (before/after blurring) is repeated on every row, and a final row
    at iteration max_iters + 1 restates it.
    """
    p = spec.attack
    enc, src, reference_img, cfg = attack_fixture(spec.seed, p)
    trace = run_attack(enc, src, encode(enc, reference_img), cfg)
    sim_before = trace.final_similarity  # the attack's own score of its adversarial image
    sim_after = _blurred_similarity(enc, trace.adversarial, reference_img, p.blur_sigma,
                                    p.blur_radius)
    rows = [[t, s, sim_before, sim_after] for t, s in enumerate(trace.best_similarity)]
    rows.append([p.max_iters + 1, trace.final_similarity, sim_before, sim_after])
    table = _make_table(spec, ["iteration", "best_similarity", "summary_sim_before",
                               "summary_sim_after"], rows)
    return table, trace.adversarial


def run_attack_demo(spec: ExperimentSpec) -> ResultTable:
    """The table of attack_demo."""
    return attack_demo(spec)[0]


def run_single_metric(spec: ExperimentSpec) -> ResultTable:
    """Evaluate one metric and return a one-row table."""
    p = spec.metric
    _, _, numeric, mc = SINGLE_METRICS[p.metric]
    values = mc(p, RngSeed(spec.seed, 0)) if p.method == "mc" else numeric(p)
    row = {}
    for column, v in values.items():
        if isinstance(v, EstimateWithError):
            row.update({column: v.value, "std_error": v.std_error, "n_samples": v.n_samples})
        else:
            row[column] = v
    return _make_table(spec, row, [list(row.values())])


# kind -> (section, params class, runner)
KIND_SECTIONS = {
    "fig3_sweep": ("fig3", Fig3Params, run_fig3_sweep),
    "fig5_sweep": ("fig5", Fig5Params, run_fig5_sweep),
    "attack_demo": ("attack", AttackParams, run_attack_demo),
    "single_metric": ("metric", SingleMetricParams, run_single_metric),
}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return KIND_SECTIONS[spec.kind][2](spec)


def render_csv(table: ResultTable) -> str:
    head = "".join(f"# {key}={value}\n" for key, value in table.metadata)
    line = ",".join(["%.6e"] * len(table.columns)) + "\n"
    body = "".join([line % row for row in table.rows])
    # %e writes a signed exponent of two or more digits (1.000000e+00); the
    # table writes it unpadded and without "+" (1.000000e0, 1.000000e-5)
    body = body.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")
    return head + ",".join(table.columns) + "\n" + body


def render_json(table: ResultTable) -> str:
    obj = {"metadata": dict(table.metadata), "columns": list(table.columns)}
    if not table.rows:
        return json.dumps({**obj, "values": [[] for _ in table.columns]}, indent=2) + "\n"
    # json.dumps(indent=2) layout, with each value column joined directly:
    # json writes a finite float as float.__repr__ does
    values = ",\n    ".join("[\n      " + ",\n      ".join(map(float.__repr__, col)) + "\n    ]"
                           for col in zip(*table.rows))
    return json.dumps(obj, indent=2)[:-2] + ',\n  "values": [\n    ' + values + "\n  ]\n}\n"


def render_table(table: ResultTable, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_table(table: ResultTable, fmt: str, sink) -> int:
    """Write the rendered table to a path; returns bytes written."""
    data = render_table(table, fmt).encode("utf-8")
    path = Path(sink)
    try:
        path.write_bytes(data)
    except OSError as e:
        raise OSError(f"cannot write table to {path}: {e}") from e
    return len(data)
