"""Security metrics for semantic IoT links: physical-layer secrecy, covert
detection, and a desk-scale semantic attack/defense sandbox."""

__version__ = "0.1.0"

from .channel import (
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
from .estimate import EstimateWithError
from .secrecy import (
    BracketError,
    QuadratureError,
    SecrecyScenario,
    SemanticProfile,
    asc,
    asc_mc,
    pnz,
    pnz_mc,
    secrecy_capacity,
    semantic_sop,
    snr_saving_db,
    sop_mc,
    sop_numeric,
)
from .covert import (
    CovertScenario,
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
from .images import ImageTensor, gaussian_blur, random_image, read_pnm, write_pnm
from .attack import (
    AttackConfig,
    AttackTrace,
    ToyEncoder,
    cosine_sim,
    defense_eval,
    encode,
    grad_similarity,
    run_attack,
)
from .harness import (
    AttackParams,
    ExperimentSpec,
    Fig3Params,
    Fig5Params,
    ResultTable,
    SingleMetricParams,
    SpecError,
    attack_demo,
    emit_table,
    parse_spec,
    render_table,
    run_attack_demo,
    run_experiment,
    run_fig3_sweep,
    run_fig5_sweep,
    run_single_metric,
    serialize_spec,
    spec_sha256,
)
