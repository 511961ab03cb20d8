"""Dense-to-MoE architecture surgery toolkit.

Identifies redundant transformer layers from activation traces, fuses them
into sparse MoE layers, and ranks candidate depths with a first-principles
latency model, static-memory accounting, and a hardware-aware reward. A
built-in float64 toy transformer makes every step verifiable at desk scale.
"""

from .config import (
    DEFAULT_WORKLOAD,
    FusionBlock,
    FusionPlan,
    HardwareProfile,
    ModelShape,
    MoEShape,
    PipelineConfig,
    QWEN25_0_5B,
    RouterConfig,
    SearchThresholds,
    THOR_U,
    Workload,
    gqa_ratio,
    load_config,
    parse_config,
    plan_from_json,
    plan_to_json,
    validate_plan,
    validate_shape,
)
from .costmodel import (
    LatencyBreakdown,
    active_params,
    decode_latency,
    expansion_ratio,
    prefill_latency,
    static_memory,
    total_latency,
)
from .diagnostics import (
    LayerLoadProfile,
    RunComparison,
    WtaSummary,
    compare_runs,
    load_profile,
    wta_metrics,
)
from .nanomodel import (
    DenseLayer,
    GluMlp,
    MoELayer,
    RoutingRecord,
    TrainLog,
    build_toy_container,
    build_toy_moe_layer,
    dense_forward,
    forward_trace,
    grad_check,
    load_balance_loss,
    make_copy_stream,
    mlp_apply,
    moe_forward,
    route,
    train_toy,
)
from .search import (
    SweepCell,
    block_score,
    is_valid_block,
    plan_from_depth,
    search,
    threshold_sweep,
)
from .similarity import (
    SimilarityMatrices,
    build_matrices,
    export_heatmap,
    norm_mismatch,
    seq_avg_cosine,
)
from .surgery import (
    ExpertProvenance,
    ExpertSource,
    FusionReport,
    functional_equivalence_check,
    fuse,
    verify_fusion,
)
from .tradeoff import (
    CandidateEvaluation,
    calibrate_w,
    evaluate_candidates,
    pareto_frontier,
    reward,
)
from .traceio import (
    ActivationTrace,
    WeightContainer,
    make_trace,
    param_count,
    read_trace,
    read_weights,
    synth_trace,
    tensor_schema,
    trace_byte_size,
    validate_container,
    write_trace,
    write_weights,
)

__version__ = "0.1.0"
