"""driftscope: explain increases in predicted risk over irregular event streams.

Library plus CLI. Steps are 1-based everywhere; explanation windows are
half-open step intervals (t0, t1].
"""

__version__ = "0.1.0"

from .alerts import Alert, AlertRule, evaluate_alert_rule, select_alert_cohort
from .attribution import (
    AttributionMatrix,
    Explanation,
    ExplanationItem,
    build_carry_forward_baseline,
    discrete_time_derivatives,
    integrated_gradients,
    random_guess,
    time_diff,
    time_restrict,
    top_k_explanations,
)
from .bin_stats import BinTable, bin_statistic, fit_bins, stat_weights
from .events import (
    Events,
    EventSequence,
    FeatureCatalog,
    FeatureStats,
    StepSeries,
    catalog_from_sequences,
    encode_steps,
    fit_feature_stats,
    parse_event_log,
)
from .evaluation import (
    METHODS,
    MethodContext,
    PreparedEpisode,
    bootstrap_ci,
    prepare_episodes,
    run_benchmark,
    score_windows,
    window_precision,
)
from .linear_system import (
    LDSTrace,
    LDSystem,
    lds_input_gradient,
    lds_integrated_gradient,
    lds_run,
)
from .model import (
    EncodedEpisode,
    KeptStates,
    ModelConfig,
    ModelParams,
    RiskSeries,
    StepBatch,
    attention_forward,
    backward,
    forward,
    grad_wrt_inputs,
    load_checkpoint,
    loss,
    model_init,
    save_checkpoint,
    train,
)
from .synth import ScenarioConfig, aki_label, generate_corpus, generate_patient, ground_truth_set
