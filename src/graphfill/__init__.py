"""Online reconstruction of time-varying graph signals with missing nodes.

Two predictor families share one causal evaluation loop: classical adaptive
graph filters (GLMS and its sign-error variant) and a per-node language-model
aggregator that answers localized prompts built from neighborhood values.
"""

from .graphs import (
    Graph,
    eigendecompose,
    knn_graph,
    laplacian,
    read_coordinates,
    read_edge_list,
    write_coordinates,
    write_edge_list,
)
from .signals import (
    MaskSpec,
    Observation,
    SamplingMask,
    SignalSeries,
    generate_mask,
    observation_from_column,
    read_mask_file,
    read_signal_csv,
    synth_bandlimited,
    write_mask_file,
    write_signal_csv,
)
from .filters import (
    FILTER_KINDS,
    FilterConfig,
    default_bandwidth,
    filter_step,
)
from .messenger import (
    NodeTask,
    ParsedPrediction,
    PromptTemplate,
    StepTable,
    TemplateError,
    build_task,
    fallback_value,
    parse_response,
    render_prompt,
)
from .backends import (
    Backend,
    BackendConfig,
    BackendError,
    BackendUnavailableError,
    CompletionRequest,
    MockBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayMissError,
    RemoteBackend,
    batch_complete,
    make_backend,
    mock_predict,
    prompt_sha256,
    read_replay_file,
)
from .harness import (
    CausalityError,
    CausalSignalView,
    ComparisonTable,
    EstimateState,
    FilterPredictor,
    MessengerPredictor,
    MseReport,
    Predictor,
    RunResult,
    ZeroPredictor,
    compare,
    evaluate_mse,
    mse_over_time,
    run_online,
)
from .datasets import (
    DatasetError,
    LoadedBundle,
    load_bundle,
    save_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Graph", "eigendecompose", "knn_graph", "laplacian",
    "read_coordinates", "read_edge_list", "write_coordinates", "write_edge_list",
    # signals
    "MaskSpec", "Observation", "SamplingMask", "SignalSeries", "generate_mask",
    "observation_from_column", "read_mask_file", "read_signal_csv",
    "synth_bandlimited", "write_mask_file", "write_signal_csv",
    # filters
    "FILTER_KINDS", "FilterConfig", "default_bandwidth", "filter_step",
    # messenger
    "NodeTask", "ParsedPrediction", "PromptTemplate", "StepTable", "TemplateError",
    "build_task", "fallback_value", "parse_response", "render_prompt",
    # backends
    "Backend", "BackendConfig", "BackendError", "BackendUnavailableError",
    "CompletionRequest", "MockBackend", "RecordingBackend",
    "ReplayBackend", "ReplayMissError", "RemoteBackend", "batch_complete",
    "make_backend", "mock_predict", "prompt_sha256", "read_replay_file",
    # harness
    "CausalityError", "CausalSignalView", "ComparisonTable", "EstimateState",
    "FilterPredictor", "MessengerPredictor", "MseReport", "Predictor", "RunResult",
    "ZeroPredictor", "compare", "evaluate_mse", "mse_over_time", "run_online",
    # datasets
    "DatasetError", "LoadedBundle", "load_bundle", "save_bundle",
]
