"""Deterministic federated-averaging simulator.

A small numpy library that trains binary classifiers across simulated
clients, averages their parameters round by round (sample-count weighted
or plain), injects client departures, arrivals and delayed updates under
configurable policies, and charges a simulated wall clock per round.
"""

from types import ModuleType as _ModuleType

from .aggregation import AggregateResult, Update, add_uniform_noise, plain_average, weighted_fedavg
from .metrics import (
    MetricSet,
    RocCurve,
    RunSummary,
    UndefinedAUCError,
    evaluate,
    loss_accuracy,
    roc_auc,
    summarize,
)
from .models import (
    Dataset,
    ModelSpec,
    ParameterSet,
    TrainConfig,
    forward,
    init_params,
    loss_and_grad,
    train_local,
)
from .orchestrator import (
    ClientEval,
    ClientSetup,
    ClientState,
    DivergenceError,
    IntermittencyEvent,
    NoiseConfig,
    Participation,
    PlanValidationError,
    PolicyConfig,
    PolicyStarvationError,
    RoundRecord,
    RunReport,
    SimPlan,
    Timeline,
    init_seed,
    run,
    simulated_time,
    static_sim_time,
    train_seed,
    validate_plan,
)
from .partition import (
    ClientShard,
    InfeasiblePartition,
    PartitionPlan,
    SkewReport,
    SkewRow,
    make_synthetic,
    partition,
    read_dataset_csv,
    relabel_shard,
    skew_report,
    write_dataset_csv,
)
from .seeding import derive_seed, rng_from

__version__ = "0.1.0"

# The public names above, each written once: the imported classes and functions, not submodules.
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)]
