"""The public API, ``fedsim.__all__``, is part of the behaviour contract."""

import fedsim

PUBLIC_NAMES = [
    "AggregateResult", "ClientEval", "ClientSetup", "ClientShard", "ClientState", "Dataset",
    "DivergenceError", "InfeasiblePartition", "IntermittencyEvent", "MetricSet", "ModelSpec",
    "NoiseConfig", "ParameterSet", "Participation", "PartitionPlan", "PlanValidationError",
    "PolicyConfig", "PolicyStarvationError", "RocCurve", "RoundRecord", "RunReport",
    "RunSummary", "SimPlan", "SkewReport", "SkewRow", "Timeline", "TrainConfig",
    "UndefinedAUCError", "Update", "add_uniform_noise", "derive_seed", "evaluate", "forward",
    "init_params", "init_seed", "loss_accuracy", "loss_and_grad", "make_synthetic", "partition",
    "plain_average", "read_dataset_csv", "relabel_shard", "rng_from", "roc_auc", "run",
    "simulated_time", "skew_report", "static_sim_time", "summarize", "train_local",
    "train_seed", "validate_plan", "weighted_fedavg", "write_dataset_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(fedsim.__all__) == PUBLIC_NAMES
    assert len(set(fedsim.__all__)) == len(fedsim.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(fedsim, name) is not None, name
