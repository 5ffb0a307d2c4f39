"""Which public calls the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Every span wraps a public entry point of one package layer.  A function
that other modules import by name is wrapped at each import site too,
because those modules hold their own reference to it.
"""

from __future__ import annotations

import statistics

from .tracer import Tracer

__all__ = ["BASELINE_METHODS", "PER_LAYER", "install", "per_layer_metrics"]

#: Table IV baselines: display name -> metric-name slug.
BASELINE_METHODS = {"FC+FL": "fc", "RNN+FL": "rnn", "MTrajRec+FL": "mtrajrec",
                    "RNTrajRec+FL": "rntrajrec"}

#: Every per-layer metric name with its unit (BENCHMARK.json mirrors it).
PER_LAYER = {
    "data.synth_s": "s", "data.encode_s": "s", "data.examples": "count",
    "data.collate_s": "s", "data.batches": "count",
    "spatial.index_queries": "count", "spatial.index_s": "s",
    "core.mask.build_calls": "count", "core.mask.build_s": "s",
    "core.teacher_s": "s", "core.distill.lambda_s": "s",
    "core.distill.term_s": "s",
    "core.train.epochs": "count", "core.train.epoch_s": "s",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.optim_s": "s",
    "core.gate_calls": "count", "core.gate_s": "s",
    "serving.decode_calls": "count", "serving.decode_s": "s",
    "federated.rounds": "count", "federated.round_s.p50": "s",
    "federated.tasks": "count", "federated.retries": "count",
    "federated.client_failures": "count",
    "federated.arena.checkouts": "count", "federated.arena.checkout_s": "s",
    "federated.codec.encode_s": "s", "federated.codec.decode_s": "s",
    "federated.wire_bytes_per_round": "B",
    "federated.server.validate_s": "s", "federated.server.aggregate_s": "s",
    "federated.server.rejected": "count", "federated.build_s": "s",
    "metrics.evaluate_s": "s",
    "serving.steps": "count", "serving.step_s": "s",
    "serving.rows_per_step": "rows",
    "serving.queue_wait_ms.p50": "ms", "serving.queue_wait_ms.p99": "ms",
    "serving.decode_ms.p50": "ms", "serving.work_ratio": "ratio",
    "serving.submit_wait_ms.p99": "ms", "serving.gen_late_ms.p99": "ms",
    "serving.solo_bit_mismatches": "count",
    **{f"baselines.{slug}.run_s": "s" for slug in BASELINE_METHODS.values()},
    "experiments.context_s": "s",
    "serve.p50_ms": "ms", "serve.p99_ms": "ms", "serve.max_rps": "1/s",
    "trace.overhead_pct": "%", "trace.spans": "count",
}

# Span names whose metric is self time rather than inclusive time.
_SELF_TIME = {"core.mask.build", "core.train.epoch"}


def _count_examples(tracer, result, args, kwargs):
    tracer.count("data.examples", len(result))


def _method_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "")
    return f"baselines.{BASELINE_METHODS.get(method, 'other')}.run"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import core, federated, metrics, serving
    from repro.core import base, distill, mask, recovery, teacher, training
    from repro.data import dataset, synthetic
    from repro.experiments import harness
    from repro.federated import arena, communication, runner, server, trainer
    from repro.metrics import evaluation
    from repro.nn import optim, tensor
    from repro.serving import api, scheduler, service
    from repro.spatial import index

    tracer.wrap(synthetic, "generate_dataset", "data.synth")
    tracer.wrap(dataset.TrajectoryDataset, "from_matched", "data.encode",
                on_result=_count_examples)
    tracer.wrap_generator(dataset.TrajectoryDataset, "batches", "data.collate")
    tracer.wrap(index.SegmentIndex, "query", "spatial.index")
    tracer.wrap(mask.ConstraintMaskBuilder, "build_for", "core.mask.build")
    for module in (teacher, core, trainer):
        tracer.wrap(module, "train_teacher", "core.teacher")
    tracer.wrap(distill.MetaKnowledgeDistiller, "lambda_for_client",
                "core.distill.lambda")
    tracer.wrap(distill.MetaKnowledgeDistiller, "distillation_term",
                "core.distill.term")
    tracer.wrap(training.LocalTrainer, "train_epoch", "core.train.epoch")
    tracer.wrap(base.RecoveryModel, "__call__", "nn.forward")
    tracer.wrap(tensor.Tensor, "backward", "nn.backward")
    tracer.wrap_hierarchy(optim.Optimizer, "step", "nn.optim")
    for module in (training, distill, trainer, core):
        tracer.wrap(module, "model_segment_accuracy", "core.gate")
    for module in (api, serving, scheduler, training, evaluation, recovery):
        tracer.wrap(module, "decode_model", "serving.decode")
    tracer.wrap_hierarchy(runner.RoundRunner, "run_round_tolerant",
                          "federated.round")
    tracer.wrap(arena.ModelArena, "checkout", "federated.arena.checkout")
    tracer.wrap_hierarchy(communication.Codec, "encode", "federated.codec.encode")
    tracer.wrap_hierarchy(communication.Codec, "decode", "federated.codec.decode")
    for attr in ("screen_upload", "validate_rows"):
        tracer.wrap(server.FederatedServer, attr, "federated.server.validate")
    tracer.wrap(server.FederatedServer, "aggregate_rows",
                "federated.server.aggregate")
    for module in (trainer, federated, harness):
        tracer.wrap(module, "build_federation", "federated.build")
    tracer.wrap(trainer.FederatedTrainer, "__init__", "federated.build")
    for module in (evaluation, metrics, harness):
        tracer.wrap(module, "evaluate_model", "metrics.evaluate")
    tracer.wrap(scheduler.ContinuousBatcher, "step", "serving.step")
    tracer.wrap(service.DecodeService, "submit", "serving.submit")
    tracer.wrap(harness.ExperimentContext, "run_method", "baselines.run",
                name_of=_method_span)
    for attr in ("dataset", "federation", "mask_builder"):
        tracer.wrap(harness.ExperimentContext, attr, "experiments.context")


def per_layer_metrics(tracer: Tracer, reps: int, telemetry: dict) -> dict:
    """Per-layer values for one traced phase of ``reps`` repetitions.

    Times and counts are per repetition; ``federated.round_s.p50`` is
    the median over every round.  ``telemetry`` carries what the
    workload read from results rather than spans: ``rounds`` (round
    records), ``wire_bytes`` (ledger bytes) and ``measured`` (values
    taken as they are: the serving ladder and the tracing overhead).
    """
    totals = tracer.totals()
    rounds_s = tracer.durations("federated.round")
    reps = max(reps, 1)

    def seconds(span_name):
        entry = totals.get(span_name)
        if entry is None:
            return 0.0
        key = "self_s" if span_name in _SELF_TIME else "total_s"
        return entry[key] / reps

    def calls(span_name):
        return totals.get(span_name, {}).get("calls", 0) / reps

    values = {
        "data.synth_s": seconds("data.synth"),
        "data.encode_s": seconds("data.encode"),
        "data.examples": tracer.counters.get("data.examples", 0) / reps,
        "data.collate_s": seconds("data.collate"),
        "data.batches": tracer.counters.get("data.collate", 0) / reps,
        "spatial.index_queries": calls("spatial.index"),
        "spatial.index_s": seconds("spatial.index"),
        "core.mask.build_calls": calls("core.mask.build"),
        "core.mask.build_s": seconds("core.mask.build"),
        "core.teacher_s": seconds("core.teacher"),
        "core.distill.lambda_s": seconds("core.distill.lambda"),
        "core.distill.term_s": seconds("core.distill.term"),
        "core.train.epochs": calls("core.train.epoch"),
        "core.train.epoch_s": seconds("core.train.epoch"),
        "nn.forward_s": seconds("nn.forward"),
        "nn.backward_s": seconds("nn.backward"),
        "nn.optim_s": seconds("nn.optim"),
        "core.gate_calls": calls("core.gate"),
        "core.gate_s": seconds("core.gate"),
        "serving.decode_calls": calls("serving.decode"),
        "serving.decode_s": seconds("serving.decode"),
        "federated.rounds": calls("federated.round"),
        "federated.round_s.p50":
            statistics.median(rounds_s) if rounds_s else 0.0,
        "federated.arena.checkouts": calls("federated.arena.checkout"),
        "federated.arena.checkout_s": seconds("federated.arena.checkout"),
        "federated.codec.encode_s": seconds("federated.codec.encode"),
        "federated.codec.decode_s": seconds("federated.codec.decode"),
        "federated.server.validate_s": seconds("federated.server.validate"),
        "federated.server.aggregate_s": seconds("federated.server.aggregate"),
        "federated.build_s": seconds("federated.build"),
        "metrics.evaluate_s": seconds("metrics.evaluate"),
        "serving.steps": calls("serving.step"),
        "serving.step_s": seconds("serving.step"),
        **{f"baselines.{slug}.run_s": seconds(f"baselines.{slug}.run")
           for slug in BASELINE_METHODS.values()},
        "experiments.context_s": seconds("experiments.context"),
        "trace.spans": len(tracer.spans) / reps,
    }
    rounds = telemetry.get("rounds", [])
    values.update({
        "federated.tasks": sum(len(r.selected_clients) for r in rounds) / reps,
        "federated.retries": sum(r.total_retries for r in rounds) / reps,
        "federated.client_failures":
            sum(len(r.failures) for r in rounds) / reps,
        "federated.server.rejected":
            sum(r.failure_kinds.count("rejected") for r in rounds) / reps,
        "federated.wire_bytes_per_round":
            telemetry.get("wire_bytes", 0) / max(len(rounds), 1),
    })
    values.update(telemetry["measured"])
    return {name: values.get(name, 0.0) for name in PER_LAYER}
