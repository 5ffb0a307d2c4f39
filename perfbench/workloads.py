"""The benchmark's workloads.

Each workload is a repetition (``rep``) run as many times as the time
budget allows, every repetition on its own world drawn from the
workload seed: set-up (world, held-out set, federation, trainer), a
closed-loop federated training run, and a bulk offline recovery of a
held-out set that also scores quality.  ``serve_poisson`` then serves
the first repetition's model open loop (:func:`serve_ladder`).

Every random input comes from the seed: world, held-out drivers,
partition, model init, trainer, fault plan, arrival schedule and
request picks.  The program receives only the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

# Functions are called through their modules (``federated.build_federation``)
# so that the traced run's wrappers on those module attributes see them.
from repro import federated, metrics
from repro.baselines import make_model_factory
from repro.core import ConstraintMaskBuilder, RecoveryModelConfig, TrainingConfig
from repro.data import MatchedTrajectory, TrajectoryDataset, geolife_like, synthetic
from repro.experiments import (
    ExperimentContext,
    ExperimentScale,
    run_overall_comparison,
)
from repro.federated import FaultSpec, FederatedConfig, FederatedTrainer
from repro.serving import ContinuousBatcher, DecodeService, ServedResult, decode_model

from .layers import BASELINE_METHODS

__all__ = ["WORKLOADS", "Rep", "Workload", "sub_seed", "serve_ladder"]


#: Recovery passes over the held-out set per repetition (median reported).
RECOVER_PASSES = 5
#: How far a served log-probability may be from the solo decode's.  The
#: serving layer promises equal bits; with OpenBLAS 0.3.31 it breaks that
#: promise by rounding (see "Known defects" in README.md), which is counted
#: and reported, not failed.  Segments and ratios must still be bit-equal.
LOG_PROB_TOLERANCE = 1e-12


def sub_seed(seed: int, rep: int) -> int:
    """The seed of repetition ``rep`` of a run seeded ``seed``."""
    return seed * 100_003 + rep * 101


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    train_s: float
    train_samples: int  # examples x epochs of the dispatched client tasks
    recover_s: float
    recovered: int  # held-out trajectories recovered and scored
    recall: float
    mae_km: float
    comm_bytes: int
    tasks: int  # client tasks dispatched
    task_failures: int  # tasks that failed or whose upload was rejected
    rounds: list = field(repr=False)  # RoundRecords, every training run
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    serving_inputs: tuple | None = field(default=None, repr=False)
    # Machine speed over the reference while it ran (set by the caller;
    # 1.0 leaves times as measured).
    speed: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.train_s + self.recover_s


def _model_config(world, hidden: int) -> RecoveryModelConfig:
    return RecoveryModelConfig(
        num_cells=world.grid.num_cells, num_segments=world.network.num_segments,
        hidden_size=hidden, cell_emb_dim=16, seg_emb_dim=16, num_st_blocks=2,
        dropout=0.0, bbox=world.network.bounding_box())


def _held_out(world, drivers: int, per_driver: int, seed: int, keep: float,
              trim=None) -> TrajectoryDataset:
    """Trajectories of drivers the federation never saw, on its roads."""
    config = dataclasses.replace(world.config, num_drivers=drivers,
                                 trajectories_per_driver=per_driver)
    fresh = synthetic.generate_dataset(config, seed=seed,
                                       network=world.network).matched
    if trim is not None:
        fresh = trim(fresh)
    return TrajectoryDataset.from_matched(fresh, world.grid, world.network, keep)


def _digest(result, trainer) -> str:
    digest = hashlib.sha256(repr(result.history).encode())
    digest.update(np.ascontiguousarray(
        trainer.server.global_flat(dtype=np.float64)).tobytes())
    return digest.hexdigest()


def _check_run(result, trainer, rounds: int, label: str) -> list[str]:
    """Problems with one training run: NaN, skipped rounds, lost quorum."""
    problems = []
    history = result.history
    if len(history) != rounds:
        problems.append(f"{label}: {len(history)} of {rounds} rounds ran")
    for record in history:
        if not record.aggregated:
            problems.append(f"{label}: round {record.round_index} skipped "
                            f"(quorum lost)")
        if not (math.isfinite(record.mean_loss)
                and math.isfinite(record.global_accuracy)):
            problems.append(f"{label}: round {record.round_index} has NaN")
    if not np.isfinite(trainer.server.global_flat(dtype=np.float64)).all():
        problems.append(f"{label}: final global vector is not finite")
    return problems


def _dispatched_samples(result, client_data, epochs: int) -> int:
    """Examples x epochs of every client task the rounds dispatched
    (failed tasks included: ``ok_share`` counts those)."""
    return sum(client_data[c].num_train * epochs
               for record in result.history
               for c in record.selected_clients)


def _recover(models, mask, held_out) -> tuple[float, list]:
    """Recover and score the held-out set with each model
    ``RECOVER_PASSES`` times; returns the median pass time and the first
    pass's metric rows.  Collation is memoised after the first pass."""
    times, rows = [], None
    for _ in range(RECOVER_PASSES):
        start = time.perf_counter()
        scored = [metrics.evaluate_model(model, mask, held_out)
                  for model in models]
        times.append(time.perf_counter() - start)
        rows = rows or scored
    return statistics.median(times), rows


def _train_and_score(trainer, client_data, fed_config, mask, held_out,
                     setup_s, label) -> Rep:
    """Run one federation, then recover and score the held-out set."""
    start = time.perf_counter()
    result = trainer.run()
    train_s = time.perf_counter() - start
    recover_s, (row,) = _recover([result.global_model], mask, held_out)
    history = result.history
    return Rep(
        setup_s=setup_s, train_s=train_s,
        train_samples=_dispatched_samples(result, client_data,
                                          fed_config.local_epochs),
        recover_s=recover_s, recovered=len(held_out),
        recall=row.recall, mae_km=row.mae,
        comm_bytes=result.ledger.total_bytes,
        tasks=sum(len(r.selected_clients) for r in history),
        task_failures=sum(len(r.failures) for r in history),
        rounds=list(history), digest=_digest(result, trainer),
        problems=_check_run(result, trainer, fed_config.rounds, label),
    )


# ----------------------------------------------------------------------
# fed_lighttr: the product's training path
# ----------------------------------------------------------------------
FED_LIGHTTR = {
    "world": {"num_drivers": 20, "trajectories_per_driver": 10,
              "points_per_trajectory": 33},
    "held_out": {"drivers": 20, "per_driver": 10},
    "clients": 10, "keep_ratio": 0.125, "hidden": 48, "mask_radius": 500.0,
    "rounds": 3, "local_epochs": 1, "batch_size": 16, "lr": 3e-3,
    # lt=0 keeps every client distilling on every batch: with lt>0 the
    # Eq. 18 gate can switch distillation off for some seeds' worlds and
    # not others, and the work per repetition would follow the seed.
    "lambda0": 5.0, "lt": 0.0, "exchange_codec": "identity",
    "lazy_clients": False,
}


def fed_lighttr_rep(seed: int) -> Rep:
    c = FED_LIGHTTR
    start = time.perf_counter()
    world = geolife_like(**c["world"], seed=seed)
    held_out = _held_out(world, **c["held_out"], seed=seed + 1,
                         keep=c["keep_ratio"])
    clients, test = federated.build_federation(
        world, c["clients"], c["keep_ratio"],
        rng=np.random.default_rng(seed + 2))
    mask = ConstraintMaskBuilder(world.network, radius=c["mask_radius"])
    mask.warm(held_out)  # recovery measures decoding, not new map areas
    factory = make_model_factory("LightTR", _model_config(world, c["hidden"]),
                                 world.network, seed=seed + 3)
    fed_config = FederatedConfig(
        rounds=c["rounds"], client_fraction=1.0, local_epochs=c["local_epochs"],
        training=TrainingConfig(epochs=c["local_epochs"],
                                batch_size=c["batch_size"], lr=c["lr"]),
        use_meta=True, lambda0=c["lambda0"], lt=c["lt"],
        exchange_codec=c["exchange_codec"], lazy_clients=c["lazy_clients"])
    trainer = FederatedTrainer(factory, clients, mask, fed_config, test,
                               seed=seed + 4)
    setup_s = time.perf_counter() - start
    return _train_and_score(trainer, clients, fed_config, mask, held_out,
                            setup_s, "fed_lighttr")


# ----------------------------------------------------------------------
# fed_1k: a thousand lazy clients, int8 exchange, injected faults
# ----------------------------------------------------------------------
FED_1K = {
    "world": {"num_drivers": 40, "trajectories_per_driver": 50,
              "points_per_trajectory": 17},
    "clients": 1000, "keep_ratio": 0.25, "hidden": 48, "mask_radius": 500.0,
    "rounds": 3, "client_fraction": 0.02, "local_epochs": 1,
    "batch_size": 16, "exchange_codec": "int8", "lazy_clients": True,
    "arena_size": 1, "faults": {"crash": 0.1, "dropout": 0.1, "corrupt": 0.05},
    "task_retries": 1, "min_clients_per_round": 10,
}


def fed_1k_rep(seed: int) -> Rep:
    c = FED_1K
    start = time.perf_counter()
    world = geolife_like(**c["world"], seed=seed)
    clients, held_out = federated.build_federation(
        world, c["clients"], c["keep_ratio"], scheme="iid",
        rng=np.random.default_rng(seed + 2))
    mask = ConstraintMaskBuilder(world.network, radius=c["mask_radius"])
    factory = make_model_factory("LightTR", _model_config(world, c["hidden"]),
                                 world.network, seed=seed + 3)
    fed_config = FederatedConfig(
        rounds=c["rounds"], client_fraction=c["client_fraction"],
        local_epochs=c["local_epochs"],
        training=TrainingConfig(epochs=c["local_epochs"],
                                batch_size=c["batch_size"]),
        use_meta=False, exchange_codec=c["exchange_codec"],
        lazy_clients=c["lazy_clients"], arena_size=c["arena_size"],
        fault_plan=FaultSpec(seed=seed + 5, **c["faults"]),
        task_retries=c["task_retries"],
        min_clients_per_round=c["min_clients_per_round"])
    trainer = FederatedTrainer(factory, clients, mask, fed_config, held_out,
                               seed=seed + 4)
    setup_s = time.perf_counter() - start
    # The pooled test split is held out from training: the 1000-trajectory
    # set the accuracy gates decode every round.
    return _train_and_score(trainer, clients, fed_config, mask, held_out,
                            setup_s, "fed_1k")


# ----------------------------------------------------------------------
# table4_baselines: a Table IV slice through the experiment harness
# ----------------------------------------------------------------------
TABLE4 = {
    "scale": {"num_drivers": 12, "trajectories_per_driver": 8,
              "points_per_trajectory": 33, "num_clients": 4, "rounds": 2,
              "local_epochs": 1, "hidden_size": 32, "cell_emb_dim": 16,
              "seg_emb_dim": 16, "exchange_codec": "identity",
              "lazy_clients": "off"},
    "dataset": "geolife", "keep_ratio": 0.125,
    "methods": tuple(BASELINE_METHODS),
    "held_out": {"drivers": 12, "per_driver": 10},
}


@contextmanager
def _capture_trainer_runs(sink: list):
    """Collect ``(trainer, result)`` of every federated run the harness
    starts, for digests, round records and the trained models."""
    original = FederatedTrainer.run

    def run(trainer):
        result = original(trainer)
        sink.append((trainer, result))
        return result

    FederatedTrainer.run = run
    try:
        yield
    finally:
        FederatedTrainer.run = original


def table4_rep(seed: int) -> Rep:
    c = TABLE4
    start = time.perf_counter()
    scale = ExperimentScale(name="perfbench", seed=seed, **c["scale"])
    context = ExperimentContext(scale)
    world = context.dataset(c["dataset"])
    clients, _ = context.federation(c["dataset"], c["keep_ratio"])
    mask = context.mask_builder(c["dataset"])
    held_out = _held_out(world, **c["held_out"], seed=seed + 1,
                         keep=c["keep_ratio"])
    mask.warm(held_out)
    setup_s = time.perf_counter() - start

    runs: list = []
    with _capture_trainer_runs(runs):
        method_runs = run_overall_comparison(
            context, datasets=(c["dataset"],), keep_ratios=(c["keep_ratio"],),
            methods=c["methods"])
    train_s = sum(run.elapsed_seconds for run in method_runs)

    recover_s, rows = _recover([result.global_model for _, result in runs],
                               mask, held_out)

    rounds, problems, digest = [], [], hashlib.sha256()
    samples = 0
    for method, (trainer, result) in zip(c["methods"], runs):
        rounds.extend(result.history)
        problems += _check_run(result, trainer, scale.rounds, method)
        samples += _dispatched_samples(result, clients, scale.local_epochs)
        digest.update(_digest(result, trainer).encode())
    if len(runs) != len(c["methods"]):
        problems.append(f"table4: {len(runs)} federated runs for "
                        f"{len(c['methods'])} methods")
    return Rep(
        setup_s=setup_s, train_s=train_s, train_samples=samples,
        recover_s=recover_s, recovered=len(held_out) * len(rows),
        recall=statistics.fmean(r.recall for r in rows),
        mae_km=statistics.fmean(r.mae for r in rows),
        comm_bytes=sum(run.comm_bytes for run in method_runs),
        tasks=sum(len(r.selected_clients) for r in rounds),
        task_failures=sum(len(r.failures) for r in rounds),
        rounds=rounds, digest=digest.hexdigest(), problems=problems,
    )


# ----------------------------------------------------------------------
# serve_poisson: open-loop serving of a trained model
# ----------------------------------------------------------------------
SERVE = {
    "world": {"num_drivers": 16, "trajectories_per_driver": 12,
              "points_per_trajectory": 25},
    "held_out": {"drivers": 24, "per_driver": 16},
    "min_points": 7, "max_points": 25,
    "clients": 4, "keep_ratio": 0.25, "hidden": 32, "mask_radius": 400.0,
    "rounds": 4, "local_epochs": 1, "batch_size": 16, "lr": 3e-3,
    "max_batch": 8,
    "reference_rate": 150.0, "reference_requests": 1000,
    "ladder_rates": (200.0, 250.0, 300.0, 350.0, 400.0, 500.0),
    "rung_seconds": 1.5, "p99_limit_ms": 200.0,
}


def _trimmer(seed: int):
    """Cut trajectories to seeded lengths in [min_points, max_points]."""
    rng = np.random.default_rng(seed)
    low, high = SERVE["min_points"], SERVE["max_points"]

    def trim(trajectories):
        lengths = rng.integers(low, high + 1, size=len(trajectories))
        return [MatchedTrajectory(t.traj_id, t.driver_id, t.epsilon,
                                  t.points[:int(n)])
                for t, n in zip(trajectories, lengths)]

    return trim


def serve_rep(seed: int) -> Rep:
    c = SERVE
    start = time.perf_counter()
    trim = _trimmer(seed + 6)
    world = geolife_like(**c["world"], seed=seed)
    world = dataclasses.replace(world, matched=trim(world.matched))
    held_out = _held_out(world, **c["held_out"], seed=seed + 1,
                         keep=c["keep_ratio"], trim=trim)
    clients, test = federated.build_federation(
        world, c["clients"], c["keep_ratio"],
        rng=np.random.default_rng(seed + 2))
    mask = ConstraintMaskBuilder(world.network, radius=c["mask_radius"])
    factory = make_model_factory("LightTR", _model_config(world, c["hidden"]),
                                 world.network, seed=seed + 3)
    fed_config = FederatedConfig(
        rounds=c["rounds"], client_fraction=1.0, local_epochs=c["local_epochs"],
        training=TrainingConfig(epochs=c["local_epochs"],
                                batch_size=c["batch_size"], lr=c["lr"]),
        use_meta=False, exchange_codec="identity", lazy_clients=False)
    trainer = FederatedTrainer(factory, clients, mask, fed_config, test,
                               seed=seed + 4)
    # Requests are pre-built here, masks included: one single-trajectory
    # batch per held-out trajectory.
    requests = []
    for example in held_out.examples:
        single = TrajectoryDataset([example], held_out.grid, held_out.network,
                                   held_out.keep_ratio)
        batch = single.full_batch()
        requests.append((batch, mask.build_for(batch)))
    setup_s = time.perf_counter() - start
    rep = _train_and_score(trainer, clients, fed_config, mask, held_out,
                           setup_s, "serve_poisson")
    rep.serving_inputs = (trainer.server.global_model, requests)
    return rep


@dataclass
class _StepLog:
    """Admission and completion times read around ContinuousBatcher.step."""

    admitted: dict = field(default_factory=dict)
    finished: dict = field(default_factory=dict)
    steps: int = 0
    busy_s: float = 0.0


@contextmanager
def _logged_steps(log: _StepLog):
    """Completion times come from the step that finished each request,
    not from ``DecodeService.result`` (a result that completes just
    after a ``result(timeout=...)`` call gives up can be dropped)."""
    original = ContinuousBatcher.step

    def step(batcher):
        start = time.perf_counter()
        admitted_before = len(batcher.admission_log)
        outcomes = original(batcher)
        end = time.perf_counter()
        for handle in batcher.admission_log[admitted_before:]:
            log.admitted[handle] = start
        for handle, outcome in outcomes:
            log.finished[handle] = (end, outcome)
        log.steps += 1
        log.busy_s += end - start
        return outcomes

    ContinuousBatcher.step = step
    try:
        yield
    finally:
        ContinuousBatcher.step = original


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


@dataclass
class Rung:
    rate: float
    requests: int
    completed: int
    latency_ms: list
    queue_wait_ms: list
    decode_ms: list
    submit_wait_ms: list
    gen_late_ms: list
    steps: int
    busy_s: float
    work_rows: int
    dense_rows: int
    mismatched: int  # results that differ from a solo decode
    mismatches: Counter  # differing results per output field
    bit_mismatched: int  # results whose log-prob bits differ (rounding)
    max_log_prob_diff: float  # largest |served - solo| log-probability

    @property
    def p99_ms(self) -> float:
        return _quantile(self.latency_ms, 0.99)

    @property
    def backlog_grows(self) -> bool:
        """The last quarter of requests waits far longer than the first."""
        quarter = max(len(self.latency_ms) // 4, 1)
        first = statistics.median(self.latency_ms[:quarter])
        last = statistics.median(self.latency_ms[-quarter:])
        return last > 2.0 * first + 20.0


def _run_rung(model, requests, rate: float, count: int,
              rng: np.random.Generator, solo: dict, timed) -> Rung:
    """Submit ``count`` requests on a seeded Poisson schedule at ``rate``
    from this thread, then check every result against a solo decode.
    ``timed()`` is entered around the timed part only."""
    picks = rng.integers(0, len(requests), size=count)
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    log = _StepLog()
    sent, submitted = [], []
    with timed(), _logged_steps(log), DecodeService(
            model, max_batch=SERVE["max_batch"], max_queue=count + 1) as service:
        origin = time.perf_counter() + 0.01
        for i in range(count):
            delay = origin + due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent.append(time.perf_counter())
            service.submit(*requests[picks[i]])
            submitted.append(time.perf_counter())
        service.drain(timeout=120.0)
    # Handles of a fresh service count up from 0 in submission order.
    latency, queue, decode = [], [], []
    work = dense = mismatched = bit_mismatched = 0
    max_diff = 0.0
    mismatches: Counter = Counter()
    for handle in range(count):
        finished = log.finished.get(handle)
        if finished is None or not isinstance(finished[1], ServedResult):
            continue
        end, result = finished
        due_at = origin + due[handle]
        latency.append((end - due_at) * 1e3)
        queue.append((log.admitted[handle] - due_at) * 1e3)
        decode.append((end - log.admitted[handle]) * 1e3)
        work += result.work_rows
        dense += result.dense_rows
        differing, bits_differ, diff = _solo_differences(
            model, requests, int(picks[handle]), result, solo)
        mismatches.update(differing)
        mismatched += bool(differing)
        bit_mismatched += bits_differ
        max_diff = max(max_diff, diff)
    offsets = origin + due
    return Rung(
        rate=rate, requests=count, completed=len(latency),
        latency_ms=latency, queue_wait_ms=queue, decode_ms=decode,
        submit_wait_ms=[(b - a) * 1e3 for a, b in zip(sent, submitted)],
        gen_late_ms=[(a - d) * 1e3 for a, d in zip(sent, offsets)],
        steps=log.steps, busy_s=log.busy_s, work_rows=work, dense_rows=dense,
        mismatched=mismatched, mismatches=mismatches,
        bit_mismatched=bit_mismatched, max_log_prob_diff=max_diff)


def _solo_differences(model, requests, index: int, result,
                      solo: dict) -> tuple[list[str], bool, float]:
    """Compare a served result with a solo ``decode_model`` of the same
    request on every valid step.  Returns the output fields that differ
    (``segments`` or ``ratios`` in any bit, ``log_probs`` by more than
    ``LOG_PROB_TOLERANCE``), whether any log-prob bit differs, and the
    largest log-prob difference."""
    batch, log_mask = requests[index]
    if index not in solo:
        solo[index] = decode_model(model, batch, log_mask)
    output = solo[index]
    valid = batch.tgt_mask
    differing = [
        name for name, (served, alone) in (
            ("segments", (result.segments, output.segments)),
            ("ratios", (result.ratios, output.ratios.data)))
        if np.ascontiguousarray(served[valid]).tobytes()
        != np.ascontiguousarray(alone[valid]).tobytes()]
    served = np.ascontiguousarray(result.log_probs[valid])
    alone = np.ascontiguousarray(output.log_probs.data[valid])
    bits_differ = served.tobytes() != alone.tobytes()
    diff = 0.0
    if bits_differ:
        if served.shape != alone.shape:
            return differing + ["log_probs"], True, math.inf
        finite = np.isfinite(served) & np.isfinite(alone)
        if not np.array_equal(served[~finite], alone[~finite]):
            diff = math.inf
        elif finite.any():
            diff = float(np.max(np.abs(served[finite] - alone[finite])))
        if not diff <= LOG_PROB_TOLERANCE:
            differing.append("log_probs")
    return differing, bits_differ, diff


def serve_ladder(model, requests, seed: int, timed=nullcontext) -> dict:
    """The reference rung, then rising rates until p99 breaks its limit
    or the backlog grows.  Returns serving figures and request counts."""
    c = SERVE
    model.eval()
    rng = np.random.default_rng(seed + 7)
    solo: dict = {}
    rungs = [_run_rung(model, requests, c["reference_rate"],
                       c["reference_requests"], rng, solo, timed)]
    for rate in c["ladder_rates"]:
        if not _passes(rungs[-1]):
            break
        rungs.append(_run_rung(model, requests, rate,
                               int(rate * c["rung_seconds"]), rng, solo,
                               timed))
    ref = rungs[0]
    return {
        "figures": {
            "serve.p50_ms": _quantile(ref.latency_ms, 0.50),
            "serve.p99_ms": ref.p99_ms,
            "serve.max_rps": _max_rps(rungs),
        },
        "layers": {
            "serving.steps": ref.steps,
            "serving.step_s": ref.busy_s,
            "serving.rows_per_step": ref.work_rows / max(ref.steps, 1),
            "serving.queue_wait_ms.p50": _quantile(ref.queue_wait_ms, 0.50),
            "serving.queue_wait_ms.p99": _quantile(ref.queue_wait_ms, 0.99),
            "serving.decode_ms.p50": _quantile(ref.decode_ms, 0.50),
            "serving.work_ratio": ref.work_rows / max(ref.dense_rows, 1),
            "serving.submit_wait_ms.p99": _quantile(ref.submit_wait_ms, 0.99),
            "serving.gen_late_ms.p99": _quantile(ref.gen_late_ms, 0.99),
        },
        "requests": sum(r.requests for r in rungs),
        "failed": sum(r.requests - r.completed for r in rungs),
        "mismatched": sum(r.mismatched for r in rungs),
        "mismatches": dict(sum((r.mismatches for r in rungs), Counter())),
        "bit_mismatched": sum(r.bit_mismatched for r in rungs),
        "max_log_prob_diff": max(r.max_log_prob_diff for r in rungs),
        "rungs": [{"rate": r.rate, "requests": r.requests,
                   "completed": r.completed,
                   "p50_ms": _quantile(r.latency_ms, 0.5),
                   "p99_ms": r.p99_ms, "backlog_grows": r.backlog_grows}
                  for r in rungs],
    }


def _passes(rung: Rung) -> bool:
    return (rung.completed == rung.requests and not rung.backlog_grows
            and rung.p99_ms <= SERVE["p99_limit_ms"])


def _max_rps(rungs: list) -> float:
    """Highest passing rate.  When the next rung failed on its p99, the
    rate is interpolated (in log p99) toward it, so the figure moves
    smoothly with capacity; a rung that failed on its backlog alone
    gives no such point."""
    limit = SERVE["p99_limit_ms"]
    passing = [r for r in rungs if _passes(r)]
    if not passing:
        return rungs[0].rate * limit / max(rungs[0].p99_ms, 1e-9)
    best = passing[-1]
    failing = [r for r in rungs if r.rate > best.rate]
    if not failing or failing[0].p99_ms <= limit:
        return best.rate
    worse = failing[0]
    low, high = math.log(max(best.p99_ms, 1e-9)), math.log(worse.p99_ms)
    share = (math.log(limit) - low) / (high - low)
    return best.rate + (worse.rate - best.rate) * min(max(share, 0.0), 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    rep: object  # callable(seed) -> Rep; sets serving_inputs to be served
    config: dict


WORKLOADS = {w.name: w for w in (
    Workload("fed_lighttr", fed_lighttr_rep, FED_LIGHTTR),
    Workload("fed_1k", fed_1k_rep, FED_1K),
    Workload("serve_poisson", serve_rep, SERVE),
    Workload("table4_baselines", table4_rep, TABLE4),
)}
