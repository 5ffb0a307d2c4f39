"""Run a workload's repetitions and turn them into the reported metrics.

End-to-end metrics come from untraced runs.  Times are medians over
repetitions, each on its own seeded world, scaled to a reference machine
speed.  A fixed calibration kernel runs before the first repetition and
after every one; a repetition's speed is ``CALIBRATION_REFERENCE_S``
over the mean of the two calibrations around it, and its times are
scaled by that speed.  On a shared machine the speed of identical work
drifts by up to half over tens of seconds; the scaling takes that drift
out and keeps the program's own speed.  Quality, traffic and the share
of client tasks and requests that succeeded are averaged over the first
``MIN_REPS`` repetitions, so they depend on the seed only.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager

from . import layers
from .tracer import Tracer
from .workloads import WORKLOADS, serve_ladder, sub_seed

__all__ = ["END_TO_END", "run_workload"]

#: Repetitions an untraced run makes however long they take.
MIN_REPS = 4
#: Calibration kernel size, and its time at the reference machine speed.
CALIBRATION_STEPS = 15_000
CALIBRATION_REFERENCE_S = 0.25

#: Every end-to-end metric with its unit (BENCHMARK.json mirrors it).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_samples_per_s": "1/s",
    "quality.recall": "ratio", "quality.mae_km": "km", "comm_mb": "MB",
    "recover.traj_per_s": "1/s", "ok_share": "ratio",
}


@contextmanager
def _traced(tracer: Tracer):
    layers.install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def calibrate() -> float:
    """Seconds a fixed mix of small NumPy products and Python arithmetic
    takes now.  Its arrays are small and built here, so nothing the
    program configures (allocator thresholds, caches) changes it."""
    import numpy as np

    matrix = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    total = 0.0
    for _ in range(CALIBRATION_STEPS):
        product = matrix @ matrix
        total += float(np.exp(product[0] * 1e-3).sum()) + sum(range(40))
    return time.perf_counter() - start


def _rep(workload, seed: int, index: int, keep_serving: bool):
    rep = workload.rep(sub_seed(seed, index))
    if not keep_serving:
        rep.serving_inputs = None  # only the first repetition is served
    return rep


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 out_dir) -> dict:
    workload = WORKLOADS[name]
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}-"
                           f"{time.strftime('%Y%m%dT%H%M%S')}")
    plain, traced, calibrations = [], [], []
    start = time.perf_counter()
    if not trace:
        calibrations.append(calibrate())
        while len(plain) < MIN_REPS or time.perf_counter() - start < seconds:
            plain.append(_rep(workload, seed, len(plain), not plain))
            calibrations.append(calibrate())
            plain[-1].speed = CALIBRATION_REFERENCE_S / statistics.fmean(
                calibrations[-2:])
    else:
        # Pairs of the same repetition, alternating which side runs
        # first, so warm-up and drift fall on both sides.
        while not plain or time.perf_counter() - start < seconds:
            index = len(plain)
            for with_trace in ((True, False) if index % 2 == 0
                               else (False, True)):
                if with_trace:
                    with _traced(tracer):
                        traced.append(_rep(workload, seed, index, not index))
                else:
                    plain.append(_rep(workload, seed, index, not index))

    ladder = traced_ladder = None
    if plain[0].serving_inputs is not None:
        ladder = serve_ladder(*plain[0].serving_inputs, seed)
        if trace:
            traced_ladder = serve_ladder(*traced[0].serving_inputs, seed,
                                         timed=lambda: _traced(tracer))
    for rep in plain + traced:
        rep.serving_inputs = None

    problems = [p for rep in plain + traced for p in rep.problems]
    for index, (rep, twin) in enumerate(zip(plain, traced)):
        if rep.digest != twin.digest:
            problems.append(f"tracing changed the results of repetition "
                            f"{index}")
    attempted = sum(len(rep.rounds) + 1 for rep in plain + traced)
    failed = sum(sum(not r.aggregated for r in rep.rounds)
                 for rep in plain + traced)
    for served in (ladder, traced_ladder):
        if served is not None:
            attempted += served["requests"]
            failed += served["failed"]
            if served["failed"]:
                problems.append(f"{served['failed']} requests did not complete")
            if served["mismatched"]:
                problems.append(
                    f"{served['mismatched']} of {served['requests']} served "
                    f"results differ from a solo decode_model of the same "
                    f"request (results per differing field: "
                    f"{served['mismatches']}; largest log-prob difference "
                    f"{served['max_log_prob_diff']:.3g})")

    if trace:
        pairs = len(traced)
        overhead = (sum(r.wall_s for r in traced)
                    / sum(r.wall_s for r in plain[:pairs]) - 1.0) * 100.0
        telemetry = {
            "rounds": [r for rep in traced for r in rep.rounds],
            "wire_bytes": sum(rep.comm_bytes for rep in traced),
            "measured": {"trace.overhead_pct": overhead,
                         **(traced_ladder["layers"] if traced_ladder else {}),
                         **(ladder["figures"] if ladder else {}),
                         **({"serving.solo_bit_mismatches":
                             ladder["bit_mismatched"]} if ladder else {})},
        }
        values = layers.per_layer_metrics(tracer, pairs, telemetry)
        units = layers.PER_LAYER
        trace_files = tracer.write(str(out_dir / f"{name}-seed{seed}-trace1"))
    else:
        values = _end_to_end(plain, ladder)
        units = END_TO_END
        trace_files = []

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(values[key]), "unit": unit}
                    for key, unit in units.items()},
    }
    return {
        "result": result,
        "problems": problems,
        "summary": _summary(name, plain, traced, ladder, problems),
        "reps": [_rep_row(rep) for rep in plain],
        "traced_reps": [_rep_row(rep) for rep in traced],
        "calibrations_s": calibrations,
        "ladder": ladder and ladder["rungs"],
        "serving": ladder and {
            **ladder["figures"], **ladder["layers"],
            "solo_bit_mismatches": ladder["bit_mismatched"],
            "max_log_prob_diff": ladder["max_log_prob_diff"]},
        "trace_files": [os.path.relpath(path, out_dir.parent.parent)
                        for path in trace_files],
        "manifest": {"config": workload.config, "run_id": tracer.run_id,
                     "min_reps": MIN_REPS,
                     "calibration_steps": CALIBRATION_STEPS,
                     "calibration_reference_s": CALIBRATION_REFERENCE_S},
    }


def _end_to_end(reps, ladder) -> dict:
    scored = reps[:MIN_REPS]
    tasks = sum(rep.tasks for rep in scored)
    failures = sum(rep.task_failures for rep in scored)
    if ladder is not None:
        tasks += ladder["requests"]
        failures += ladder["failed"]
    return {
        "setup_s": statistics.median(rep.setup_s * rep.speed for rep in reps),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_samples_per_s": statistics.median(
            rep.train_samples / rep.train_s / rep.speed for rep in reps),
        "quality.recall": statistics.fmean(rep.recall for rep in scored),
        "quality.mae_km": statistics.fmean(rep.mae_km for rep in scored),
        "comm_mb": statistics.fmean(rep.comm_bytes for rep in scored) / 1e6,
        "recover.traj_per_s": statistics.median(
            rep.recovered / rep.recover_s / rep.speed for rep in reps),
        "ok_share": 1.0 - failures / tasks,
    }


def _rep_row(rep) -> dict:
    return {"setup_s": rep.setup_s, "train_s": rep.train_s,
            "train_samples": rep.train_samples, "recover_s": rep.recover_s,
            "recovered": rep.recovered, "recall": rep.recall,
            "mae_km": rep.mae_km, "comm_bytes": rep.comm_bytes,
            "tasks": rep.tasks, "task_failures": rep.task_failures,
            "rounds": len(rep.rounds), "speed": rep.speed,
            "digest": rep.digest}


def _summary(name, plain, traced, ladder, problems) -> list[str]:
    lines = []
    for label, reps in (("rep", plain), ("traced rep", traced)):
        for i, rep in enumerate(reps):
            lines.append(
                f"{name} {label} {i}: setup {rep.setup_s:.3f}s train "
                f"{rep.train_s:.3f}s ({rep.train_samples} samples) recover "
                f"{rep.recover_s:.3f}s ({rep.recovered} traj) recall "
                f"{rep.recall:.4f} mae {rep.mae_km:.4f}km failures "
                f"{rep.task_failures}/{rep.tasks} speed {rep.speed:.3f} "
                f"digest {rep.digest[:16]}")
    if ladder is not None:
        for rung in ladder["rungs"]:
            lines.append(
                f"{name} rung {rung['rate']:.0f} req/s: "
                f"{rung['completed']}/{rung['requests']} done, "
                f"p50 {rung['p50_ms']:.1f} ms, p99 {rung['p99_ms']:.1f} ms"
                f"{', backlog grows' if rung['backlog_grows'] else ''}")
        lines.append(f"{name} serving: " + ", ".join(
            f"{k} {v:.2f}" for k, v in ladder["figures"].items()))
        if ladder["bit_mismatched"]:
            lines.append(
                f"NOTE: {ladder['bit_mismatched']} of {ladder['requests']} "
                f"served results differ from a solo decode_model in the "
                f"last bits of log_probs (largest difference "
                f"{ladder['max_log_prob_diff']:.3g}; see README, Known "
                f"defects)")
    lines.extend(f"PROBLEM: {p}" for p in problems)
    return lines
