"""Batched variable-length decode engine (the serving hot path).

Autoregressive trajectory recovery steps a decoder once per output
timestep.  The padded decode paths step **every** batch row for
``max_length`` steps, so a batch of ragged-length trajectories pays for
``B * T_max`` row-steps even though only ``sum(T_i)`` carry signal.
:class:`DecodeSession` packs an arbitrary set of variable-length
trajectories into one batched stepping loop with **active-row
compaction**: rows whose trajectory is finished are dropped from the
working set at the step where they finish, every kernel in the step
(recurrent cells, heads, constraint-mask slicing, masked log-softmax)
runs over the compacted rows only, and the per-step outputs are
re-scattered into their original positions at the end.  Decode cost
then scales with the number of *unfinished* rows per step.

The engine is model-agnostic: it drives a **decode program** — an
adapter each recovery model builds via
:meth:`~repro.core.base.RecoveryModel.decode_program` — through a small
duck-typed protocol:

``num_rows`` / ``num_steps`` / ``num_classes``
    Working-set geometry (batch rows, max timesteps, vocabulary size).
``initial_state()``
    The per-row decoder state for all ``num_rows`` rows.  Must be safe
    to reuse across :meth:`DecodeSession.run` calls (the engine never
    mutates it; ``advance`` returns fresh state).
``select_rows(state, keep)``
    The state compacted to positions ``keep`` of the current working
    set (a pure gather).
``advance(state, rows, t, prev_segments, prev_ratios)``
    Advance one step over the compacted working set (``rows`` holds the
    original batch-row ids, for slicing per-row constants such as the
    constraint mask and auxiliary features) and return
    ``(next_state, log_probs)`` with ``log_probs`` of shape ``(A, S)``.
``emit(state, segments)``
    The moving ratios ``(A,)`` for the segments the emission policy
    chose.

Choosing the emitted segment is delegated to a pluggable
:class:`EmissionPolicy` (greedy argmax today; the split
``advance``/``emit`` protocol is exactly the seam a beam policy needs —
score all hypotheses, then emit ratios for the survivors).

Determinism contract
--------------------
Compaction only ever *removes* rows from the batched kernels; every
operation in a decode step is row-local, so the surviving rows compute
the same values they would inside the full batch.  Two BLAS caveats
are handled explicitly:

* single-output matmuls (``(M, K) @ (K, 1)`` — ratio heads, attention
  energies) dispatch to GEMV kernels whose accumulation blocking
  depends on ``M``, so the step kernels route them through the
  packing-stable :func:`repro.nn.row_dot` reduction instead;
* a single-row working set dispatches *every* matmul to GEMV, so when
  compaction would shrink a multi-row working set to exactly one row
  the engine carries one finished row along as inert ballast (its
  outputs are discarded) and the live row keeps its GEMM bit-pattern.

Packed output is therefore **bit-identical** to the padded full-length
engine decode on every valid timestep, for any working set — including
one-row working sets (``decode_batch=1``, one-trajectory request
batches): a working set that *starts* at exactly one row carries a
duplicate of that row as inert **self-ballast**, so the live row runs
the same GEMM kernels (and therefore the same bit patterns) as inside
any larger packed batch.  Historically one-row sets ran GEMV kernels
and only promised argmax identity + 1e-10 values; the self-ballast
upgrade makes the one-row case bitwise too, which is what lets the
continuous-batching scheduler (:mod:`repro.serving.scheduler`) prove
solo-vs-batched *equality* rather than closeness.

Live admission
--------------
:meth:`DecodeSession.open` returns a :class:`LiveDecodeSet` — the
incremental dual of :meth:`DecodeSession.run`.  Where ``run`` packs a
fixed request set and retires rows as they finish, a live set *also*
accepts new rows mid-flight (:meth:`LiveDecodeSet.admit`) at step
boundaries, each admitted entry stepping on its own per-entry clock.
Admitted programs must be mutually *mux-compatible* (same program
class, same per-row state geometry, same mask kind — see
``mux_key`` in :mod:`repro.serving.programs`); every step the set
concatenates the entries' per-step constants and states, advances them
through one batched kernel call, and scatters the outputs back.
Because every step kernel is row-local and GEMM bit-patterns are
row-count independent (the two BLAS caveats above are already
handled), an admitted row computes exactly the bits of its solo
:func:`~repro.serving.api.decode_model` call, no matter what else
shares the working set or when it was admitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.backend import ops
from ..nn.execution import current_execution

__all__ = ["EmissionPolicy", "GreedyEmission", "PackedDecodeResult",
           "DecodeSession", "LiveDecodeSet", "LiveDecodeResult", "MuxError"]


class EmissionPolicy:
    """Chooses the emitted segment per active row each decode step.

    ``select`` receives the masked log-probabilities ``(A, S)`` of the
    compacted working set and returns one segment id per row.  Policies
    are stateless with respect to the engine loop: richer policies
    (e.g. beam search) would subclass :class:`DecodeSession` to expand
    the working set per hypothesis, but reuse this same scoring seam —
    the engine already separates scoring (``advance``) from emission
    (``emit``), so a policy never has to re-run the decoder to change
    what is emitted.

    State extension seam
    --------------------
    A policy that keeps per-row state (a beam policy's per-row beam
    sets, a top-k sampler's per-row RNG lanes) tracks the working set
    through two hooks the engine calls at every membership change:
    :meth:`extend` when rows are admitted (appended at the end of the
    working set, in admission order) and :meth:`compact` when finished
    rows retire (``keep`` holds the surviving positions, in order).
    Both default to no-ops — greedy emission is stateless.  ``select``
    may additionally see **one trailing ballast row** beyond the
    tracked working set (the BLAS guard); its emission is discarded, so
    stateful policies should simply ignore positions past their tracked
    row count.
    """

    def select(self, log_probs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def extend(self, rows: int) -> None:
        """``rows`` new working-set rows were appended (admission)."""

    def compact(self, keep: np.ndarray) -> None:
        """The working set was compacted to positions ``keep``."""


class GreedyEmission(EmissionPolicy):
    """Argmax emission — the paper's decode rule (Eq. 11)."""

    def select(self, log_probs: np.ndarray) -> np.ndarray:
        return ops.argmax(log_probs, axis=-1).astype(np.int64)


@dataclass(frozen=True)
class PackedDecodeResult:
    """Re-scattered outputs of one packed decode run.

    Rows beyond a trajectory's length hold zeros (they are padding —
    no consumer reads them); ``work_rows`` / ``dense_rows`` record how
    many row-steps the packed loop actually computed vs what a padded
    loop would have, so packing efficiency is observable.
    """

    log_probs: np.ndarray  # (B, T, S) float, zeros beyond each length
    ratios: np.ndarray  # (B, T) float, zeros beyond each length
    segments: np.ndarray  # (B, T) int64, zeros beyond each length
    work_rows: int  # row-steps computed (incl. BLAS-guard ballast)
    dense_rows: int  # row-steps a padded decode would compute


class DecodeSession:
    """Packs ragged-length decode requests into one compacted loop.

    Parameters
    ----------
    policy:
        The :class:`EmissionPolicy`; default greedy argmax.
    decode_batch:
        Maximum number of trajectories stepped together.  ``None``
        decodes the whole request set as one working set; a positive
        value bounds peak per-step memory (each chunk shares the
        program's initial state, so e.g. the encoder still runs once
        for the full batch).  For ``decode_batch >= 2`` a trailing
        one-row chunk is folded into its predecessor so every working
        set keeps the two-row bitwise contract; ``decode_batch=1``
        working sets carry a duplicated-row self-ballast instead, which
        keeps them on the same GEMM kernels (and bits) as any larger
        working set at the cost of one extra computed row per step.
    """

    def __init__(self, policy: EmissionPolicy | None = None,
                 decode_batch: int | None = None):
        if decode_batch is not None and decode_batch < 1:
            raise ValueError("decode_batch must be >= 1 (or None)")
        self.policy = policy if policy is not None else GreedyEmission()
        self.decode_batch = decode_batch

    def open(self, max_batch: int | None = None) -> "LiveDecodeSet":
        """A live working set accepting mid-flight admission.

        The incremental dual of :meth:`run`: where ``run`` decodes a
        fixed request set to completion, the returned
        :class:`LiveDecodeSet` is stepped explicitly and admits new
        rows between steps, bounded by ``max_batch`` live rows.  The
        session's emission policy is shared with the live set.
        """
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1 (or None)")
        return LiveDecodeSet(self.policy, max_batch=max_batch)

    def run(self, program, batch, lengths: np.ndarray | None = None
            ) -> PackedDecodeResult:
        """Decode every row of ``batch`` through ``program``.

        ``lengths`` gives each row's number of valid decode steps;
        ``None`` decodes every row for the full padded ``num_steps``
        (the padded reference behaviour — no compaction ever happens).
        """
        b, t = program.num_rows, program.num_steps
        if lengths is None:
            lengths = np.full(b, t, dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (b,):
                raise ValueError(
                    f"lengths shape {lengths.shape} does not match {b} rows")
            if lengths.max(initial=0) > t:
                raise ValueError("a length exceeds the program's num_steps")
        dtype = current_execution().compute_dtype
        log_probs = np.zeros((b, t, program.num_classes), dtype=dtype)
        ratios = np.zeros((b, t), dtype=dtype)
        segments = np.zeros((b, t), dtype=np.int64)

        state0 = program.initial_state()
        work = 0
        chunk = b if self.decode_batch is None else self.decode_batch
        starts = list(range(0, b, chunk))
        if chunk >= 2 and len(starts) > 1 and b - starts[-1] == 1:
            # A trailing one-row chunk would decode through GEMV kernels
            # (different bit patterns); fold it into its predecessor so
            # every working set honours the >= 2-row bitwise contract.
            starts.pop()
        for i, start in enumerate(starts):
            stop = starts[i + 1] if i + 1 < len(starts) else b
            rows = np.arange(start, stop, dtype=np.int64)
            work += self._run_rows(program, state0, batch, lengths, rows,
                                   log_probs, ratios, segments)
        return PackedDecodeResult(
            log_probs=log_probs, ratios=ratios, segments=segments,
            work_rows=work, dense_rows=b * t,
        )

    # ------------------------------------------------------------------
    # one working set
    # ------------------------------------------------------------------
    def _run_rows(self, program, state0, batch, lengths: np.ndarray,
                  rows: np.ndarray, log_probs: np.ndarray, ratios: np.ndarray,
                  segments: np.ndarray) -> int:
        if rows.size == 1:
            # Self-ballast: a one-row working set would dispatch every
            # matmul to GEMV kernels whose bit-patterns differ from the
            # GEMM ones that packed multi-row sets run.  Carrying an
            # inert duplicate of the row keeps the live row on the GEMM
            # kernels, making one-row decodes bit-identical to the same
            # row inside any packed working set.
            rows = ops.concatenate([rows, rows])
            state = program.select_rows(state0, rows)
            live = np.array([True, False])
        elif rows.size == program.num_rows:
            state = state0  # whole batch: reuse the program's state as-is
            live = np.ones(rows.size, dtype=bool)
        else:
            state = program.select_rows(state0, rows)
            live = np.ones(rows.size, dtype=bool)
        prev_segments = batch.tgt_segments[rows, 0].copy()
        prev_ratios = batch.tgt_ratios[rows, 0].copy()
        horizon = int(lengths[rows].max(initial=0))
        work = 0
        for t in range(horizon):
            alive = live & (lengths[rows] > t)
            if not ops.array_equal(alive, live):  # a row just finished
                keep = ops.flatnonzero(alive)
                if keep.size == 0:
                    break
                if keep.size == 1 and rows.size >= 2:
                    # BLAS guard: a 1-row working set would hit GEMV
                    # kernels whose bit-patterns differ from GEMM; carry
                    # one finished row as ballast instead.
                    keep = ops.concatenate(
                        [keep, ops.flatnonzero(~alive)[:1]])
                rows = rows[keep]
                live = alive[keep]
                state = program.select_rows(state, keep)
                prev_segments = prev_segments[keep]
                prev_ratios = prev_ratios[keep]
            state, step_logs = program.advance(state, rows, t, prev_segments,
                                               prev_ratios)
            step_segments = self.policy.select(step_logs)
            step_ratios = program.emit(state, step_segments)
            work += rows.size

            out = rows[live]
            log_probs[out, t] = step_logs[live]
            segments[out, t] = step_segments[live]
            ratios[out, t] = step_ratios[live]

            # Autoregressive feedback: observed points are inputs, not
            # predictions — clamp them to their known values.
            observed = batch.observed_flags[rows, t]
            prev_segments = ops.where(observed, batch.tgt_segments[rows, t],
                                      step_segments)
            prev_ratios = ops.where(observed, batch.tgt_ratios[rows, t],
                                    ops.clip(step_ratios, 0.0, 1.0))
        return work


class MuxError(ValueError):
    """A program cannot join the live working set (incompatible mux
    geometry, a different program family, or no admission protocol)."""


@dataclass(frozen=True)
class LiveDecodeResult:
    """One finished admission's re-scattered outputs.

    The live-set sibling of :class:`PackedDecodeResult`; ``work_rows``
    counts only this entry's own live row-steps — BLAS-guard ballast
    rows are **excluded**, so per-request cost accounting (decode
    FLOPs, packing ratios) never double-counts the guard.
    """

    handle: int  # the token admit() returned for this entry
    log_probs: np.ndarray  # (B, T, S), zeros beyond each length
    ratios: np.ndarray  # (B, T), zeros beyond each length
    segments: np.ndarray  # (B, T) int64, zeros beyond each length
    work_rows: int  # live row-steps computed for this entry (no ballast)
    dense_rows: int  # row-steps a padded decode of this entry would compute
    steps: int  # per-entry clock value when the last row retired


class _LiveEntry:
    """One admission's slice of the live working set (per-entry clock)."""

    __slots__ = ("handle", "program", "batch", "rows", "lengths", "t",
                 "state", "prev_segments", "prev_ratios", "log_probs",
                 "ratios", "segments", "work", "dense_rows")

    def __init__(self, handle, program, batch, rows, lengths, state,
                 prev_segments, prev_ratios, log_probs, ratios, segments,
                 dense_rows):
        self.handle = handle
        self.program = program
        self.batch = batch
        self.rows = rows  # original batch-row ids still decoding
        self.lengths = lengths  # aligned with ``rows``
        self.t = 0  # this entry's clock (steps already taken)
        self.state = state
        self.prev_segments = prev_segments
        self.prev_ratios = prev_ratios
        self.log_probs = log_probs
        self.ratios = ratios
        self.segments = segments
        self.work = 0
        self.dense_rows = dense_rows

    def result(self) -> LiveDecodeResult:
        return LiveDecodeResult(
            handle=self.handle, log_probs=self.log_probs, ratios=self.ratios,
            segments=self.segments, work_rows=self.work,
            dense_rows=self.dense_rows, steps=self.t)


class LiveDecodeSet:
    """A packed working set with mid-flight admission (the serving dual
    of per-step row retirement).

    Rows join through :meth:`admit` — at step boundaries only, which is
    the whole determinism story: between two :meth:`step` calls there
    is no kernel in flight, so admission is pure working-set
    bookkeeping (concatenating per-row state and constants), and the
    next batched step computes every row's values exactly as a solo
    decode of that row would (row-local kernels + row-count-stable
    GEMM/:func:`~repro.nn.row_dot` dispatch, see the module
    docstring).  Entries keep **per-entry clocks**: a request admitted
    at global step 40 runs its own steps 0..len-1, sliced from *its
    own* batch's constants, so its padded-width-dependent features are
    exactly its solo features.

    All admitted programs must be mux-compatible (equal ``mux_key()``);
    the first admission into an empty set fixes the key, and draining
    the set resets it.  ``max_batch`` bounds the number of *live* rows;
    the transient BLAS-guard ballast row (carried whenever the live
    total is exactly one) is compute-only and not part of the working
    set: it holds no request, emits nothing, and is excluded from every
    per-entry work counter.
    """

    def __init__(self, policy: EmissionPolicy, max_batch: int | None = None):
        self.policy = policy
        self.max_batch = max_batch
        self._entries: list[_LiveEntry] = []
        self._ready: list[LiveDecodeResult] = []
        self._mux_key = None
        self._next_handle = 0

    # -- introspection --------------------------------------------------
    @property
    def rows(self) -> int:
        """Live rows currently in the working set (ballast excluded)."""
        return sum(e.rows.size for e in self._entries)

    @property
    def free_rows(self) -> int | None:
        """Admission headroom under ``max_batch`` (None = unbounded)."""
        if self.max_batch is None:
            return None
        return max(0, self.max_batch - self.rows)

    @property
    def empty(self) -> bool:
        """True when nothing is decoding and no result is pending."""
        return not self._entries and not self._ready

    @property
    def entries(self) -> int:
        """Number of admissions currently decoding."""
        return len(self._entries)

    # -- admission ------------------------------------------------------
    def admit(self, program, batch, lengths: np.ndarray | None = None,
              rows: np.ndarray | None = None) -> int:
        """Admit ``rows`` of ``program`` (default: all) into the set.

        Returns an opaque handle identifying the admission; the matching
        :class:`LiveDecodeResult` comes out of a later :meth:`step`
        call.  Raises :class:`MuxError` when the program cannot share
        the current working set and ``ValueError`` when the admission
        would exceed ``max_batch``.
        """
        key = getattr(program, "mux_key", None)
        if key is None:
            raise MuxError(
                f"{type(program).__name__} has no mux_key(): it does not "
                f"implement the live-admission program protocol")
        key = program.mux_key()
        if self._entries and key != self._mux_key:
            raise MuxError(
                f"program is not mux-compatible with the live working set "
                f"(admitted {self._mux_key!r}, got {key!r})")
        b, t = program.num_rows, program.num_steps
        if rows is None:
            rows = np.arange(b, dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        if lengths is None:
            lengths = np.full(b, t, dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (b,):
                raise ValueError(
                    f"lengths shape {lengths.shape} does not match {b} rows")
            if lengths.max(initial=0) > t:
                raise ValueError("a length exceeds the program's num_steps")
        if self.max_batch is not None \
                and self.rows + rows.size > self.max_batch:
            raise ValueError(
                f"admitting {rows.size} row(s) would exceed max_batch="
                f"{self.max_batch} (live rows: {self.rows})")
        handle = self._next_handle
        self._next_handle += 1
        dtype = current_execution().compute_dtype
        log_probs = np.zeros((b, t, program.num_classes), dtype=dtype)
        ratios = np.zeros((b, t), dtype=dtype)
        segments = np.zeros((b, t), dtype=np.int64)
        row_lengths = lengths[rows]
        alive = ops.flatnonzero(row_lengths > 0)
        if alive.size == 0:
            # Nothing to decode (all-zero lengths): finish immediately.
            self._ready.append(LiveDecodeResult(
                handle=handle, log_probs=log_probs, ratios=ratios,
                segments=segments, work_rows=0,
                dense_rows=rows.size * t, steps=0))
            return handle
        live_rows = rows[alive]
        entry = _LiveEntry(
            handle=handle, program=program, batch=batch, rows=live_rows,
            lengths=row_lengths[alive],
            state=program.select_rows(program.initial_state(), live_rows),
            prev_segments=batch.tgt_segments[live_rows, 0].copy(),
            prev_ratios=batch.tgt_ratios[live_rows, 0].copy(),
            log_probs=log_probs, ratios=ratios, segments=segments,
            dense_rows=rows.size * t)
        self._entries.append(entry)
        if self._mux_key is None:
            self._mux_key = key
        self.policy.extend(live_rows.size)
        return handle

    # -- stepping -------------------------------------------------------
    def step(self) -> list[LiveDecodeResult]:
        """Advance every live row one step; return finished admissions.

        One batched kernel pass over the concatenated working set (each
        entry's constants gathered at its own clock), then per-entry
        output scatter, feedback, and retirement of rows that reached
        their length.
        """
        results = self._ready
        self._ready = []
        entries = self._entries
        if not entries:
            return results
        template = entries[0].program
        states = [e.state for e in entries]
        constants = [e.program.step_constants(e.rows, e.t) for e in entries]
        prev_seg = [e.prev_segments for e in entries]
        prev_rat = [e.prev_ratios for e in entries]
        total = sum(e.rows.size for e in entries)
        if total == 1:
            # BLAS guard (see the module docstring): duplicate the sole
            # live row as inert trailing ballast so the step runs GEMM
            # kernels; its outputs are discarded below.
            sole = entries[0]
            states.append(sole.state)
            constants.append(sole.program.step_constants(sole.rows, sole.t))
            prev_seg.append(sole.prev_segments)
            prev_rat.append(sole.prev_ratios)
        state = template.join_states(states)
        joined = template.join_constants(constants)
        state, log_probs = template.advance_on(
            state, joined, ops.concatenate(prev_seg),
            ops.concatenate(prev_rat))
        step_segments = self.policy.select(log_probs)
        step_ratios = template.emit(state, step_segments)

        survivors: list[_LiveEntry] = []
        kept_positions: list[np.ndarray] = []
        retired = False
        offset = 0
        for entry in entries:
            n = entry.rows.size
            span = slice(offset, offset + n)
            rows, t = entry.rows, entry.t
            entry.log_probs[rows, t] = log_probs[span]
            entry.segments[rows, t] = step_segments[span]
            entry.ratios[rows, t] = step_ratios[span]
            entry.work += n
            # Autoregressive feedback: observed points are inputs, not
            # predictions — clamp them to their known values.
            observed = entry.batch.observed_flags[rows, t]
            entry.prev_segments = ops.where(
                observed, entry.batch.tgt_segments[rows, t],
                step_segments[span])
            entry.prev_ratios = ops.where(
                observed, entry.batch.tgt_ratios[rows, t],
                ops.clip(step_ratios[span], 0.0, 1.0))
            entry.state = template.select_rows(
                state, np.arange(offset, offset + n, dtype=np.int64))
            entry.t += 1
            keep = entry.lengths > entry.t
            if keep.all():
                kept_positions.append(
                    np.arange(offset, offset + n, dtype=np.int64))
            else:
                retired = True
                kept = ops.flatnonzero(keep)
                kept_positions.append(offset + kept)
                entry.rows = entry.rows[kept]
                entry.lengths = entry.lengths[kept]
                entry.state = template.select_rows(entry.state, kept)
                entry.prev_segments = entry.prev_segments[kept]
                entry.prev_ratios = entry.prev_ratios[kept]
            if entry.rows.size:
                survivors.append(entry)
            else:
                results.append(entry.result())
            offset += n
        self._entries = survivors
        if retired:
            self.policy.compact(ops.concatenate(kept_positions))
        if not survivors:
            self._mux_key = None  # drained: the next admit re-keys the set
        return results
