"""One scoped execution context for every kernel-selection switch.

Everything that changes *how* the substrate computes — but never *what*
a model is — lives in one frozen :class:`ExecutionConfig`:

``grad``
    Whether operations record on the autograd tape
    (:func:`repro.nn.no_grad` sets it to False).
``fused_kernels``
    Whole-sequence RNN/GRU/LSTM scans with hand-written BPTT and the
    batched teacher-forced ST-operator decode (default).  Off selects
    the original per-step tape path, kept as a reference
    implementation.
``sparse_masks``
    :meth:`repro.core.mask.ConstraintMaskBuilder.build_for` hands models
    a CSR :class:`~repro.core.mask.SparseConstraintMask` and
    :func:`repro.nn.functional.masked_log_softmax` works over each
    row's active segments only (default).  Off forces the dense
    ``(B, T, S)`` reference mask.
``packed_decode``
    Serving call sites (:mod:`repro.serving`) run autoregressive
    inference through the length-compacted
    :class:`~repro.serving.DecodeSession` engine (default).  Off forces
    the padded full-length decode.
``compute_dtype``
    ``float64`` (default) or ``float32``: the dtype of tensors, kernel
    buffers, masks and decode state (see :mod:`repro.nn.dtypes`).
``backend``
    The array backend whose registered hot kernels
    :func:`repro.nn.backend.call_kernel` runs (``reference`` or
    ``workspace``; see :mod:`repro.nn.backend`).

Scoping
-------
The active config sits in one :class:`contextvars.ContextVar`, so it
is scoped per thread and per asyncio task::

    with nn.execution(compute_dtype="float32", fused_kernels=False):
        output = model(batch, log_mask)
    config = nn.current_execution()   # the frozen config now in force

A block changes the config for the code it runs and nothing else: a
:class:`~repro.serving.DecodeService` worker decoding under ``float32``
cannot switch a training thread beside it, and a ``no_grad`` block in
one thread leaves the tape of every other thread recording.  New
threads start from the process default, which is the dataclass default
with ``REPRO_COMPUTE_DTYPE`` and ``REPRO_BACKEND`` applied (read once,
here).  Work that crosses a thread or process boundary carries the
config explicitly: federated tasks ship it on
:attr:`repro.federated.runner.RoundTask.execution`, and serving
requests capture the submitter's config at ``submit`` time.

Equivalence contract
--------------------
Every (fused, sparse, packed) combination computes the same function:

* fused vs per-step kernels match outputs and gradients to atol 1e-10
  (``tests/nn/test_fused_recurrent.py``, ``tests/core/test_fused_decode.py``);
* sparse vs dense masked log-softmax matches to ~1e-9 relative — the
  sparse normaliser drops the sub-``exp(floor)`` (≈1e-13) contribution
  of out-of-radius segments, everything else is identical
  (``tests/core/test_sparse_mask.py``); argmax segment predictions are
  bit-identical between the two;
* packed decode matches the padded full-length engine decode
  bit-for-bit on every valid (non-padding) timestep for any working
  set of two or more rows; one-row working sets hit different BLAS
  kernels, where values agree to 1e-10 and argmax matches everywhere
  the decision margin exceeds ~1e-9
  (``tests/serving/test_decode_session.py``);
* the ``workspace`` backend is bitwise identical to ``reference``.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os

import numpy as np

from .dtypes import resolve_compute_dtype

__all__ = ["ExecutionConfig", "execution", "current_execution"]


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """The switches one block of work runs under (see the module doc).

    Frozen and hashable: equal configs are interchangeable, which is how
    the serving scheduler decides which requests may share a working
    set.  ``compute_dtype`` is normalised to a :class:`numpy.dtype`.
    """

    grad: bool = True
    fused_kernels: bool = True
    sparse_masks: bool = True
    packed_decode: bool = True
    compute_dtype: np.dtype = np.dtype(np.float64)
    backend: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "compute_dtype",
                           resolve_compute_dtype(self.compute_dtype))


_CURRENT: contextvars.ContextVar[ExecutionConfig] = contextvars.ContextVar(
    "repro_execution",
    default=ExecutionConfig(
        compute_dtype=os.environ.get("REPRO_COMPUTE_DTYPE") or "float64",
        backend=os.environ.get("REPRO_BACKEND") or "reference",
    ),
)


def current_execution() -> ExecutionConfig:
    """The config in force for the calling thread or task."""
    return _CURRENT.get()


@contextlib.contextmanager
def execution(config: ExecutionConfig | None = None, /, **changes):
    """Run a block under ``config`` (default: the current one) with the
    keyword ``changes`` applied; yields the config in force.

    The previous config comes back on exit, in this thread or task
    only.  Raises ``ValueError`` for an unknown dtype or backend name.
    """
    previous = _CURRENT.get()
    target = previous if config is None else config
    if changes:
        target = dataclasses.replace(target, **changes)
    if target.backend != previous.backend:
        from .backend import check_backend

        check_backend(target.backend)
    token = _CURRENT.set(target)
    try:
        yield target
    finally:
        _CURRENT.reset(token)
