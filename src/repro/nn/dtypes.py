"""Compute precision: the ``compute_dtype`` field of the execution config.

The compute dtype (``float64`` by default, or ``float32``) is the dtype
of everything the hot loops touch: :class:`~repro.nn.tensor.Tensor`
data (parameters, activations, gradients), the fused RNN/GRU/LSTM scan
buffers, constraint-mask arrays, and the packed decode engine's state.
Select it per block with :func:`repro.nn.execution`::

    with nn.execution(compute_dtype="float32"):
        model = build_model()
        trainer.train_epoch(dataset)

``float32`` halves the memory traffic of every kernel the perf work
made compute-bound.  Numerically sensitive *accumulations* stay
float64 regardless — the log-softmax normalisers (dense, masked, and
CSR-sparse), loss reductions (:meth:`Tensor.sum` accumulates in
float64), and the bias-gradient reductions of the fused BPTT scans —
so float32 runs round once per reduction instead of drifting term by
term.  Optimisers are mixed-precision by contract: moments and the
flat update arithmetic are always float64 ("master" precision), and
the update is cast to the compute dtype only when scattered back into
the parameters (see :mod:`repro.nn.optim`).

Federated wire payloads do not follow the compute dtype: flat
parameter vectors (:meth:`~repro.nn.flatten.FlatParameterSpace.get_flat`,
:meth:`~repro.nn.flatten.FlatLayout.flatten_state`) default to float64,
server-side aggregation runs in float64, and the ``float32`` exchange
codec (:mod:`repro.federated.communication`) is how a run ships
reduced-precision payloads.

With ``float64`` every code path is the reference substrate.  Build
models under the dtype they will run at: parameters adopt the dtype in
force at construction time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["COMPUTE_DTYPES", "resolve_compute_dtype"]

#: The supported compute dtypes.  Everything else would silently corrupt
#: integer state or lose more precision than the tolerance audit (or
#: federated averaging) can absorb.
COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_compute_dtype(dtype) -> np.dtype:
    """``dtype`` as a :class:`numpy.dtype`; ``ValueError`` unless it is
    one of :data:`COMPUTE_DTYPES`."""
    resolved = np.dtype(dtype)
    if resolved not in COMPUTE_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of "
            f"{tuple(d.name for d in COMPUTE_DTYPES)}"
        )
    return resolved
