"""Array backend: the single dispatch seam for kernel math.

Every nn kernel module (tensor/functional/recurrent/attention/layers/
loss/optim/flatten/init), the serving engine and decode programs, and
the constraint-mask kernels route their array math through the
module-level :data:`ops` table here instead of calling ``np.*``
directly (``tools/check_backend.py`` lints the seam).  Array
*construction* (``np.empty`` / ``np.asarray`` / dtype constants) and
ndarray *methods* (``x.sum(...)``, ``x @ w``, fancy indexing) stay as
they are — the seam covers the free-function call sites where an
alternative array engine could plug in.

Two layers:

**The ops table.**  :data:`ops` binds every name in :data:`OP_NAMES`
to its NumPy function *directly* (``ops.exp is np.exp``), so dispatch
through the seam costs one attribute load — the same cost as
``np.exp`` — and is bitwise-identical to calling NumPy.  The table is
fixed: backends differ only in their hot kernels.

**The hot-kernel registry.**  Multi-step kernels (the fused RNN/GRU/
LSTM scans, the dense/masked/CSR-sparse log-softmax cores, the packed
decode step) dispatch through :func:`call_kernel(name, reference, ...)
<call_kernel>`, which looks up the backend named by the ``backend``
field of the current :class:`~repro.nn.execution.ExecutionConfig`.
That backend may register an accelerated implementation under
``name``; when none is registered — or a registered one raises — the
call falls back to ``reference`` (a raising kernel is disabled for the
rest of the process, so a broken accelerated path degrades to
reference behaviour instead of failing the run).  Shipped backends:

* ``reference`` — empty registry; every kernel runs its reference code.
* ``workspace`` — pure-NumPy variants that preallocate and reuse
  ``out=`` scratch buffers across steps (see :class:`Workspace`) and
  precompute per-working-set decode plans.  Same operations in the same
  order writing into pooled buffers, so outputs stay **bitwise
  identical** to the reference backend (the tier-1 suite runs fully
  under ``REPRO_BACKEND=workspace`` in CI).

Select a backend per block with ``nn.execution(backend="workspace")``
(or process-wide with ``REPRO_BACKEND``, read by
:mod:`repro.nn.execution`); like every execution field the choice is
scoped to the calling thread or task.
"""

from __future__ import annotations

import threading
import types

import numpy as np

from .execution import _CURRENT

__all__ = [
    "ArrayBackend", "Workspace", "ops", "workspace",
    "available_backends", "check_backend",
    "register_backend", "register_kernel", "call_kernel",
    "OP_NAMES",
]

#: The array operations the substrate actually uses (RNG-free: random
#: draws stay on ``np.random.Generator`` streams so every backend sees
#: identical data).
OP_NAMES = (
    # matmul / contractions
    "matmul", "dot",
    # elementwise
    "exp", "log", "tanh", "sqrt", "sign", "negative", "reciprocal",
    "add", "subtract", "multiply", "divide",
    "maximum", "minimum", "clip", "where", "floor_divide",
    # reductions / scans
    "cumsum", "diff", "add_reduceat", "maximum_reduceat",
    # index / search / sort
    "argmax", "argsort", "searchsorted", "flatnonzero", "unique",
    "repeat", "add_at", "array_equal",
    # data movement / shape
    "concatenate", "stack", "expand_dims", "swapaxes", "broadcast_to",
    # linear algebra / structured
    "diag", "qr",
)

_UFUNC_METHODS = {
    "add_at": np.add.at,
    "add_reduceat": np.add.reduceat,
    "maximum_reduceat": np.maximum.reduceat,
    "qr": np.linalg.qr,
}

#: The op table: NumPy bindings for every name in :data:`OP_NAMES`.
ops = types.SimpleNamespace(**{
    name: _UFUNC_METHODS.get(name) or getattr(np, name) for name in OP_NAMES})


class ArrayBackend:
    """One array engine: a hot-kernel registry.

    ``kernels`` maps hot-kernel names to accelerated implementations
    (filled by :func:`register_kernel`; see :func:`call_kernel`).
    ``failed_kernels`` collects kernels disabled after raising — per
    backend, per process.
    """

    __slots__ = ("name", "kernels", "failed_kernels")

    def __init__(self, name: str):
        self.name = name
        self.kernels: dict = {}
        self.failed_kernels: set[str] = set()


class Workspace(threading.local):
    """Per-thread pool of reusable scratch buffers for ``out=`` kernels.

    ``take(shape, dtype, tag)`` hands out one buffer per distinct key,
    creating it on first use.  Contract: a kernel may only write pooled
    buffers it will not let escape — not node data, not closure-captured
    saved activations, nothing a caller retains past the call.  Distinct
    simultaneous buffers inside one kernel need distinct ``tag`` values;
    buffers whose lifetimes never overlap may share a key.  Each thread
    sees its own buffers, so a serving worker and a training thread
    never write the same scratch.  The pool is bounded: it clears
    wholesale past ``capacity`` distinct keys (cheap, and shapes are
    few on real workloads).
    """

    def __init__(self, capacity: int = 256):
        self._buffers: dict = {}
        self.capacity = capacity

    def take(self, shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
        key = (shape, np.dtype(dtype).char, tag)
        buf = self._buffers.get(key)
        if buf is None:
            if len(self._buffers) >= self.capacity:
                self._buffers.clear()
            buf = np.empty(shape, dtype)
            self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        self._buffers.clear()


#: The scratch pool workspace-backend kernels draw from (one per thread).
workspace = Workspace()

_BACKENDS: dict[str, ArrayBackend] = {}


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Add ``backend`` to the registry (name collisions replace)."""
    _BACKENDS[backend.name] = backend
    return backend


register_backend(ArrayBackend("reference"))
register_backend(ArrayBackend("workspace"))


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def check_backend(name: str) -> str:
    """``name`` if it is a registered backend, else ``ValueError``."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; "
                         f"available: {', '.join(available_backends())}")
    return name


def register_kernel(backend_name: str, kernel_name: str, fn) -> None:
    """Register ``fn`` as backend ``backend_name``'s ``kernel_name``.

    Kernel modules call this at import time for the built-in backends;
    custom backends may register at any point.  Raises ``ValueError``
    for an unregistered backend name.
    """
    _BACKENDS[check_backend(backend_name)].kernels[kernel_name] = fn


def call_kernel(name: str, reference, *args):
    """Dispatch hot kernel ``name`` through the current backend.

    Runs the backend's registered implementation when one exists and
    has not previously raised; otherwise runs ``reference``.  An
    implementation that raises is disabled for the rest of the process
    (per backend) and the call transparently re-runs the reference —
    the fallback contract that keeps accelerated backends safe to
    enable by default.
    """
    backend = _BACKENDS[_CURRENT.get().backend]
    impl = backend.kernels.get(name)
    if impl is None or name in backend.failed_kernels:
        return reference(*args)
    try:
        return impl(*args)
    except Exception:
        backend.failed_kernels.add(name)
        return reference(*args)


# A mistyped REPRO_BACKEND fails at import, not at the first kernel call.
check_backend(_CURRENT.get().backend)
