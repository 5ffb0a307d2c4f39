"""``repro.nn`` - a NumPy autograd + neural network substrate.

This package replaces PyTorch for this reproduction: a tape-based
autodiff :class:`~repro.nn.tensor.Tensor`, module/parameter containers
with federated-friendly ``state_dict`` support, feed-forward and
recurrent layers, attention (for the baselines), losses, and optimisers.

Performance notes
-----------------
The hot paths are *fused*: recurrent layers run the whole ``(B, T)``
scan forward in NumPy and register a single tape node with a
hand-written BPTT backward (:mod:`repro.nn.recurrent`), dense layers use
a fused ``addmm`` node, and the optimisers operate on one contiguous
flat parameter vector (:mod:`repro.nn.flatten`) so an Adam step is a
handful of vectorized ops rather than a per-tensor Python loop.  The
original per-step tape path is retained behind
``execution(fused_kernels=False)`` purely as a reference for
equivalence tests; both paths produce matching outputs and gradients
(verified to atol 1e-10 and by finite differences).

Every execution switch — the grad tape, fused kernels, sparse masks,
packed decode, compute dtype and array backend — is one field of the
frozen :class:`ExecutionConfig` in force for the calling thread or
task: :func:`execution` scopes a change to a block and
:func:`current_execution` reads it (:mod:`repro.nn.execution`).  All
kernel array math dispatches through the backend seam
(:mod:`repro.nn.backend`), whose ``reference`` (default) and
``workspace`` (buffer-reusing, bitwise identical) backends the config's
``backend`` field selects.
"""

from .attention import AdditiveAttention, SelfAttention, scaled_dot_product_attention
from .backend import (
    ArrayBackend,
    available_backends,
    call_kernel,
    register_backend,
    register_kernel,
)
from .execution import ExecutionConfig, current_execution, execution
from .flatten import FlatLayout, FlatParameterSpace
from .flops import (
    CostReport,
    count_parameters,
    estimate_decode_flops,
    estimate_decode_step_flops,
    estimate_flops,
    st_operator_complexity,
)
from .functional import (
    addmm,
    concat,
    dropout,
    embedding_lookup,
    gather_rows,
    row_dot,
    log_softmax,
    masked_log_softmax,
    pad_sequences,
    softmax,
    sparse_masked_log_probs,
    stack,
    where_mask,
)
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear, ReLU, Sigmoid, Tanh
from .loss import cross_entropy, distillation_loss, l1_loss, mse_loss, nll_from_log_probs
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .recurrent import (
    GRU,
    LSTM,
    GRUCell,
    LSTMCell,
    RNN,
    RNNCell,
    fused_gru_scan,
    fused_lstm_scan,
    fused_rnn_scan,
)
from .serialization import load_state_dict, save_state_dict, state_dict_num_bytes
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad, ones, randn, zeros

__all__ = [
    # tensor
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled", "zeros", "ones", "randn",
    # functional
    "addmm", "concat", "stack", "softmax", "log_softmax", "masked_log_softmax",
    "sparse_masked_log_probs",
    "row_dot", "gather_rows", "embedding_lookup", "dropout", "where_mask", "pad_sequences",
    # module system
    "Module", "ModuleList", "Parameter", "Sequential",
    # layers
    "Linear", "Embedding", "Dropout", "ReLU", "Tanh", "Sigmoid", "LayerNorm", "MLP",
    # recurrent
    "RNN", "RNNCell", "GRU", "GRUCell", "LSTM", "LSTMCell",
    "fused_rnn_scan", "fused_gru_scan", "fused_lstm_scan",
    # execution context (see repro.nn.execution)
    "ExecutionConfig", "execution", "current_execution",
    # array backend seam (see repro.nn.backend)
    "ArrayBackend", "available_backends",
    "register_backend", "register_kernel", "call_kernel",
    # attention
    "AdditiveAttention", "SelfAttention", "scaled_dot_product_attention",
    # losses
    "cross_entropy", "nll_from_log_probs", "mse_loss", "l1_loss", "distillation_loss",
    # optim
    "Optimizer", "SGD", "Adam", "clip_grad_norm",
    # flat parameters
    "FlatLayout", "FlatParameterSpace",
    # costs
    "CostReport", "count_parameters", "estimate_flops",
    "estimate_decode_flops", "estimate_decode_step_flops",
    "st_operator_complexity",
    # serialization
    "save_state_dict", "load_state_dict", "state_dict_num_bytes",
]
