"""FC+FL baseline: stacked fully-connected layers (paper Section V-A3).

The weakest baseline: the observed trajectory is mean-pooled through an
embedding + MLP (no recurrence at all), and each missing point is
predicted independently from the pooled context and per-step features.
The paper finds it far behind every RNN-based method because it cannot
model temporal dependencies - reproducing that gap validates the whole
pipeline.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.base import ModelOutput, RecoveryModel, RecoveryModelConfig
from ..data.dataset import Batch

__all__ = ["FCRecoveryModel"]


class FCRecoveryModel(RecoveryModel):
    """Stacked-FC recovery model (no temporal modelling)."""

    def __init__(self, config: RecoveryModelConfig, rng: np.random.Generator,
                 num_layers: int = 3):
        super().__init__(config)
        if num_layers < 1:
            raise ValueError("need at least one FC layer")
        self.cell_embedding = nn.Embedding(config.num_cells, config.cell_emb_dim, rng)
        self.cell_embedding.decode_side = False  # encoder-side (flops walk)
        h = config.hidden_size
        dims = [config.cell_emb_dim + 2] + [h] * num_layers
        self.pool_mlp = nn.MLP(dims, rng, activate_last=True)
        self.pool_mlp.decode_side = False  # pooled once per sequence
        # Per-step head: pooled context + [step_frac, guide_x, guide_y].
        self.step_mlp = nn.MLP([h + 3, h, h], rng, activate_last=True)
        self.seg_head = nn.Linear(h, config.num_segments, rng, bias=False)
        self.ratio_head = nn.Linear(h, 1, rng)

    def forward(self, batch: Batch, log_mask: np.ndarray,
                teacher_forcing: bool = True) -> ModelOutput:
        """Predict every step independently from pooled context."""
        self._validate_mask(log_mask, batch, self.config.num_segments)
        b, t = batch.tgt_segments.shape

        emb = self.cell_embedding(batch.obs_cells)  # (B, To, E)
        x = nn.concat([emb, nn.Tensor(batch.obs_feats)], axis=-1)
        feats = self.pool_mlp(x)  # (B, To, H)
        # Masked mean pool over observed points.
        weights = batch.obs_mask.astype(nn.current_execution().compute_dtype)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        pooled = (feats * nn.Tensor(weights[:, :, None])).sum(axis=1) * nn.Tensor(1.0 / denom)

        # FC consumes only the [fraction, guide] columns of the shared
        # step extras (no observed flag, no autoregression) — slice the
        # dtype-routed build instead of re-deriving float64 columns.
        extras_all = self._step_extras(batch)[:, :, :3]
        step_logs, step_ratios, step_segments = [], [], []
        for step in range(t):
            z = self.step_mlp(nn.concat([pooled, nn.Tensor(extras_all[:, step])],
                                        axis=-1))
            logits = self.seg_head(z) + nn.Tensor(log_mask[:, step, :])
            log_probs = nn.log_softmax(logits, axis=-1)
            ratios = self.ratio_head(z).relu().reshape(-1)
            step_logs.append(log_probs)
            step_ratios.append(ratios)
            step_segments.append(np.argmax(log_probs.data, axis=-1).astype(np.int64))

        return ModelOutput(
            log_probs=nn.stack(step_logs, axis=1),
            ratios=nn.stack(step_ratios, axis=1),
            segments=np.stack(step_segments, axis=1),
        )
