"""Tests for the one-call evaluation and efficiency profiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import LTEModel
from repro.core.training import LocalTrainer, TrainingConfig
from repro.metrics import evaluate_model, measure_epoch_seconds, profile_model


class TestEvaluateModel:
    def test_metric_row_fields(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        row = evaluate_model(model, tiny_mask, tiny_dataset)
        d = row.as_dict()
        assert set(d) == {"recall", "precision", "mae", "rmse", "accuracy"}
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.precision <= 1.0
        assert row.mae >= 0.0
        assert row.rmse >= row.mae - 1e-12

    def test_str_format(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        text = str(evaluate_model(model, tiny_mask, tiny_dataset))
        assert "recall=" in text and "rmse=" in text

    def test_empty_dataset_raises(self, tiny_config, tiny_dataset, tiny_mask):
        from repro.data import TrajectoryDataset
        model = LTEModel(tiny_config, np.random.default_rng(0))
        empty = TrajectoryDataset([], tiny_dataset.grid, tiny_dataset.network, 0.25)
        with pytest.raises(ValueError):
            evaluate_model(model, tiny_mask, empty)

    def test_model_left_in_train_mode(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        evaluate_model(model, tiny_mask, tiny_dataset)
        assert model.training


class TestProfiling:
    def test_epoch_seconds_positive(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        trainer = LocalTrainer(model, tiny_mask,
                               TrainingConfig(epochs=1, batch_size=8, lr=1e-3),
                               np.random.default_rng(0))
        seconds = measure_epoch_seconds(trainer, tiny_dataset, repeats=1)
        assert seconds > 0.0

    def test_profile_report(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        trainer = LocalTrainer(model, tiny_mask,
                               TrainingConfig(epochs=1, batch_size=8, lr=1e-3),
                               np.random.default_rng(0))
        report = profile_model("LightTR", model, trainer, tiny_dataset, seq_len=17)
        assert report.parameters == model.num_parameters()
        assert report.flops > 0
        # Parameters live at the compute dtype, so the payload scales
        # with its itemsize (8 at float64, 4 at float32).
        itemsize = nn.current_execution().compute_dtype.itemsize
        assert report.payload_bytes == model.num_parameters() * itemsize
        assert "LightTR" in str(report)

    def test_invalid_repeats(self, tiny_config, tiny_dataset, tiny_mask):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        trainer = LocalTrainer(model, tiny_mask, TrainingConfig(),
                               np.random.default_rng(0))
        with pytest.raises(ValueError):
            measure_epoch_seconds(trainer, tiny_dataset, repeats=0)
