"""The pluggable array-backend seam: selection API, hot-kernel registry
fallback, reference-vs-workspace bitwise equivalence, cache keying, and
federated shipping.

The workspace backend's contract is the strong one: it re-runs the same
operations in the same order writing into pooled scratch, so **every**
output — forward activations, gradients, decode log-probs, whole
federated round histories — must be bit-identical to the reference
backend, across fused on/off, sparse/dense masks, packed/padded decode,
and both compute dtypes.  (The tier-1 suite additionally re-runs end to
end under ``REPRO_BACKEND=workspace`` in CI.)  Backends without a
registered kernel fall back to reference per the
:func:`repro.nn.call_kernel` contract exercised below.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro import nn
from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.core.training import LocalTrainer, model_segment_accuracy
from repro.federated import FederatedConfig, FederatedTrainer, build_federation
from repro.nn import backend as backend_mod
from repro.serving import decode_model

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="no fork start method on this platform",
)


# ----------------------------------------------------------------------
# selection API
# ----------------------------------------------------------------------
class TestBackendConfig:
    def test_reference_is_the_default(self):
        # The suite may run under REPRO_BACKEND forcing, so assert the
        # dataclass default rather than the process default.
        assert nn.ExecutionConfig().backend == "reference"

    def test_execution_scopes_and_restores(self):
        before = nn.current_execution().backend
        with nn.execution(backend="workspace") as config:
            assert config.backend == "workspace"
            assert nn.current_execution().backend == "workspace"
        assert nn.current_execution().backend == before

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with nn.execution(backend="cuda"):
                pass

    def test_builtin_backends_are_registered(self):
        names = nn.available_backends()
        assert "reference" in names
        assert "workspace" in names

    def test_reference_ops_bind_numpy_directly(self):
        """Dispatch overhead by construction: the ops attributes *are*
        the NumPy functions."""
        assert backend_mod.ops.exp is np.exp
        assert backend_mod.ops.matmul is np.matmul
        # np.add.at is a fresh bound-method object per access, so
        # compare the underlying ufunc instead of identity.
        assert backend_mod.ops.add_at.__self__ is np.add

    def test_workspace_pool_is_per_thread(self):
        """A serving worker and a training thread must never share
        scratch buffers."""
        import threading

        mine = backend_mod.workspace.take((3,), np.float64, "t")
        theirs = []
        thread = threading.Thread(target=lambda: theirs.append(
            backend_mod.workspace.take((3,), np.float64, "t")))
        thread.start()
        thread.join()
        assert theirs[0] is not mine
        assert backend_mod.workspace.take((3,), np.float64, "t") is mine


# ----------------------------------------------------------------------
# hot-kernel registry + fallback contract
# ----------------------------------------------------------------------
class TestKernelRegistry:
    def test_missing_kernel_runs_reference(self):
        nn.register_backend(nn.ArrayBackend("t-empty"))
        calls = []

        def reference(a, b):
            calls.append("ref")
            return a + b

        with nn.execution(backend="t-empty"):
            assert nn.call_kernel("nope", reference, 1, 2) == 3
        assert calls == ["ref"]

    def test_registered_kernel_is_used(self):
        nn.register_backend(nn.ArrayBackend("t-impl"))
        nn.register_kernel("t-impl", "double", lambda x: x * 2)
        with nn.execution(backend="t-impl"):
            assert nn.call_kernel("double", lambda x: -x, 21) == 42
        with nn.execution(backend="reference"):
            assert nn.call_kernel("double", lambda x: -x, 21) == -21

    def test_raising_kernel_falls_back_and_is_disabled(self):
        nn.register_backend(nn.ArrayBackend("t-boom"))
        raises = []

        def broken(x):
            raises.append("boom")
            raise RuntimeError("kernel exploded")

        nn.register_kernel("t-boom", "k", broken)
        with nn.execution(backend="t-boom"):
            assert nn.call_kernel("k", lambda x: x + 1, 1) == 2
            # Disabled after the first raise: the broken impl never
            # runs again in this process.
            assert nn.call_kernel("k", lambda x: x + 1, 5) == 6
        assert raises == ["boom"]

    def test_register_kernel_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            nn.register_kernel("no-such-backend", "k", lambda: None)

    def test_workspace_registers_the_hot_kernels(self):
        kernels = backend_mod._BACKENDS["workspace"].kernels
        for name in ("rnn_scan_forward", "rnn_scan_backward",
                     "gru_scan_forward", "gru_scan_backward",
                     "sparse_mask_step", "st_decode_step"):
            assert name in kernels, name

    def test_lstm_scan_falls_back_to_reference_on_workspace(self):
        """No workspace LSTM kernels are registered — the seam's
        fallback covers them, and outputs stay bitwise identical."""
        kernels = backend_mod._BACKENDS["workspace"].kernels
        assert "lstm_scan_forward" not in kernels
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 4))
        results = []
        for name in ("reference", "workspace"):
            with nn.execution(backend=name):
                lstm = nn.LSTM(4, 8, np.random.default_rng(2))
                outputs, _last = lstm(nn.Tensor(x, requires_grad=True))
                outputs.sum().backward()
                results.append((outputs.data.copy(),
                                lstm.cell.w_i.grad.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])


# ----------------------------------------------------------------------
# reference vs workspace: bitwise equivalence
# ----------------------------------------------------------------------
def _forward_backward(backend, tiny_config, tiny_dataset, tiny_world,
                      fused=True, sparse=True):
    with nn.execution(backend=backend, fused_kernels=fused,
                      sparse_masks=sparse):
        model = LTEModel(tiny_config, np.random.default_rng(0))
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        log_mask = builder.build_for(batch, model)
        output = model(batch, log_mask, teacher_forcing=True)
        loss, _ = model.loss(output, batch)
        loss.backward()
        grads = {name: p.grad.copy()
                 for name, p in model.named_parameters()}
        return output, loss.item(), grads


class TestReferenceVsWorkspaceBitwise:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_forward_loss_and_gradients(self, tiny_config, tiny_dataset,
                                        tiny_world, fused, sparse):
        out_ref, loss_ref, grads_ref = _forward_backward(
            "reference", tiny_config, tiny_dataset, tiny_world, fused, sparse)
        out_ws, loss_ws, grads_ws = _forward_backward(
            "workspace", tiny_config, tiny_dataset, tiny_world, fused, sparse)
        np.testing.assert_array_equal(out_ws.log_probs.data,
                                      out_ref.log_probs.data)
        np.testing.assert_array_equal(out_ws.segments, out_ref.segments)
        assert loss_ws == loss_ref
        for name, g_ref in grads_ref.items():
            np.testing.assert_array_equal(grads_ws[name], g_ref, err_msg=name)

    @pytest.mark.parametrize("packed", [True, False])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_decode(self, tiny_config, tiny_dataset, tiny_world, packed,
                    sparse):
        results = []
        for backend in ("reference", "workspace"):
            with nn.execution(backend=backend, packed_decode=packed,
                              sparse_masks=sparse):
                model = LTEModel(tiny_config, np.random.default_rng(11))
                model.eval()
                builder = ConstraintMaskBuilder(tiny_world.network,
                                                radius=400.0)
                batch = tiny_dataset.full_batch()
                log_mask = builder.build_for(batch, model)
                with nn.no_grad():
                    result = decode_model(model, batch, log_mask)
                results.append(result)
        ref, ws = results
        np.testing.assert_array_equal(ws.segments, ref.segments)
        np.testing.assert_array_equal(ws.log_probs.data, ref.log_probs.data)
        np.testing.assert_array_equal(ws.ratios.data, ref.ratios.data)

    def test_one_epoch_bitwise(self, tiny_config, tiny_dataset, tiny_world):
        results = {}
        for backend in ("reference", "workspace"):
            with nn.execution(backend=backend):
                model = LTEModel(tiny_config, np.random.default_rng(3))
                builder = ConstraintMaskBuilder(tiny_world.network,
                                                radius=400.0)
                trainer = LocalTrainer(model, builder,
                                       TrainingConfig(batch_size=8, lr=1e-3),
                                       np.random.default_rng(4))
                loss = trainer.train_epoch(tiny_dataset)
                acc = model_segment_accuracy(model, builder, tiny_dataset)
                flat = np.concatenate([p.data.ravel() for p in
                                       model.parameters()])
                results[backend] = (loss, acc, flat)
        assert results["workspace"][0] == results["reference"][0]
        assert results["workspace"][1] == results["reference"][1]
        np.testing.assert_array_equal(results["workspace"][2],
                                      results["reference"][2])

    def test_float32_epoch_and_decode_bitwise(self, tiny_config, tiny_dataset,
                                              tiny_world):
        """The workspace contract is dtype-independent: at float32 the
        same (float32) ops run into pooled buffers, so results match the
        float32 reference bit for bit."""
        results = {}
        for backend in ("reference", "workspace"):
            with nn.execution(compute_dtype="float32", backend=backend):
                model = LTEModel(tiny_config, np.random.default_rng(3))
                builder = ConstraintMaskBuilder(tiny_world.network,
                                                radius=400.0)
                trainer = LocalTrainer(model, builder,
                                       TrainingConfig(batch_size=8, lr=1e-3),
                                       np.random.default_rng(4))
                loss = trainer.train_epoch(tiny_dataset)
                model.eval()
                batch = tiny_dataset.full_batch()
                log_mask = builder.build_for(batch, model)
                with nn.no_grad():
                    decoded = decode_model(model, batch, log_mask)
                results[backend] = (loss, decoded.segments,
                                    decoded.log_probs.data)
        assert results["workspace"][0] == results["reference"][0]
        np.testing.assert_array_equal(results["workspace"][1],
                                      results["reference"][1])
        np.testing.assert_array_equal(results["workspace"][2],
                                      results["reference"][2])


# ----------------------------------------------------------------------
# backend switches invalidate lazily-built caches
# ----------------------------------------------------------------------
class TestBackendCacheKeying:
    def test_collation_cache_is_backend_keyed(self, tiny_dataset):
        with nn.execution(backend="reference"):
            b_ref = tiny_dataset.full_batch()
        with nn.execution(backend="workspace"):
            b_ws = tiny_dataset.full_batch()
        assert b_ref is not b_ws  # distinct cache entries per backend
        np.testing.assert_array_equal(b_ref.tgt_segments, b_ws.tgt_segments)
        with nn.execution(backend="reference"):
            assert tiny_dataset.full_batch() is b_ref  # still cached

    def test_sparse_value_mirror_rebuilds_on_backend_switch(self, tiny_world,
                                                            tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        with nn.execution(compute_dtype="float32"):
            with nn.execution(backend="reference"):
                builder.build_sparse(batch)
                mirror_ref = builder._sp_values_cast
            with nn.execution(backend="workspace"):
                sparse_ws = builder.build_sparse(batch)
                mirror_ws = builder._sp_values_cast
        assert mirror_ref is not None
        assert mirror_ws is not mirror_ref  # re-materialised per backend
        np.testing.assert_array_equal(mirror_ws, mirror_ref)
        assert sparse_ws.log_values.dtype == np.float32

    def test_dense_row_matrix_rebuilds_on_backend_switch(self, tiny_world,
                                                         tiny_dataset):
        builder = ConstraintMaskBuilder(tiny_world.network, radius=400.0)
        batch = tiny_dataset.full_batch()
        with nn.execution(backend="reference"):
            dense_ref = builder.build(batch)
            matrix_ref = builder._row_matrix
        with nn.execution(backend="workspace"):
            dense_ws = builder.build(batch)
            matrix_ws = builder._row_matrix
        assert matrix_ws is not matrix_ref
        np.testing.assert_array_equal(dense_ws, dense_ref)

    def test_step_plan_matches_reference_step(self):
        from repro.core import mask as mask_mod

        indptr = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        sm = mask_mod.SparseConstraintMask(
            (2, 2, 5), indptr, np.arange(4, dtype=np.int64),
            np.linspace(-1.0, -0.1, 4))
        rows = np.arange(2, dtype=np.int64)
        key = (id(sm), rows.tobytes())
        with nn.execution(backend="reference"):
            expected = [sm.step(t, rows).to_dense() for t in (0, 1)]
        with nn.execution(backend="workspace"):
            for t in (0, 1):
                stepped = mask_mod._mask_step_planned(sm, t, rows)
                assert key in mask_mod._STEP_PLANS
                np.testing.assert_array_equal(stepped.to_dense(), expected[t])


# ----------------------------------------------------------------------
# federated shipping: RoundTask carries the backend
# ----------------------------------------------------------------------
class TestFederatedBackendShipping:
    def test_round_task_ships_backend(self):
        from repro.federated.runner import RoundTask

        default = RoundTask.__dataclass_fields__["execution"].default
        assert default == nn.ExecutionConfig()
        assert default.backend == "reference"

    def _run(self, tiny_world, tiny_config, workers):
        clients, global_test = build_federation(tiny_world, num_clients=3,
                                                keep_ratio=0.25)
        config = FederatedConfig(
            rounds=2, client_fraction=1.0, local_epochs=1,
            training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
            use_meta=False, workers=workers,
        )
        trainer = FederatedTrainer(
            lambda: LTEModel(tiny_config, np.random.default_rng(33)),
            clients, ConstraintMaskBuilder(tiny_world.network, radius=400.0),
            config, global_test, seed=0,
        )
        result = trainer.run()
        return result.history, np.asarray(trainer.server.global_flat(),
                                          dtype=np.float64)

    @needs_fork
    def test_workspace_serial_and_parallel_bit_identical(self, tiny_world,
                                                         tiny_config):
        """Workers run under the shipped backend, so a parallel run
        under the workspace backend reproduces the serial run exactly —
        which, by the workspace contract, is also the reference run."""
        with nn.execution(backend="workspace"):
            ws_serial_history, ws_serial_flat = self._run(
                tiny_world, tiny_config, workers=0)
            ws_parallel_history, ws_parallel_flat = self._run(
                tiny_world, tiny_config, workers=2)
        with nn.execution(backend="reference"):
            ref_history, ref_flat = self._run(tiny_world, tiny_config,
                                              workers=0)
        assert ws_serial_history == ws_parallel_history
        np.testing.assert_array_equal(ws_serial_flat, ws_parallel_flat)
        assert ws_serial_history == ref_history
        np.testing.assert_array_equal(ws_serial_flat, ref_flat)
