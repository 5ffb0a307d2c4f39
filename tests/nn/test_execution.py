"""The scoped execution context: one frozen config per thread or task.

``nn.execution(...)`` changes the config for the block it wraps, in
the calling thread or asyncio task only; every other thread keeps
sampling its own config, and new threads start from the process
default.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import nn

F32 = np.dtype(np.float32)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def _fresh_process(env_changes: dict) -> subprocess.CompletedProcess:
    """Import :mod:`repro.nn` in a new interpreter under ``env_changes``
    and print its process-default config."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_changes, PYTHONPATH=SRC)
    code = ("from repro import nn; c = nn.current_execution(); "
            "print(c.compute_dtype, c.backend)")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


class TestExecutionApi:
    def test_config_is_frozen_and_normalises_the_dtype(self):
        config = nn.ExecutionConfig(compute_dtype="float32")
        assert config.compute_dtype == F32
        assert config == nn.ExecutionConfig(compute_dtype=np.float32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.grad = False
        assert pickle.loads(pickle.dumps(config)) == config

    def test_block_yields_and_restores_the_config(self):
        before = nn.current_execution()
        with nn.execution(fused_kernels=False) as outer:
            assert nn.current_execution() is outer
            assert not outer.fused_kernels
            with nn.execution(sparse_masks=False) as inner:
                assert not inner.fused_kernels  # changes compose
                assert not inner.sparse_masks
            assert nn.current_execution() is outer
        assert nn.current_execution() is before

    def test_explicit_config_replaces_the_current_one(self):
        target = nn.ExecutionConfig(packed_decode=False)
        with nn.execution(fused_kernels=False):
            with nn.execution(target, grad=False) as config:
                assert config == dataclasses.replace(target, grad=False)
                assert config.fused_kernels  # from target, not the caller

    def test_exception_restores_the_config(self):
        before = nn.current_execution()
        with pytest.raises(RuntimeError):
            with nn.execution(compute_dtype="float32"):
                raise RuntimeError("boom")
        assert nn.current_execution() is before

    def test_no_grad_is_the_grad_field(self):
        assert nn.is_grad_enabled() == nn.current_execution().grad
        with nn.no_grad() as config:
            assert not config.grad
            assert not nn.is_grad_enabled()
            assert not nn.Tensor([1.0], requires_grad=True).requires_grad


class TestThreadIsolation:
    def test_block_in_one_thread_is_invisible_to_a_sampling_thread(self):
        """Another thread sits inside a float32 / unfused / no-grad block
        while this one samples: every sample sees this thread's config."""
        mine = nn.current_execution()
        inside, release = threading.Event(), threading.Event()

        def other():
            with nn.execution(compute_dtype="float32", fused_kernels=False,
                              grad=False):
                inside.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            samples = [(nn.current_execution(), nn.is_grad_enabled(),
                        nn.Tensor([1.0]).data.dtype) for _ in range(2000)]
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert all(s == (mine, mine.grad, mine.compute_dtype)
                   for s in samples)

    def test_new_threads_start_from_the_process_default(self):
        default = nn.current_execution()
        seen = []
        with nn.execution(compute_dtype="float32", packed_decode=False):
            thread = threading.Thread(
                target=lambda: seen.append(nn.current_execution()))
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == [default]

    def test_asyncio_tasks_are_scoped(self):
        async def task(fused, entered, peer_entered):
            with nn.execution(fused_kernels=fused):
                entered.set()
                await peer_entered.wait()
                return nn.current_execution().fused_kernels

        async def main():
            a, b = asyncio.Event(), asyncio.Event()
            return await asyncio.gather(task(True, a, b), task(False, b, a))

        assert asyncio.run(main()) == [True, False]


class TestProcessDefault:
    @pytest.mark.parametrize("env, expected", [
        ({}, "float64 reference"),
        ({"REPRO_COMPUTE_DTYPE": "float32"}, "float32 reference"),
        ({"REPRO_BACKEND": "workspace"}, "float64 workspace"),
    ])
    def test_environment_sets_the_default_config(self, env, expected):
        result = _fresh_process(env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected

    @pytest.mark.parametrize("env, message", [
        ({"REPRO_BACKEND": "cuda"}, "unknown backend"),
        ({"REPRO_COMPUTE_DTYPE": "float16"}, "unsupported compute dtype"),
    ])
    def test_a_mistyped_knob_fails_at_import(self, env, message):
        result = _fresh_process(env)
        assert result.returncode != 0
        assert message in result.stderr
