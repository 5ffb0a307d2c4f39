"""Flat-parameter gathers are float64 whatever the compute dtype.

Federated payloads, aggregation and optimiser buffers all work on
float64 flat vectors; reduced-precision wire payloads are the job of
the ``float32`` exchange codec (covered in ``tests/federated``).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.flatten import FlatLayout, FlatParameterSpace
from repro.nn.module import Parameter


def make_space():
    params = [Parameter(np.arange(6, dtype=np.float64).reshape(2, 3), name="w"),
              Parameter(np.ones(4), name="b")]
    return FlatParameterSpace(params)


class TestFlatDtypes:
    def test_get_flat_defaults_to_float64(self):
        space = make_space()
        assert space.get_flat().dtype == np.float64
        with nn.execution(compute_dtype="float32"):
            assert make_space().get_flat().dtype == np.float64

    def test_explicit_dtype_and_out_are_honoured(self):
        space = make_space()
        flat = space.get_flat(dtype=np.float32)
        assert flat.dtype == np.float32
        assert flat.nbytes == space.total_size * 4
        out = np.empty(space.total_size)
        assert space.get_flat(out=out) is out

    def test_float32_roundtrip_restores_parameters_within_eps(self):
        # The contract under test is float64 *storage* with a float32
        # copy, so pin the compute dtype rather than inherit a forced
        # float32 substrate.
        with nn.execution(compute_dtype="float64"):
            space = make_space()
            original = space.get_flat()
            space.set_flat(space.get_flat(dtype=np.float32))
            # Parameters remain float64 storage; values rounded to float32.
            assert space.parameters[0].data.dtype == np.float64
            np.testing.assert_allclose(space.get_flat(), original, rtol=1e-7)

    def test_flatten_state_defaults_to_float64(self):
        state = {"w": np.zeros((2, 3)), "b": np.ones(4)}
        layout = FlatLayout.from_state(state)
        assert layout.flatten_state(state).dtype == np.float64
        assert layout.flatten_state(state, dtype=np.float32).dtype == np.float32
        # unflatten always restores float64 state arrays.
        assert layout.unflatten(np.zeros(10, dtype=np.float32))["w"].dtype == np.float64
