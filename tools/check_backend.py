#!/usr/bin/env python
"""Backend-seam lint: kernel modules must not call ``np.*`` directly,
and ``src/repro/nn/`` must hold no ``global`` statement.

The pluggable array backend (``src/repro/nn/backend.py``) only works if
every kernel-side array *operation* dispatches through its ``ops``
namespace — a direct ``np.exp(...)`` in a kernel module silently
bypasses whatever backend the user selected and rots the seam.  This
lint tokenizes every kernel module (comments and string literals are
skipped, so docstrings may freely mention ``np.clip``) and flags any
``np.<name>`` attribute access whose first attribute component is not
on the allowlist of *edge* functions: array construction, dtype
constants, and RNG streams, which intentionally stay on NumPy so every
backend sees identical inputs.

ndarray *method* calls (``x.sum(...)``, ``x @ w``, fancy indexing)
never appear as ``np.`` attribute accesses and already dispatch through
the array object, so they are out of scope by construction.

The second check keeps execution state out of process globals: every
switch (grad tape, fused kernels, sparse masks, packed decode, compute
dtype, backend) lives in the context-scoped ``ExecutionConfig`` of
``src/repro/nn/execution.py``, and a ``global`` statement anywhere under
``src/repro/nn/`` is how such a switch would quietly come back.

Run from the repo root (or let ``tests/test_backend_lint.py`` run it as
part of the tier-1 suite):

    python tools/check_backend.py

Exit status 0 means both checks pass; failures list one
``file:line: np.<name>`` or ``file:line: global <names>`` entry each.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The kernel-side modules the backend seam covers (the tentpole list
#: from the PR-6 issue: every nn kernel module plus the serving engine,
#: decode programs, and the constraint-mask kernels).
KERNEL_MODULES = (
    "src/repro/nn/tensor.py",
    "src/repro/nn/functional.py",
    "src/repro/nn/recurrent.py",
    "src/repro/nn/attention.py",
    "src/repro/nn/layers.py",
    "src/repro/nn/loss.py",
    "src/repro/nn/optim.py",
    "src/repro/nn/flatten.py",
    "src/repro/nn/init.py",
    "src/repro/core/mask.py",
    "src/repro/core/st_block.py",
    "src/repro/serving/engine.py",
    "src/repro/serving/programs.py",
    "src/repro/serving/scheduler.py",
)

#: ``np.<name>`` accesses that stay direct: array construction and
#: layout edges, dtype constants/queries, RNG streams, and formatting.
#: Everything else is array math and must go through ``backend.ops``.
ALLOWED = frozenset({
    # construction / conversion
    "asarray", "array", "ascontiguousarray", "frombuffer", "fromiter",
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "arange", "linspace", "resize",
    # dtype constants and queries
    "dtype", "ndarray", "generic", "isscalar", "isdtype",
    "float64", "float32", "float16", "int64", "int32", "int16", "int8",
    "uint8", "bool_", "intp", "finfo", "iinfo", "promote_types",
    "result_type", "can_cast",
    # shape bookkeeping (pure metadata, no array math)
    "prod", "shape", "ndim", "size",
    # RNG streams stay on NumPy so every backend sees identical data
    "random",
    # formatting / debugging edges
    "array2string", "set_printoptions", "errstate", "testing",
})


def check_module(path: str) -> list[str]:
    """``file:line: np.<name>`` for every disallowed direct call."""
    problems: list[str] = []
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
        source = handle.read()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for i, token in enumerate(tokens):
        if token.type != tokenize.NAME or token.string != "np":
            continue
        # Only attribute accesses: "np" "." "<name>".
        if i + 2 >= len(tokens):
            continue
        dot, attr = tokens[i + 1], tokens[i + 2]
        if dot.type != tokenize.OP or dot.string != ".":
            continue
        if attr.type != tokenize.NAME:
            continue
        # Skip "x.np" style accesses (np as an attribute, not the module).
        if i > 0 and tokens[i - 1].type == tokenize.OP \
                and tokens[i - 1].string == ".":
            continue
        if attr.string not in ALLOWED:
            problems.append(
                f"{path}:{token.start[0]}: np.{attr.string}")
    return problems


#: The package where execution state must stay context-scoped.
NO_GLOBALS_DIR = "src/repro/nn"


def check_no_globals(path: str) -> list[str]:
    """``file:line: global <names>`` for every ``global`` statement."""
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    return [f"{path}:{node.lineno}: global {', '.join(node.names)}"
            for node in ast.walk(tree) if isinstance(node, ast.Global)]


def check_nn_globals(directory: str = NO_GLOBALS_DIR) -> list[str]:
    """``global`` statements across every module under ``directory``."""
    problems: list[str] = []
    for dirpath, _dirnames, filenames in sorted(
            os.walk(os.path.join(REPO_ROOT, directory))):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                problems.extend(check_no_globals(os.path.relpath(
                    os.path.join(dirpath, filename), REPO_ROOT)))
    return problems


def check_backend_seam(modules=KERNEL_MODULES) -> list[str]:
    """All seam violations across ``modules`` (empty list = clean)."""
    problems: list[str] = []
    for path in modules:
        if not os.path.exists(os.path.join(REPO_ROOT, path)):
            problems.append(f"{path}: kernel module missing")
            continue
        problems.extend(check_module(path))
    return problems


def main() -> int:
    status = 0
    problems = check_backend_seam()
    if problems:
        print(f"backend-seam check: {len(problems)} direct np call(s)")
        for problem in problems:
            print(f"  {problem}")
        status = 1
    else:
        print(f"backend-seam check: OK ({len(KERNEL_MODULES)} kernel modules)")
    problems = check_nn_globals()
    if problems:
        print(f"no-globals check: {len(problems)} global statement(s) "
              f"under {NO_GLOBALS_DIR}")
        for problem in problems:
            print(f"  {problem}")
        status = 1
    else:
        print(f"no-globals check: OK ({NO_GLOBALS_DIR})")
    return status


if __name__ == "__main__":
    sys.exit(main())
