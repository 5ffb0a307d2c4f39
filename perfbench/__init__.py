"""End-to-end and per-layer benchmark of the LightTR reproduction.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
