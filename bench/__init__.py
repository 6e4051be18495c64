"""The two-clock, layer-by-layer benchmark (see bench/README.md).

Everything here measures the engine from outside: public functions,
public counters and benchmark-side shims.  Nothing under ``src/`` knows
this package exists.
"""
