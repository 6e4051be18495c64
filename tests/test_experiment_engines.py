"""Every experiment builds its engine through ``Database`` — a ratchet.

A figure measured on a hand-wired engine is not measured on the engine
``bench`` runs: it has no WAL, no ``check_database`` and none of the
pricing rules ``Database`` applies.  This lint fails on a storage or index
constructor called under ``src/repro/experiments/`` by a function the
allowlist does not name, and on an allowlisted function that no longer
calls one, so the list only shrinks as drivers are ported.
"""

from __future__ import annotations

import ast
from pathlib import Path

EXPERIMENTS = Path(__file__).resolve().parents[1] / "src" / "repro" / "experiments"

#: What only ``Database`` (or a layout over its tables) should construct.
CONSTRUCTORS = {
    "SimulatedDisk", "BufferPool", "HeapFile", "BPlusTree",
    "CachedBTree", "PlainIndex", "Table",
}

_RNG = (
    "a Database seeds a cached index's RNG by index name, so porting it "
    "would restate the figures"
)

#: ``(file, top-level function)`` that still wires its own engine, and why.
HAND_WIRED = {
    ("ablations.py", "_policy_run"): "A1: " + _RNG,
    ("ablations.py", "run_threshold_ablation"): "A2: " + _RNG,
    ("ablations.py", "run_covering_ablation"):
        "A5: the covering index is not an index kind Database creates",
    ("capacity.py", "run_measured"): _RNG,
    ("fig2c.py", "run_engine"):
        "its index pool is unpriced on purpose (index fully in memory), "
        "a rule Database cannot express",
    ("fill_factor.py", "_fresh_tree"): "bare trees: no heap, no table",
    ("fill_factor.py", "run"): "bare trees: no heap, no table",
    ("adaptive.py", "_build"):
        "the hot/cold pair sits on a pristine pool beside the "
        "fault-injected Database",
}


def _constructing_functions() -> set[tuple[str, str]]:
    """``(file, outermost def)`` of every constructor call; a call outside
    any function reads as ``<module>``."""
    found = set()
    for path in sorted(EXPERIMENTS.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                scopes = [
                    (f"{top.name}.{fn.name}", fn) for fn in top.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes = [(top.name, top)]
            else:
                scopes = [("<module>", top)]
            for name, scope in scopes:
                for call in ast.walk(scope):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    called = getattr(func, "attr", getattr(func, "id", None))
                    if called in CONSTRUCTORS:
                        found.add((path.name, name))
    return found


def test_experiments_build_through_the_database():
    found = _constructing_functions()
    assert sorted(found - HAND_WIRED.keys()) == []
    assert sorted(HAND_WIRED.keys() - found) == []


def test_the_section_3_drivers_are_not_allowlisted():
    """Figure 3, the headline and A3 run on ``Database`` (ROADMAP 16)."""
    assert not {f for f, _ in HAND_WIRED} & {"fig3.py", "headline.py"}
    assert ("ablations.py", "run_vertical_ablation") not in HAND_WIRED
