"""Simulated-time cost model for the experiments."""

from repro.sim.cost_model import (
    CostModel,
    CostPreset,
    END_TO_END_PRESET,
    PAPER_PRESET,
)

__all__ = [
    "CostModel",
    "CostPreset",
    "END_TO_END_PRESET",
    "PAPER_PRESET",
]
