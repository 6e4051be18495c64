"""The experiments CLI: name resolution and dispatch."""

from pathlib import Path

import pytest

from repro.experiments import all as all_experiments


def test_unknown_name_rejected():
    with pytest.raises(SystemExit):
        all_experiments.main(["nonsense"])


def test_known_names_registered():
    assert set(all_experiments._DRIVERS) >= {
        "fig2a", "fig2b", "fig2c", "fig3", "capacity", "encoding",
        "fill_factor", "headline", "ablations", "adaptive",
    }


def test_single_cheap_driver_runs(capsys):
    all_experiments.main(["fig2b"])
    out = capsys.readouterr().out
    assert "Figure 2(b)" in out


def test_columnar_driver_registered():
    assert "columnar" in all_experiments._DRIVERS


def test_shard_driver_registered():
    assert "shard" in all_experiments._DRIVERS


#: The drivers of the paper's own figures, tables and ablations; their
#: numbers are recorded by the sections of EXPERIMENTS.md they reproduce.
PAPER_DRIVERS = {
    "fig2a", "fig2b", "fig2c", "fig3", "capacity", "encoding",
    "fill_factor", "headline", "ablations",
}


def test_every_extension_driver_is_recorded():
    """A driver outside the paper's evaluation stays only if a row of
    EXPERIMENTS.md records its number with the command that reproduces
    it; a driver whose number nothing records is retired instead."""
    recorded = (
        Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    ).read_text()
    unrecorded = [
        name for name in all_experiments._DRIVERS
        if name not in PAPER_DRIVERS
        and f"python -m repro.experiments.all {name}`" not in recorded
    ]
    assert unrecorded == []
