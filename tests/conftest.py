from pathlib import Path

import pytest

import creditcurve as cc

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"


@pytest.fixture
def flat_2pct():
    return cc.RiskfreeCurve.flat(0.02)


@pytest.fixture
def colom_dir():
    return SAMPLE_DIR / "colom_2016-04-08"


@pytest.fixture
def gen(monkeypatch):
    """The benchmark's seeded snapshot generator."""
    monkeypatch.syspath_prepend(str(Path(cc.__file__).resolve().parents[2]))
    from perfbench import gen

    return gen
