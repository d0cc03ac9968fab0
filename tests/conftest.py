import contextlib
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

import creditcurve as cc

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"


class _Tee(io.StringIO):
    """A stream that also writes everything to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class CliRunner:
    """Runs a CLI entry point in-process and captures what it writes."""

    def invoke(self, main, args: list[str]) -> SimpleNamespace:
        """The run's ``exit_code``, ``output`` (stdout and stderr in the order
        written), ``stderr`` and ``exception`` (the SystemExit of a non-zero
        exit, else None).  Any other exception propagates."""
        output = io.StringIO()
        out, err = _Tee(output), _Tee(output)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                exception = exc
        code = (exception.code or 0) if exception else 0
        return SimpleNamespace(exit_code=code, output=output.getvalue(), stderr=err.getvalue(),
                               exception=exception if code else None)


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


@pytest.fixture
def readout_calls(monkeypatch):
    """The arguments of every ``KernelReadout.of`` call made in the test."""
    import creditcurve.valuation as vl

    calls = []
    of = vl.KernelReadout.of.__func__
    monkeypatch.setattr(vl.KernelReadout, "of",
                        classmethod(lambda cls, *a, **kw: calls.append(a) or of(cls, *a, **kw)))
    return calls
