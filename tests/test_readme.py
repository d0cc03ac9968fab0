"""The README's code runs as written and shows what it says it shows."""
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_decomposes_on_the_curve_it_fits():
    # the quickstart fits one bond and decomposes its return on the fitted
    # curve's kernels, so its relative value is zero up to rounding
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(compile(block, f"{README}:quickstart", "exec"), ns)
    dec = ns["dec"]
    assert abs(dec.rv) <= 1e-9, dec
    assert dec.carry + dec.rolldown + dec.rv == dec.total
