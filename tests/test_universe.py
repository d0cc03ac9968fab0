import datetime as dt
from pathlib import Path

import pytest

from creditcurve.universe import (
    UniverseError,
    interp_sovereign,
    load_config,
    load_riskfree_curve,
    load_universe,
    parse_rating,
)
from creditcurve.valuation import MAX_TENOR

AS_OF = dt.date(2016, 4, 8)

RISKFREE = "tenor_years,zero_rate\n1,0.01\n5,0.015\n30,0.02\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.fixture
def riskfree_file(tmp_path):
    return write(tmp_path, "riskfree.csv", RISKFREE)


def test_parse_rating_symbols():
    assert parse_rating("AAA") == 1
    assert parse_rating("AA+") == 2
    assert parse_rating("BBB") == 9
    assert parse_rating("BBB-") == 10
    assert parse_rating("bbb-") == 10
    assert parse_rating("CCC") == 18
    assert parse_rating("7") == 7


def test_parse_rating_unknown_lists_scale():
    with pytest.raises(UniverseError) as err:
        parse_rating("BBQ")
    msg = str(err.value)
    assert "AAA" in msg and "CCC" in msg and "18" in msg


def test_load_riskfree_curve(riskfree_file):
    curve = load_riskfree_curve(riskfree_file)
    assert curve.discount_factor(0.0) == 1.0
    assert curve.zero_rate(5.0, 0) == pytest.approx(0.015, rel=1e-12)


def test_load_riskfree_requires_header(tmp_path):
    p = write(tmp_path, "bad.csv", "1,0.01\n5,0.015\n")
    with pytest.raises(UniverseError, match="header"):
        load_riskfree_curve(p)


def test_load_universe_maturity_conversion(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,maturity,price,issue_size,rating\n"
                  "b1,0.04,2024-02-26,100.10,1500,BBB\n")
    snap = load_universe(riskfree_file, bonds, as_of=AS_OF)
    expected = (dt.date(2024, 2, 26) - AS_OF).days / 365.25
    assert snap.bonds[0].tenor == pytest.approx(expected, rel=1e-15)
    assert snap.bonds[0].rating == 9


def test_load_universe_tenor_column(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price\nb1,0.04,7.88,100.10\n")
    snap = load_universe(riskfree_file, bonds, as_of=AS_OF)
    assert snap.bonds[0].tenor == 7.88
    assert snap.bonds[0].issue_size == 1000.0


def test_load_universe_internal_rating_override(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,rating,internal_rating\n"
                  "b1,0.04,7.88,100.10,BBB-,BB-\n")
    snap = load_universe(riskfree_file, bonds, as_of=AS_OF)
    assert snap.bonds[0].rating == 10
    assert snap.bonds[0].internal_rating == 13
    assert snap.bonds[0].effective_rating == 13


def test_load_universe_duplicate_identifier(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price\nb1,0.04,7.88,100.10\nb1,0.05,5.0,101\n")
    with pytest.raises(UniverseError, match="b1"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)


def test_load_universe_empty_is_error(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv", "id,coupon,tenor_years,price\n")
    with pytest.raises(UniverseError, match="no instruments"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)


def test_load_universe_error_carries_line_number(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price\nb1,0.04,7.88,100.10\nb2,oops,5.0,99\n")
    with pytest.raises(UniverseError, match=r":3"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)


def test_load_universe_matured_instrument(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,maturity,price\nb1,0.04,2016-01-01,100\n")
    with pytest.raises(UniverseError, match="matured"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)


def test_load_universe_tenor_beyond_the_ceiling(tmp_path, riskfree_file):
    # a read-out's grid has about tenor / h nodes, so the loader caps the tenor
    for column, value in (("tenor_years", "1e9"), ("maturity", "9999-12-31")):
        bonds = write(tmp_path, "bonds.csv",
                      f"id,coupon,{column},price\nb1,0.04,{value},100\n")
        with pytest.raises(UniverseError, match=r"bonds\.csv:2: tenor .* beyond the 100-year"):
            load_universe(riskfree_file, bonds, as_of=AS_OF)
    bonds = write(tmp_path, "bonds.csv", f"id,coupon,tenor_years,price\nb1,0.04,{MAX_TENOR},100\n")
    assert load_universe(riskfree_file, bonds, as_of=AS_OF).bonds[0].tenor == MAX_TENOR


def test_load_universe_unknown_rating_symbol(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,rating\nb1,0.04,7.88,100.10,ZZZ\n")
    with pytest.raises(UniverseError, match="AAA"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)


def test_load_universe_cds(tmp_path, riskfree_file):
    cds = write(tmp_path, "cds.csv",
                "id,coupon,tenor_years,quote_type,quote,rating\n"
                "c1,0.01,5.0,spread,0.024,BB\n"
                "c2,0.05,10.0,upfront,-0.02,BB\n")
    snap = load_universe(riskfree_file, cds_path=cds, as_of=AS_OF)
    assert len(snap.cds) == 2
    assert snap.cds[0].quote_type == "spread"
    assert snap.cds[0].issue_size == 1000.0
    assert snap.cds[1].quote == -0.02


def test_recovery_modes(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,rating,recovery\n"
                  "b1,0.04,7.88,100.10,BBB-,\n"
                  "b2,0.05,5.0,101,BBB-,0.55\n")
    fixed = load_universe(riskfree_file, bonds, as_of=AS_OF,
                          recovery_mode="fixed", recovery_fixed=0.3)
    assert fixed.bonds[0].recovery == 0.3
    assert fixed.bonds[1].recovery == 0.55  # explicit column wins
    sched = load_universe(riskfree_file, bonds, as_of=AS_OF, recovery_mode="schedule")
    assert sched.bonds[0].recovery == pytest.approx(0.40)  # BBB- on the 70-3r rule
    assert sched.bonds[1].recovery == 0.55


def test_recovery_schedule_needs_a_rating(tmp_path, riskfree_file):
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,rating\n"
                  "b1,0.04,7.88,100.10,BBB-\n"
                  "b2,0.05,5.0,101,\n")
    message = r"bonds\.csv:3: recovery schedule requested but the row has no rating"
    with pytest.raises(UniverseError, match=message):
        load_universe(riskfree_file, bonds, as_of=AS_OF, recovery_mode="schedule")
    # a row's own recovery needs no rating
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,recovery\nb1,0.04,7.88,100.10,0.3\n")
    snap = load_universe(riskfree_file, bonds, as_of=AS_OF, recovery_mode="schedule")
    assert snap.bonds[0].recovery == 0.3


def test_sovereign_interpolation(tmp_path, riskfree_file):
    sov = write(tmp_path, "sovereign.csv",
                "country,tenor_years,par_spread\nCO,1,0.01\nCO,5,0.02\nCO,10,0.03\n")
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,country\nb1,0.04,3.0,100,CO\n"
                  "b2,0.04,20.0,95,CO\nb3,0.04,5.0,99,XX\n")
    snap = load_universe(riskfree_file, bonds, sovereign_path=sov, as_of=AS_OF)
    assert snap.bonds[0].sovereign_spread == pytest.approx(0.015)
    assert snap.bonds[1].sovereign_spread == pytest.approx(0.03)  # flat beyond
    assert snap.bonds[2].sovereign_spread is None


@pytest.mark.parametrize("pillars, message", [
    ("CO,1,0.01\nCO,-1,0.01\n", r"sovereign\.csv:3: sovereign tenor -1 must be > 0"),
    ("CO,0,0.01\n", r"sovereign\.csv:2: sovereign tenor 0 must be > 0"),
    ("CO,5,0.02\nPE,5,0.025\nco,5,0.03\n", r"sovereign\.csv:4: repeated CO pillar at tenor 5"),
], ids=["negative-tenor", "zero-tenor", "repeated-pillar"])
def test_sovereign_file_rejects_bad_pillars(tmp_path, riskfree_file, pillars, message):
    sov = write(tmp_path, "sovereign.csv", "country,tenor_years,par_spread\n" + pillars)
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,country\nb1,0.04,3.0,100,CO\n")
    with pytest.raises(UniverseError, match=message):
        load_universe(riskfree_file, bonds, sovereign_path=sov, as_of=AS_OF)


def test_interp_sovereign_flat_ends():
    pillars = ((1.0, 0.01), (5.0, 0.02))
    assert interp_sovereign(pillars, 0.5) == 0.01
    assert interp_sovereign(pillars, 3.0) == pytest.approx(0.015)
    assert interp_sovereign(pillars, 10.0) == 0.02


def test_load_config(tmp_path):
    cfg = write(tmp_path, "run.cfg",
                "# comment\nas_of = 2016-04-08\nrecovery = fixed:0.4  # inline\n\n")
    conf = load_config(cfg)
    assert conf == {"as_of": "2016-04-08", "recovery": "fixed:0.4"}
    bad = write(tmp_path, "bad.cfg", "as_of = 2016-04-08\n\njust words\n")
    with pytest.raises(UniverseError, match=r"bad\.cfg:3: expected 'key = value', got 'just"):
        load_config(bad)


# -- located input errors --------------------------------------------------

@pytest.mark.parametrize("pillars, message", [
    ("1,0.01\n5,abc\n", r"riskfree\.csv:3: column 'zero_rate' is not a finite number: 'abc'"),
    ("1,0.01\n,0.015\n", r"riskfree\.csv:3: missing required column 'tenor_years'"),
], ids=["non-number", "empty-cell"])
def test_riskfree_row_errors_name_file_and_line(tmp_path, pillars, message):
    p = write(tmp_path, "riskfree.csv", "tenor_years,zero_rate\n" + pillars)
    with pytest.raises(UniverseError, match=message):
        load_riskfree_curve(p)


def test_missing_quote_file_cannot_be_read(tmp_path, riskfree_file):
    with pytest.raises(UniverseError, match=r"cannot read .*missing\.csv"):
        load_universe(riskfree_file, tmp_path / "missing.csv", as_of=AS_OF)


def test_sovereign_file_requires_header(tmp_path, riskfree_file):
    sov = write(tmp_path, "sovereign.csv", "CO,1,0.01\nCO,5,0.02\n")
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,country\nb1,0.04,3.0,100,CO\n")
    message = r"sovereign\.csv: header must contain 'country,tenor_years,par_spread'"
    with pytest.raises(UniverseError, match=message):
        load_universe(riskfree_file, bonds, sovereign_path=sov, as_of=AS_OF)


# one valid data row per file; the file under test gets a cell past its header
QUOTE_FILES = {
    "riskfree.csv": "tenor_years,zero_rate\n1,0.01\n",
    "bonds.csv": "id,coupon,tenor_years,price,country\nb1,0.04,7.88,100.10,CO\n",
    "cds.csv": "id,coupon,tenor_years,quote_type,quote\nc1,0.01,5.0,spread,0.024\n",
    "sovereign.csv": "country,tenor_years,par_spread\nCO,5,0.02\n",
}


def _load_all(tmp_path, name, tail):
    paths = {n: write(tmp_path, n, text.rstrip("\n") + (tail if n == name else "") + "\n")
             for n, text in QUOTE_FILES.items()}
    return load_universe(paths["riskfree.csv"], paths["bonds.csv"], paths["cds.csv"],
                         paths["sovereign.csv"], as_of=AS_OF)


@pytest.mark.parametrize("name", sorted(QUOTE_FILES))
def test_surplus_cell_is_an_input_error(tmp_path, name):
    # a cell past the header's columns crashed every verb with an AttributeError
    columns = QUOTE_FILES[name].count(",", 0, QUOTE_FILES[name].index("\n")) + 1
    message = rf"{name}:2: {columns + 1} cells for {columns} columns"
    with pytest.raises(UniverseError, match=message):
        _load_all(tmp_path, name, ",x")
    # empty surplus cells, as a trailing comma in an Excel export, are ignored
    assert _load_all(tmp_path, name, ", ,") == _load_all(tmp_path, name, "")


def test_column_named_twice_is_an_input_error(tmp_path, riskfree_file):
    # the second 'price' column won without a word
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price, price\nb1,0.04,7.88,100.10,105.10\n")
    with pytest.raises(UniverseError, match=r"bonds\.csv:1: column 'price' is named twice"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)
    # header cells without a name may repeat, and their cells are not read
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price,,\nb1,0.04,7.88,100.10,note,\nb2,0.05,5,101,,7\n")
    snap = load_universe(riskfree_file, bonds, as_of=AS_OF)
    assert [b.price for b in snap.bonds] == [100.10, 101.0]


def test_line_numbers_count_blank_lines(tmp_path, riskfree_file):
    # a blank line moved every later error and warning one line up
    bonds = write(tmp_path, "bonds.csv",
                  "id,coupon,tenor_years,price\nb1,0.04,7.88,100.10\n\nb2,oops,5.0,99\n")
    with pytest.raises(UniverseError, match=r"bonds\.csv:4: column 'coupon'"):
        load_universe(riskfree_file, bonds, as_of=AS_OF)
    cds = write(tmp_path, "cds.csv",
                "id,coupon,tenor_years,quote_type,quote\n\n"
                "c1,0.01,5.0,spread,0.024\n\nc2,0.02,5.0,spread,0.024\n")
    with pytest.warns(UserWarning, match="not a standard") as caught:
        load_universe(riskfree_file, cds_path=cds, as_of=AS_OF)
    assert [(Path(w.filename).name, w.lineno) for w in caught] == [("cds.csv", 5)]
