"""The benchmark's own tests; nothing here is timed.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import creditcurve  # noqa: E402
from creditcurve.fitting import FitConfig  # noqa: E402
from creditcurve.ratecurve import RiskfreeCurve  # noqa: E402
from creditcurve.survival import SurvivalParams  # noqa: E402
from creditcurve.valuation import BondSpec, bond_model_price, kernels  # noqa: E402

from perfbench import gen, instrument, ops, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert len(first["snapshots"]) == gen.POOL_SIZE[workload]
    assert all("truth" in snap and "recovery" in snap for snap in first["snapshots"])


def test_seed_draws_desk_inputs_and_replay_order(tmp_path):
    a = gen.generate("desk_cold", 1, tmp_path / "a")
    b = gen.generate("desk_cold", 2, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "b")
    assert a["replay"] != b["replay"]
    assert sorted(map(tuple, a["replay"])) == sorted(map(tuple, b["replay"]))


def test_negative_seed_is_accepted(tmp_path):
    assert gen.generate("sector_grid", -5, tmp_path)["seed"] == -5


def test_fit_history_does_not_depend_on_seed(tmp_path):
    a = gen.generate("issuer_daily", 1, tmp_path / "a")
    b = gen.generate("issuer_daily", 2, tmp_path / "b")
    assert a["snapshots"] == b["snapshots"]
    assert _files(tmp_path / "a" / "issuer_00") == _files(tmp_path / "b" / "issuer_00")


def test_snapshots_load_with_a_reference_objective(tmp_path):
    manifest = gen.generate("issuer_daily", 3, tmp_path)
    snaps = ops.load_snapshots(manifest, tmp_path)
    for meta in manifest["snapshots"]:
        snap = snaps[meta["name"]]
        assert len(snap.instruments) == meta["n_bonds"] + meta["n_cds"]
        assert snap.ref_objective > 0.0


def _names(entries):
    return [(e["name"], e["unit"], e["better"]) for e in entries]


def test_benchmark_json_lists_the_printed_metrics():
    assert _names(BENCHMARK["end_to_end"]) == list(run.END_TO_END)
    assert _names(BENCHMARK["per_layer"]) == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(gen.WORKLOADS)


def _fake_results():
    fits = [dict(objective=1.5)]
    return [ops.OpResult(latency_s=0.5 + 0.01 * i, cpu_s=0.4 + 0.01 * i, fits=fits if i == 0 else [])
            for i in range(12)]


def test_end_to_end_metrics_match_benchmark_json():
    e2e, notes = run.end_to_end(_fake_results(), [1.0, 1.2, 1.1], 1, 50_000)
    assert set(e2e) == {name for name, _, _ in run.END_TO_END} | {
        name for name, _ in run.REPORTED}
    assert set(notes) == set(e2e)
    assert e2e["op_ms_tail"] == pytest.approx(510.0)
    assert e2e["fit_objective_sum"] == 1.5
    line = run.result_line(e2e, None, 12, 0)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(e["name"], e["unit"]) for e in BENCHMARK["end_to_end"]]


def test_tail_needs_eleven_ops():
    assert run._tail([1.0] * 10) is None
    pct, value = run._tail([float(i) for i in range(20)])
    assert pct == 50.0 and value == 9.0


def _originals():
    saved = {}
    for owner, attr, _, _ in instrument.METHODS:
        saved[(owner, attr)] = owner.__dict__[attr]
    for module, attr, _ in instrument.FUNCTIONS + instrument.FITS:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("creditcurve") and hasattr(mod, attr):
                saved[(mod, attr)] = getattr(mod, attr)
    return saved


def _bonds():
    curve = RiskfreeCurve(pillars=((1.0, 0.02), (10.0, 0.03)))
    truth = SurvivalParams(0.01, 0.03, 0.1)
    bonds = []
    for tenor, coupon in ((2.0, 0.03), (5.0, 0.05), (10.0, 0.06)):
        spec = BondSpec(coupon=coupon, tenor=tenor, price=100.0, recovery=0.4)
        price = bond_model_price(spec, kernels(curve, truth, tenor))
        bonds.append(BondSpec(coupon=coupon, tenor=tenor, price=price, recovery=0.4))
    return curve, bonds


@pytest.mark.parametrize("spans", [True, False])
def test_wrappers_restore_the_original_attributes(spans):
    before = _originals()
    with instrument.Instrumentation(spans=spans) as inst:
        patched = set(inst.patched())
        assert (creditcurve.fitting, "fit_single_name") in patched
        if spans:
            assert (creditcurve.valuation, "kernels") in patched
            assert (creditcurve.fitting, "kernels") in patched
            assert (creditcurve.cli, "load_universe") in patched
            assert (creditcurve.universe, "load_universe") in patched
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_fits_are_recorded():
    curve, bonds = _bonds()
    store = instrument.SpanStore()
    with instrument.Instrumentation(spans=True, store=store) as inst:
        creditcurve.valuation.kernels(curve, SurvivalParams(0.01, 0.02, 0.1), 5.0)
        creditcurve.fitting.fit_single_name(bonds, curve, 0.4,
                                            FitConfig(fix_c=0.1, multistart_count=1))
    arrays = store.arrays()
    names = [store.names[i] for i in arrays["name"]]
    assert names[0] == "valuation.kernels" and arrays["parent"][0] == -1
    assert names[1] == "valuation.kernel_grid" and arrays["parent"][1] == 0
    assert len(inst.fits) == 1
    record = inst.fits[0]
    assert record["kind"] == "fit_single_name" and record["groups"] == 1
    assert record["evaluations"] > 0 and record["n_starts"] == 1
    layers = instrument.layer_metrics(store, inst.fits, 1, 0.0, 0.0)
    assert list(layers) == [name for name, _, _ in run.PER_LAYER]
    assert layers["valuation.builds_per_eval"] >= 1.0


def test_cross_check_flags_a_missed_wrapper():
    store = instrument.SpanStore()
    sid = store.open(store.name_id("fitting.fit_single_name"))
    store.close(sid)
    fits = [dict(kind="fit_single_name", evaluations=5, groups=1, improvements=1,
                 converged=True)]
    with pytest.raises(instrument.WrappingMiss):
        instrument.layer_metrics(store, fits, 1, 0.0, 0.0)
