"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines immediately).  Every tolerance is fixed here; none are calibrated at
runtime.
"""

import time

import numpy as np
import pytest
import yaml

from ridekit import iso2631
from ridekit.calibration import (
    BoxConstraints,
    OptimizationChain,
    apply_parameters,
    run_chain,
    simulation_residual,
)
from ridekit.config import load_config
from ridekit.iri import (
    IRI_THRESHOLD_SPEEDS_KMH,
    IRI_THRESHOLDS,
    GOLDEN_CAR,
    classify_iri,
    compute_iri,
    iri_severity,
)
from ridekit.pipeline import analyze
from ridekit.sampling import default_input_distributions, lhs
from ridekit.sections import find_critical, window_edges
from ridekit.signals import SpaceSeries, TimeSeries
from ridekit.thresholds import exceedance, load_bands
from ridekit.vehicle import default_car, simulate

from conftest import calibration_scenario
from test_iso2631 import analog_magnitude, digital_magnitude

PASS = "criterion {:>2} PASS  {}"


def _elapsed_ok(t0: float, budget_s: float) -> float:
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    return elapsed


def _write_analysis_config(tmp_path, **kw):
    doc = {
        "seed": kw.pop("seed", 42),
        "road": {"synthetic": kw.pop("road")},
        "scenario": {"target_speed_kmh": kw.pop("speed_kmh", 80.0)},
        "batch": {"n": kw.pop("n"), "dt": 0.001},
        "analysis": {
            "window_m": 5.0,
            "ds": 0.1,
            "aggregator": kw.pop("aggregator", "mean"),
        },
        "iri": {"segment_m": 5.0, "speed_kmh": 80.0},
    }
    assert not kw, kw
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_criterion_01_iso_filter_fidelity():
    t0 = time.time()
    fs = 200.0
    freqs = np.logspace(np.log10(0.5), np.log10(10.0), 20)
    for wid in ("k", "d"):
        spec = iso2631.load_weighting(wid)
        sos = iso2631.design_filter(spec, fs)
        analog = analog_magnitude(spec, freqs)
        digital = digital_magnitude(sos, fs, freqs)
        worst = float(np.max(np.abs(digital - analog) / analog))
        assert worst < 0.01, f"weighting {wid}: worst deviation {worst:.4%}"
    elapsed = _elapsed_ok(t0, 1.0)
    print(PASS.format(1, f"discrete cascade within 1% of the analog stages ({elapsed:.2f}s)"))


def test_criterion_02_rms_and_combination_identities():
    t0 = time.time()
    fs, freq, amplitude = 200.0, 2.0, 3.0
    n = int(100 * fs / freq)  # 100 cycles
    t = np.arange(n) / fs
    unity = iso2631.FilterSpec(weighting_id="unity")
    out = iso2631.weight_signal(TimeSeries(0.0, 1 / fs, amplitude * np.sin(2 * np.pi * freq * t)), unity)
    assert out.a_w_rms == pytest.approx(amplitude / np.sqrt(2.0), rel=0.01)

    assert iso2631.combine({"x": 9.0, "y": 16.0, "z": 0.0}) == 5.0

    boundary_labels = {
        0.315: "LU",
        0.50: "FU",
        0.63: "FU",
        0.80: "U",
        1.0: "U",
        1.25: "VU",
        2.0: "EU",
        2.5: "EU",
    }
    for value, expected in boundary_labels.items():
        assert iso2631.classify_iso(value).label == expected, value
        below = iso2631.classify_iso(value - 1e-9).label
        assert iso2631.severity(below) <= iso2631.severity(expected)
    elapsed = _elapsed_ok(t0, 1.0)
    print(PASS.format(2, f"sine RMS, combination, and band boundaries ({elapsed:.2f}s)"))


def test_criterion_03_iri_correctness():
    t0 = time.time()
    car = GOLDEN_CAR
    assert (car.m_s, car.c_s, car.k_t, car.k_s, car.m_u, car.d_t) == (1.0, 6.00, 653.00, 63.30, 0.15, 0.0)

    flat = compute_iri(np.zeros(2001), 0.1, segment_length=100.0)
    assert all(r.iri == 0.0 for r in flat)

    profile = np.interp(
        np.arange(4001) * 0.05, np.arange(2001) * 0.1, np.cumsum(np.random.default_rng(3).normal(0, 1e-3, 2001))
    )
    base = compute_iri(profile, 0.05, segment_length=100.0)
    scaled = compute_iri(3.0 * profile, 0.05, segment_length=100.0)
    for b, s in zip(base, scaled):
        assert s.iri == pytest.approx(3.0 * b.iri, rel=1e-9)

    s_axis = 0.05 * np.arange(2001)
    sine = 0.005 * np.sin(2 * np.pi * s_axis / 2.0)
    coarse = compute_iri(sine, 0.05, segment_length=100.0)[0]
    fine_profile = np.interp(0.005 * np.arange(20001), s_axis, sine)
    fine = compute_iri(fine_profile, 0.005, segment_length=100.0)[0]
    assert coarse.iri == pytest.approx(fine.iri, rel=5e-3)
    elapsed = _elapsed_ok(t0, 5.0)
    print(PASS.format(3, f"flat/linearity/refinement and reference constants ({elapsed:.2f}s)"))


def test_criterion_04_ride_quality_table_cells():
    t0 = time.time()
    eps = 1e-6
    cells_checked = 0
    for speed in IRI_THRESHOLD_SPEEDS_KMH:
        vg_up, g_up, f_up, m_up = IRI_THRESHOLDS[speed]
        probes = {
            "VG": (vg_up - eps,),
            "G": (vg_up + eps, g_up - eps),
            "F": (g_up + eps, f_up - eps),
            "M": (f_up + eps, m_up - eps),
            "P": (m_up + eps, m_up + 10.0),
        }
        for label, values in probes.items():
            for value in values:
                assert classify_iri(value, speed) == label, (speed, label, value)
            cells_checked += 1
    assert cells_checked == 50
    elapsed = _elapsed_ok(t0, 1.0)
    print(PASS.format(4, f"all 50 ride-quality cells reproduced ({elapsed:.2f}s)"))


def test_criterion_05_window_accounting():
    t0 = time.time()
    band = load_bands()[("z", "PT")]
    for length_m, expected in ((3025, 605), (1595, 319), (2135, 427)):
        signal = SpaceSeries(0.0, 0.1, np.zeros(length_m * 10))
        report = find_critical(exceedance(signal, band), window_edges(0.0, signal.extent, 5.0))
        assert report.total_windows == expected, length_m
        row = report.rows[0]
        assert row.c + row.n == expected
    elapsed = _elapsed_ok(t0, 1.0)
    print(PASS.format(5, f"605/319/427 windows for the three track lengths ({elapsed:.2f}s)"))


def test_criterion_06_threshold_nesting(tmp_path):
    t0 = time.time()
    config = _write_analysis_config(
        tmp_path,
        seed=5,
        road={"length": 1000.0, "step": 0.1, "roughness_class": "C"},
        n=50,
        aggregator="max-abs-envelope",
    )
    summary = analyze(load_config(config), tmp_path / "out")
    assert summary["failures"] == []
    threshold = summary["reports"]["threshold"]
    for axis in ("x", "y", "z"):
        counts = {style: threshold[(axis, style)].rows[0].c for style in ("PT", "ND", "AG")}
        assert counts["PT"] >= counts["ND"] >= counts["AG"], (axis, counts)
    # the same nesting must hold sample-by-sample, where it is far from vacuous
    bands = load_bands()
    space_lines = (tmp_path / "out" / "space_signals.csv").read_text().strip().splitlines()[1:]
    az = np.array([float(line.split(",")[3]) for line in space_lines])
    signal = SpaceSeries(0.0, 0.1, az)
    flags = {style: exceedance(signal, bands[("z", style)]).series.values for style in ("PT", "ND", "AG")}
    assert flags["PT"].sum() > 0, "fixture must actually exceed the tightest band"
    assert np.all(flags["AG"] <= flags["ND"]) and np.all(flags["ND"] <= flags["PT"])
    elapsed = _elapsed_ok(t0, 120.0)
    print(PASS.format(6, f"band nesting over a 50-run batch ({elapsed:.1f}s)"))


def test_criterion_07_lhs_stratification():
    t0 = time.time()
    distributions = default_input_distributions()
    n = 1000
    plan = lhs(distributions, n=n, seed=3)
    for j, dist in enumerate(distributions):
        strata = np.floor(dist.cdf(plan.matrix[:, j]) * n).astype(int)
        assert sorted(strata) == list(range(n)), dist.name

    shifted = lhs(default_input_distributions(v_dev_mean=-5.0), n=n, seed=3)
    assert np.all(shifted.matrix[:, shifted.names.index("v_dev")] < -3.8)
    elapsed = _elapsed_ok(t0, 1.0)
    print(PASS.format(7, f"exact strata occupancy and shifted-site sampling ({elapsed:.2f}s)"))


def test_criterion_08_calibration_recovery(geometry):
    t0 = time.time()
    scenario = calibration_scenario(length=1150.0)  # ~60 s of driving
    base = default_car()
    constraints = BoxConstraints.vehicle_defaults()
    chain = OptimizationChain.default()
    names = chain.parameters
    p0 = dict(zip(names, constraints.midpoint(names)))
    truth = dict(p0)
    truth["k_tire"] = 300000.0

    front, rear = apply_parameters(base, base, truth)
    reference = simulate(scenario, front, geometry, dt=1e-3, rear_params=rear)
    assert reference.v_x.duration > 55.0

    residual_fn = simulation_residual(scenario, geometry, reference, base, base, dt=1e-3)
    result = run_chain(chain, p0, lambda values: residual_fn(values).vector, constraints, tol=1e-12, max_iter=60)
    assert result.completed, result.failure
    for name in names:
        rel = abs(result.params[name] - truth[name]) / abs(truth[name])
        assert rel < 0.02, (name, result.params[name], truth[name])
    assert result.objective < 1e-6
    for report in result.stage_reports:
        trace = report.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:])), report.stage
    elapsed = _elapsed_ok(t0, 600.0)
    print(PASS.format(8, f"five-stage chain recovers all parameters within 2% ({elapsed:.0f}s)"))


def test_criterion_09_end_to_end_discrimination(tmp_path):
    t0 = time.time()
    patch = (980.0, 1000.0)
    # Seeded construction: the patch sits at the track end so that the
    # quarter-car and weighting-filter settling tails cannot spill criticals
    # past it.  Seed 42 realizes a representative roughness draw.
    config = _write_analysis_config(
        tmp_path,
        seed=42,
        road={
            "length": 1000.0,
            "step": 0.1,
            "roughness_class": "A",
            "patch": {"start": patch[0], "length": patch[1] - patch[0], "roughness_class": "E"},
        },
        n=20,
        aggregator="max-abs-envelope",
    )
    summary = analyze(load_config(config), tmp_path / "out")
    assert summary["failures"] == []

    def check(windows, method):
        assert len(windows) >= 1, f"{method}: nothing flagged"
        for lo, hi in windows:
            assert hi > patch[0] and lo < patch[1], f"{method}: critical window ({lo}, {hi}) off the patch"

    report = summary["reports"]["threshold"][("z", "PT")]
    wl = report.window_length
    z_windows = [(k * wl, (k + 1) * wl) for k in np.flatnonzero(report.rows[0].critical_windows)]
    check(z_windows, "threshold z-PT")

    iso = summary["reports"]["iso"]
    iso_windows = [
        (iso.edges[k], iso.edges[k + 1])
        for k, label in enumerate(iso.labels)
        if iso2631.severity(label) >= iso2631.severity("LU")
    ]
    check(iso_windows, "iso >= LU")

    iri = summary["reports"]["iri"]
    iri_windows = [
        (iri.edges[k], iri.edges[k + 1])
        for k, label in enumerate(iri.labels)
        if iri_severity(label) >= iri_severity("F")
    ]
    check(iri_windows, "iri >= F")
    elapsed = _elapsed_ok(t0, 300.0)
    print(PASS.format(9, f"all three methods localize the rough patch ({elapsed:.1f}s)"))


def test_criterion_10_deterministic_bundles(tmp_path):
    t0 = time.time()
    config = _write_analysis_config(
        tmp_path,
        seed=11,
        road={"length": 500.0, "step": 0.1, "roughness_class": "C"},
        n=10,
    )
    cfg = load_config(config)
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    analyze(cfg, out_a)
    analyze(cfg, out_b)
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    elapsed = _elapsed_ok(t0, 120.0)
    print(PASS.format(10, f"byte-identical report bundles ({elapsed:.1f}s)"))
