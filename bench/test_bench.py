"""Quick tests of the benchmark: every workload at toy size, and every check
rejecting a deliberately perturbed output.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _toy(name, tmp_path_factory, seed=7):
    wl = workloads.WORKLOADS[name](toy=True)
    run = tmp_path_factory.mktemp(name)
    wl.prepare(seed, run)
    ops = wl.operations(run, wl.load(run))
    return run, ops, [op.call() for op in ops]


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    return {name: _toy(name, tmp_path_factory) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_workload_passes_its_checks(toy_runs, name):
    _, ops, results = toy_runs[name]
    for op, result in zip(ops, results):
        assert op.check(result) == []


def _edit(path: Path, transform):
    """Apply a text transform to a file; returns a function restoring it."""
    original = path.read_bytes()
    path.write_text(transform(original.decode("utf-8")), encoding="utf-8")
    return lambda: path.write_bytes(original)


def _replace_cell(row: int, col: int, new):
    def transform(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = new(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return transform


def _rejects(toy_runs, name, index, path, transform, expected):
    run, ops, results = toy_runs[name]
    restore = _edit(run / "out" / path, transform)
    try:
        errors = ops[index].check(results[index])
    finally:
        restore()
    assert any(expected in e for e in errors), errors


@pytest.mark.parametrize(
    "path, transform, expected",
    [
        ("comparison.txt", lambda t: t + " ", "SHA-256 of comparison.txt"),
        ("threshold_report.csv", _replace_cell(7, 2, lambda c: str(int(c) + 1)), "threshold z/PT"),
        ("iso_windows.csv", _replace_cell(1, 2, lambda c: "EU" if c != "EU" else "NU"), "iso window"),
        ("iri_windows.csv", _replace_cell(3, 1, lambda c: f"{float(c) * 1.01:.6e}"), "exact discretisation"),
        ("iri_windows.csv", _replace_cell(3, 3, lambda c: "P" if c != "P" else "VG"), "iri window"),
        ("iso_report.csv", _replace_cell(1, 3, lambda c: str(int(c) + 1)), "C + N"),
        ("failures.csv", lambda t: t + "0,off-road risk\n", "runs failed"),
    ],
)
def test_analysis_checks_reject_perturbed_bundle(toy_runs, path, transform, expected):
    _rejects(toy_runs, "analyze", 0, path, transform, expected)


def test_analysis_check_rejects_broken_band_nesting(toy_runs):
    run, ops, results = toy_runs["analyze"]
    summary = results[0]
    report = summary["reports"]["threshold"][("z", "AG")]
    flags = report.rows[0].critical_windows
    saved = flags.copy()
    flags[:] = True
    try:
        errors = ops[0].check(summary)
    finally:
        flags[:] = saved
    assert any("nesting" in e for e in errors), errors


@pytest.mark.parametrize("index, key", [(0, "planted"), (1, "edge_planted")])
def test_site_checks_reject_wrong_cleaning_count(toy_runs, index, key):
    run, ops, results = toy_runs["site"]
    expect_path = run / "expect.json"
    expect = json.loads(expect_path.read_text())
    wl = workloads.Site(toy=True)
    expect[key] = expect[key][1:]
    restore = _edit(expect_path, lambda _: json.dumps(expect))
    try:
        check = wl.operations(run, wl.load(run))[index].check
    finally:
        restore()
    assert any("cleaning of" in e for e in check(results[index]))


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda r: r["final_params"].update(k_tire=r["final_params"]["k_tire"] * 1.03), "k_tire"),
        (lambda r: r.update(objective=2e-6), "final objective"),
        (lambda r: r["stages"][0]["objective_trace"].append(1.0), "objective trace increases"),
    ],
)
def test_calibration_checks_reject_perturbed_report(toy_runs, mutate, expected):
    def transform(text):
        report = json.loads(text)
        mutate(report)
        return json.dumps(report)

    _rejects(toy_runs, "calibrate", 0, "calibration_report.json", transform, expected)


@pytest.mark.parametrize(
    "index, path, transform, expected",
    [
        (0, "rough.csv", _replace_cell(2, 1, lambda c: f"{float(c) * 1.01:.6f}"), "exact discretisation"),
        (0, "rough.csv", _replace_cell(2, 2, lambda c: "P" if c != "P" else "VG"), "labelled"),
        (1, "sine.csv", _replace_cell(4, 1, lambda c: f"{float(c) * 1.01:.6f}"), "frequency response"),
        (2, "iso.csv", _replace_cell(1, 2, lambda c: f"{float(c) * 1.03:.6e}"), "analog weighting"),
        (2, "iso.csv", _replace_cell(1, 4, lambda c: "EU" if c != "EU" else "NU"), "labelled"),
        (3, "thresholds.csv", _replace_cell(1, 2, lambda c: str(int(c) + 1)), "direct count"),
        (3, "thresholds.csv", _replace_cell(1, 4, lambda c: str(int(c) + 1)), "C + N"),
    ],
)
def test_classify_checks_reject_perturbed_output(toy_runs, index, path, transform, expected):
    _rejects(toy_runs, "classify", index, path, transform, expected)


def test_traced_run_counts_layers_at_their_call_sites(tmp_path_factory):
    from ridekit import road, vehicle

    original = (road.SurfaceInterpolator, vehicle.wheel_track_profile)
    wl = workloads.Analyze(toy=True)
    run = tmp_path_factory.mktemp("traced")
    wl.prepare(3, run)
    ops = wl.operations(run, wl.load(run))
    tracer = tracing.Tracer()
    with tracer.installed():
        ops[0].call()
    assert (road.SurfaceInterpolator, vehicle.wheel_track_profile) == original
    layers = tracing.round_layers(tracer.spans, 0, len(tracer.spans))
    # two runs of two or four corners each, plus the IRI track; each of the
    # three profile extractions builds a surface unless one is reused
    assert layers["vehicle.simulate_calls"] == 2
    assert 1 <= layers["road.surface_builds"] <= 5
    assert layers["integrators.rk4_calls"] in (2 * 2 + 1, 2 * 4 + 1)
    assert layers["sections.windows"] == 9 * 20 + 2 * 20
    assert 0 < layers["pipeline.self_s"] < sum(e - s for _, s, e, p, _ in tracer.spans if p is None)


def test_reference_weighting_matches_published_table():
    # ISO 2631-1 Table 3 (Wk) and Table 4 (Wd), factors x 1000
    for f, wk, wd in ((0.5, 418, 853), (1.0, 482, 1011), (4.0, 967, 512), (8.0, 1036, 253), (16.0, 768, 125)):
        assert ref.weighting_magnitude("k", f) == pytest.approx(wk / 1000, abs=2e-3)
        assert ref.weighting_magnitude("d", f) == pytest.approx(wd / 1000, abs=2e-3)


def test_reference_iri_exact_matches_frequency_response():
    step, speed, wavelength, amplitude = 0.1, 80 / 3.6, 10.0, 2e-3
    s = step * np.arange(4001)
    values = ref.iri_exact(amplitude * np.sin(2 * np.pi * s / wavelength), step, speed, 50.0)
    assert values[3:] == pytest.approx(ref.iri_of_sine(amplitude, wavelength, speed), rel=2e-3)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
