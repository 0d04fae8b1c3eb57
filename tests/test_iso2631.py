import math
from dataclasses import fields

import numpy as np
import pytest

from ridekit.errors import FilterDesignError, InvalidInput
from ridekit.iso2631 import (
    COMFORT_LABELS,
    FilterSpec,
    available_weightings,
    classify_iso,
    combine,
    design_filter,
    load_weighting,
    severity,
    weight_signal,
)
from ridekit.signals import TimeSeries

SQ2 = math.sqrt(2.0)


def analog_magnitude(spec: FilterSpec, freq: np.ndarray) -> np.ndarray:
    """Independent continuous-domain evaluation of the four stage equations."""
    p = 1j * 2 * np.pi * np.asarray(freq, dtype=float)
    out = np.ones_like(p)
    if spec.f1 is not None:
        w1 = 2 * np.pi * spec.f1
        out = out * 1.0 / (1.0 + SQ2 * w1 / p + (w1 / p) ** 2)
    if spec.f2 is not None:
        w2 = 2 * np.pi * spec.f2
        out = out * 1.0 / (1.0 + SQ2 * p / w2 + (p / w2) ** 2)
    if spec.f4 is not None:
        w4 = 2 * np.pi * spec.f4
        num = 1.0 if spec.f3 is None else 1.0 + p / (2 * np.pi * spec.f3)
        out = out * num / (1.0 + p / (spec.q4 * w4) + (p / w4) ** 2)
    if spec.f5 is not None:
        w5, w6 = 2 * np.pi * spec.f5, 2 * np.pi * spec.f6
        num = 1.0 + p / (spec.q5 * w5) + (p / w5) ** 2
        den = 1.0 + p / (spec.q6 * w6) + (p / w6) ** 2
        out = out * (num / den) * (w5 * w5) / (w6 * w6)
    return np.abs(out)


def digital_magnitude(sos: np.ndarray, fs: float, freq: np.ndarray) -> np.ndarray:
    z = np.exp(1j * 2 * np.pi * np.asarray(freq, dtype=float) / fs)
    out = np.ones_like(z)
    for row in sos:
        b, a = row[:3], row[3:]
        out = out * (b[0] + b[1] / z + b[2] / z**2) / (a[0] + a[1] / z + a[2] / z**2)
    return np.abs(out)


def sine(freq: float, fs: float, cycles: float, amplitude: float = 1.0) -> TimeSeries:
    n = int(round(cycles * fs / freq))
    t = np.arange(n) / fs
    return TimeSeries(0.0, 1.0 / fs, amplitude * np.sin(2 * np.pi * freq * t))


class TestDesign:
    def test_all_stages_disabled_is_unity(self):
        spec = FilterSpec(weighting_id="unity")
        sos = design_filter(spec, 100.0)
        rng = np.random.default_rng(0)
        x = TimeSeries(0.0, 0.01, rng.normal(size=256))
        out = weight_signal(x, spec)
        assert np.allclose(out.a_w.values, x.values)
        assert sos.shape == (1, 6)

    @pytest.mark.parametrize("wid", ["k", "d"])
    @pytest.mark.parametrize("fs", [200.0, 500.0, 1000.0])
    def test_magnitude_matches_analog_below_fs_over_20(self, wid, fs):
        spec = load_weighting(wid)
        sos = design_filter(spec, fs)
        freqs = np.logspace(np.log10(0.2), np.log10(fs / 20.0), 40)
        analog = analog_magnitude(spec, freqs)
        digital = digital_magnitude(sos, fs, freqs)
        assert np.max(np.abs(digital - analog) / analog) < 0.01

    def test_vertical_weighting_is_band_pass(self):
        spec = load_weighting("k")
        fs = 200.0
        sos = design_filter(spec, fs)
        low = digital_magnitude(sos, fs, np.array([0.02]))[0]
        mid = digital_magnitude(sos, fs, np.array([5.0]))[0]
        high = digital_magnitude(sos, fs, np.array([0.45 * fs]))[0]
        assert low < mid and high < mid

    def test_sample_rate_too_low_names_stage(self):
        spec = load_weighting("k")  # low-pass corner at 100 Hz
        with pytest.raises(FilterDesignError, match="low-pass"):
            design_filter(spec, 150.0)

    def test_all_shipped_weightings_design(self):
        for wid in available_weightings():
            sos = design_filter(load_weighting(wid), 1000.0)
            assert sos.shape[1] == 6

    @pytest.mark.parametrize(
        "corners",
        [{"f4": 2.0}, {"f3": 2.0}, {"f5": 2.37, "q5": 0.91, "f6": 3.35}, {"f1": 0.0}, {"f4": 2.0, "q4": float("nan")}],
        ids=["transition_without_q4", "f3_alone", "step_without_q6", "zero_corner", "nan_q4"],
    )
    def test_partly_given_stage_rejected(self, corners):
        with pytest.raises(InvalidInput, match="stage"):
            FilterSpec("t", **corners)

    def test_stages_follow_given_corners(self):
        k = design_filter(load_weighting("k"), 1000.0)
        assert k.shape == (4, 6)
        assert design_filter(load_weighting("j"), 1000.0).shape == (3, 6)  # no step corners
        only_high = design_filter(FilterSpec("h", f1=0.4), 1000.0)
        only_step = design_filter(FilterSpec("s", f5=2.37, q5=0.91, f6=3.35, q6=0.91), 1000.0)
        assert np.array_equal(only_high, k[:1]) and np.array_equal(only_step, k[3:])

    def test_unknown_weighting(self):
        with pytest.raises(InvalidInput):
            load_weighting("zz")

    def test_designed_once_per_value(self):
        spec = load_weighting("k")
        sos = design_filter(spec, 1000.0)
        twin = FilterSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
        assert twin is not spec and design_filter(twin, 1000.0) is sos
        assert design_filter(spec, 500.0) is not sos
        assert design_filter(load_weighting("d"), 1000.0) is not sos
        assert not sos.flags.writeable
        with pytest.raises(ValueError):
            sos[0, 0] = 2.0


class TestWeightSignal:
    def test_zero_signal(self):
        out = weight_signal(TimeSeries(0.0, 0.005, np.zeros(400)), load_weighting("k"))
        assert out.a_w_rms == 0.0
        assert np.all(out.a_w.values == 0.0)

    def test_sine_rms_identity_unity_filter(self):
        spec = FilterSpec(weighting_id="unity")
        signal = sine(2.0, 200.0, cycles=100, amplitude=3.0)
        out = weight_signal(signal, spec)
        assert out.a_w_rms == pytest.approx(3.0 / SQ2, rel=0.01)

    def test_sine_through_filter_scales_by_magnitude(self):
        spec = load_weighting("k")
        fs = 200.0
        freq = 4.0
        signal = sine(freq, fs, cycles=200, amplitude=1.5)
        out = weight_signal(signal, spec)
        # steady-state portion: drop the first quarter (filter settling)
        steady = out.a_w.values[len(out.a_w) // 4 :]
        measured = float(np.sqrt(np.mean(steady**2)))
        predicted = digital_magnitude(design_filter(spec, fs), fs, np.array([freq]))[0] * 1.5 / SQ2
        assert measured == pytest.approx(predicted, rel=0.02)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        spec = load_weighting("d")
        base = TimeSeries(0.0, 0.005, rng.normal(size=1000))
        scaled = TimeSeries(0.0, 0.005, 2.5 * base.values)
        a = weight_signal(base, spec).a_w.values
        b = weight_signal(scaled, spec).a_w.values
        assert np.max(np.abs(b - 2.5 * a)) < 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_short_signal_rejected(self):
        with pytest.raises(InvalidInput):
            weight_signal(TimeSeries(0.0, 0.005, np.zeros(100)), load_weighting("k"))

    def test_broadband_matches_frequency_domain_reconstruction(self):
        # independent route: FFT -> multiply by the analog response -> inverse FFT
        fs = 200.0
        n = int(16.0 * fs)
        rng = np.random.default_rng(8)
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        band = (freqs >= 0.5) & (freqs <= 8.0)
        spectrum[band] = np.exp(1j * rng.uniform(0, 2 * np.pi, band.sum()))
        x = np.fft.irfft(spectrum, n=n)
        x *= 1.0 / x.std()

        spec = load_weighting("k")
        discrete = weight_signal(TimeSeries(0.0, 1.0 / fs, x), spec).a_w.values

        w1 = 2 * np.pi * spec.f1

        def analog_complex(f):
            p = 1j * 2 * np.pi * f
            with np.errstate(divide="ignore", invalid="ignore"):
                hh = np.where(f > 0, 1.0 / (1.0 + SQ2 * w1 / p + (w1 / p) ** 2), 0.0)
            w2 = 2 * np.pi * spec.f2
            hl = 1.0 / (1.0 + SQ2 * p / w2 + (p / w2) ** 2)
            w4 = 2 * np.pi * spec.f4
            ht = (1.0 + p / (2 * np.pi * spec.f3)) / (1.0 + p / (spec.q4 * w4) + (p / w4) ** 2)
            w5, w6 = 2 * np.pi * spec.f5, 2 * np.pi * spec.f6
            hs = ((1.0 + p / (spec.q5 * w5) + (p / w5) ** 2) / (1.0 + p / (spec.q6 * w6) + (p / w6) ** 2)) * (w5 / w6) ** 2
            return hh * hl * ht * hs

        reconstructed = np.fft.irfft(np.fft.rfft(x) * analog_complex(freqs), n=n)
        settle = int(4.0 * fs)
        err = discrete[settle:] - reconstructed[settle:]
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(reconstructed[settle:] ** 2))
        assert rel < 0.02


class TestCombine:
    def test_zero(self):
        assert combine({"x": 0.0, "y": 0.0, "z": 0.0}) == 0.0

    def test_pythagorean(self):
        assert combine({"x": 9.0, "y": 16.0, "z": 0.0}) == pytest.approx(5.0)

    def test_monotone_and_symmetric(self):
        assert combine({"x": 1.0, "y": 4.0, "z": 9.0}) == pytest.approx(combine({"x": 9.0, "y": 4.0, "z": 1.0}))
        assert combine({"x": 1.0, "y": 4.0, "z": 9.61}) > combine({"x": 1.0, "y": 4.0, "z": 9.0})

    def test_direction_factors_scale_their_axis(self):
        assert combine({"x": 1.0, "z": 4.0}, (1.4, 1.4, 0.5)) == pytest.approx(math.sqrt(1.96 + 1.0))
        assert combine({"y": 4.0}, (1.0, 0.0, 1.0)) == 0.0

    def test_per_window_arrays_match_scalars(self):
        ms = {"x": np.array([0.1, 0.0, 2.0]), "y": np.array([0.3, 0.2, 0.0]), "z": np.array([1.0, 0.5, 0.7])}
        k = (1.4, 1.4, 1.0)
        windows = combine(ms, k)
        for w in range(3):
            assert windows[w] == combine({axis: float(v[w]) for axis, v in ms.items()}, k)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            combine({"x": -1.0, "y": 0.0, "z": 0.0})

    @pytest.mark.parametrize("bad", [float("nan"), np.array([0.5, -1e-3])], ids=["nan", "negative_window"])
    def test_nan_or_negative_window_rejected(self, bad):
        with pytest.raises(InvalidInput):
            combine({"x": bad, "y": 0.0, "z": 0.0})


class TestClassify:
    @pytest.mark.parametrize(
        "a_v,label",
        [(0.2, "NU"), (0.7, "FU"), (3.0, "EU")],
    )
    def test_reference_points(self, a_v, label):
        assert classify_iso(a_v).label == label

    @pytest.mark.parametrize(
        "a_v,label",
        [
            (0.314, "NU"), (0.315, "LU"),       # first band edge
            (0.50, "FU"), (0.63, "FU"),         # overlap region resolves to FU
            (0.80, "U"), (1.0, "U"),            # gap region covered by U
            (1.25, "VU"), (2.0, "EU"), (2.5, "EU"),
        ],
    )
    def test_band_edges_most_severe_rule(self, a_v, label):
        assert classify_iso(a_v).label == label

    def test_monotone_in_a_v(self):
        values = np.linspace(0.0, 3.0, 400)
        ranks = [severity(classify_iso(v).label) for v in values]
        assert np.all(np.diff(ranks) >= 0)

    def test_perception_flag(self):
        assert classify_iso(0.005).perception == "below"
        assert classify_iso(0.015).perception == "transition"
        assert classify_iso(0.05).perception == "above"

    def test_labels_cover_expected_set(self):
        assert COMFORT_LABELS == ("NU", "LU", "FU", "U", "VU", "EU")

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            classify_iso(-0.1)

    def test_nan_rejected(self):
        # NaN fails every lower-bound comparison, so unchecked it would read NU
        with pytest.raises(InvalidInput):
            classify_iso(float("nan"))
