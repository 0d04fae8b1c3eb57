import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ridekit.errors import InvalidInput
from ridekit.iri import (
    IRI_THRESHOLD_SPEEDS_KMH,
    IRI_THRESHOLDS,
    GOLDEN_CAR,
    RIDE_QUALITY_LABELS,
    classify_iri,
    compute_iri,
    iri_severity,
)
from ridekit.road import synth_profile
from ridekit.vehicle import corner_system


class TestGoldenCar:
    def test_reference_constants(self):
        # c, k1, k2 and mu of the index definition, per unit sprung mass
        assert GOLDEN_CAR.m_s == 1.0
        assert GOLDEN_CAR.c_s == 6.00
        assert GOLDEN_CAR.k_t == 653.00
        assert GOLDEN_CAR.k_s == 63.30
        assert GOLDEN_CAR.m_u == 0.15
        assert GOLDEN_CAR.d_t == 0.0

    def test_system_is_stable(self):
        eigenvalues = np.linalg.eigvals(corner_system(GOLDEN_CAR)[0])
        assert np.all(eigenvalues.real < 0)


class TestComputeIri:
    def test_flat_profile_zero(self):
        results = compute_iri(np.zeros(2001), 0.1, segment_length=50.0)
        assert len(results) == 4
        assert all(r.iri == 0.0 for r in results)

    def test_flat_offset_profile_zero(self):
        # equilibrium init absorbs the offset; only float rounding remains
        results = compute_iri(np.full(2001, 3.0), 0.1, segment_length=100.0)
        assert all(r.iri < 1e-9 for r in results)

    def test_linear_in_profile_scale(self):
        profile = synth_profile(300.0, 0.1, "C", 4)
        base = compute_iri(profile, 0.1, segment_length=100.0)
        scaled = compute_iri(2.5 * profile, 0.1, segment_length=100.0)
        for b, s in zip(base, scaled):
            assert s.iri == pytest.approx(2.5 * b.iri, rel=1e-9)

    def test_offset_invariance(self):
        profile = synth_profile(300.0, 0.1, "C", 4)
        base = compute_iri(profile, 0.1, segment_length=100.0)
        shifted = compute_iri(profile + 5.0, 0.1, segment_length=100.0)
        for b, s in zip(base, shifted):
            assert abs(s.iri - b.iri) < 1e-9

    def test_sinusoid_matches_refined_integration(self):
        # 100 m of 5 mm amplitude, 2 m wavelength, standard speed
        s = 0.05 * np.arange(2001)
        profile = 0.005 * np.sin(2 * np.pi * s / 2.0)
        coarse = compute_iri(profile, 0.05, segment_length=100.0)[0]
        fine = compute_iri(
            np.interp(0.005 * np.arange(20001), s, profile), 0.005, segment_length=100.0
        )[0]
        assert coarse.iri == pytest.approx(fine.iri, rel=5e-3)

    def test_segmentation(self):
        profile = synth_profile(500.0, 0.1, "B", 12)
        results = compute_iri(profile, 0.1, segment_length=100.0)
        assert len(results) == 4  # 499.9 m -> 4 complete segments
        assert [r.s_start for r in results] == [0.0, 100.0, 200.0, 300.0]
        assert all(r.segment_length == pytest.approx(100.0) for r in results)

    def test_step_precondition(self):
        with pytest.raises(InvalidInput):
            compute_iri(np.zeros(100), 0.5, segment_length=10.0)

    def test_short_profile_rejected(self):
        with pytest.raises(InvalidInput):
            compute_iri(np.zeros(50), 0.1, segment_length=100.0)

    def test_non_finite_rejected(self):
        profile = np.zeros(2001)
        profile[3] = np.nan
        with pytest.raises(InvalidInput):
            compute_iri(profile, 0.1, segment_length=50.0)


def iri_exact(profile, step, speed, segment_length):
    """Per-segment IRI of the golden car by exact first-order-hold discretisation.

    For an elevation that is linear between samples,
    ``x[k+1] = Phi x[k] + E1 u[k] + E2 (u[k+1] - u[k]) / dt`` holds exactly,
    with the blocks of one matrix exponential.  The start state and the
    trapezoidal accumulation are those of the index definition.
    """
    a, b = corner_system(GOLDEN_CAR)
    dt = step / speed
    block = np.zeros((6, 6))
    block[:4, :4] = a
    block[:4, 4] = b[:, 0]
    block[4, 5] = 1.0
    e = expm(block * dt)
    phi, e1, e2 = e[:4, :4], e[:4, 4], e[:4, 5]
    u = np.asarray(profile, dtype=float)
    drive = np.outer(u[:-1], e1) + np.outer((u[1:] - u[:-1]) / dt, e2)
    i_ramp = min(max(int(round(11.0 / step)), 1), len(u) - 1)
    slope = (u[i_ramp] - u[0]) / (i_ramp * step)
    x = np.array([u[0], slope * speed, u[0], slope * speed])
    rate = np.empty(len(u))
    rate[0] = abs(x[1] - x[3])
    for k in range(len(u) - 1):
        x = phi @ x + drive[k]
        rate[k + 1] = abs(x[1] - x[3])
    per = int(round(segment_length / step))
    n_segments = (len(u) - 1) // per
    return np.array(
        [1000.0 * np.trapezoid(rate[k * per : (k + 1) * per + 1], dx=dt) / (per * step) for k in range(n_segments)]
    )


def random_profile(seed, step, kind):
    """60 m of road: a synthetic roughness class, or a random walk."""
    if kind == "walk":
        return np.cumsum(np.random.default_rng(seed).normal(0.0, 1e-3, int(60.0 / step)))
    return synth_profile(60.0, step, kind, seed)


profiles = st.tuples(
    st.integers(0, 2**32 - 1), st.floats(0.01, 0.25), st.sampled_from(["A", "C", "E", "walk"])
)
speeds_kmh = st.floats(20.0, 130.0)


def iri_values(profile, step, speed_kmh):
    return np.array([r.iri for r in compute_iri(profile, step, speed_kmh / 3.6, segment_length=20.0)])


class TestIriProperties:
    @settings(max_examples=40, deadline=None)
    @given(profile=profiles, speed_kmh=speeds_kmh)
    def test_matches_exact_discretisation(self, profile, speed_kmh):
        seed, step, kind = profile
        values = random_profile(seed, step, kind)
        exact = iri_exact(values, step, speed_kmh / 3.6, 20.0)
        got = iri_values(values, step, speed_kmh)
        assert np.all(np.abs(got - exact) <= 5e-4 * (np.abs(exact) + 1e-3))

    @settings(max_examples=25, deadline=None)
    @given(profile=profiles, speed_kmh=speeds_kmh, offset=st.floats(-100.0, 100.0))
    def test_invariant_to_profile_offset(self, profile, speed_kmh, offset):
        seed, step, kind = profile
        values = random_profile(seed, step, kind)
        base = iri_values(values, step, speed_kmh)
        shifted = iri_values(values + offset, step, speed_kmh)
        assert np.all(np.abs(shifted - base) <= 1e-9 * (1.0 + abs(offset)))

    @settings(max_examples=25, deadline=None)
    @given(profile=profiles, speed_kmh=speeds_kmh, scale=st.floats(0.01, 100.0))
    def test_linear_in_profile_amplitude(self, profile, speed_kmh, scale):
        seed, step, kind = profile
        values = random_profile(seed, step, kind)
        base = iri_values(values, step, speed_kmh)
        scaled = iri_values(scale * values, step, speed_kmh)
        assert np.allclose(scaled, scale * base, rtol=1e-9, atol=0.0)


class TestClassifyIri:
    @pytest.mark.parametrize(
        "iri,speed,label",
        [
            (1.0, 80, "VG"),
            (3.0, 80, "M"),
            (10.0, 20, "F"),
            (12.0, 20, "M"),
            (5.0, 80, "P"),
        ],
    )
    def test_reference_points(self, iri, speed, label):
        assert classify_iri(iri, speed) == label

    def test_all_table_cells_on_interior_probes(self):
        eps = 1e-6
        for speed in IRI_THRESHOLD_SPEEDS_KMH:
            bounds = IRI_THRESHOLDS[speed]
            cells = [
                ("VG", None, bounds[0]),
                ("G", bounds[0], bounds[1]),
                ("F", bounds[1], bounds[2]),
                ("M", bounds[2], bounds[3]),
                ("P", bounds[3], None),
            ]
            for label, lower, upper in cells:
                if lower is not None:
                    assert classify_iri(lower + eps, speed) == label, (speed, label, "lower")
                if upper is not None:
                    assert classify_iri(upper - eps, speed) == label, (speed, label, "upper")

    def test_boundary_goes_to_less_severe_band(self):
        assert classify_iri(1.43, 80) == "VG"
        assert classify_iri(2.24, 80) == "G"
        assert classify_iri(4.05, 80) == "M"

    def test_nearest_column_with_tie_to_lower_speed(self):
        # 90 km/h ties between 80 and 100 -> 80 column applies
        assert classify_iri(1.3, 90) == "VG"   # 1.3 < 1.43 (80 col); would be G in the 100 col
        assert classify_iri(1.2, 110) == "G"   # nearest 100 (wins over 120): 1.2 >= 1.14

    def test_monotone_in_iri(self):
        ranks = [iri_severity(classify_iri(v, 80)) for v in np.linspace(0.0, 8.0, 300)]
        assert np.all(np.diff(ranks) >= 0)

    def test_severity_never_increases_when_slowing_down(self):
        for iri in (0.5, 1.5, 2.5, 4.0, 7.0, 12.0):
            ranks = [iri_severity(classify_iri(iri, v)) for v in (120, 100, 80, 70, 60, 50, 40, 30, 20, 10)]
            assert np.all(np.diff(ranks) <= 0), iri

    def test_speed_domain(self):
        with pytest.raises(InvalidInput):
            classify_iri(1.0, 0.0)
        with pytest.raises(InvalidInput):
            classify_iri(1.0, 150.0)

    def test_labels(self):
        assert RIDE_QUALITY_LABELS == ("VG", "G", "F", "M", "P")

