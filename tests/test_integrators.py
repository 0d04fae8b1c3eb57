from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridekit.calibration import CALIBRATION_PARAMETERS, apply_parameters
from ridekit.errors import NumericFailure
from ridekit.integrators import (
    _BLOCK_ROWS,
    _CHUNK_STEPS,
    _blocked_matmul,
    _discretised,
    half_grid_input,
    rk4_lti,
    rk4_lti_loop,
)
from ridekit.iri import GOLDEN_CAR
from ridekit.vehicle import MAX_DT, corner_system, default_car


def random_stable_system(rng, n=4, m=2):
    a = rng.normal(size=(n, n))
    a = a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)
    b = rng.normal(size=(n, m))
    return a, b


def rk4_lti_whole(A, B, u_half, dt, x0):
    """The real-Schur path as one banded solve over the whole call, without
    its error checks; the reference for ``rk4_lti``'s chunks."""
    from scipy.linalg import lapack, schur

    A, B, u, x0 = (np.asarray(v, dtype=float) for v in (A, B, u_half, x0))
    n_steps = (u.shape[0] - 1) // 2
    T, Q = schur(A)
    n = len(T)
    M = dt * T
    I = np.eye(n)
    phi = I + M @ (I + M @ (I / 2 + M @ (I / 6 + M / 24)))
    qb = Q.T @ B
    g0 = dt * (I / 6 + M @ (I / 6 + M @ (I / 12 + M / 24))) @ qb
    gm = dt * (2 * I / 3 + M @ (I / 3 + M / 12)) @ qb
    g1 = dt / 6 * qb
    qt = np.ascontiguousarray(Q.T)
    z = np.empty((n_steps + 1, n))
    z[0] = qt @ x0
    z[1:] = _blocked_matmul(u[0:-2:2], np.ascontiguousarray(g0.T))
    z[1:] += _blocked_matmul(u[1:-1:2], np.ascontiguousarray(gm.T))
    z[1:] += _blocked_matmul(u[2::2], np.ascontiguousarray(g1.T))
    # z[k + 1, i] - sum_j phi[i, j] z[k, j] = w[k, i], at z[k, j]'s column
    band = np.zeros((n + 2, n * (n_steps + 1)), order="F")
    for i in range(n):
        for j in range(max(i - 1, 0), n):
            band[n - j + i, j::n] = -phi[i, j]
    y, _ = lapack.dtbtrs(band, z.reshape(-1, 1), uplo="L", diag="U")
    states = _blocked_matmul(y.reshape(-1, n), qt)
    states[0] = x0
    return states


def schur_blocks(a):
    """The number of 2x2 blocks (complex eigenvalue pairs) in ``a``'s real Schur form."""
    from scipy.linalg import schur

    return int(np.count_nonzero(np.diag(schur(a)[0], -1)))


class TestHalfGrid:
    def test_interleaves_midpoints(self):
        u = np.array([0.0, 2.0, 6.0])
        out = half_grid_input(u)
        assert np.allclose(out, [0.0, 1.0, 2.0, 4.0, 6.0])

    def test_vector_input(self):
        u = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = half_grid_input(u)
        assert out.shape == (3, 2)
        assert np.allclose(out[1], [1.0, 2.0])


class TestRk4Lti:
    def test_matches_literal_loop(self):
        rng = np.random.default_rng(4)
        a, b = random_stable_system(rng)
        u = rng.normal(size=(2 * 200 + 1, 2))
        x0 = rng.normal(size=4)
        fast = rk4_lti(a, b, u, 0.01, x0)
        slow = rk4_lti_loop(a, b, u, 0.01, x0)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_matches_literal_loop_across_row_blocks(self):
        # three full row blocks of the long products and a partial one
        rng = np.random.default_rng(5)
        a, b = corner_system(default_car())
        n_steps = 3 * _BLOCK_ROWS + 100
        u = rng.normal(0.0, 0.01, (2 * n_steps + 1, 2))
        x0 = rng.normal(0.0, 0.01, 4)
        fast = rk4_lti(a, b, u, 1e-3, x0)
        slow = rk4_lti_loop(a, b, u, 1e-3, x0)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_scalar_input_system(self):
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        u = np.ones((2 * 50 + 1, 1))
        out = rk4_lti(a, b, u, 0.05, np.zeros(1))
        # x' = -x + 1 from 0 -> approaches 1
        assert out[-1, 0] == pytest.approx(1.0 - np.exp(-2.5), rel=1e-6)

    def test_rejects_even_sample_count(self):
        a, b = random_stable_system(np.random.default_rng(0))
        with pytest.raises(NumericFailure):
            rk4_lti(a, b, np.zeros((10, 2)), 0.01, np.zeros(4))

    def test_divergence_detected(self):
        a = np.array([[5000.0]])  # unstable at this step: |1 + z + ...| > 1
        b = np.array([[0.0]])
        u = np.zeros((2 * 4000 + 1, 1))
        with pytest.raises(NumericFailure):
            rk4_lti(a, b, u, 0.01, np.array([1.0]))

    def test_failed_modal_solve_raises(self, monkeypatch):
        monkeypatch.setattr("scipy.linalg.lapack.dtbtrs", lambda ab, b, **kwargs: (b, -2))
        a, b = random_stable_system(np.random.default_rng(2))
        with pytest.raises(NumericFailure, match="LAPACK info -2"):
            rk4_lti(a, b, np.zeros((2 * 10 + 1, 2)), 0.01, np.zeros(4))

    def test_zero_steps_returns_initial(self):
        a, b = random_stable_system(np.random.default_rng(1))
        out = rk4_lti(a, b, np.zeros((1, 2)), 0.01, np.arange(4.0))
        assert out.shape == (1, 4)
        assert np.array_equal(out[0], np.arange(4.0))


B = _BLOCK_ROWS
C = _CHUNK_STEPS


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from([0, 1, 2, B - 1, B, B + 1, B + 2, 3 * B + 5]),
    shape=st.sampled_from(["(r,2)@(2,8)", "(r,8)@(8,8)", "(r,4)@(4,)"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_product_is_bit_identical_to_matmul(rows, shape, seed):
    """The row-blocked product equals ``@`` bit for bit, block edges included,
    for the input products (on every other row, as there) and back-transform
    of the whole-call reference above and the ``a_z`` product of a corner."""
    rng = np.random.default_rng(seed)
    if shape == "(r,2)@(2,8)":
        a, b = rng.normal(size=(2 * rows + 1, 2))[0:-2:2], rng.normal(size=(2, 8))
    elif shape == "(r,8)@(8,8)":
        a, b = rng.normal(size=(rows, 8)), rng.normal(size=(8, 8))
    else:
        a, b = rng.normal(size=(rows, 4)), rng.normal(size=4)
    assert np.array_equal(_blocked_matmul(a, b), a @ b)


calibration_values = st.fixed_dictionaries(
    {name: st.floats(lo, hi) for name, (lo, hi) in CALIBRATION_PARAMETERS.items()}
)


@settings(max_examples=60, deadline=None)
@given(
    values=calibration_values,
    rear=st.booleans(),
    dt=st.floats(0.0, MAX_DT, exclude_min=True),
    n_steps=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
# A sub-millisecond step: the propagator is close to the identity, and
# diagonalising it directly is 2.5e-12 of the peak off the loop here.
@example(
    values={"k_s_front": 25549.7, "k_s_rear": 19914.5, "mu_tire": 0.8, "k_tire": 280234.4, "d_tire": 6447.0},
    rear=False,
    dt=8.2e-05,
    n_steps=399,
    seed=3943800560,
)
def test_modal_path_matches_literal_loop_on_corners(values, rear, dt, n_steps, seed):
    """The modal path is within 1e-12 of the loop's peak on a drawn corner and
    on the IRI golden car, which runs sub-millisecond steps on fine profiles."""
    front_params, rear_params = apply_parameters(default_car(), default_car(), values)
    golden_a, golden_b = corner_system(GOLDEN_CAR)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.01, (2 * n_steps + 1, 2))
    x0 = rng.normal(0.0, 0.01, 4)
    systems = [
        (*corner_system(rear_params if rear else front_params), u),
        (golden_a, golden_b[:, :1], u[:, :1]),
    ]
    for a, b, inputs in systems:
        fast = rk4_lti(a, b, inputs, dt, x0)
        slow = rk4_lti_loop(a, b, inputs, dt, x0)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def real_eigenvalue_system():
    """A 4-state system with distinct real eigenvalues in a random orthogonal basis."""
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    t = np.triu(rng.normal(0.0, 50.0, (4, 4)), 1) - np.diag([180.0, 60.0, 12.0, 2.5])
    return q @ t @ q.T, rng.normal(size=(4, 2))


def sensitivity_system():
    """The default corner augmented with its scaled sensitivity to ``k_s``,
    ``[x; k_s dx/dk_s]``: 8 states, each eigenvalue twice."""
    car = default_car()
    a, b = corner_system(car)
    a_up, b_up = corner_system(replace(car, k_s=2 * car.k_s))  # A and B are linear in k_s
    zero = np.zeros((4, 4))
    return np.block([[a, zero], [a_up - a, a]]), np.vstack([b, b_up - b])


@pytest.mark.parametrize("dt", [1e-3, 2.5e-4, 8.2e-5])
@pytest.mark.parametrize(
    "system, blocks",
    [
        (lambda: corner_system(GOLDEN_CAR), 2),
        (lambda: corner_system(default_car()), 1),
        (real_eigenvalue_system, 0),
        (sensitivity_system, None),
    ],
    ids=["two_2x2_blocks", "one_2x2_block", "real_eigenvalues", "eight_states"],
)
def test_real_schur_forms_match_literal_loop(system, blocks, dt):
    """The real-Schur path is within 1e-12 of the loop's peak whether the
    quasi-triangular form has two, one or no 2x2 blocks, and on an 8-state
    sensitivity system, over two chunks and a half."""
    a, b = system()
    if blocks is not None:
        assert schur_blocks(a) == blocks
    n_steps = 2 * C + C // 2
    rng = np.random.default_rng(7)
    u = rng.normal(0.0, 0.01, (2 * n_steps + 1, b.shape[1]))
    x0 = rng.normal(0.0, 0.01, a.shape[0])
    fast = rk4_lti(a, b, u, dt, x0)
    slow = rk4_lti_loop(a, b, u, dt, x0)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@settings(max_examples=30, deadline=None)
@given(
    n_steps=st.sampled_from([1, 2, 1000, C, C + 1, C + 2, 2 * C - 1, 2 * C, 2 * C + 1, 3 * C, 3 * C + 1, 5 * C + 7]),
    car=st.one_of(st.none(), calibration_values),
    rear=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_path_is_bit_identical_to_one_solve(n_steps, car, rear, seed):
    """Chunks of ``_CHUNK_STEPS`` steps give the states of one solve over the
    whole call bit for bit: on one, two, three and six chunks, at the chunk
    edges (a last chunk one step longer among them), and on a random stable
    system of 1 to 8 states or a drawn corner."""
    rng = np.random.default_rng(seed)
    if car is None:
        a, b = random_stable_system(rng, n=int(rng.integers(1, 9)), m=int(rng.integers(1, 4)))
        dt = 0.01
    else:
        front_params, rear_params = apply_parameters(default_car(), default_car(), car)
        a, b = corner_system(rear_params if rear else front_params)
        dt = MAX_DT * rng.uniform(0.1, 1.0)
    u = rng.normal(0.0, 0.01, (2 * n_steps + 1, b.shape[1]))
    x0 = rng.normal(0.0, 0.01, a.shape[0])
    assert rk4_lti(a, b, u, dt, x0).tobytes() == rk4_lti_whole(a, b, u, dt, x0).tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("n_steps", [5, 2 * B + 1])
def test_zero_input_is_bit_identical_to_one_solve(n_steps, zero):
    """A state and input of signed zeros give the one solve's bytes, zero
    signs included, on one chunk and on eight, the last one step longer."""
    golden_a, golden_b = corner_system(GOLDEN_CAR)
    for a, b, dt in [(*corner_system(default_car()), 1e-3), (golden_a, golden_b[:, :1], 2.5e-4)]:
        u = np.full((2 * n_steps + 1, b.shape[1]), zero)
        x0 = np.full(4, zero)
        assert rk4_lti(a, b, u, dt, x0).tobytes() == rk4_lti_whole(a, b, u, dt, x0).tobytes()


class TestDiscretisationMemo:
    def test_systems_one_entry_apart_keep_their_own_states(self):
        """Interleaved calls on systems that differ in one entry of ``A``, in
        ``B`` only (the IRI golden car's column view among them) or in ``dt``
        only each give the one solve's bytes, hit or miss."""
        a, b = corner_system(default_car())
        golden_a, golden_b = corner_system(GOLDEN_CAR)
        a_nudged, b_nudged = a.copy(), b.copy()
        a_nudged[1, 0] *= 1 + 1e-6
        b_nudged[3, 1] *= 1 + 1e-6
        systems = [
            (a, b, 1e-3),
            (a_nudged, b, 1e-3),
            (a, b_nudged, 1e-3),
            (a, b, 1e-3 * (1 + 1e-6)),
            (golden_a, golden_b[:, :1], 2.5e-4),
            (golden_a, np.ascontiguousarray(golden_b[:, :1]), 2.5e-4),
            (golden_a, golden_b[:, 1:], 2.5e-4),
        ]
        rng = np.random.default_rng(11)
        u = rng.normal(0.0, 0.01, (2 * 300 + 1, 2))
        x0 = rng.normal(0.0, 0.01, 4)
        _discretised.cache_clear()
        seen = {}
        for k in [0, 1, 0, 2, 0, 3, 4, 5, 6, 4, 1, 2, 3, 6, 5]:
            a_k, b_k, dt = systems[k]
            inputs = u[:, : b_k.shape[1]]
            states = rk4_lti(a_k, b_k, inputs, dt, x0)
            assert states.tobytes() == rk4_lti_whole(a_k, b_k, inputs, dt, x0).tobytes(), k
            seen.setdefault(states.tobytes(), set()).add(k)
        # every variant has its own states, except the golden car's view and copy
        assert sorted(map(sorted, seen.values())) == [[0], [1], [2], [3], [4, 5], [6]]
        assert _discretised.cache_info().hits == 15 - 6

    def test_cached_arrays_are_read_only(self):
        a, b = corner_system(default_car())
        parts = _discretised(a.tobytes(), a.shape, b.tobytes(), b.shape, 1e-3)
        band = parts[-1]
        # the band of the longest chunk: C + 1 steps after the carried state
        assert band.shape == (4 + 2, 4 * (C + 2)) and band.flags.f_contiguous
        for part in parts:
            with pytest.raises(ValueError):
                part.flat[0] = 1.0


class TestErrorsPastTheFirstChunk:
    @pytest.mark.parametrize("chunk", [2, 3])
    def test_failed_solve_in_a_later_chunk_raises(self, monkeypatch, chunk):
        from scipy.linalg import lapack

        dtbtrs, calls = lapack.dtbtrs, []

        def failing_in_chunk(ab, b, **kwargs):
            calls.append(len(b))
            y, info = dtbtrs(ab, b, **kwargs)
            return (y, 7) if len(calls) == chunk else (y, info)  # one solve a chunk

        monkeypatch.setattr(lapack, "dtbtrs", failing_in_chunk)
        a, b = random_stable_system(np.random.default_rng(3))
        u = np.zeros((2 * 3 * C + 1, 2))
        with pytest.raises(NumericFailure, match="LAPACK info 7"):
            rk4_lti(a, b, u, 0.01, np.ones(4))
        # the failing call solved a later chunk: its first unknowns are the carried state
        assert calls == [4 * (C + 1)] * chunk

    def test_divergence_in_the_last_chunk_raises(self):
        a, b = np.array([[-1.0]]), np.array([[1.0]])
        u = np.zeros((2 * 3 * C + 1, 1))
        u[2 * (2 * C + 100) :] = 1e12  # the state passes 1e9 only in the third chunk
        ok = rk4_lti(a, b, u[: 2 * 2 * C + 1], 0.01, np.zeros(1))
        assert np.max(np.abs(ok)) == 0.0
        with pytest.raises(NumericFailure, match="state integration diverged"):
            rk4_lti(a, b, u, 0.01, np.zeros(1))
