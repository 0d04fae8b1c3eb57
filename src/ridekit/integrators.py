"""Fixed-step RK4 integration of linear time-invariant systems.

The classical Runge-Kutta update for ``x' = A x + B u(t)`` with constant
``A``, ``B`` and fixed step collapses into a linear one-step recursion

    x[k+1] = Phi x[k] + G0 u[k] + Gm u[k+1/2] + G1 u[k+1]

whose matrices are polynomials in ``dt A``.  In the real Schur basis of ``A``
(``A = Q T Q^T``, ``Q`` orthogonal, ``T`` quasi-triangular: upper triangular
but for one 2x2 block per complex pair of eigenvalues) ``Phi`` is
quasi-triangular too.  With the modal values stored step by step
(``z[k, j]`` at ``n*k + j``), the whole recursion ``z[k+1] = Phi z[k] + w[k]``
is then one unit lower-triangular band with ``n + 1`` subdiagonals, solved by
one LAPACK banded triangular solve (``dtbtrs``) instead of a Python loop, and
the states are ``z @ Q^T``.  Calls run in chunks of ``_CHUNK_STEPS`` steps so
that the work arrays stay in cache: each chunk writes its input products
straight into the right-hand side of its solve, whose first block of
unknowns is the modal state the last chunk carried.  That block's band
columns only feed the next block, so the states are bit-identical to one
solve over the whole call.  The basis is orthogonal, so the modal
coordinates are no larger than the state and their rounding is not
amplified, however close ``Phi`` is to the identity or the eigenvectors are
to each other.  Both paths produce the same iterates (up to float rounding);
the loop remains as the reference in the test suite.  The band and its
chunked solve (``recursion_band``, ``solve_recursion``) serve any such
recursion: ``iso2631`` runs its weighting filter's block-to-block state
through them.

The parts that depend only on ``(A, B, dt)`` (the Schur basis, the input
matrices and the band of the longest chunk) come from ``_discretised``,
memoised within the process for the last 8 systems, keyed on the bytes and
shapes of ``A`` and ``B`` and on ``float(dt)``; its arrays are read-only.
The corners of a symmetric car, the runs of a batch and the repeated points
of a calibration then discretise once.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericFailure

__all__ = ["rk4_lti", "rk4_lti_loop", "half_grid_input", "recursion_band", "solve_recursion"]


def half_grid_input(samples: np.ndarray) -> np.ndarray:
    """Resample step-grid input samples onto the half-step grid (2N-1 points).

    Midpoints are linear interpolations; RK4 needs the input at t, t+dt/2 and
    t+dt for every step.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    out_shape = (2 * n - 1,) + samples.shape[1:]
    out = np.empty(out_shape, dtype=float)
    out[0::2] = samples
    out[1::2] = 0.5 * (samples[:-1] + samples[1:])
    return out


#: Rows per block of a long per-step product.  Above a size limit OpenBLAS
#: splits a product over worker threads, which spin on the other core after
#: the call, so the code that follows, BLAS or not, costs about twice its CPU
#: time; one threaded (45k, 8) @ (8, 4) product took 16-25 ms on a busy
#: 2-core host against 0.6 ms on one thread.  There OpenBLAS 0.3.31 first
#: threaded these products at 31k rows (8 x 4 gemm), 56k (2 x 8 gemm) and 109k
#: (gemv, 4 columns).  8192 rows of at most 32 multiply-adds also meet the
#: gemm limit read from its source, M*N*K <= 4*65536, and keep the calls few,
#: each costing a few microseconds.  As a multiple of every kernel unroll,
#: each row meets the same kernel code as in the whole product.
_BLOCK_ROWS = 8192

#: Steps per chunk of ``rk4_lti`` (see ``solve_recursion``).  The memo holds
#: one band per system, (n + 2) x n (_CHUNK_STEPS + 2) floats: 0.4 MB for a
#: 4-state system.  At 8192 steps its 8 bands would come to 12.6 MB, more
#: than 5 % of a calibration's 95 MB resident peak.
_CHUNK_STEPS = 2048


def _blocked_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for a long 2-D ``a``, one block of ``_BLOCK_ROWS`` rows at a time.

    Bit-identical to ``a @ b``: blocks start at multiples of the block size,
    and a last row is never left alone (numpy would hand a one-row product to
    gemv or dot, whose rounding differs from gemm's), so it joins the block
    before it.  The product goes into ``out`` when given.
    """
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    start = 0
    for stop in [*range(_BLOCK_ROWS, len(a) - 1, _BLOCK_ROWS), len(a)]:
        np.matmul(a[start:stop], b, out=out[start:stop])
        start = stop
    return out


def rk4_lti_loop(A, B, u_half: np.ndarray, dt: float, x0) -> np.ndarray:
    """Literal step-by-step classical RK4; reference implementation."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    u = np.asarray(u_half, dtype=float)
    n_steps = (u.shape[0] - 1) // 2
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((n_steps + 1, A.shape[0]))
    out[0] = x
    for k in range(n_steps):
        u0 = u[2 * k]
        um = u[2 * k + 1]
        u1 = u[2 * k + 2]
        k1 = A @ x + B @ u0
        k2 = A @ (x + 0.5 * dt * k1) + B @ um
        k3 = A @ (x + 0.5 * dt * k2) + B @ um
        k4 = A @ (x + dt * k3) + B @ u1
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = x
    return out


def recursion_band(phi: np.ndarray, chunk: int) -> np.ndarray:
    """Band of the recursion ``z[k+1] = phi z[k] + w[k]`` for ``solve_recursion``.

    ``phi`` is quasi-triangular, as a real Schur form is.  With the values
    stored step by step (``z[k, j]`` at ``n*k + j``) the recursion is one unit
    lower-triangular band: column n*k + j holds -phi[i, j] at row n - j + i,
    where z[k, j] drives z[k+1, i].  phi is zero below its subdiagonal, so
    n + 1 subdiagonals hold it; the rest is zero, and row 0, the unit
    diagonal, is not read.  The band covers the longest chunk, ``chunk + 1``
    steps after the carried state.
    """
    n = len(phi)
    block = np.zeros((n + 2, n))
    for j in range(n):
        rows = min(j + 2, n)
        block[n - j : n - j + rows, j] = -phi[:rows, j]
    return np.asfortranarray(np.tile(block, chunk + 2))


def solve_recursion(band: np.ndarray, z: np.ndarray, n_steps: int, drive, emit) -> None:
    """Run ``z[k+1] = phi z[k] + w[k]`` for ``k < n_steps``, one chunk at a time.

    ``band`` comes from ``recursion_band`` and sets the chunk length; the
    last chunk of a call may be one step longer, since a chunk of one step
    would hand its input products to gemv.  ``z`` is the caller's work array
    of ``min(n_steps, chunk + 1) + 1`` rows or more, its first row the
    starting value.  For each chunk of steps ``[start, stop)``,
    ``drive(start, stop, w)`` writes ``w[start:stop]`` into ``w``; one LAPACK
    ``dtbtrs`` solve writes the values over their drive; then
    ``emit(start, stop, z)`` reads ``z[0:stop - start + 1]``, the values at
    steps ``start`` to ``stop``.  The first block of each chunk's unknowns is
    the value the last chunk carried; its band columns only feed the next
    block, so the values are bit-identical to one solve over the whole call.
    """
    from scipy.linalg import lapack

    n = band.shape[0] - 2
    chunk = band.shape[1] // n - 2
    edges = [0, *range(chunk, n_steps - 1, chunk), n_steps]
    for start, stop in zip(edges, edges[1:]):
        steps = stop - start
        drive(start, stop, z[1 : steps + 1])
        size = n * (steps + 1)
        # overwrite_b: the solve writes the values over their drive
        _, info = lapack.dtbtrs(band[:, :size], z.reshape(-1, 1)[:size], uplo="L", diag="U", overwrite_b=1)
        if info != 0:
            raise NumericFailure(f"modal recursion solve failed (LAPACK info {info})")
        emit(start, stop, z[: steps + 1])
        z[0] = z[steps]


@functools.lru_cache(maxsize=8)
def _discretised(a_bytes: bytes, a_shape: tuple, b_bytes: bytes, b_shape: tuple, dt: float) -> tuple:
    """The parts of ``rk4_lti`` that depend only on ``(A, B, dt)``, read-only.

    ``A`` and ``B`` arrive as their float64 bytes and shapes, so that the
    cache compares them byte for byte.  Returns the Schur-basis input
    matrices ``g0``, ``gm`` and ``g1`` (each ``(m, n)``, to multiply input
    rows), ``Q^T`` (C-ordered: ``Q^T x0`` gives the modal state and
    ``z @ Q^T`` the states) and the band of the longest chunk's solve.
    """
    from scipy.linalg import schur

    A = np.frombuffer(a_bytes).reshape(a_shape)
    B = np.frombuffer(b_bytes).reshape(b_shape)
    T, Q = schur(A)
    n = len(T)
    M = dt * T
    I = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # Phi, G0, Gm and G1 in the Schur basis, by Horner's rule in dt T.
        phi = I + M @ (I + M @ (I / 2 + M @ (I / 6 + M / 24)))
        qb = Q.T @ B
        g0 = dt * (I / 6 + M @ (I / 6 + M @ (I / 12 + M / 24))) @ qb
        gm = dt * (2 * I / 3 + M @ (I / 3 + M / 12)) @ qb
        g1 = dt / 6 * qb
    parts = (g0.T.copy(), gm.T.copy(), g1.T.copy(), Q.T.copy(), recursion_band(phi, _CHUNK_STEPS))
    for part in parts:
        part.flags.writeable = False
    return parts


def rk4_lti(A, B, u_half: np.ndarray, dt: float, x0) -> np.ndarray:
    """RK4 trajectory of ``x' = A x + B u`` for input sampled on the half grid.

    Parameters
    ----------
    A, B : array_like
        System matrices, shapes (n, n) and (n, m).
    u_half : np.ndarray
        Input samples at t0, t0+dt/2, ..., t0+N*dt; shape (2N+1, m).
    dt : float
        Step size.
    x0 : array_like
        Initial state.

    Returns
    -------
    np.ndarray
        States at the step grid, shape (N+1, n).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    u = np.asarray(u_half, dtype=float)
    if (u.shape[0] - 1) % 2:
        raise NumericFailure("half-grid input must have odd sample count (2N+1)")
    n_steps = (u.shape[0] - 1) // 2
    x0 = np.asarray(x0, dtype=float)
    if n_steps == 0:
        return x0[None, :].copy()

    g0, gm, g1, qt, band = _discretised(A.tobytes(), A.shape, B.tobytes(), B.shape, float(dt))
    n = len(qt)
    u0, um, u1 = u[0:-2:2], u[1:-1:2], u[2::2]
    longest = min(n_steps, _CHUNK_STEPS + 1)
    # Work arrays for the longest chunk, reused by every chunk: the modal
    # values step by step, the carried ones first, and one input product.
    z = np.empty((longest + 1, n))
    product = np.empty((longest, n))
    # Allocated after the work arrays.  Allocated before them, the states sat
    # below them on the heap, so freeing them at return trimmed the heap's
    # top and the next call faulted it in again: calibrate's 8.45k-step calls
    # went from 0.4k to 170k minor faults a chain, 0.43 to 0.59 s.
    states = np.empty((n_steps + 1, n))

    def drive(start, stop, w):
        np.matmul(u0[start:stop], g0, out=w)
        w += np.matmul(um[start:stop], gm, out=product[: stop - start])
        w += np.matmul(u1[start:stop], g1, out=product[: stop - start])

    def emit(start, stop, modal):
        # Each chunk writes the states of its own steps, the last one also
        # the final state; the next chunk starts from the carried value.
        rows = stop - start + (stop == n_steps)
        np.matmul(modal[:rows], qt, out=states[start : start + rows])

    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(qt, x0, out=z[0])
        solve_recursion(band, z, n_steps, drive, emit)
    states[0] = x0
    if not max(states.max(), -states.min()) <= 1e9:  # NaN fails too
        raise NumericFailure("state integration diverged")
    return states
