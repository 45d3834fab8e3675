"""Complex-to-real isomorphisms used by the whole precoding stack.

All real vectors in this package use one layout: interleaved (Re, Im)
pairs, entry k of a complex vector occupying components 2k and 2k+1.
Matrices built here map interleaved vectors to interleaved vectors, so
products never need permutation fix-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, solve_triangular


def _as_complex_vector(v) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if v.ndim != 1:
        raise ValueError("expected a complex vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    return v


def t_transform(v) -> np.ndarray:
    """Block real form [[Re v, -Im v], [Im v, Re v]] of a complex row vector.

    Returns a 2 x 2n matrix whose two column blocks are the real and
    imaginary parts of ``v``.
    """
    v = _as_complex_vector(v)
    top = np.concatenate([v.real, -v.imag])
    bottom = np.concatenate([v.imag, v.real])
    return np.vstack([top, bottom])


def embed_vector(v) -> np.ndarray:
    """Interleave a complex vector into (Re, Im) pairs (length 2n)."""
    v = _as_complex_vector(v)
    out = np.empty(2 * v.size)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def unembed_vector(x) -> np.ndarray:
    """Inverse of :func:`embed_vector`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2:
        raise ValueError("expected an even-length real vector")
    return x[0::2] + 1j * x[1::2]


def pair_rows(v) -> np.ndarray:
    """2 x 2n matrix R with R @ embed_vector(x) = (Re(v @ x), Im(v @ x)).

    Column pair k is the 2x2 rotation-scaling block of entry v_k, i.e. the
    interleaved-layout counterpart of :func:`t_transform`.
    """
    v = _as_complex_vector(v)
    out = np.empty((2, 2 * v.size))
    out[0, 0::2] = v.real
    out[0, 1::2] = -v.imag
    out[1, 0::2] = v.imag
    out[1, 1::2] = v.real
    return out


@dataclass
class RealChannel:
    """Real-embedded downlink channel: two rows per user.

    ``matrix`` has shape (2 n_r, 2 n_t); rows 2i, 2i+1 hold user i's block,
    so ``user_block(i) @ embed_vector(x)`` is (Re, Im) of the complex
    received sample ``h_i @ x``.  ``whitener`` is computed from
    ``matrix`` on first use and cached: treat a channel as immutable.
    """

    matrix: np.ndarray
    n_r: int
    n_t: int

    @cached_property
    def whitener(self) -> tuple[np.ndarray, np.ndarray]:
        """(L^{-1}, L^{-1} H) for the lower Cholesky factor L of
        H H^T = L L^T, both C-contiguous; ValueError unless H has full row
        rank."""
        h = self.matrix
        svals = np.linalg.svd(h, compute_uv=False)
        if svals[-1] <= max(h.shape) * np.finfo(float).eps * svals[0]:
            raise ValueError("channel must have full row rank")
        chol = cholesky(h @ h.T, lower=True)
        l_inv = np.ascontiguousarray(solve_triangular(chol, np.eye(len(h)), lower=True))
        return l_inv, l_inv @ h

    def user_block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_r:
            raise IndexError(f"user index {i} out of range")
        return self.matrix[2 * i:2 * i + 2, :]


def build_real_channel(rows) -> RealChannel:
    """Stack per-user row transforms into a RealChannel.

    ``rows`` holds one complex channel vector per user (equal lengths).
    """
    try:
        arr = np.asarray(rows, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ValueError("channel vectors must share a common length") from exc
    arr = np.atleast_2d(arr)
    if arr.ndim != 2:
        raise ValueError("channel vectors must share a common length")
    if not np.all(np.isfinite(arr)):
        raise ValueError("channel entries must be finite")
    n_r, n_t = arr.shape
    mat = np.vstack([pair_rows(arr[i]) for i in range(n_r)])
    return RealChannel(matrix=mat, n_r=n_r, n_t=n_t)


@dataclass
class RealDistortionMatrix:
    """Real embedding of the known linear distortion acting on the precoder output."""

    matrix: np.ndarray
    n_t: int


def build_real_distortion(gbar) -> RealDistortionMatrix:
    """Real 2n x 2n embedding G of a complex n x n matrix.

    Satisfies G @ embed_vector(u) = embed_vector(gbar @ u) for every u;
    G is invertible exactly when gbar is.
    """
    gbar = np.atleast_2d(np.asarray(gbar, dtype=complex))
    if gbar.ndim != 2 or gbar.shape[0] != gbar.shape[1]:
        raise ValueError("distortion matrix must be square")
    if not np.all(np.isfinite(gbar)):
        raise ValueError("entries must be finite")
    n = gbar.shape[0]
    mat = np.vstack([pair_rows(gbar[j]) for j in range(n)])
    return RealDistortionMatrix(matrix=mat, n_t=n)
