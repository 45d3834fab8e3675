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


def _as_complex(a, ndim: int) -> np.ndarray:
    """``a`` as a finite complex array of ``ndim`` (1 or 2) dimensions; a
    vector counts as one row of a matrix."""
    try:
        a = np.asarray(a, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ValueError("expected a rectangular numeric array") from exc
    a = np.atleast_2d(a) if ndim == 2 else np.atleast_1d(a)
    if a.ndim != ndim:
        raise ValueError(f"expected {ndim} array dimensions, got {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return a


def embed_vector(v) -> np.ndarray:
    """Interleave a complex vector into (Re, Im) pairs (length 2n); reading
    the result as complex (``.view(complex)``) gives ``v`` back."""
    v = _as_complex(v, 1)
    out = np.empty(2 * v.size)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def pair_rows(m) -> np.ndarray:
    """Real 2p x 2n matrix R of a complex p x n matrix (or a vector, p = 1)
    with R @ embed_vector(x) = embed_vector(m @ x).

    Each complex row becomes a pair of real rows: entry (j, k) is the 2x2
    rotation-scaling block [[Re, -Im], [Im, Re]] at rows 2j, 2j+1 and
    columns 2k, 2k+1.
    """
    m = _as_complex(m, 2)
    out = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


@dataclass
class RealChannel:
    """Real-embedded downlink channel: two rows per user.

    ``matrix`` has shape (2 n_r, 2 n_t); rows 2i, 2i+1 hold user i's block,
    so ``matrix[2 * i:2 * i + 2] @ embed_vector(x)`` is (Re, Im) of the
    complex received sample ``h_i @ x``.  ``whitener`` is computed from
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


def build_real_channel(rows) -> RealChannel:
    """RealChannel of a complex channel with one row (of equal length) per
    user: :func:`pair_rows` of it."""
    mat = pair_rows(rows)
    return RealChannel(matrix=mat, n_r=len(mat) // 2, n_t=mat.shape[1] // 2)


@dataclass
class RealDistortionMatrix:
    """Real embedding of the known linear distortion acting on the precoder output."""

    matrix: np.ndarray
    n_t: int


def build_real_distortion(gbar) -> RealDistortionMatrix:
    """Real 2n x 2n embedding G of a complex n x n matrix: :func:`pair_rows`.

    Satisfies G @ embed_vector(u) = embed_vector(gbar @ u) for every u;
    G is invertible exactly when gbar is.
    """
    mat = pair_rows(gbar)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("distortion matrix must be square")
    return RealDistortionMatrix(matrix=mat, n_t=len(mat) // 2)
