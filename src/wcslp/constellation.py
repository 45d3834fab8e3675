"""M-PSK constellations and distance-preserving constructive-interference geometry.

The CI region of a PSK symbol is the translated angular sector whose
boundaries run parallel to the ML decision boundaries of that symbol.  A
point y lies in the region of symbol m at scale d = sigma * sqrt(gamma)
exactly when ``A_m @ (y - d * s_m) >= 0`` componentwise, where the rows of
A_m are the unit inward normals of the two sector boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag

from .realify import embed_vector


class UnsupportedConstellationError(ValueError):
    """Raised for constellations the CI construction cannot support (e.g. BPSK)."""


@dataclass
class PskConstellation:
    """Equiprobable unit-power M-PSK alphabet and its table of CI normals.

    Point m sits at angle ``phase_offset + 2*pi*m/order``; ``normals[m]`` is
    :func:`ci_normals` of symbol m.  The default offset pi/order gives the
    diagonal QPSK layout for order 4.  Orders below 4 are rejected: with two
    points the two sector normals are antiparallel and A is singular.
    """

    order: int
    phase_offset: float | None = None
    points: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)      # (M, 2, 2) ci_normals
    normals_inv: np.ndarray = field(init=False, repr=False)  # (M, 2, 2) inverses
    sigma_min: float = field(init=False, repr=False)
    sigma_max: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.order) != self.order or self.order < 4:
            raise UnsupportedConstellationError(
                f"M-PSK with M={self.order} unsupported; need an integer order >= 4")
        self.order = int(self.order)
        if self.phase_offset is None:
            self.phase_offset = math.pi / self.order
        angles = self.phase_offset + 2.0 * np.pi * np.arange(self.order) / self.order
        self.points = np.exp(1j * angles)
        self.normals = np.stack([ci_normals(m, self) for m in range(self.order)])
        self.normals_inv = np.linalg.inv(self.normals)
        # All normals are rotations of symbol 0's, whose rows are pi - 2 pi/M
        # apart: singular values sqrt(2) sin(pi/M) and sqrt(2) cos(pi/M), the
        # cosine taken as sin(pi/2 - pi/M) so that QPSK's two are equal.
        self.sigma_min = math.sqrt(2.0) * math.sin(math.pi / self.order)
        self.sigma_max = math.sqrt(2.0) * math.sin(math.pi / 2.0 - math.pi / self.order)

    def angle(self, m: int) -> float:
        self._check_index(m)
        return self.phase_offset + 2.0 * math.pi * m / self.order

    def point(self, m: int) -> np.ndarray:
        """Symbol m as a real (Re, Im) pair."""
        self._check_index(m)
        return embed_vector(self.points[m:m + 1])

    @property
    def bits_per_symbol(self) -> int:
        k = int(round(math.log2(self.order)))
        if 2 ** k != self.order:
            raise UnsupportedConstellationError(
                f"Gray labeling needs a power-of-two order, got {self.order}")
        return k

    @property
    def gray_labels(self) -> np.ndarray:
        """Reflected Gray code over the phase index (requires power-of-two order)."""
        self.bits_per_symbol  # noqa: B018  raises for unsupported orders
        m = np.arange(self.order)
        return m ^ (m >> 1)

    def _check_index(self, m: int) -> None:
        if not 0 <= m < self.order:
            raise ValueError(f"symbol index {m} out of range for order {self.order}")


def ci_normals(symbol: int, constellation: PskConstellation) -> np.ndarray:
    """Unit inward normals of the two ML sector boundaries of a symbol.

    Row 0 is the normal of the clockwise boundary (angle theta - pi/M), row 1
    of the counter-clockwise one; both point into the sector.  The resulting
    2x2 matrix has determinant sin(2*pi/M) != 0 for M >= 4.
    """
    constellation._check_index(symbol)
    theta = constellation.angle(symbol)
    half = math.pi / constellation.order
    a1 = theta - half + math.pi / 2.0
    a2 = theta + half - math.pi / 2.0
    return np.array([[math.cos(a1), math.sin(a1)],
                     [math.cos(a2), math.sin(a2)]])


@dataclass
class CiGeometry:
    """CI geometry of one symbol slot across all users.

    User i's CI normals are row ``symbols[i]`` of the constellation's table,
    so the stacked normal matrix A is block diagonal with 2x2 blocks, and
    ``ds`` = D s stacks the symbols scaled by sigma_i * sqrt(gamma_i).  Every
    PSK point is an outer point, so the CI target is ds + A^{-1} t with no
    outer-point mask.  Treat instances as immutable; they are shared freely
    across workers.
    """

    symbols: np.ndarray
    gammas: np.ndarray
    sigmas: np.ndarray
    constellation: PskConstellation
    ds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        scale = np.repeat(self.sigmas * np.sqrt(self.gammas), 2)
        self.ds = scale * embed_vector(self.constellation.points[self.symbols])

    @property
    def n_r(self) -> int:
        return self.symbols.size

    @property
    def a_blocks(self) -> np.ndarray:
        """The (n_r, 2, 2) diagonal blocks of A; ``a_inv_blocks`` those of A^{-1}."""
        return self.constellation.normals[self.symbols]

    @property
    def a_inv_blocks(self) -> np.ndarray:
        return self.constellation.normals_inv[self.symbols]

    @cached_property
    def a(self) -> np.ndarray:
        """Dense A, assembled on first use (read-only); likewise ``a_inv``."""
        return _dense(self.a_blocks)

    @cached_property
    def a_inv(self) -> np.ndarray:
        return _dense(self.a_inv_blocks)


def _dense(blocks: np.ndarray) -> np.ndarray:
    """Read-only dense block-diagonal matrix of (n, 2, 2) blocks."""
    out = block_diag(*blocks)
    out.flags.writeable = False
    return out


def build_ci_geometry(symbols, gammas, sigmas,
                      constellation: PskConstellation) -> CiGeometry:
    """Geometry for given symbol indices and per-user SNR targets and noise."""
    symbols = np.atleast_1d(np.asarray(symbols, dtype=int))
    n_r = symbols.size
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (n_r,)).copy()
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (n_r,)).copy()
    if np.any(gammas <= 0):
        raise ValueError("target SNRs must be positive")
    if np.any(sigmas <= 0):
        raise ValueError("noise deviations must be positive")
    if np.any((symbols < 0) | (symbols >= constellation.order)):
        raise ValueError(f"symbol indices must lie in [0, {constellation.order})")
    return CiGeometry(symbols=symbols, gammas=gammas, sigmas=sigmas,
                      constellation=constellation)


def ml_detect(y, constellation: PskConstellation) -> int:
    """Index of the nearest constellation point; ties go to the lowest index."""
    y = np.asarray(y, dtype=float)
    if y.shape != (2,) or not np.all(np.isfinite(y)):
        raise ValueError("expected a finite real 2-vector")
    z = y[0] + 1j * y[1]
    return int(np.argmin(np.abs(z - constellation.points)))


def ml_detect_many(y, constellation: PskConstellation) -> np.ndarray:
    """Vectorised ml_detect over rows of an (N, 2) array."""
    y = np.asarray(y, dtype=float)
    z = y[..., 0] + 1j * y[..., 1]
    d2 = np.abs(z[..., None] - constellation.points) ** 2
    return np.argmin(d2, axis=-1)


def ci_margin(y, symbol: int, gamma: float, sigma: float,
              constellation: PskConstellation) -> np.ndarray:
    """Orthogonal distances of y to the two CI boundaries of a symbol.

    Both components are >= 0 exactly when y lies in the CI region of the
    symbol at scale sigma*sqrt(gamma).
    """
    y = np.asarray(y, dtype=float)
    a_i = ci_normals(symbol, constellation)
    apex = sigma * math.sqrt(gamma) * constellation.point(symbol)
    return a_i @ (y - apex)
