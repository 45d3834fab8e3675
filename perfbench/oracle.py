"""Independent oracle for the relaxed worst-case precoding problem.

For a channel H, a linear distortion G, a penalty beta and a radius eps the
program states the design problem

    min_{u, t >= 0}  max_{||w|| <= eps}  ||G u + w||^2 + beta ||H (G u + w) - Phi(t)||^2,
    Phi(t) = D s + A^{-1} t.

This module evaluates that problem from its statement alone, with numpy and
scipy and nothing from ``wcslp``:

* ``worst_case`` is the inner maximum for a given design (u, t).  With
  P = H^T H + I/beta and x*(t) = P^{-1} H^T Phi(t) the objective equals
  beta (y - x*)^T P (y - x*) + const for y = G u + w, so the maximiser lies on
  the sphere, w = (mu I - P)^{-1} P d with d = G u - x* and mu > lambda_max(P)
  the root of the secular equation ||(mu I - P)^{-1} P d|| = eps, found here
  by ``scipy.optimize.brentq`` in the eigenbasis of P.
* ``optimum`` is the exact min-max value
  F* = Phi*^T (H H^T + I/beta)^{-1} Phi* + beta eps^2 lambda_max(P), where
  t* minimises Phi(t)^T (H H^T + I/beta)^{-1} Phi(t) over t >= 0 (a
  non-negative least-squares problem, ``scipy.optimize.nnls``) and
  u* = G^{-1} x*(t*).

All real vectors use interleaved (Re, Im) pairs per complex entry.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.optimize import brentq, nnls


def realify(m) -> np.ndarray:
    """Real (2n, 2m) form of a complex (n, m) matrix in the interleaved layout."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    out = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


def ci_target(symbols, order: int, gamma, sigma=1.0) -> tuple[np.ndarray, np.ndarray]:
    """(D s, A^{-1}) of the distance-preserving CI regions of M-PSK symbols.

    Symbol m of user i sits at angle pi/M + 2 pi m / M and scale
    sigma_i sqrt(gamma_i); the rows of A_i are the inward unit normals of the
    two ML sector boundaries of that symbol.
    """
    symbols = np.atleast_1d(np.asarray(symbols, dtype=int))
    n = symbols.size
    scale = np.broadcast_to(np.asarray(sigma, float) * np.sqrt(np.asarray(gamma, float)), (n,))
    theta = math.pi / order + 2.0 * math.pi * symbols / order
    ds = np.empty(2 * n)
    ds[0::2] = scale * np.cos(theta)
    ds[1::2] = scale * np.sin(theta)
    a_inv = np.zeros((2 * n, 2 * n))
    half = math.pi / order
    for i in range(n):
        a1 = theta[i] - half + math.pi / 2.0
        a2 = theta[i] + half - math.pi / 2.0
        a_i = np.array([[math.cos(a1), math.sin(a1)], [math.cos(a2), math.sin(a2)]])
        a_inv[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.linalg.inv(a_i)
    return ds, a_inv


class MinMaxOracle:
    """Worst-case value and exact min-max optimum for one (H, G, beta, eps).

    The factorisations depend on the channel, the distortion and beta only,
    so one oracle serves every symbol slot of a coherence block.
    """

    def __init__(self, h, g, beta: float, eps: float):
        self.h = np.asarray(h, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.beta = float(beta)
        self.eps = float(eps)
        n_rx, n_tx = self.h.shape
        self.lam, self.vec = eigh(self.h.T @ self.h + np.eye(n_tx) / self.beta)
        self.gaps = self.lam[-1] - self.lam
        self.top = self.gaps == 0.0
        self.chol = cholesky(self.h @ self.h.T + np.eye(n_rx) / self.beta, lower=True)

    def objective(self, u, t, w, ds, a_inv) -> float:
        """||G u + w||^2 + beta ||H (G u + w) - Phi(t)||^2."""
        y = self.g @ u + w
        r = self.h @ y - (ds + a_inv @ t)
        return float(y @ y + self.beta * (r @ r))

    def x_star(self, phi) -> np.ndarray:
        """P^{-1} H^T Phi, the unconstrained minimiser of the objective in G u + w."""
        return self.vec @ ((self.vec.T @ (self.h.T @ phi)) / self.lam)

    def worst_case(self, u, t, ds, a_inv) -> tuple[float, np.ndarray]:
        """max over ||w|| <= eps of the objective at (u, t), and its maximiser."""
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.eps == 0.0:
            w = np.zeros(self.g.shape[0])
            return self.objective(u, t, w, ds, a_inv), w
        d = self.g @ u - self.x_star(ds + a_inv @ t)
        e = self.lam * (self.vec.T @ d)          # eigen-coordinates of P d
        eps2 = self.eps * self.eps
        e_top = float(np.linalg.norm(e[self.top]))
        rest = ~self.top

        nz = e != 0.0
        e_nz, gaps_nz = e[nz], self.gaps[nz]

        def secular(s):                          # s = mu - lambda_max >= 0
            z = e_nz / (s + gaps_nz)
            return float(z @ z) - eps2

        if e_top > 0.0:
            lo = 0.5 * e_top / self.eps          # secular(lo) >= 3 eps^2 > 0
        else:
            lo = 0.0
            z0 = e[rest] / self.gaps[rest]
            if float(z0 @ z0) <= eps2:
                lo = None                        # hard case: mu = lambda_max
        if lo is None:
            wv = np.zeros_like(e)
            wv[rest] = e[rest] / self.gaps[rest]
            wv[np.flatnonzero(self.top)[0]] = math.sqrt(max(eps2 - float(wv @ wv), 0.0))
        else:
            hi = 2.0 * float(np.linalg.norm(e)) / self.eps   # secular(hi) <= -3 eps^2 / 4
            s = brentq(secular, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                       maxiter=500)
            wv = e / (s + self.gaps)
        w = self.vec @ wv
        return self.objective(u, t, w, ds, a_inv), w

    def optimum(self, ds, a_inv) -> tuple[float, np.ndarray, np.ndarray]:
        """Exact min-max value F* and an optimal design (u*, t*)."""
        design = solve_triangular(self.chol, a_inv, lower=True)
        target = -solve_triangular(self.chol, ds, lower=True)
        t_star, _ = nnls(design, target)
        phi = ds + a_inv @ t_star
        c = solve_triangular(self.chol, phi, lower=True)
        value = float(c @ c) + self.beta * self.eps ** 2 * float(self.lam[-1])
        u_star = np.linalg.solve(self.g, self.x_star(phi))
        return value, u_star, t_star
