"""Dirichlet sine eigenbasis on the box (0, pi)^d and its spectral calculus.

Fields live as real coefficient arrays of shape ``grid.shape`` (one axis per
space dimension, mode indices 1..N along each axis, C order = lexicographic).
Transforms use the explicit orthonormal sine matrix, which is its own inverse
up to the quadrature weight, so round trips are exact to round-off.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SpectralGrid"]

# Cap on the field entries one path steps through, n_steps * N^d, and on the
# jump entries a compound-Poisson path draws, rate * t_final * N^d; checked
# when a config is built, so that a run too long or too large to finish fails
# before its first path.  The isometry study draws a path's jumps over t_final
# in one step, 8 bytes per entry (2 GiB at the cap) in each worker process at
# once.  A grid's N x N sine matrix and its N^d-entry fields are held to it.
MAX_STEP_ENTRIES = 2**28


class SpectralGrid:
    """Collocation grid and mode table for the Dirichlet Laplacian on (0, pi)^d."""

    def __init__(self, dim: int, n_modes: int):
        if dim not in (1, 2):
            raise ValueError(f"domain.dim: dim must be 1 or 2, got {dim}")
        if n_modes < 1:
            raise ValueError(f"domain.n_modes: n_modes must be >= 1, got {n_modes}")
        if n_modes**2 > MAX_STEP_ENTRIES:  # at dim <= 2 this also caps the N^d entries of a field
            raise ValueError(
                f"domain.n_modes: n_modes = {n_modes} needs a {n_modes} x {n_modes} sine matrix, "
                f"above the cap of {MAX_STEP_ENTRIES} entries"
            )
        self.dim = int(dim)
        self.n_modes = int(n_modes)
        self.shape = (n_modes,) * dim
        self.size = n_modes**dim

        k = np.arange(1, n_modes + 1, dtype=float)
        # interior nodes i*h, h = pi/(N+1); quadrature weight h^d is exact on the basis
        self.h = np.pi / (n_modes + 1.0)
        self.weight = self.h**dim
        # sine matrix S[i-1, k-1] = sin(i k pi / (N+1)); symmetric, S@S = (N+1)/2 I.
        # Per axis, synthesis is sqrt(2/pi) S and analysis adds the weight h.
        sine = np.sin(np.outer(k, k) * np.pi / (n_modes + 1.0))
        self._synthesis = np.sqrt(2.0 / np.pi) * sine
        self._analysis = self.h * self._synthesis
        self._pad = np.zeros((2, n_modes))  # row 0 takes a one-row 1-D transform; never handed out

        if dim == 1:
            self.mu = k**2
        else:
            self.mu = (k**2)[:, None] + (k**2)[None, :]
        self.mode_indices = self._mode_index_table()

    def _mode_index_table(self):
        k = np.arange(1, self.n_modes + 1)
        if self.dim == 1:
            return k.reshape(-1, 1)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        return np.stack([k1.ravel(), k2.ravel()], axis=1)

    def zero_field(self) -> np.ndarray:
        return np.zeros(self.shape)

    def basis_field(self, *k: int) -> np.ndarray:
        """Coefficient array of the single eigenfunction with multi-index k."""
        if len(k) != self.dim:
            raise ValueError(f"expected {self.dim} mode indices, got {len(k)}")
        out = self.zero_field()
        out[tuple(i - 1 for i in k)] = 1.0
        return out

    def _check_shape(self, arr, what):
        if arr.shape != self.shape:
            raise ValueError(f"{what} has shape {arr.shape}, expected {self.shape}")

    def to_nodes(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the field at the collocation nodes."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_shape(coeffs, "coefficient array")
        return self._nodes(coeffs)

    def to_modes(self, nodal: np.ndarray) -> np.ndarray:
        """Project nodal values onto the eigenbasis (quadrature inner products)."""
        nodal = np.asarray(nodal, dtype=float)
        self._check_shape(nodal, "nodal array")
        return self._modes(nodal)

    def _nodes(self, coeffs):
        """``to_nodes`` of a float field or of a stack of them (leading axes), unchecked."""
        return self._transform(self._synthesis, coeffs)

    def _modes(self, nodal):
        """``to_modes`` of a float field or of a stack of them (leading axes), unchecked."""
        return self._transform(self._analysis, nodal)

    def _transform(self, matrix, x):
        # Each field of a stack gets the bits it gets alone.  In 2-D that is
        # two N x N products per field.  In 1-D the whole stack is one gemm,
        # np.dot(rows, matrix) with the symmetric matrix untransposed (the
        # gemm call of rows @ matrix, at less overhead): each row of it has
        # the same bits at any row count, while rows @ matrix.T does not
        # above about 1 200 entries (OpenBLAS 0.3.31).  One row, a lone field
        # or a stack of one, is padded to 2, since numpy hands it to gemv.
        if self.dim == 2:
            return matrix @ x @ matrix
        if x.size == self.n_modes:
            self._pad[0] = x
            return np.dot(self._pad, matrix)[0].reshape(x.shape)
        return np.dot(x.reshape(-1, self.n_modes), matrix).reshape(x.shape)

    def smoother(self, eps: float) -> np.ndarray:
        """Multiplier table of (I - eps*Laplacian)^{-1}: 1/(1 + eps*mu)."""
        if not 0.0 <= eps < math.inf:
            raise ValueError(f"smoothing parameter must be finite and >= 0, got {eps}")
        return 1.0 / (1.0 + eps * self.mu)

    def norm(self, coeffs: np.ndarray) -> float:
        """|u|_{L2} = (sum uhat_k^2)^(1/2)."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_shape(coeffs, "coefficient array")
        return float(np.sqrt(np.vdot(coeffs, coeffs)))

    def grad_seminorm(self, coeffs: np.ndarray) -> float:
        """|grad u|_{L2} = (sum mu_k uhat_k^2)^(1/2), the H^1_0 energy norm."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_shape(coeffs, "coefficient array")
        return float(np.sqrt(np.vdot(self.mu * coeffs, coeffs)))

    def __repr__(self):
        return f"SpectralGrid(dim={self.dim}, n_modes={self.n_modes})"
