"""Minimal dense real linear algebra: symmetric eigendecomposition (LAPACK,
through numpy), fractional powers of PSD matrices, and Frobenius/trace
utilities.

Everything operates on plain float64 numpy arrays and is dimensioned for desk
scale (up to a few hundred); all functions are pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
)

SYMMETRY_RTOL = 1e-8


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition M = U diag(values) U^T, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def _require_square_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    scale = frob_norm(m)
    if frob_norm(m - m.T) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def sym_eig(m: np.ndarray) -> SymEig:
    """Eigendecompose a symmetric matrix with LAPACK (numpy's eigh)."""
    values, vectors = np.linalg.eigh(_require_square_symmetric(m))
    return SymEig(values=values[::-1], vectors=vectors[:, ::-1])


def psd_frac_power(m: np.ndarray, p: float) -> np.ndarray:
    """Return M^p for symmetric PSD M via its eigendecomposition.

    Eigenvalues in [-1e-10 * max|lambda|, 0) are clamped to zero (roundoff);
    anything more negative raises.  Negative powers require strictly positive
    spectrum after clamping.
    """
    eig = sym_eig(m)
    lam = eig.values.copy()
    lam_scale = max(np.max(np.abs(lam)), 0.0)
    clamp = -1e-10 * lam_scale
    if np.any(lam < clamp):
        raise NotPositiveDefiniteError(
            f"matrix has eigenvalue {lam.min():.3e} below the PSD clamp {clamp:.3e}"
        )
    lam[lam < 0.0] = 0.0
    if p < 0 and np.any(lam == 0.0):
        raise SingularMatrixError("negative power of a singular PSD matrix")
    powered = (eig.vectors * lam**p) @ eig.vectors.T
    return 0.5 * (powered + powered.T)


def sqrt_ratio_or_one(numerator, denominator):
    """sqrt(numerator / denominator), or 1 where either is nonpositive or not
    finite (the fallback of the greedy rescaling coefficients).  Elementwise
    over arrays; a float for scalar arguments."""
    if np.ndim(numerator) == 0 and np.ndim(denominator) == 0:
        num, den = float(numerator), float(denominator)
        if 0.0 < num < math.inf and 0.0 < den < math.inf:
            return math.sqrt(num / den)
        return 1.0
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    # min and max propagate nan, so both comparisons fail on it
    good = (np.minimum(num, den) > 0.0) & (np.maximum(num, den) < np.inf)
    out = np.ones(good.shape)
    np.divide(num, den, out=out, where=good)
    return np.sqrt(out, out=out)


def frob_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(a, dtype=np.float64) ** 2)))


def trace(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"trace needs a square matrix, got shape {a.shape}")
    return float(np.trace(a))
