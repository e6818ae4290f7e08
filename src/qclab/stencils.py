"""Second-order finite-difference stencils on uniform grids.

Central differences at interior points, one-sided second-order formulas
at the boundaries. NaNs propagate through the stencil, so a masked
(NaN) input point automatically invalidates every derivative that would
touch it -- that is how masked-field derivatives dilate their masks.
"""
from __future__ import annotations

import numpy as np


def gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """First derivative: (f[i+1]-f[i-1])/(2 dx) inside, 3-point one-sided at ends.

    Real input is promoted to float, complex input keeps its dtype (the
    same stencil acts on both parts).
    """
    f = np.asarray(f)
    f = f.astype(np.result_type(f, float), copy=False)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


def second_derivative(f: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative: central 3-point inside, 4-point one-sided at ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    dx2 = dx * dx
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dx2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dx2
    return out
