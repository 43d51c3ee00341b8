"""The plain n x n trapezoid mean of log|P|, the tests' reference for the
free energy's Jensen quadrature."""

import numpy as np

from icelab.dimers import SpectralCurve
from icelab.errors import SingularLocus
from icelab.tension import _TWO_PI

GRID_BLOCK = 1 << 18   # nodes per block of the `_grid_mean` reference


def _grid_mean(curve: SpectralCurve, H: float, V: float, n: int) -> float:
    """The n x n midpoint-trapezoid mean of log|P|, in blocks of about
    GRID_BLOCK nodes; |P| below 1e-14 of the top coefficient raises."""
    theta = (np.arange(n) + 0.5) * (_TWO_PI / n)
    z = np.exp(H + 1j * theta)[:, None]
    w = np.exp(V + 1j * theta)[None, :]
    floor = 1e-14 * max(abs(c) for _, c in curve.coeffs)
    rows, total = max(1, GRID_BLOCK // n), 0.0
    for k in range(0, n, rows):
        vals = np.abs(curve(z[k:k + rows], w))
        if np.min(vals) < floor:
            raise SingularLocus("spectral curve vanished on a quadrature node")
        total += float(np.sum(np.log(vals)))
    return total / (n * n)
