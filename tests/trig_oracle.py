"""Test-side oracle for trigonometric resampling: a direct sum of phases.

The library moves a periodic field between uniform grids by zero-padding or
truncating its rfft (`geometry._resample_rows`); this oracle instead sums
each Fourier mode's complex exponential at the requested points, so it also
evaluates the interpolant off any grid.
"""

import numpy as np


def phase_sum(samples, length, y, band=None):
    """The trigonometric interpolant of uniform periodic samples at the points y.

    Mode k of the m samples enters as 2 Re(c_k e^{2 pi i k y/length}); the
    mean, and the Nyquist mode of an even m, enter once. `band` stops the sum
    at that mode, if it comes before m // 2: at the nodes of a coarser
    n-point grid, band n/2 leaves the modes that grid keeps when it truncates.
    """
    m = len(samples)
    band = m // 2 if band is None else min(band, m // 2)
    k = np.arange(band + 1)
    c = np.fft.rfft(samples)[:band + 1] / m
    weight = np.where((k == 0) | (2 * k == m), 1.0, 2.0)
    phase = np.exp(2j * np.pi * np.outer(np.asarray(y, dtype=float) / length, k))
    return (phase @ (weight * c)).real
