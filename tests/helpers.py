"""Helpers shared by the test modules."""

import numpy as np


def realify_complex_columns(Vc: np.ndarray) -> np.ndarray:
    """Realify complex column vectors: (..., n, r) complex -> (..., 2n, 2r) real.

    Column j maps to the pair (v_j, J v_j); complex-orthonormal columns give
    real-orthonormal output.
    """
    shp = Vc.shape
    n, r = shp[-2], shp[-1]
    out = np.zeros(shp[:-2] + (2 * n, 2 * r))
    out[..., 0::2, 0::2] = Vc.real
    out[..., 1::2, 0::2] = Vc.imag
    out[..., 0::2, 1::2] = -Vc.imag
    out[..., 1::2, 1::2] = Vc.real
    return out
