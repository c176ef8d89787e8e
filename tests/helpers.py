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


def richardson_error(fine, coarse) -> dict:
    """|fine - coarse| for every B, Gamma and M entry of two valuation tables,
    the error bar `croftonlab volumes --richardson` reports."""
    a, b = fine.to_json(), coarse.to_json()
    return {key: abs(a[key] - b[key]) for key in a if key.split(":")[0] in ("B", "G", "M")}


class ProductRuleWeight:
    """A flow's normal speed claiming no symmetry, so that a table weighted by
    it (`valuations.hermitian_volumes(shape, level, weight)`) takes the full
    product rule."""

    symmetry = "none"

    def __init__(self, flow):
        self.normal_speed = flow.normal_speed
