"""Helpers shared by the test modules."""

import numpy as np
from scipy.integrate import solve_ivp

from croftonlab import geom, valuations
from croftonlab.coeffcore import ball_volume_coeff, sphere_volume_coeff


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
    """A flow's normal speed, or the unit weight without a flow, claiming no
    symmetry, so that a table weighted by it
    (`valuations.hermitian_volumes(shape, level, weight)`) takes the full
    product rule."""

    symmetry = geom.Symmetry()

    def __init__(self, flow=None):
        self.normal_speed = flow.normal_speed if flow else lambda cloud: np.ones(len(cloud))


def radial_differences(eps, n, R, h_step):
    """The derivative table of a geodesic ball grown at unit normal speed by
    central differences, as `varcheck.central_differences` forms them: every
    entry is (plus - minus) / (2 h_step) of the closed-form tables at radius
    R + h_step and R - h_step."""
    plus = valuations.ball_closed_form(eps, n, R + h_step)
    minus = valuations.ball_closed_form(eps, n, R - h_step)

    def diff(a, b):
        return (a - b) / (2 * h_step)

    return valuations.ValuationTable(
        n=n, eps=eps,
        B={key: diff(v, minus.B[key]) for key, v in plus.B.items()},
        Gamma={key: diff(v, minus.Gamma[key]) for key, v in plus.Gamma.items()},
        M={j: diff(v, minus.M[j]) for j, v in plus.M.items()},
        vol=diff(plus.vol, minus.vol),
    )


def named_symmetry(name, n):
    """The `geom.Symmetry` of C^n called `name`: "none", "sign" (the sign
    flips), "conj" (the sign flips and C), "torus" (every phase) or
    "torus+conj" (every generator)."""
    phases = frozenset(range(n)) if "torus" in name else frozenset()
    return geom.Symmetry(phases, sign=name != "none", conj="conj" in name)


def whole_cloud(shape, level=0, symmetry="none"):
    """The whole boundary cloud of a shape's rule as one `geom.BoundaryCloud`,
    for an integrand invariant under `symmetry` (a `geom.Symmetry` or a name
    of `named_symmetry`)."""
    if isinstance(symmetry, str):
        symmetry = named_symmetry(symmetry, shape.n)
    return next(geom.boundary_chunks(shape, level, symmetry, None))


def sphere_area(eps, n, R):
    """Area O_{2n-1} g f^{2n-2} of the geodesic sphere of radius R, from the
    Jacobi fields f = f_eps and g = f_{4 eps} (`geom.jacobi_field`)."""
    f, _ = geom.jacobi_field(eps, R)
    g, _ = geom.jacobi_field(4 * eps, R)
    return sphere_volume_coeff(2 * n - 1).to_float() * g * f ** (2 * n - 2)


class OneNodeBall:
    """A geodesic ball as one boundary node: h = diag(mu_H, lambda, ...,
    lambda) from the closed-form curvatures, at the weight of the whole sphere
    area.  `valuations.hermitian_volumes` integrates it with the density
    engine, an oracle for the closed-form ball table (a `geom.GeodesicBall`
    has no boundary rule)."""

    def __init__(self, n, eps, R):
        self.n, self.eps, self.R = n, eps, R
        self.volume = ball_volume_coeff(2 * n).to_float() * geom.jacobi_field(eps, R)[0] ** (2 * n)

    def boundary(self, level, symmetry, size):
        n = self.n
        mu_h, lam = geom.geodesic_sphere_curvatures(self.eps, self.R)
        area = sphere_area(self.eps, n, self.R)
        normal = np.eye(1, 2 * n)
        h = np.diag([mu_h] + [lam] * (2 * n - 2))[None]
        yield geom.BoundaryCloud(n, self.R * normal, normal, h, np.array([area]), "one node")


class ConjugatePointError(RuntimeError):
    """Jacobi field vanished before the requested radius."""


def jacobi_oracle(kappa: float, R: float):
    """Numeric Jacobi field: adaptive integration of f'' + kappa f = 0,
    f(0) = 0, f'(0) = 1.

    Returns (f(R), f'(R)/f(R)); raises ConjugatePointError if f vanishes on
    (0, R].  Independent of the closed forms of `geom`.
    """
    if R <= 0:
        raise ValueError("radius must be positive")

    def rhs(t, y):
        return [y[1], -kappa * y[0]]

    def crossing(t, y):
        # downward zero crossing; the initial upward departure from 0 is ignored
        return y[0]

    crossing.terminal = True
    crossing.direction = -1
    sol = solve_ivp(
        rhs,
        (0.0, R),
        [0.0, 1.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=crossing,
        max_step=R / 8,
    )
    scale = float(np.max(np.abs(sol.y[0])))
    if sol.status == 1 or sol.y[0, -1] <= 1e-10 * scale:
        raise ConjugatePointError(f"Jacobi field vanished on (0, {R}]")
    f, fp = sol.y[0, -1], sol.y[1, -1]
    return f, fp / f
