"""Step-index fiber fundamental-mode (HE11) solver and coupling-rate estimate.

The guided modes of a step-index fiber with core index n1, cladding index n2
and core radius a satisfy, for azimuthal order nu = 1, the full vector
characteristic equation

    (J + K) (J + rho K) = (1/u^2 + 1/w^2)(1/u^2 + rho/w^2),

        J = J1'(u) / (u J1(u)),   K = K1'(w) / (w K1(w)),   rho = (n2/n1)^2,
        u = k0 a sqrt(n1^2 - n_eff^2),   w = k0 a sqrt(n_eff^2 - n2^2),

whose largest-n_eff root in (n2, n1) is the hybrid HE11 mode (it has no
cutoff; the next nu = 1 root appears only at V >= 3.832, though at index
ratios n1/n2 of 40 and more two more roots lie near cutoff just below V =
j_{0,1}). Its u rises towards j_{0,1} = 2.405, the first zero of J0, from
below as V grows, so the solve scans for the first sign change below
min(V, j_{0,1}) and needs J only on [0, j_{0,1}]. The scalar LP01
equation u J1(u)/J0(u) = w K1(w)/K0(w) is kept as an independent oracle for
the weakly guiding limit.

The transverse intensity profile of HE11, averaged over azimuth, is

    core:  (P/u^2) [ c-^2 J0(uR)^2 + c+^2 J2(uR)^2 ] + J1(uR)^2 / 2
    clad:  (J1(u)/K1(w))^2 { (P/w^2) [ c-^2 K0(wR)^2 + c+^2 K2(wR)^2 ]
                              + K1(wR)^2 / 2 }

with R = r/a, P = (n_eff k0 a)^2, c-+ = (1 -+ s)/2 and
s = (1/u^2 + 1/w^2) / (J + K); s -> -1 in the weakly guiding limit, which
recovers the scalar J0/K0 profile. The profile is normalized so its maximum
(on axis) is 1; the effective area is the integral of the normalized
intensity over the infinite cross section, and the cavity mode volume is
cavity length times effective area (uniform-fiber approximation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C, CS_D2_CYCLING_DIPOLE, CS_D2_WAVELENGTH, EPSILON_0, HBAR
from .units import (
    POSITIVE, WAVELENGTH, Bound, Bounded, CavityGeometry, ParameterError,
)

SINGLE_MODE_V_LIMIT = 2.405  # first zero of J0: cutoff of the second mode group
J0_FIRST_ZERO = 2.404825557695773  # j_{0,1}, correctly rounded

# The largest core radius (m), refractive index and numerical aperture: V = 2 pi
# a NA / wavelength is squared as a Python float, which overflows beyond 1.34e154;
# a wavelength of at least 1 nm keeps V <= 2 pi 1e9 SIZE_LIMIT^2 below that.
SIZE_LIMIT = 1e72
SIZE = Bound(0.0, SIZE_LIMIT, "(]")


class NoGuidedModeError(RuntimeError):
    """No root of the characteristic equation inside (n_clad, n_core), or
    none that double precision can resolve (V beyond about 740, where K1(w)
    underflows)."""


def sellmeier_fused_silica(wavelength_m: float) -> float:
    """Refractive index of fused silica (Malitson 1965 Sellmeier fit)."""
    if not 0.2e-6 < wavelength_m < 3.7e-6:
        raise ParameterError("Sellmeier fit valid for 0.21-3.71 um only", field="wavelength")
    l2 = (wavelength_m * 1e6) ** 2
    n2 = (
        1.0
        + 0.6961663 * l2 / (l2 - 0.0684043**2)
        + 0.4079426 * l2 / (l2 - 0.1162414**2)
        + 0.8974794 * l2 / (l2 - 9.896161**2)
    )
    return math.sqrt(n2)


@dataclass(frozen=True)
class FiberSpec(Bounded):
    """Step-index fiber: core radius (m), core/cladding indices, wavelength (m)."""

    core_radius: float
    n_core: float
    n_clad: float
    wavelength: float

    # numerical_aperture is an argument of from_numerical_aperture
    BOUNDS = {"core_radius": SIZE, "n_core": Bound(1.0, SIZE_LIMIT, "(]"),
              "wavelength": WAVELENGTH, "numerical_aperture": SIZE}

    def __post_init__(self):
        super().__post_init__()
        if not self.n_core > self.n_clad > 1.0:
            raise ParameterError("indices must satisfy n_core > n_clad > 1")

    @property
    def k0(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def v_number(self) -> float:
        return self.k0 * self.core_radius * math.sqrt(self.n_core**2 - self.n_clad**2)

    @property
    def numerical_aperture(self) -> float:
        return math.sqrt(self.n_core**2 - self.n_clad**2)

    @classmethod
    def from_numerical_aperture(
        cls,
        core_radius: float = 2.8e-6,
        numerical_aperture: float = 0.12,
        wavelength: float = CS_D2_WAVELENGTH,
    ) -> "FiberSpec":
        """Build a FiberSpec from NA, with the cladding index from fused silica.
        The defaults are an SM800-class fiber at the cesium D2 wavelength."""
        cls.BOUNDS["numerical_aperture"].check("numerical_aperture", numerical_aperture)
        n_clad = sellmeier_fused_silica(wavelength)
        n_core = math.sqrt(n_clad**2 + float(numerical_aperture) ** 2)
        return cls(core_radius, n_core, n_clad, wavelength)

    @classmethod
    def sm800(cls) -> "FiberSpec":
        """SM800-class fiber at the cesium D2 wavelength: 2.8 um core radius,
        NA 0.12, silica cladding."""
        return cls.from_numerical_aperture()


@dataclass(frozen=True)
class ModeSolution:
    """Solved fundamental mode: n_eff, profile parameters, effective area (m^2)."""

    fiber: FiberSpec
    n_eff: float
    u: float
    w: float
    s: float
    effective_area: float
    tail_truncation_error: float

    def intensity(self, r):
        """Azimuth-averaged |phi(r)|^2, 1 on axis; a scalar r evaluates as a 1-element array."""
        profile = _intensity_profile(self.fiber, self.n_eff, self.u, self.w, self.s)
        r = np.asarray(r, dtype=float)
        out = profile(np.atleast_1d(r) / self.fiber.core_radius) / profile(np.zeros(1))[0]
        return float(out[0]) if r.ndim == 0 else out


# Bessel J and K of orders 0, 1 and 2 come from the trapezoid rule (at
# midpoint nodes) on their integral representations, which converges
# exponentially for these analytic integrands (Trefethen & Weideman, SIAM
# Review 56, 385, 2014). Each value is a sum along one row of an (arguments x
# nodes) array whose node count depends on that argument alone, so an argument
# gets the same bits alone or in any array.
_BLOCK = 256  # arguments per pass, which keeps the (arguments x nodes) temporaries small
_K_TAIL = 46.0  # the K integrand is cut where 2 x sinh^2(t/2) = 46, i.e. at e^-46


def _in_blocks(x, nodes, kernel):
    """The (3, *x.shape) values of the three orders: ``kernel(block, count)``
    gives them for a 1-D block of at most _BLOCK arguments of x that share
    the node count ``count`` in ``nodes``, an array of x's shape or one count."""
    x = np.asarray(x, dtype=float)
    flat, nodes = x.reshape(-1), np.broadcast_to(nodes, x.shape).reshape(-1)
    out = np.empty((3, flat.size))
    for count in set(nodes.tolist()):
        where = np.flatnonzero(nodes == count)
        for start in range(0, where.size, _BLOCK):
            block = where[start:start + _BLOCK]
            out[:, block] = kernel(flat[block], count)
    return out.reshape((3, *x.shape))


def _bessel_j(x):
    """(J0, J1, J2) of x in [0, J0_FIRST_ZERO], a float or an array: every J
    the mode solve needs, since the HE11 and LP01 roots u lie below j_{0,1}
    and the core intensity takes J at u R with R <= 1."""
    return _in_blocks(x, 8, _j_block)  # 8 nodes hold J to 4e-16 up to x = 7.5


def _j_block(x, nodes: int):
    """(J0, J1, J2) of a 1-D block from Bessel's integrals at ``nodes``
    midpoints, in forms whose sums do not cancel as x -> 0:

        J0 = (2/pi) int_0^{pi/2} cos(x sin tau) dtau
        J1 = (2/pi) int_0^{pi/2} sin(tau) sin(x sin tau) dtau
        J2 = -(4/pi) int_0^{pi/2} cos(2 tau) sin^2(x sin(tau) / 2) dtau
    """
    tau = (np.arange(nodes) + 0.5) * (0.5 * np.pi / nodes)
    sin_tau = np.sin(tau)
    half = 0.5 * x[:, None] * sin_tau
    sin_half, cos_half = np.sin(half), np.cos(half)
    sin2 = sin_half * sin_half
    j0 = (cos_half * cos_half - sin2).sum(axis=1)
    j1 = (sin_tau * sin_half * cos_half).sum(axis=1) * 2.0
    j2 = (-2.0 * np.cos(2.0 * tau) * sin2).sum(axis=1)
    return np.array([j0, j1, j2]) / nodes


def _bessel_k(x):
    """(K0, K1, K2) of x = 0 (inf), x >= 1e-300 or x = inf (0), a float or an array."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < np.inf)
    y = np.where(inside, x, 1.0)
    # the step shrinks as 1 / sqrt(x) for large x, and so does the cut, so
    # there a block needs fewer nodes than near x = 0
    nodes = 8.0 * np.ceil(_k_cut(y) / np.minimum(0.2, 0.55 / np.sqrt(y)) / 8.0)
    return _in_blocks(x, nodes * inside, _k_block)


def _k_cut(x):
    """Where 2 x sinh^2(t/2) = _K_TAIL."""
    return 2.0 * np.arcsinh(math.sqrt(0.5 * _K_TAIL) / np.sqrt(x))


def _k_block(x, nodes: float):
    """(K0, K1, K2) of a 1-D block: inf at x = 0, 0 at inf and NaN at NaN if
    ``nodes`` is 0, else K_n(x) = e^-x int_0^inf exp(-2 x sinh^2(t/2)) cosh(n t) dt
    at ``nodes`` midpoints up to the cut."""
    if not nodes:
        special = np.where(x == 0.0, np.inf, np.where(x > 0.0, 0.0, np.nan))
        return np.array([special] * 3)
    step = _k_cut(x) / nodes
    t = (np.arange(nodes) + 0.5) * step[:, None]
    half_versine = np.sinh(0.5 * t) ** 2  # (cosh t - 1) / 2
    cosh = 1.0 + 2.0 * half_versine
    decay = np.exp(-2.0 * (x[:, None] * half_versine))
    decay_cosh = decay * cosh
    with np.errstate(over="ignore"):  # K2 ~ 2 / x^2 overflows to inf below x = 1e-154
        cosh_2t = 2.0 * decay_cosh * cosh - decay
    sums = np.array([decay.sum(axis=1), decay_cosh.sum(axis=1), cosh_2t.sum(axis=1)])
    return sums * step * np.exp(-x)


def _log_derivatives(u, w):
    """J1'(u) / (u J1(u)) and K1'(w) / (w K1(w)), with J1' = (J0 - J2) / 2
    and K1' = -(K0 + K2) / 2."""
    j0, j1, j2 = _bessel_j(u)
    k0, k1, k2 = _bessel_k(w)
    return 0.5 * (j0 - j2) / (u * j1), -0.5 * (k0 + k2) / (w * k1)


def _he11_residual_u(u, fiber: FiberSpec):
    """Residual of the nu = 1 full vector characteristic equation at core
    parameter u, a float or an array (with w = sqrt(V^2 - u^2)); u-space
    keeps the root O(1)."""
    w = np.sqrt(np.maximum(fiber.v_number**2 - u**2, 0.0))
    rho = (fiber.n_clad / fiber.n_core) ** 2
    j, k = _log_derivatives(u, w)
    lhs = (j + k) * (j + rho * k)
    rhs = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + rho / w**2)
    return lhs - rhs


def _dispersion_lp01(u: float, fiber: FiberSpec) -> float:
    """Residual of the scalar LP01 equation u J1/J0 = w K1/K0."""
    w = math.sqrt(fiber.v_number**2 - u**2)
    j0, j1, _ = _bessel_j(u)
    k0, k1, _ = _bessel_k(w)
    return u * j1 / j0 - w * k1 / k0


def _intensity_branches(fiber: FiberSpec, n_eff: float, u: float, w: float, s: float):
    """Core and cladding azimuth-averaged intensity branches (unnormalized) of ndarray R.

    The radial intensity jumps at R = 1 (the normal field component is
    discontinuous across the index step), so quadrature must integrate each
    branch on its own region.
    """
    prefactor = (n_eff * fiber.k0 * fiber.core_radius) ** 2
    c_minus = 0.5 * (1.0 - s)
    c_plus = 0.5 * (1.0 + s)
    # the cladding scale is J1(u)^2 (K(wR) / K1(w))^2, since K1(w)^2 underflows from w ~ 350 on
    j1_u, k1_w = _bessel_j(u)[1], _bessel_k(w)[1]

    def core(R):
        j0, j1, j2 = _bessel_j(u * R)
        return (prefactor / u**2) * (c_minus**2 * j0**2 + c_plus**2 * j2**2) + 0.5 * j1**2

    def clad(R):
        k0, k1, k2 = _bessel_k(w * R) / k1_w
        return j1_u**2 * (
            (prefactor / w**2) * (c_minus**2 * k0**2 + c_plus**2 * k2**2) + 0.5 * k1**2
        )

    return core, clad


def _intensity_profile(fiber: FiberSpec, n_eff: float, u: float, w: float, s: float):
    """Combined radial profile; the core branch owns the R = 1 boundary."""
    core, clad = _intensity_branches(fiber, n_eff, u, w, s)

    def profile(R):
        return np.where(R <= 1.0, core(np.minimum(R, 1.0)), clad(np.maximum(R, 1.0)))

    return profile


def _bisect(f, lo, hi):
    """Root of f in [lo, hi] by bisection until no double lies strictly inside
    the bracket: an exact zero of f if one is met, else the end with the
    smaller |f|. Raises NoGuidedModeError where f is NaN or f(lo) and f(hi)
    have the same sign.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NoGuidedModeError(f"dispersion residual is NaN at u = {x}")
        return fx

    lo, hi = float(lo), float(hi)
    f_lo, f_hi = value(lo), value(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoGuidedModeError(f"no sign change of the dispersion residual in [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = value(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _simpson(y, x):
    """Composite Simpson integral of samples y on the uniform grid x, an odd number of them."""
    h = (x[-1] - x[0]) / (len(x) - 1)
    return h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]) + y[-1])


def solve_fundamental_mode(fiber: FiberSpec, samples_per_region: int = 4097) -> ModeSolution:
    """Solve the HE11 dispersion equation by bracketed root finding.

    Scans u over [1e-6, 1 - 1e-9] times min(V, j_{0,1}) at 2000 points for
    its first sign change (HE11's u stays below j_{0,1}: Snyder & Love,
    Optical Waveguide Theory, 1983), bisects it down to adjacent doubles
    (``_bisect``), then integrates the azimuth-averaged intensity out to 15
    core radii (composite Simpson rule, ``_simpson``, with
    ``samples_per_region`` samples, an odd number, in each of the core and the
    cladding, which are integrated separately to respect the index step).
    Warns if V >= 2.405, where the fiber also guides the second mode group.
    """
    v = fiber.v_number
    if v**2 == 0.0:  # the residual divides by u^2 and w^2, which underflow
        raise NoGuidedModeError(f"V = {v:.4g} is too small to resolve a root")
    if v >= SINGLE_MODE_V_LIMIT:
        warnings.warn(
            f"V = {v:.3f} >= {SINGLE_MODE_V_LIMIT}: fiber is not single-mode at "
            "this wavelength; returning the fundamental mode",
            stacklevel=2,
        )

    # Scan in u, where the fundamental root stays O(1); small u means n_eff
    # near n_core, so the fundamental is the crossing at the smallest u. At
    # index ratios n_core/n_clad of 40 and more, just below V = j_{0,1}, two
    # more roots lie near cutoff, so the whole span is no bracket.
    upper = min(v, J0_FIRST_ZERO)
    grid = np.linspace(1e-6 * upper, upper * (1.0 - 1e-9), 2000)
    residuals = _he11_residual_u(grid, fiber)
    finite = np.isfinite(residuals)
    signs = np.sign(residuals)
    crossings = np.nonzero(
        (np.diff(signs) != 0) & finite[:-1] & finite[1:]
    )[0]
    if crossings.size == 0:
        raise NoGuidedModeError(
            f"no HE11 root found in ({fiber.n_clad}, {fiber.n_core}); "
            f"V = {v:.4f}"
        )
    i = crossings[0]
    u = _bisect(lambda x: _he11_residual_u(x, fiber), grid[i], grid[i + 1])

    k0a = fiber.k0 * fiber.core_radius
    n_eff = math.sqrt(fiber.n_core**2 - (u / k0a) ** 2)
    w = k0a * math.sqrt(n_eff**2 - fiber.n_clad**2)
    j, k = _log_derivatives(u, w)
    s = (1.0 / u**2 + 1.0 / w**2) / (j + k)

    core_branch, clad_branch = _intensity_branches(fiber, n_eff, u, w, s)
    peak = float(core_branch(np.zeros(1))[0])

    n = int(samples_per_region)
    if n < 3 or n % 2 == 0:
        raise ParameterError("samples_per_region must be odd and >= 3")
    r0 = 15.0  # outer integration limit, in core radii
    r_core = np.linspace(0.0, 1.0, n)
    r_clad = np.linspace(1.0, r0, n)
    area = (
        _simpson(core_branch(r_core) * r_core, r_core)
        + _simpson(clad_branch(r_clad) * r_clad, r_clad)
    ) * 2.0 * math.pi * fiber.core_radius**2 / peak

    # K-function asymptotics: I(R) ~ I(R0) exp(-2 w (R - R0)), so the tail
    # beyond R0 contributes about I(R0) * 2 pi a^2 * R0 / (2 w).
    tail = (
        float(clad_branch(np.array([r0]))[0])
        / peak
        * 2.0
        * math.pi
        * fiber.core_radius**2
        * r0
        / (2.0 * w)
    )

    return ModeSolution(
        fiber=fiber,
        n_eff=float(n_eff),
        u=float(u),
        w=float(w),
        s=float(s),
        effective_area=float(area),
        tail_truncation_error=tail,
    )


def solve_lp01(fiber: FiberSpec) -> float:
    """Scalar LP01 effective index (weakly guiding oracle for HE11)."""
    v = fiber.v_number
    # The LP01 root lies below the first zero of J0 (where J0 changes sign);
    # _bisect refuses a bracket with no sign change or a NaN end (Bessel underflow).
    upper = min(v, J0_FIRST_ZERO)
    lo, hi = 1e-9 * upper, upper * (1.0 - 1e-12)
    u = _bisect(lambda x: _dispersion_lp01(x, fiber), lo, hi)
    return math.sqrt(fiber.n_core**2 - (u / (fiber.k0 * fiber.core_radius)) ** 2)


def mode_volume(mode: ModeSolution, geom: CavityGeometry) -> float:
    """Cavity mode volume: length times effective area (uniform-fiber model).

    The tapered regions and any sub-wavelength waist are neglected; the
    cross-section is the solved fiber mode along the full cavity length.
    """
    return geom.length * mode.effective_area


@dataclass(frozen=True)
class AtomSpec(Bounded):
    """Transition dipole moment (C m) and angular frequency (rad/s)."""

    dipole_moment: float
    transition_angular_frequency: float

    # transition_wavelength is an argument of from_wavelength
    BOUNDS = {"dipole_moment": POSITIVE, "transition_angular_frequency": POSITIVE,
              "transition_wavelength": WAVELENGTH}

    @classmethod
    def from_wavelength(cls, dipole_moment: float, transition_wavelength: float) -> "AtomSpec":
        """The AtomSpec of a transition at vacuum wavelength ``transition_wavelength`` (m)."""
        cls.BOUNDS["transition_wavelength"].check("transition_wavelength", transition_wavelength)
        return cls(dipole_moment, 2.0 * np.pi * C / transition_wavelength)


def cs_d2_atom() -> AtomSpec:
    """Cesium D2 cycling transition (dipole moment derived from the linewidth)."""
    return AtomSpec.from_wavelength(CS_D2_CYCLING_DIPOLE, CS_D2_WAVELENGTH)


def coupling_rate(atom: AtomSpec, mode_volume_m3: float, phi: float = 1.0) -> float:
    """Atom-cavity coupling g = sqrt(mu^2 w / (2 hbar eps0 V)) * phi.

    phi is the local mode amplitude in the max = 1 normalization; phi = 1
    gives the antinode (maximum) coupling. A volume so small that
    2 hbar eps0 V underflows to zero, or a g that overflows, is refused.
    """
    if not mode_volume_m3 > 0.0:
        raise ParameterError("mode volume must be positive")
    if not 0.0 <= phi <= 1.0:
        raise ParameterError("phi must lie in [0, 1]")
    denominator = 2.0 * HBAR * EPSILON_0 * mode_volume_m3
    if not denominator > 0.0:
        raise ParameterError(f"mode volume {mode_volume_m3:.4g} m^3 underflows 2 hbar eps0 V")
    try:  # the dipole moment's square alone may overflow
        g_max = math.sqrt(atom.dipole_moment**2 * atom.transition_angular_frequency / denominator)
    except OverflowError:
        g_max = math.inf
    if not math.isfinite(g_max):
        raise ParameterError("coupling rate overflows")
    return float(g_max * phi)
