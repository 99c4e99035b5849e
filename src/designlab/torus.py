"""Flat-torus specialization: Bessel ball tones, covolume and packing bounds.

For a lattice with shortest nonzero vector of length s, every point of the
dual torus is a design of strength t = 4 pi^2 s^2, so a Euclidean ball with
fundamental tone below t essentially covers the torus.  Optimising the ball
radius gives an upper bound on the dual covolume and hence on lattice
sphere-packing density.

The bounds are products of powers that leave the float range from about
dimension 237 while the products themselves do not; each is therefore also
formed as the exp of a sum of logs (see ``_product``).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


# K = 40 + 4 * 502 = 2048 at this order: the half matrix has 1024 rows, 8 MiB,
# and its dense eigvalsh takes well under a second.  Past it both grow, as
# K^2 and K^3 with K ~ 4 order^(1/3); torus dims up to 253 012 018 stay below.
_BESSEL_ORDER_MAX = 502 ** 3
_DIM_MAX = 2 * _BESSEL_ORDER_MAX + 2            # the torus dim of that order
_ABOVE_DIM_MAX = (f"torus dim is above the limit {_DIM_MAX} "
                  f"(Bessel order {_BESSEL_ORDER_MAX})")


def bessel_first_zero(order: float) -> float:
    """First positive zero of the Bessel function J_order, order >= -1/2.

    Orders -1/2 and 1/2 are pi/2 and pi.  Otherwise 1/lambda_max of the K x K
    tridiagonal matrix T with zero diagonal and off-diagonal
    o_k = 1/(2 sqrt((order+k)(order+k+1))), k = 1..K-1 (Ikebe 1975; Ball 2000),
    whose top eigenvector decays once order+k passes j ~ order + 1.86 order^(1/3).
    With rows 0..K-1, o_k couples rows k-1 and k.  T^2 maps even rows to
    even rows, and its even part, of size ceil(K/2), is tridiagonal with
    diagonal o_{2i}^2 + o_{2i+1}^2 and coupling o_{2i+1} o_{2i+2} (o_0 and
    o_K are 0); it holds lambda_max(T)^2, since T is bipartite.  Orders
    above ``_BESSEL_ORDER_MAX`` are refused before anything is allocated.
    """
    if not order >= -0.5:                      # nan too
        raise ValueError("order must be >= -1/2")
    if order > _BESSEL_ORDER_MAX:
        raise ValueError(f"Bessel order {order} is above the limit {_BESSEL_ORDER_MAX} "
                         f"(torus dim {_DIM_MAX})")
    if abs(order) == 0.5:
        return math.pi if order > 0 else math.pi / 2
    # K = 40 + ceil(4 order^(1/3)); max() as a negative float ** (1/3) is complex
    k = np.arange(1, 40 + math.ceil(4 * max(order, 0) ** (1 / 3)))
    half = (len(k) + 2) // 2                       # ceil(K/2)
    o = np.zeros(2 * half + 1)                     # o[k], zero past both ends
    o[k] = 0.5 / np.sqrt((order + k) * (order + k + 1))
    even = np.diag(o[0:-1:2] ** 2 + o[1::2] ** 2)
    i = np.arange(half - 1)
    even[i + 1, i] = o[1:-2:2] * o[2:-1:2]         # eigvalsh reads the lower triangle
    return float(1 / math.sqrt(np.linalg.eigvalsh(even)[-1]))


def _first_zero(dim: int) -> float:
    """j_{n/2-1,1} for the torus dim n, the one place a dim becomes a Bessel
    order.  A dim below 1 or above ``_DIM_MAX`` is refused before dim / 2 is
    formed: past the float range it overflows."""
    if dim < 1:
        raise ValueError("need dim >= 1")
    if dim > _DIM_MAX:
        raise ValueError(_ABOVE_DIM_MAX)
    return bessel_first_zero(dim / 2 - 1)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _product(direct: Callable[[], float], log_value: float) -> float:
    """A positive product, given as written and as the log of its value.

    The product as written is kept while it is within 1e-12 of
    exp(log_value), which shows that no factor or partial product left the
    float range on the way.  Otherwise exp(log_value) is returned: math.inf
    above the float range, a vacuous upper bound.
    """
    via_logs = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf
    try:
        value = direct()
    except OverflowError:
        return via_logs
    if math.isfinite(via_logs) and abs(value - via_logs) <= 1e-12 * via_logs:
        return value
    return via_logs


def _log_unit_ball_volume(dim: int) -> float:
    return dim / 2 * math.log(math.pi) - math.lgamma(dim / 2 + 1)


def unit_ball_volume(dim: int) -> float:
    if dim < 0:
        raise ValueError(f"need dim >= 0, got {dim}")
    if dim > _DIM_MAX:                         # dim / 2 overflows past the float range
        raise ValueError(_ABOVE_DIM_MAX)
    return _product(lambda: math.pi ** (dim / 2) / math.gamma(dim / 2 + 1),
                    _log_unit_ball_volume(dim))


def ball_fundamental_tone(dim: int, radius: float) -> float:
    """Smallest Dirichlet eigenvalue of a Euclidean ball: (j_{n/2-1,1}/r)^2."""
    if dim < 1 or not 0 < radius < math.inf:
        raise ValueError("need dim >= 1 and radius > 0, finite")
    return (_first_zero(dim) / radius) ** 2


@dataclass(frozen=True)
class TorusBound:
    """Optimised covolume/packing bound for a given dimension and shortest vector."""

    dim: int
    shortest: float
    t: float                       # spectral threshold 4 pi^2 s^2
    rho_star: float                # optimal lambda/t ratio, n/(n+2)
    r_star: float                  # optimal ball radius
    covolume_bound: float          # upper bound on covol of the dual lattice
    density_bound: float           # upper bound on lattice packing density
    log10_density_bound: float     # its log10, finite in every dimension
    rho_grid: float                # grid-search minimiser, for auditing
    covolume_grid: float           # grid-search bound value
    density_grid: float            # density bound at rho_grid


def _ratio_objective(rho: float, dim: int) -> float:
    return rho ** (-dim / 2) / (1.0 - rho)


def _log_ratio_objective(rho: float, dim: int) -> float:
    return -dim / 2 * math.log(rho) - math.log(1.0 - rho)


def _density(n: int, j1: float, rho: float) -> tuple[float, float]:
    """The packing density bound v_n^2 (j/4 pi)^n rho^(-n/2)/(1 - rho) at the
    ratio rho, j = j_{n/2-1,1}, and its natural log.  It is v_n (s/2)^n times
    the covolume bound at rho, in which the shortest length s cancels."""
    log_value = (2 * _log_unit_ball_volume(n) + n * math.log(j1 / (4 * math.pi))
                 + _log_ratio_objective(rho, n))
    return _product(lambda: (unit_ball_volume(n) ** 2 * (j1 / (4 * math.pi)) ** n
                             * _ratio_objective(rho, n)),
                    log_value), log_value


def torus_covolume_bound(dim: int, shortest: float) -> TorusBound:
    """Upper bound on the covolume of the dual of a lattice with shortest
    vector length ``shortest``.

    The bound is min over ball radii r of t/(t - lambda(r)) * v_n r^n with
    lambda(r) the ball tone; substituting rho = lambda/t reduces it to
    minimising rho^(-n/2)/(1 - rho), whose minimiser is n/(n+2).  The
    closed form is cross-checked against a numeric minimisation.  Above
    the float range the covolume bounds are math.inf.  The density bounds
    come from ``_density`` and do not depend on ``shortest``.
    """
    if dim < 1 or not 0 < shortest < math.inf:
        raise ValueError("need dim >= 1 and finite shortest > 0")
    n = dim
    s = shortest
    try:
        t = 4 * math.pi ** 2 * s ** 2
    except OverflowError:                   # s ** 2 above the float range
        t = math.inf
    if not sys.float_info.min <= t < math.inf:
        raise ValueError(f"shortest {s!r} puts t = 4 pi^2 shortest^2 outside "
                         "the normal float range")
    j1 = _first_zero(n)
    log_base = _log_unit_ball_volume(n) + n * math.log(j1 / (2 * math.pi * s))

    def covolume(rho: float) -> float:
        return _product(
            lambda: (unit_ball_volume(n) * (j1 / (2 * math.pi * s)) ** n
                     * _ratio_objective(rho, n)),
            log_base + _log_ratio_objective(rho, n))

    rho_star = n / (n + 2)
    density, log_density = _density(n, j1, rho_star)

    # golden-section search; the objective is convex in rho, so unimodal
    lo, hi, shrink = 1e-9, 1 - 1e-9, (math.sqrt(5) - 1) / 2
    while hi - lo > 1e-10:
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if _log_ratio_objective(a, n) < _log_ratio_objective(b, n):
            hi = b
        else:
            lo = a
    rho_grid = (lo + hi) / 2
    return TorusBound(
        dim=n,
        shortest=s,
        t=t,
        rho_star=rho_star,
        r_star=j1 / math.sqrt(rho_star * t),
        covolume_bound=covolume(rho_star),
        density_bound=density,
        log10_density_bound=log_density / math.log(10),
        rho_grid=rho_grid,
        covolume_grid=covolume(rho_grid),
        density_grid=_density(n, j1, rho_grid)[0],
    )


def lattice_density_bound(dim: int) -> float:
    """Upper bound on lattice sphere-packing density in dimension ``dim``:
    ``_density`` at rho = n/(n+2), which is the scale-invariant closed form
    v_n^2 (j_{n/2-1,1} / 4 pi)^n ((n+2)/n)^(n/2) (n+2)/2.
    It underflows to 0.0 from dimension 2018; ``log10_density_bound`` does not.
    """
    return _density(dim, _first_zero(dim), dim / (dim + 2))[0]


def log10_density_bound(dim: int) -> float:
    """log10 of ``lattice_density_bound(dim)``, from the same sum of logs;
    finite in every dimension."""
    return _density(dim, _first_zero(dim), dim / (dim + 2))[1] / math.log(10)
