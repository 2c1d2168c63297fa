"""Student-t tail probability and quantile on the standard library alone.

Both are the regularised incomplete beta function, whose continued fraction
``cf(a, b, z)`` is Gauss's for ₂F₁(a+b, 1; a+1; z).  With ``u = t²/df``::

    P(0 < T < t) = ½ I_y(½, df/2) = t · pdf(t) · cf(½, df/2, y),   y = u/(1+u)
    P(T > t)     = ½ I_x(df/2, ½) = pdf(t) · (1+u)/t · cf(df/2, ½ - df/2, -1/u)

The second is the textbook ``cf(df/2, ½, x)``, ``x = 1/(1+u)``, after Pfaff's
transformation: in *x* it amplifies the rounding of x by ``df/t²`` (2e-12 at
df = 1e5), in ``-1/u`` every term is positive.  Each converges fast on its own
side of ``x = (a+1)/(a+b+2)``, and near the median only the first resolves
``p - ½`` — so :func:`t_ppf` solves on whichever mass *t* yields.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import ConfigurationError

__all__ = ["t_sf", "t_ppf"]

_TINY = 1e-300  # stands in for an exact zero in the Lentz recurrences


def _betacf(a: float, b: float, z: float) -> float:
    """Continued fraction of I_z(a, b), modified Lentz evaluation."""
    c = 1.0
    d = h = 1.0 / ((1.0 - (a + b) * z / (a + 1.0)) or _TINY)
    for m in range(1, 100_000):
        for num in (m * (b - m) * z / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * z
                    / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / ((1.0 + num * d) or _TINY)
            c = (1.0 + num / c) or _TINY
            h *= d * c
        if abs(d * c - 1.0) < 2e-16:
            break
    return h


def _mass(t: float, df: float) -> tuple[bool, float, float]:
    """``(is_tail, mass, pdf)`` at ``t > 0``: the upper-tail mass where its
    continued fraction converges fast, else the central ``P(0 < T < t)``."""
    a, u = 0.5 * df, t * t / df
    # ln Γ(a+½) − ln Γ(a); the lgamma difference cancels to 5e-11 at a = 5e4
    lg = (0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3)
          - 1 / (640 * a**5) + 17 / (14336 * a**7) if a >= 40
          else math.lgamma(a + 0.5) - math.lgamma(a))
    pdf = math.exp(lg - 0.5 * math.log(math.pi * df)
                   - (a + 0.5) * math.log1p(u))
    if 1.0 / (1.0 + u) < (a + 1.0) / (a + 2.5):
        return True, pdf * (1.0 + u) / t * _betacf(a, 0.5 - a, -1.0 / u), pdf
    return False, t * pdf * _betacf(0.5, a, u / (1.0 + u)), pdf


def t_sf(t: float, df: float) -> float:
    """Survival function ``P(T > t)`` of Student's t with *df* degrees."""
    if not df >= 1:
        raise ConfigurationError(f"Student-t needs df >= 1, got {df}")
    if t == 0:
        return 0.5
    is_tail, mass, _ = _mass(abs(t), df)
    upper = mass if is_tail else 0.5 - mass
    return upper if t > 0 else 1.0 - upper


def t_ppf(p: float, df: float) -> float:
    """Quantile ``t_{p,df}``: Halley iteration from a Cornish–Fisher start."""
    if not (0 < p < 1 and df >= 1):
        raise ConfigurationError(f"t quantile needs 0 < p < 1 <= df: {p}, {df}")
    # masses beyond and within |t|: each difference is exact or >= ¼
    tail, centre = min(p, 1.0 - p), abs(p - 0.5)
    if centre == 0:
        return 0.0
    z = -NormalDist().inv_cdf(tail)
    t = (z + (z**3 + z) / (4 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * df**2)
         + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * df**3))
    for _ in range(1000):  # a 1e-150 tail at df = 1 is 300 trebling steps off
        is_tail, mass, pdf = _mass(t, df)
        newton = (tail - mass if is_tail else mass - centre) / pdf
        # pdf'/pdf = -t(df+1)/(df+t²); the clamp keeps a far start moving on
        step = newton / (1.0 + max(-0.5, 0.5 * newton * t * (df + 1) / (df + t * t)))
        t -= step
        if abs(step) <= 1e-6 * t:  # cubic convergence: the error left is ~1e-18
            break
    return math.copysign(t, p - 0.5)
