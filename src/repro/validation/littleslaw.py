"""Little's-law and conservation checkers usable on any instrumented model.

Little's law (L = λW) holds for *any* stable queueing system regardless of
distributions or discipline, which makes it the cheapest possible sanity
check on a simulation's bookkeeping: if measured L, λ, and W disagree, the
model (or the statistics) is wrong — no analytic solution of the whole
model needed.  The paper's validation trend (Section 5) is exactly about
giving users such self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ValidationError

__all__ = ["LittleCheck", "check_littles_law", "check_flow_conservation"]


@dataclass(frozen=True, slots=True)
class LittleCheck:
    """Outcome of one Little's-law test."""

    L: float
    lam: float
    W: float
    rel_error: float
    passed: bool

    def __str__(self) -> str:  # pragma: no cover
        verdict = "OK" if self.passed else "VIOLATION"
        return (f"Little's law {verdict}: L={self.L:.4g} vs λW="
                f"{self.lam * self.W:.4g} (rel err {self.rel_error:.2%})")


def check_littles_law(L: float, lam: float, W: float,
                      tolerance: float = 0.05) -> LittleCheck:
    """Compare measured L against λ·W.

    Parameters are the *measured* time-average number in system, arrival
    rate, and mean sojourn; tolerance is the accepted relative error
    (finite runs carry end effects, so 0 is unachievable).
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be > 0")
    if lam < 0 or W < 0 or L < 0:
        raise ValidationError("L, λ, W must be >= 0")
    predicted = lam * W
    if predicted == 0 and L == 0:
        return LittleCheck(L, lam, W, 0.0, True)
    denom = max(abs(predicted), abs(L), 1e-300)
    rel = abs(L - predicted) / denom
    return LittleCheck(L, lam, W, rel, rel <= tolerance)


def check_flow_conservation(arrived: int, departed: int, in_system: int,
                            initial: int = 0) -> bool:
    """Customers are conserved: arrived + initial == departed + in_system.

    Raises :class:`ValidationError` (with the imbalance) on violation so
    test suites get a diagnostic, not just ``False``.
    """
    if min(arrived, departed, in_system, initial) < 0:
        raise ValidationError("counts must be >= 0")
    lhs = arrived + initial
    rhs = departed + in_system
    if lhs != rhs:
        raise ValidationError(
            f"flow imbalance: arrived({arrived}) + initial({initial}) != "
            f"departed({departed}) + in_system({in_system}) [Δ={lhs - rhs}]")
    return True


def effective_rate(count: int, span: float) -> float:
    """Events per unit time with guard rails (span must be positive)."""
    if span <= 0:
        raise ValidationError(f"span must be > 0, got {span}")
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    return count / span
