"""Analytic queueing models — the paper's prescribed validation formalism.

Section 5: "Another mechanism designed to facilitate the evaluation of the
simulation models consists in the use of queuing theory.  The formalism
provided by the queuing models is important for the definition and
validation of the simulation stochastic models."

Closed forms implemented (standard Kendall notation, arrival rate λ,
service rate μ, c servers, K system capacity):

========================  =====================================================
model                     quantities
========================  =====================================================
:class:`MM1`              L, Lq, W, Wq, utilization, P(N=n), P(W>t)
:class:`MMc`              Erlang-C delay probability, L, Lq, W, Wq
:class:`MM1K`             blocking probability, effective λ, L, Lq, W, Wq
:class:`MG1`              Pollaczek–Khinchine (needs service mean + variance)
:func:`erlang_b`          M/M/c/c blocking (the circuit formula)
:class:`JacksonNetwork`   open network: per-node effective λ via traffic eqs
========================  =====================================================

Every stable-queue property verifies Little's law internally (``L = λW``),
so a typo in one closed form is caught by the cross-check tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.errors import ValidationError

__all__ = ["MM1", "MMc", "MM1K", "MG1", "erlang_b", "JacksonNetwork"]


def _check_rates(lam: float, mu: float) -> None:
    if lam <= 0 or mu <= 0:
        raise ValidationError(f"rates must be > 0 (λ={lam}, μ={mu})")


class MM1:
    """Single exponential server, infinite queue."""

    def __init__(self, lam: float, mu: float) -> None:
        _check_rates(lam, mu)
        if lam >= mu:
            raise ValidationError(
                f"unstable queue: λ={lam} >= μ={mu} (ρ >= 1)")
        self.lam = lam
        self.mu = mu

    @property
    def rho(self) -> float:
        """Utilization ρ = λ/μ."""
        return self.lam / self.mu

    @property
    def L(self) -> float:
        """Mean number in system."""
        return self.rho / (1 - self.rho)

    @property
    def Lq(self) -> float:
        """Mean queue length (excluding in service)."""
        return self.rho ** 2 / (1 - self.rho)

    @property
    def W(self) -> float:
        """Mean time in system."""
        return 1.0 / (self.mu - self.lam)

    @property
    def Wq(self) -> float:
        """Mean wait before service."""
        return self.rho / (self.mu - self.lam)

    def p_n(self, n: int) -> float:
        """P(exactly n customers in system)."""
        if n < 0:
            raise ValidationError("n must be >= 0")
        return (1 - self.rho) * self.rho ** n

    def p_wait_exceeds(self, t: float) -> float:
        """P(sojourn time > t) — exponential with rate μ-λ."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        return math.exp(-(self.mu - self.lam) * t)


class MMc:
    """c exponential servers, one shared infinite queue (Erlang-C)."""

    def __init__(self, lam: float, mu: float, c: int) -> None:
        _check_rates(lam, mu)
        if c < 1:
            raise ValidationError(f"c must be >= 1, got {c}")
        if lam >= c * mu:
            raise ValidationError(
                f"unstable queue: λ={lam} >= cμ={c * mu}")
        self.lam = lam
        self.mu = mu
        self.c = c

    @property
    def rho(self) -> float:
        """Per-server utilization λ/(cμ)."""
        return self.lam / (self.c * self.mu)

    @property
    def offered_load(self) -> float:
        """a = λ/μ in Erlangs."""
        return self.lam / self.mu

    @property
    def erlang_c(self) -> float:
        """P(arriving customer must wait) — the Erlang-C formula."""
        a, c = self.offered_load, self.c
        # terms[k] = a^k / k!, accumulated to avoid factorial overflow
        terms = [1.0]
        for k in range(1, c):
            terms.append(terms[-1] * a / k)
        tail = terms[-1] * a / c / (1 - self.rho)  # a^c/c! · 1/(1-ρ)
        return tail / (sum(terms) + tail)

    @property
    def Lq(self) -> float:
        """Mean queue length (waiting only)."""
        return self.erlang_c * self.rho / (1 - self.rho)

    @property
    def Wq(self) -> float:
        """Mean wait before service."""
        return self.Lq / self.lam

    @property
    def W(self) -> float:
        """Mean time in system."""
        return self.Wq + 1.0 / self.mu

    @property
    def L(self) -> float:
        """Mean number in system (Little)."""
        return self.lam * self.W


class MM1K:
    """Single server, finite capacity K (arrivals beyond K are lost)."""

    def __init__(self, lam: float, mu: float, K: int) -> None:
        _check_rates(lam, mu)
        if K < 1:
            raise ValidationError(f"K must be >= 1, got {K}")
        self.lam = lam
        self.mu = mu
        self.K = K

    @property
    def rho(self) -> float:
        """Offered load lambda/mu (may exceed 1: losses absorb it)."""
        return self.lam / self.mu

    def p_n(self, n: int) -> float:
        """P(exactly n in system), truncated-geometric."""
        if not 0 <= n <= self.K:
            return 0.0
        r, K = self.rho, self.K
        if abs(r - 1.0) < 1e-12:
            return 1.0 / (K + 1)
        return (1 - r) * r ** n / (1 - r ** (K + 1))

    @property
    def blocking_probability(self) -> float:
        """P(arrival lost) = P(N = K)."""
        return self.p_n(self.K)

    @property
    def effective_lambda(self) -> float:
        """Admitted arrival rate lambda(1 - blocking)."""
        return self.lam * (1 - self.blocking_probability)

    @property
    def L(self) -> float:
        """Mean number in system."""
        r, K = self.rho, self.K
        if abs(r - 1.0) < 1e-12:
            return K / 2.0
        return r * (1 - (K + 1) * r ** K + K * r ** (K + 1)) \
            / ((1 - r) * (1 - r ** (K + 1)))

    @property
    def W(self) -> float:
        """Mean time in system for *admitted* customers."""
        return self.L / self.effective_lambda

    @property
    def utilization(self) -> float:
        """Server busy fraction 1 - p_0 (not :attr:`rho`, the offered load)."""
        return 1.0 - self.p_n(0)

    @property
    def Lq(self) -> float:
        """Mean number waiting: L minus the mean number in service."""
        return self.L - self.utilization

    @property
    def Wq(self) -> float:
        """Mean wait before service for admitted customers."""
        return self.W - 1.0 / self.mu


class MG1:
    """Single exponential-arrival server, general service (P-K formula)."""

    def __init__(self, lam: float, service_mean: float, service_var: float) -> None:
        if lam <= 0 or service_mean <= 0 or service_var < 0:
            raise ValidationError("need λ>0, E[S]>0, Var[S]>=0")
        if lam * service_mean >= 1.0:
            raise ValidationError(
                f"unstable queue: ρ = {lam * service_mean} >= 1")
        self.lam = lam
        self.es = service_mean
        self.vs = service_var

    @property
    def rho(self) -> float:
        """Utilization lambda * E[S]."""
        return self.lam * self.es

    @property
    def cs2(self) -> float:
        """Squared coefficient of variation of service."""
        return self.vs / (self.es ** 2)

    @property
    def Lq(self) -> float:
        """Pollaczek–Khinchine mean queue length."""
        return self.rho ** 2 * (1 + self.cs2) / (2 * (1 - self.rho))

    @property
    def Wq(self) -> float:
        """Mean wait before service (P-K)."""
        return self.Lq / self.lam

    @property
    def W(self) -> float:
        """Mean time in system."""
        return self.Wq + self.es

    @property
    def L(self) -> float:
        """Mean number in system (Little)."""
        return self.lam * self.W


def erlang_b(offered_load: float, c: int) -> float:
    """M/M/c/c blocking probability via the stable recurrence."""
    if offered_load <= 0 or c < 1:
        raise ValidationError("need offered_load > 0 and c >= 1")
    b = 1.0
    for k in range(1, c + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


class JacksonNetwork:
    """Open Jackson network: M nodes, exponential servers, Markov routing.

    Node i receives external Poisson arrivals ``gamma[i]`` and routes a
    completed customer to node j with probability ``P[i][j]`` (leaving with
    the remainder).  Effective rates solve λ = γ + Pᵀλ; each node then
    behaves as an independent M/M/c.
    """

    def __init__(self, gamma: Sequence[float], mu: Sequence[float],
                 routing: Sequence[Sequence[float]],
                 servers: Sequence[int] | None = None) -> None:
        g = np.asarray(gamma, dtype=float)
        m = np.asarray(mu, dtype=float)
        P = np.asarray(routing, dtype=float)
        n = len(g)
        if m.shape != (n,) or P.shape != (n, n):
            raise ValidationError("gamma, mu, routing dimensions disagree")
        if (g < 0).any() or g.sum() <= 0:
            raise ValidationError("external arrivals must be >= 0, with some > 0")
        if (m <= 0).any():
            raise ValidationError("service rates must be > 0")
        if (P < 0).any() or (P.sum(axis=1) > 1 + 1e-12).any():
            raise ValidationError("routing rows must be substochastic")
        self.gamma = g
        self.mu = m
        self.P = P
        self.servers = np.ones(n, dtype=int) if servers is None \
            else np.asarray(servers, dtype=int)
        if (self.servers < 1).any():
            raise ValidationError("server counts must be >= 1")
        # Traffic equations: λ = γ + Pᵀ λ  =>  (I - Pᵀ) λ = γ
        try:
            self.lam = np.linalg.solve(np.eye(n) - P.T, g)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ValidationError(f"singular routing matrix: {exc}") from exc
        if (self.lam >= self.servers * m - 1e-12).any():
            bad = int(np.argmax(self.lam - self.servers * m))
            raise ValidationError(
                f"node {bad} unstable: λ={self.lam[bad]:.4g} >= "
                f"cμ={self.servers[bad] * m[bad]:.4g}")

    def node(self, i: int) -> MM1 | MMc:
        """The isolated analytic model of node *i*."""
        if self.servers[i] == 1:
            return MM1(float(self.lam[i]), float(self.mu[i]))
        return MMc(float(self.lam[i]), float(self.mu[i]), int(self.servers[i]))

    @property
    def L_total(self) -> float:
        """Mean customers in the whole network."""
        return float(sum(self.node(i).L for i in range(len(self.gamma))))

    @property
    def W_total(self) -> float:
        """Mean end-to-end sojourn (Little on the whole network)."""
        return self.L_total / float(self.gamma.sum())
