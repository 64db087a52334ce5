"""Scalar model parameters and their validity rules.

The problem data is (n, p, s, q, alpha, beta, lam, mu): a sublinear term with
exponent q < p and a coupled term |u|^alpha |v|^beta with alpha + beta > p.
The critical coupling case is alpha + beta = p* = n p / (n - p s).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

CRITICAL_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the system, validated on construction."""

    n: int
    p: float
    s: float
    q: float
    alpha: float
    beta: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not self.n > self.p * self.s:
            raise ValueError(f"need n > p*s for a finite critical exponent (n={self.n}, p*s={self.p * self.s})")
        if not 1.0 < self.q < self.p:
            raise ValueError(f"need 1 < q < p, got q={self.q}, p={self.p}")
        if not (self.alpha > 1.0 and self.beta > 1.0):
            raise ValueError(f"alpha and beta must exceed 1, got ({self.alpha}, {self.beta})")
        if not self.alpha + self.beta > self.p:
            raise ValueError(f"need p < alpha + beta, got p={self.p}, alpha+beta={self.alpha + self.beta}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError(f"lam and mu must be nonnegative, got ({self.lam}, {self.mu})")

    @property
    def p_star(self) -> float:
        """Critical Sobolev exponent n p / (n - p s)."""
        return self.n * self.p / (self.n - self.p * self.s)

    @property
    def ab(self) -> float:
        """Total coupling exponent alpha + beta."""
        return self.alpha + self.beta

    @property
    def critical(self) -> bool:
        """True when alpha + beta matches p_star to relative 1e-12.

        Fibering operations never need this; the closed-form constants do.
        """
        return abs(self.ab - self.p_star) <= CRITICAL_RTOL * self.p_star

    @property
    def sigma(self) -> float:
        """Combined weight lam^(p/(p-q)) + mu^(p/(p-q)) of the sublinear term."""
        return self.lam ** (self.p / (self.p - self.q)) + self.mu ** (self.p / (self.p - self.q))

    def with_weights(self, lam: float, mu: float) -> "ModelParams":
        """Copy with different (lam, mu); all other fields unchanged."""
        return ModelParams(self.n, self.p, self.s, self.q, self.alpha, self.beta, lam, mu)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(
            n=d["n"],
            p=d["p"],
            s=d["s"],
            q=d["q"],
            alpha=d["alpha"],
            beta=d["beta"],
            lam=d.get("lambda", 0.0),
            mu=d.get("mu", 0.0),
        )
