"""Uniform grids, sampled trajectories, and application of the discrete Caputo operator."""

import math
from dataclasses import dataclass, field

import numpy as np

from .special import require_count, require_real
from .weights import WeightTable

__all__ = ["GridSpec", "Trajectory", "apply_discrete_caputo", "compensated_cdot"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_n = n * T / M on [0, T]: T a positive finite number, M a count >= 1."""

    T: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "T", require_real(self.T, "horizon T"))
        if not self.T > 0.0:
            raise ValueError(f"horizon T must be positive, got {self.T!r}")
        object.__setattr__(self, "M", require_count(self.M, "M", 1))

    @property
    def dt(self) -> float:
        return self.T / self.M

    def times(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.dt

    def node(self, n: int) -> float:
        return require_count(n, "n", 0, self.M) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Complex samples u_0..u_M on a grid."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    validate: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.M + 1,):
            raise ValueError(
                f"trajectory needs {self.grid.M + 1} samples for M={self.grid.M}, got shape {v.shape}"
            )
        if self.validate and not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise ValueError("trajectory samples must be finite")
        if v is not self.values or v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "values", v)


def compensated_cdot(w, u) -> complex:
    """Exactly rounded complex dot sum_j w_j u_j (fsum over the product array).

    Products carry one rounding each; their accumulation is exact, which keeps
    long-history convolutions reproducible and off the naive O(sqrt(n)) noise
    growth.
    """
    p = np.multiply(w, u)
    if np.iscomplexobj(p):
        return complex(math.fsum(p.real.tolist()), math.fsum(p.imag.tolist()))
    return complex(math.fsum(p.tolist()), 0.0)


def apply_discrete_caputo(table: WeightTable, traj: Trajectory, n: int) -> complex:
    """D u_n = dt^(-alpha) [ sum_{j<k} w_{n,j} u_j + sum_{j<=n} omega_{n-j} u_j ].

    Direct O(n) evaluation; all weighted samples go through one compensated sum.
    """
    k = table.scheme.k
    n = require_count(n, "n", k, traj.grid.M)
    if table.n_max < n:
        raise ValueError(f"weight table covers n <= {table.n_max}, needs {n}")
    u = traj.values
    w = np.concatenate((table.omega[n::-1], table.starting[n]))
    acc = compensated_cdot(w, np.concatenate((u[: n + 1], u[:k])))
    return acc * traj.grid.dt ** (-table.alpha)
