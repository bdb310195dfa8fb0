"""Multivariate time-series container and file I/O: columnar CSV with a
header row of variable names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SignalMatrix", "read_csv", "write_csv"]

CSV_BLOCK = 1024  # rows formatted per % call in write_csv, bounding its working set


@dataclass(frozen=True, eq=False)
class SignalMatrix:
    """Real-valued time series: rows are time samples, columns variables;
    compared by identity."""

    values: np.ndarray
    names: tuple[str, ...]
    dt: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if v.shape[0] < 2:
            raise ValueError("need at least 2 time samples")
        if v.shape[1] < 1:
            raise ValueError("need at least 1 variable")
        if not np.all(np.isfinite(v)):
            raise ValueError("values contain NaN or Inf")
        if len(self.names) != v.shape[1]:
            raise ValueError("names length does not match column count")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def select(self, names) -> "SignalMatrix":
        cols = [self.names.index(n) for n in names]
        return SignalMatrix(self.values[:, cols], tuple(names), self.dt)


def read_csv(path, dt: float = 1.0) -> SignalMatrix:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
    if not header:
        raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in header.split(",")]
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed CSV ({exc})") from exc
    if values.shape[1] != len(names):
        raise ValueError(f"{path}: {len(names)} header columns, {values.shape[1]} data columns")
    return SignalMatrix(values, names, dt)


def write_csv(signal: SignalMatrix, path) -> None:
    """The header row of names, then one row per sample of `%.17g` cells
    joined by `,`: np.savetxt's bytes, formatted one block of rows per call
    rather than one row."""
    row = ",".join(["%.17g"] * signal.n_variables) + "\n"
    with Path(path).open("w") as fh:
        fh.write(",".join(signal.names) + "\n")
        for start in range(0, signal.n_samples, CSV_BLOCK):
            block = signal.values[start:start + CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
