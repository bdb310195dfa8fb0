"""Multivariate time-series container and file I/O.

Two on-disk layouts are supported: columnar CSV with a header row of
variable names, and raw little-endian float64 with a JSON sidecar
declaring (n_samples, n_variables, names, dt).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SignalMatrix", "read_csv", "write_csv", "read_raw", "write_raw"]


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
    path = Path(path)
    header = ",".join(signal.names)
    np.savetxt(path, signal.values, delimiter=",", header=header, comments="", fmt="%.17g")


def read_raw(data_path, sidecar_path=None) -> SignalMatrix:
    data_path = Path(data_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else data_path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text())
    n_t, n_v = int(meta["n_samples"]), int(meta["n_variables"])
    raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != n_t * n_v:
        raise ValueError(f"{data_path}: expected {n_t * n_v} float64 values, found {raw.size}")
    return SignalMatrix(raw.reshape(n_t, n_v), meta["names"], float(meta.get("dt", 1.0)))


def write_raw(signal: SignalMatrix, data_path, sidecar_path=None) -> None:
    data_path = Path(data_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else data_path.with_suffix(".json")
    signal.values.astype("<f8").tofile(data_path)
    meta = {
        "n_samples": signal.n_samples,
        "n_variables": signal.n_variables,
        "names": list(signal.names),
        "dt": signal.dt,
    }
    sidecar_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
