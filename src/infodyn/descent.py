"""Derivative-free local optimizer shared by model fitting and control.

Gradients come from forward finite differences, step sizes from the
two-point secant (Barzilai-Borwein) rule. Objectives are expected to be
deterministic: callers simulate with fixed seeds so repeated evaluation at
the same point returns the same value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["OptimizationTrace", "fd_gradient", "minimize"]


@dataclass
class OptimizationTrace:
    """Per-iteration records of an optimization run.

    records carry at least (iteration, value, theta, step); control adds
    its own extra fields. best-seen value is non-increasing by
    construction.
    """

    records: list[dict] = field(default_factory=list)
    converged: bool = False

    def add(self, **record):
        self.records.append(record)

    @property
    def values(self) -> list[float]:
        return [r["value"] for r in self.records]

    def best(self) -> dict:
        return min(self.records, key=lambda r: r["value"])

    def write_csv(self, path):
        if not self.records:
            raise ValueError("empty trace")
        theta_len = len(self.records[0]["theta"])
        extra = [k for k in self.records[0] if k not in ("iteration", "value", "theta", "step")]
        header = ["iteration", "value"] + [f"theta_{i}" for i in range(theta_len)] + ["step"] + extra
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in self.records:
                row = [r["iteration"], repr(float(r["value"]))]
                row += [repr(float(t)) for t in r["theta"]]
                row.append(repr(float(r["step"])))
                row += [r[k] for k in extra]
                w.writerow(row)


def _project(theta, bounds):
    if bounds is None:
        return theta
    b = np.asarray(bounds, dtype=float)
    return np.clip(theta, b[:, 0], b[:, 1])


def _fd_steps(theta, fd_step):
    return np.maximum(fd_step, fd_step * np.abs(theta))


def _probe(t, h, lo, hi):
    """Point in [lo, hi] at which to probe a coordinate at t, and the signed
    step to it: forward by h if that fits, else backward, else the farther bound."""
    if t + h <= hi:
        return t + h, h
    back = 2 * t - (t + h)  # exact mirror image of the forward probe about t
    if back >= lo:
        return back, -h
    return (hi, hi - t) if hi - t >= t - lo else (lo, lo - t)


def _box(theta, bounds):
    """Per-coordinate (lo, hi) bounds of theta, unbounded when bounds is None."""
    return np.broadcast_to([-np.inf, np.inf] if bounds is None else bounds, (theta.size, 2))


def fd_gradient(f, theta, fd_step: float = 1e-4, bounds=None):
    """Finite-difference gradient with per-coordinate step
    h_i = max(fd_step, fd_step * |theta_i|). Histogram-based objectives are
    piecewise constant at fine scales, so callers pick fd_step above the
    bin-crossing granularity. Every probe lies within bounds (see _probe);
    a zero-width interval gets slope 0 and no probe."""
    theta = np.asarray(theta, dtype=float)
    f0 = f(theta)
    g = np.zeros_like(theta)
    for i, (h, (lo, hi)) in enumerate(zip(_fd_steps(theta, fd_step), _box(theta, bounds))):
        # Python floats: a probe past the largest float is inf, without a NumPy warning
        point, step = _probe(float(theta[i]), float(h), float(lo), float(hi))
        if step:
            probe = theta.copy()
            probe[i] = point
            g[i] = (f(probe) - f0) / step
    return f0, g


def minimize(
    f,
    theta0,
    bounds=None,
    tol: float = 1e-6,
    max_iters: int = 200,
    initial_step: float = 0.05,
    fd_step: float = 1e-4,
):
    """Minimize f from theta0 within bounds; to maximize, pass -f.

    Returns (best_theta, best_value, trace). Stops when the evaluated
    objective improves by less than tol between consecutive iterations
    (converged), the gradient vanishes, or max_iters is reached. A vanished
    gradient is convergence only when every bound interval has zero width:
    a histogram objective is flat below its bin-crossing scale. f is only
    evaluated within the bounds (see fd_gradient).
    """
    theta = _project(np.asarray(theta0, dtype=float).copy(), bounds)
    trace = OptimizationTrace()
    prev_theta = prev_grad = None
    best_theta, best_val = theta.copy(), np.inf
    last_val = None
    for it in range(max_iters):
        val, grad = fd_gradient(f, theta, fd_step=fd_step, bounds=bounds)
        if val < best_val:
            best_val, best_theta = val, theta.copy()
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            trace.add(iteration=it, value=val, theta=theta.copy(), step=0.0)
            box = _box(theta, bounds)
            trace.converged = bool(np.all(box[:, 0] == box[:, 1]))
            break
        if prev_grad is None:
            gamma = initial_step / gnorm
        else:
            d_theta = theta - prev_theta
            d_grad = grad - prev_grad
            denom = float(d_grad @ d_grad)
            gamma = abs(float(d_theta @ d_grad)) / denom if denom > 0 else initial_step / gnorm
        trace.add(iteration=it, value=val, theta=theta.copy(), step=gamma)
        if last_val is not None and abs(last_val - val) < tol:
            trace.converged = True
            break
        prev_theta, prev_grad, last_val = theta.copy(), grad, val
        theta = _project(theta - gamma * grad, bounds)
    return best_theta, best_val, trace
