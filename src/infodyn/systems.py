"""Desk-scale dynamical-system generators.

These stand in for large simulations when exercising the causality,
modeling, and control machinery: coupled logistic maps, Lorenz-96, a GOY
shell-model energy cascade, a noisy linear plant with a delayed sensor run
in closed loop, and a catalog of symbolic-map fixtures with analytically
known joint PMFs.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from . import params
from .discretization import SymbolSeries
from .pmf import JointPMF
from .signals import SignalMatrix

__all__ = [
    "SystemSpec",
    "NumericalBlowup",
    "LinearPlant",
    "simulate",
    "symbolic_map_suite",
    "SymbolicFixture",
]

BLOWUP_CHECK_EVERY = 100  # steps between finiteness checks of an integrated state


@dataclass(frozen=True)
class SystemSpec:
    """A system run. Fields left at None take their defaults from the
    parameter table, which checks the others; simulate checks parameters."""

    kind: str
    parameters: dict = field(default_factory=dict)
    n_steps: int = None
    transient_steps: int = None
    seed: int = None
    dt: float = None

    def __post_init__(self):
        fields = ("kind", "n_steps", "transient_steps", "seed", "dt")
        given = {k: getattr(self, k) for k in fields if getattr(self, k) is not None}
        for k, v in params.resolve("system", given).items():
            if k in fields:
                object.__setattr__(self, k, v)
        if self.n_steps < self.transient_steps + 2:  # a run records at least 2 samples
            raise ValueError(f"system.n_steps must be >= transient_steps + 2 = "
                             f"{self.transient_steps + 2}, got {self.n_steps}")


class NumericalBlowup(RuntimeError):
    """Raised when a trajectory leaves the finite range, with the step index."""

    def __init__(self, step: int, what: str):
        super().__init__(f"numerical blow-up at step {step} in {what}")
        self.step = step


def _integrate(step, x0, spec: SystemSpec, observe, sample_every=1):
    """Run spec.n_steps steps x <- step(x) from x0. After the transient,
    observe(x) is kept every sample_every-th step, as many rows as whole
    sampling periods fit. The state is checked finite every
    BLOWUP_CHECK_EVERY steps and after the last one; a non-finite state
    raises NumericalBlowup at the step where it was found.
    Returns (kept rows, final state)."""
    n_keep = (spec.n_steps - spec.transient_steps) // sample_every
    keep = range(spec.transient_steps, spec.n_steps, sample_every)[:n_keep]
    rows = np.empty((n_keep, np.size(observe(x0))))  # observe(x0) only sizes a row
    x = x0
    # the finiteness check reports overflow, so NumPy's per-operation warnings
    # are dropped (np.errstate would slow every ufunc call by ~0.1 us)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in range(spec.n_steps):
            x = step(x)
            if (n % BLOWUP_CHECK_EVERY == 0 or n == spec.n_steps - 1) and not np.all(np.isfinite(x)):
                raise NumericalBlowup(n, spec.kind)
            if n in keep:
                rows[(n - keep.start) // sample_every] = observe(x)
    return rows, x


def _rk4_stepper(rhs, stage, dt):
    """GOY's RK4 step x -> x + (dt/6) (k1 + 2 k2 + 2 k3 + k4) of x' = rhs.
    rhs(out) evaluates the right-hand side at the array `stage` into out;
    each stage input (x, x + (dt/2) k1, x + (dt/2) k2, x + dt k3) is written
    into `stage` in place, and k1..k4 are buffers kept across steps, so a
    step allocates only the state it returns. Every product keeps the
    operand order of x + (0.5 * dt * k1) and so on, so a step is bit for bit
    the allocating form's (complex multiplies need not commute bitwise).
    The constants are cast once to 0-d arrays of the stage's dtype, the
    value NumPy would cast a Python scalar to in every call, at about half
    the per-call cost; k2 and k3 share one buffer, so 2 k2 and 2 k3 are one
    call."""
    n = stage.size
    k1, k4, k23 = np.empty_like(stage), np.empty_like(stage), np.empty(2 * n, stage.dtype)
    k2, k3 = k23[:n], k23[n:]
    half, full, two, sixth = (np.array(c, stage.dtype) for c in (0.5 * dt, dt, 2, dt / 6.0))
    add, mul = np.add, np.multiply

    def step(x):
        np.copyto(stage, x)
        rhs(k1)
        add(x, mul(half, k1, stage), stage)
        rhs(k2)
        add(x, mul(half, k2, stage), stage)
        rhs(k3)
        add(x, mul(full, k3, stage), stage)
        rhs(k4)
        mul(two, k23, k23)
        add(k1, k2, k1)  # ((k1 + 2 k2) + 2 k3) + k4, summed in place
        add(k1, k3, k1)
        add(k1, k4, k1)
        return x + mul(sixth, k1, k1)

    return step


# ---------------------------------------------------------------------------
# coupled logistic maps

def _coupled_logistic(spec: SystemSpec, p: dict) -> SignalMatrix:
    c = p["coupling"]

    def step(state):  # y is driven by x through the coupling c
        x, y = state
        y_mix = (1.0 - c) * y + c * x
        return 4.0 * x * (1.0 - x), 4.0 * y_mix * (1.0 - y_mix)

    # Python floats: the same IEEE operations as NumPy scalars, faster per step
    x0 = tuple(np.random.default_rng(spec.seed).uniform(0.1, 0.9, size=2).tolist())
    rows, _ = _integrate(step, x0, spec, lambda state: state)
    return SignalMatrix(rows, ("x", "y"), spec.dt)


# ---------------------------------------------------------------------------
# Lorenz-96

def _lorenz96_stepper(n: int, forcing: float, dt: float):
    """The RK4 step of x_i' = ((x[i+1] - x[i-2]) * x[i-1] - x[i]) + forcing
    on a tuple of n sites' Python floats: stage inputs x + (dt/2) k1,
    x + (dt/2) k2 and x + dt k3, then x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4):
    the IEEE operations, in order, of _rk4_stepper on arrays, so a run is
    bit for bit that of a NumPy step. Straight-line source, one local per
    site and stage, is generated from the site indices alone and compiled
    into a scope holding the constants as floats. At about 0.45 us per site
    it beats NumPy's flat ~15 us per step (33 calls on arrays of a few
    entries) up to about 30 sites."""

    def rhs(k, v):  # k_i = ((v[i+1] - v[i-2]) * v[i-1] - v[i]) + forcing
        return [f"{k}{i} = (({v}{(i + 1) % n} - {v}{(i - 2) % n}) * {v}{(i - 1) % n} - {v}{i})"
                " + forcing" for i in range(n)]

    def stage(v, c, k):  # v_i = x_i + c * k_i
        return [f"{v}{i} = x{i} + {c} * {k}{i}" for i in range(n)]

    body = ["".join(f"x{i}, " for i in range(n)) + "= x",
            *rhs("a", "x"), *stage("p", "half", "a"),
            *rhs("b", "p"), *stage("q", "half", "b"),
            *rhs("c", "q"), *stage("r", "full", "c"),
            *rhs("d", "r"),
            "return " + "".join(f"x{i} + sixth * (((a{i} + two * b{i}) + two * c{i}) + d{i}), "
                                for i in range(n))]
    scope = {"forcing": forcing, "half": 0.5 * dt, "full": dt, "two": 2.0, "sixth": dt / 6.0}
    source = "def step(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<lorenz96 RK4 step, {n} sites>", "exec"), scope)
    return scope["step"]


def _lorenz96(spec: SystemSpec, p: dict) -> SignalMatrix:
    n_sites = p["n_sites"]
    rng = np.random.default_rng(spec.seed)
    x0 = p["forcing"] * np.ones(n_sites) + 0.01 * rng.standard_normal(n_sites)
    step = _lorenz96_stepper(n_sites, p["forcing"], spec.dt)
    rows, _ = _integrate(step, tuple(x0.tolist()), spec, lambda state: state)
    return SignalMatrix(rows, tuple(f"x{i}" for i in range(n_sites)), spec.dt)


# ---------------------------------------------------------------------------
# GOY shell model

def _goy_model(spec: SystemSpec, p: dict):
    """GOY set-up from the resolved parameters `p`: `p`, the RK4 step of
    u' = (N(u) - nu k^2 u) + f, the nonlinear term N (the step's own
    kernel, evaluated at a given state into one buffer that the next call
    overwrites) and the seeded initial state. N conserves total energy
    sum |u_n|^2. The shell indices forced_shell and cuts must lie below
    n_shells."""
    n = p["n_shells"]
    cuts = p["cuts"] = np.array(p["cuts"], dtype=int)
    if cuts.size == 0:
        raise ValueError("goy-shell.cuts must list at least 1 shell, got []")
    for key, index in [("forced_shell", p["forced_shell"]),
                       *((f"cuts[{i}]", c) for i, c in enumerate(cuts))]:
        if index >= n:
            raise ValueError(f"goy-shell.{key} must be < n_shells = {n}, got {index}")
    k = p["k0"] * p["lam"] ** np.arange(1, n + 1)
    # interaction weights with the boundary shells zeroed via lag products,
    # cast to complex once as NumPy would in every float x complex product
    km1 = np.concatenate(([0.0], k[:-1]))
    km2 = np.concatenate(([0.0, 0.0], k[:-2]))
    kc, c1, c2, damp = (a.astype(complex) for a in (
        k, p["eps"] * km1, (1.0 - p["eps"]) * km2, p["nu"] * k**2))
    f = np.zeros(n, dtype=complex)
    f[p["forced_shell"]] = (1 + 1j) * p["f_amp"]
    # shells n-2 .. n+2 as views of one buffer: the stage between zero pads
    pad = np.zeros(n + 4, dtype=complex)
    um2, um1, u, up1, up2 = (pad[j:j + n] for j in range(5))
    tmp, nl = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    i = np.array(1j)  # 0-d: see _rk4_stepper
    mul, sub = np.multiply, np.subtract

    def nonlinear_at_stage(out):  # 1j conj(k u+1 u+2 - c1 u-1 u+1 - c2 u-1 u-2)
        mul(mul(kc, up1, out), up2, out)
        sub(out, mul(mul(c1, um1, tmp), up1, tmp), out)
        sub(out, mul(mul(c2, um1, tmp), um2, tmp), out)
        return mul(i, np.conjugate(out, out), out)

    def rhs(out):
        sub(nonlinear_at_stage(out), mul(damp, u, tmp), out)
        np.add(out, f, out)

    def nonlinear(v):
        np.copyto(u, v)
        return nonlinear_at_stage(nl)

    rng = np.random.default_rng(spec.seed)
    u0 = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * k ** (-1 / 3)
    return p, _rk4_stepper(rhs, u, spec.dt), nonlinear, u0


def _goy_run(spec: SystemSpec, p: dict) -> SignalMatrix:
    p, step, nonlinear, u0 = _goy_model(spec, p)
    cuts, sample_every = p["cuts"], p["sample_every"]
    most = (spec.n_steps - spec.transient_steps) // 2  # the run keeps at least 2 samples
    if sample_every > most:
        raise ValueError(f"goy-shell.sample_every must be <= (n_steps - transient_steps) // 2 = "
                         f"{most}, got {sample_every}")

    # buffers of the flux row, kept for the whole run; `real` views `product`
    product, rate = np.empty(len(u0), dtype=complex), np.empty(len(u0))
    real, two = product.real, np.array(2.0)

    def flux(u):
        # energy flux through each cut: net rate at which the nonlinear
        # term drains energy from the shells at and below the cut index,
        # -cumsum(2 Re(conj(u) N(u)))[cuts] with the negation exact, so
        # taken after the cuts' entries are picked
        np.multiply(np.conjugate(u, product), nonlinear(u), product)
        np.add.accumulate(np.multiply(two, real, rate), out=rate)
        row = rate[cuts]
        return np.negative(row, row)

    rows, _ = _integrate(step, u0, spec, flux, sample_every)
    # exponential smoothing stands in for a volume average over the
    # observation region; alpha derived from the declared smoothing time
    sample_dt = spec.dt * sample_every
    alpha = min(1.0, sample_dt / p["smooth_time"]) if p["smooth_time"] > 0 else 1.0
    beta = 1 - alpha
    for column in rows.T:  # a Python-float recurrence: NumPy's row-wise result, bit for bit
        smoothed = accumulate(array("d", column.tobytes()), lambda prev, x: alpha * x + beta * prev)
        column[:] = np.fromiter(smoothed, float, len(column))
    names = tuple(f"sigma{b + 1}" for b in range(len(cuts)))
    return SignalMatrix(rows, names, sample_dt)


# ---------------------------------------------------------------------------
# noisy linear plant with a delayed sensor

NOISE_BLOCK = 4096  # steps per noise draw and blow-up check in closed_loop, bounding its working set


class LinearPlant:
    """Scalar AR(1) plant x' = a x + A + w with a delayed, noisy sensor
    S = x delayed by theta_s samples + v. theta_s is a continuous sensing
    delay in samples (linearly interpolated, clipped to [0, max_delay]), the
    tunable analog of a sensing location. The plant holds its parameters
    a, noise_std, sensor_noise_std and max_delay (checked and defaulted by
    params.SECTIONS["plant"]) and the blow-up threshold; closed_loop runs
    it under a proportional controller."""

    def __init__(self, *, blowup=1e9, **parameters):
        vars(self).update(params.resolve("plant", parameters))
        self.blowup = blowup

    def closed_loop(self, gain: float, theta_s: float, n_steps: int, transient: int,
                    seed: int) -> np.ndarray:
        """Rows (x, S, A) of steps transient..n_steps-1 under A = -gain * S from
        x = 0 and a zero sensor history, drawing per step from default_rng(seed)
        the sensor noise (if sensor_noise_std is nonzero), then the process noise.
        A state not finite or beyond `blowup` raises NumericalBlowup at its step.
        The loop steps x alone; S and A follow in NumPy by the same operations."""
        if transient < 0:
            raise ValueError(f"transient must be >= 0, got {transient}")
        if n_steps < transient + 2:  # a trajectory has at least 2 recorded steps
            raise ValueError(f"n_steps must be >= transient + 2 = {transient + 2}, got {n_steps}")
        rng = np.random.default_rng(seed)
        d = float(np.clip(theta_s, 0.0, self.max_delay))
        lo = int(np.floor(d))
        frac = d - lo
        a, ng, c0 = self.a, -gain, 1 - frac  # (-g) * s is bitwise -(g * s)
        # xs: lag + 1 zeros, then step n's x at n + lag. Step n senses h0 = xs[n], read
        # live by `sensed` (zipped after the range, which ends each block first), and
        # h1 = xs[n - 1]. A delay past the run senses only zeros.
        lag = min(lo, n_steps) + 1
        xs = array("d", bytes(8 * (lag + 1 + n_steps)))
        x_all, sensed = np.frombuffer(xs), iter(xs)
        next(sensed)
        rows = np.zeros((n_steps, 3))
        x = h1 = 0.0
        for start in range(0, n_steps, NOISE_BLOCK):
            stop = min(start + NOISE_BLOCK, n_steps)
            if self.sensor_noise_std:  # per step: sensor, then process noise
                vw = rng.normal(0.0, (self.sensor_noise_std, self.noise_std), size=(stop - start, 2))
                rows[start:stop, 1] = vw[:, 0]
                vs, ws = vw.T.tolist()
            else:
                vs, ws = repeat(0.0), rng.normal(0.0, self.noise_std, size=stop - start).tolist()
            for j, h0, v, w in zip(range(start + lag + 1, stop + lag + 1), sensed, vs, ws):
                x = a * x + ng * (c0 * h0 + frac * h1 + v) + w
                xs[j] = x
                h1 = h0
            bad = np.flatnonzero(~(np.abs(x_all[start + lag + 1:stop + lag + 1]) <= self.blowup))
            if bad.size:
                raise NumericalBlowup(start + int(bad[0]) + 1, "linear-plant")
        rows[:, 0] = x_all[lag + 1:]
        rows[:, 1] += c0 * x_all[1:n_steps + 1] + frac * x_all[:n_steps]
        np.multiply(ng, rows[:, 1], out=rows[:, 2])
        return rows[transient:]


def simulate(spec: SystemSpec) -> SignalMatrix:
    """Run the system and return its labeled observables; deterministic for
    a fixed spec + seed, transient discarded. The parameters are checked
    against params.SECTIONS[kind], so a misspelt key is refused."""
    p = params.resolve(spec.kind, spec.parameters)
    if spec.kind == "coupled-logistic":
        return _coupled_logistic(spec, p)
    if spec.kind == "lorenz96":
        return _lorenz96(spec, p)
    if spec.kind == "goy-shell":
        return _goy_run(spec, p)
    if spec.kind == "linear-plant":
        theta_s = p.pop("theta_s")
        rows = LinearPlant(**p).closed_loop(0.0, theta_s, spec.n_steps, spec.transient_steps,
                                            spec.seed)
        return SignalMatrix(np.column_stack([rows, rows[:, 0]]), ("x", "S", "A", "J"), spec.dt)
    # symbolic-map, the one kind left
    fixture = symbolic_map_suite()[p["name"]]
    symbols = fixture.sample(spec.n_steps - spec.transient_steps, spec.seed)
    return SignalMatrix(symbols.codes.astype(float), fixture.names, spec.dt)


# ---------------------------------------------------------------------------
# symbolic fixtures with exact joint PMFs

@dataclass(frozen=True)
class SymbolicFixture:
    """Discrete-state fixture: sampled trajectories plus the analytically
    known joint PMF over (target at +1, all variables at time n)."""

    name: str
    names: tuple[str, ...]
    alphabet: tuple[int, ...]
    target: int
    exact_joint: JointPMF
    _sampler: callable = field(compare=False, repr=False, default=None)

    def sample(self, n_steps: int, seed: int = 0) -> SymbolSeries:
        return SymbolSeries(self._sampler(n_steps, seed), self.alphabet)


def _rotation4_fixture() -> SymbolicFixture:
    mass = {((q + 1) % 4, q): 0.25 for q in range(4)}

    def sampler(n_steps, seed):
        q0 = np.random.default_rng(seed).integers(4)
        return ((q0 + np.arange(n_steps)) % 4)[:, None]

    return SymbolicFixture(
        "rotation4", ("q",), (4,), 0,
        JointPMF.from_mapping(mass, (4, 4)), sampler,
    )


def _rotation_pair_fixture() -> SymbolicFixture:
    # two independent deterministic rotations: 2-state swap and 4-state cycle
    mass = {}
    for x in range(2):
        for y in range(4):
            mass[((y + 1) % 4, x, y)] = 1.0 / 8.0

    def sampler(n_steps, seed):
        rng = np.random.default_rng(seed)
        x = (rng.integers(2) + np.arange(n_steps)) % 2
        y = (rng.integers(4) + np.arange(n_steps)) % 4
        return np.column_stack([x, y])

    return SymbolicFixture(
        "rotation_pair", ("x", "y"), (2, 4), 1,
        JointPMF.from_mapping(mass, (4, 2, 4)), sampler,
    )


def _xor_fixture() -> SymbolicFixture:
    # z' = x1 XOR x2 with x1, x2 fresh fair bits each step
    mass = {}
    for x1 in range(2):
        for x2 in range(2):
            for z in range(2):
                mass[(x1 ^ x2, x1, x2, z)] = 1.0 / 8.0

    def sampler(n_steps, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(n_steps + 1, 2))
        z = np.empty(n_steps + 1, dtype=np.int64)
        z[0] = rng.integers(2)
        z[1:] = x[:-1, 0] ^ x[:-1, 1]
        return np.column_stack([x[:n_steps], z[:n_steps]])

    return SymbolicFixture(
        "xor", ("x1", "x2", "z"), (2, 2, 2), 2,
        JointPMF.from_mapping(mass, (2, 2, 2, 2)), sampler,
    )


def _redundant_pair_fixture() -> SymbolicFixture:
    # x2 duplicates x1 and z' copies x1: the bit is attributed to the input
    # pair jointly (neither copy contributes exclusively on its own)
    mass = {}
    for x in range(2):
        for z in range(2):
            mass[(x, x, x, z)] = 0.25

    def sampler(n_steps, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=n_steps + 1)
        z = np.empty(n_steps + 1, dtype=np.int64)
        z[0] = rng.integers(2)
        z[1:] = x[:-1]
        return np.column_stack([x[:n_steps], x[:n_steps], z[:n_steps]])

    return SymbolicFixture(
        "redundant_pair", ("x1", "x2", "z"), (2, 2, 2), 2,
        JointPMF.from_mapping(mass, (2, 2, 2, 2)), sampler,
    )


def _markov_pair_fixture() -> SymbolicFixture:
    # two independent binary Markov chains; zero cross flux, positive leak
    px = np.array([[0.9, 0.1], [0.2, 0.8]])
    py = np.array([[0.7, 0.3], [0.4, 0.6]])

    def stationary(p):
        w, v = np.linalg.eig(p.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1))])
        return pi / pi.sum()

    pi_x, pi_y = stationary(px), stationary(py)
    mass = {}
    for x in range(2):
        for y in range(2):
            for y1 in range(2):
                m = pi_x[x] * pi_y[y] * py[y, y1]
                if m > 0:
                    mass[(y1, x, y)] = m

    def sampler(n_steps, seed):
        rng = np.random.default_rng(seed)
        out = np.empty((n_steps, 2), dtype=np.int64)
        x = rng.choice(2, p=pi_x)
        y = rng.choice(2, p=pi_y)
        for n in range(n_steps):
            out[n] = (x, y)
            x = rng.choice(2, p=px[x])
            y = rng.choice(2, p=py[y])
        return out

    return SymbolicFixture(
        "markov_pair", ("x", "y"), (2, 2), 1,
        JointPMF.from_mapping(mass, (2, 2, 2)), sampler,
    )


def _noise_target_fixture() -> SymbolicFixture:
    # target refreshed i.i.d. every step, independent of the driver
    mass = {}
    for x in range(4):
        for z1 in range(2):
            for z in range(2):
                mass[(z1, x, z)] = 1.0 / 16.0

    def sampler(n_steps, seed):
        rng = np.random.default_rng(seed)
        x = (rng.integers(4) + np.arange(n_steps)) % 4
        z = rng.integers(0, 2, size=n_steps)
        return np.column_stack([x, z])

    return SymbolicFixture(
        "noise_target", ("x", "z"), (4, 2), 1,
        JointPMF.from_mapping(mass, (2, 4, 2)), sampler,
    )


def symbolic_map_suite() -> dict[str, SymbolicFixture]:
    """Catalog of exact-PMF fixtures used as oracles throughout the tests."""
    fixtures = [
        _rotation4_fixture(),
        _rotation_pair_fixture(),
        _xor_fixture(),
        _redundant_pair_fixture(),
        _markov_pair_fixture(),
        _noise_target_fixture(),
    ]
    return {f.name: f for f in fixtures}
