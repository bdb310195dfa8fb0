"""Desk-scale dynamical-system generators.

These stand in for large simulations when exercising the causality,
modeling, and control machinery: coupled logistic maps, Lorenz-96, a GOY
shell-model energy cascade, a noisy linear plant with the sensor/actuator
interface, and a catalog of symbolic-map fixtures with analytically known
joint PMFs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .discretization import SymbolSeries
from .pmf import JointPMF
from .signals import SignalMatrix

__all__ = [
    "SystemSpec",
    "LinearPlant",
    "simulate",
    "simulate_controlled",
    "symbolic_map_suite",
    "SymbolicFixture",
]

BLOWUP_CHECK_EVERY = 100  # steps between finiteness checks of an integrated state


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    parameters: dict = field(default_factory=dict)
    n_steps: int = 10000
    transient_steps: int = 1000
    seed: int = 0
    dt: float = 1e-3

    def __post_init__(self):
        if self.kind not in SYSTEM_KEYS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if not self.n_steps > self.transient_steps >= 0:
            raise ValueError("need n_steps > transient_steps >= 0")

    def param(self, name, default):
        return self.parameters.get(name, default)

    def check_parameters(self):
        """Refuse any parameter that this kind does not read (SYSTEM_KEYS):
        a misspelt key would otherwise be ignored without a word."""
        unknown = sorted(set(self.parameters) - set(SYSTEM_KEYS[self.kind]))
        if unknown:
            raise ValueError(f"unknown {self.kind} parameters {unknown}")


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


def _rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# coupled logistic maps

def _coupled_logistic(spec: SystemSpec) -> SignalMatrix:
    c = float(spec.param("coupling", 0.4))

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

def _lorenz96_neighbours(n_sites):
    # cyclic indices of sites i+1, i-2 and i-1, built once per run
    i = np.arange(n_sites)
    return (i + 1) % n_sites, (i - 2) % n_sites, (i - 1) % n_sites


def _lorenz96_rhs(x, forcing, neighbours):
    ip1, im2, im1 = neighbours
    return (x[ip1] - x[im2]) * x[im1] - x + forcing


def _lorenz96(spec: SystemSpec) -> SignalMatrix:
    n_sites = int(spec.param("n_sites", 8))
    forcing = float(spec.param("forcing", 8.0))
    rng = np.random.default_rng(spec.seed)
    x0 = forcing * np.ones(n_sites) + 0.01 * rng.standard_normal(n_sites)
    neighbours = _lorenz96_neighbours(n_sites)
    rhs = lambda v: _lorenz96_rhs(v, forcing, neighbours)
    rows, _ = _integrate(lambda x: _rk4_step(rhs, x, spec.dt), x0, spec, lambda x: x)
    return SignalMatrix(rows, tuple(f"x{i}" for i in range(n_sites)), spec.dt)


# ---------------------------------------------------------------------------
# GOY shell model

GOY_DEFAULTS = {
    "n_shells": 19,
    "lam": 2.0,
    "k0": 0.0625,
    "nu": 1e-7,
    "f_amp": 5e-3,
    "forced_shell": 3,
    "eps": 0.5,
    "sample_every": 5,
    # shell indices bounding the scales at which the interscale energy
    # transfer is recorded, and the smoothing time of the recorded signals
    "cuts": (6, 8, 10, 12),
    "smooth_time": 1.6,
}


def _goy_nonlinear(u, k, coeff):
    """Nonlinear shell-interaction term; conserves total energy sum |u_n|^2.
    coeff = (c1, c2) weighs the two interactions with the shell below."""
    n = u.shape[0]
    pad = np.zeros(n + 4, dtype=complex)
    pad[2 : n + 2] = u
    um2, um1, up1, up2 = pad[:n], pad[1 : n + 1], pad[3 : n + 3], pad[4:]
    term = k * up1 * up2 - coeff[0] * um1 * up1 - coeff[1] * um1 * um2
    return 1j * np.conj(term)


def _goy_model(spec: SystemSpec, **overrides):
    """GOY set-up shared by the run and the energy check: the parameters
    (defaults, then the spec's, then overrides) checked against their
    ranges, the RK4 step, the nonlinear term and the seeded initial state."""
    p = {**GOY_DEFAULTS, **spec.parameters, **overrides}
    n = int(p["n_shells"])
    if not 0 <= p["forced_shell"] < n:
        raise ValueError(f"goy-shell forced_shell {p['forced_shell']} outside [0, n_shells={n})")
    if not p["sample_every"] >= 1:
        raise ValueError(f"goy-shell sample_every {p['sample_every']} is not >= 1")
    cuts = p["cuts"] = np.asarray(p["cuts"], dtype=int)
    bad = cuts[(cuts < 0) | (cuts >= n)]
    if bad.size:
        raise ValueError(f"goy-shell cut {int(bad[0])} outside [0, n_shells={n})")
    k = p["k0"] * p["lam"] ** np.arange(1, n + 1)
    # interaction weights with the boundary shells zeroed via lag products
    km1 = np.concatenate(([0.0], k[:-1]))
    km2 = np.concatenate(([0.0, 0.0], k[:-2]))
    coeff = (p["eps"] * km1, (1.0 - p["eps"]) * km2)
    damp = p["nu"] * k**2
    f = np.zeros(n, dtype=complex)
    f[int(p["forced_shell"])] = (1 + 1j) * p["f_amp"]
    rhs = lambda v: _goy_nonlinear(v, k, coeff) - damp * v + f
    rng = np.random.default_rng(spec.seed)
    u0 = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * k ** (-1 / 3)
    step = lambda u: _rk4_step(rhs, u, spec.dt)
    return p, step, lambda u: _goy_nonlinear(u, k, coeff), u0


def _goy_run(spec: SystemSpec) -> SignalMatrix:
    p, step, nonlinear, u0 = _goy_model(spec)
    cuts = p["cuts"]

    def flux(u):
        # energy flux through each cut: net rate at which the nonlinear
        # term drains energy from the shells at and below the cut index
        return -np.cumsum(2.0 * np.real(np.conj(u) * nonlinear(u)))[cuts]

    sample_every = int(p["sample_every"])
    rows, _ = _integrate(step, u0, spec, flux, sample_every)
    # exponential smoothing stands in for a volume average over the
    # observation region; alpha derived from the declared smoothing time
    sample_dt = spec.dt * sample_every
    alpha = min(1.0, sample_dt / p["smooth_time"]) if p["smooth_time"] > 0 else 1.0
    for i in range(1, len(rows)):
        rows[i] = alpha * rows[i] + (1 - alpha) * rows[i - 1]
    names = tuple(f"sigma{b + 1}" for b in range(len(cuts)))
    return SignalMatrix(rows, names, sample_dt)


def goy_total_energy_drift(spec: SystemSpec) -> float:
    """Relative drift of total energy over the run with viscosity and
    forcing set to zero; an integrator sanity check."""
    spec.check_parameters()
    p, step, _, u0 = _goy_model(spec, nu=0.0, f_amp=0.0)
    energy = lambda u: np.sum(np.abs(u) ** 2)
    _, u = _integrate(step, u0, spec, energy, int(p["sample_every"]))
    return abs(energy(u) - energy(u0)) / energy(u0)


# ---------------------------------------------------------------------------
# noisy linear plant with the sensor/actuator interface

NOISE_BLOCK = 4096  # steps of noise per draw in closed_loop, bounding its working set
PLANT_KEYS = ("a", "noise_std", "sensor_noise_std", "max_delay")  # settable from a config


class LinearPlant:
    """Scalar AR(1) plant x' = a x + A + w with a delayed, noisy sensor.

    Interface contract: reset(seed), step(actuation) -> state vector,
    sense(theta_s) -> sensor vector, target(state) -> J vector. theta_s is
    a continuous sensing delay in samples (linearly interpolated), the
    tunable analog of a sensing location.
    """

    def __init__(self, a=0.9, noise_std=0.5, sensor_noise_std=0.1, max_delay=4.0, blowup=1e9):
        self.a = a
        self.noise_std = noise_std
        self.sensor_noise_std = sensor_noise_std
        self.max_delay = max_delay
        self.blowup = blowup
        self.reset(0)

    def reset(self, seed: int):
        self.rng = np.random.default_rng(seed)
        depth = int(np.ceil(self.max_delay)) + 2
        self.history = np.zeros(depth)
        self.x = 0.0
        self.n = 0

    def sense(self, theta_s) -> np.ndarray:
        d = float(np.clip(np.atleast_1d(theta_s)[0], 0.0, self.max_delay))
        lo = int(np.floor(d))
        frac = d - lo
        delayed = (1 - frac) * self.history[lo] + frac * self.history[lo + 1]
        noise = self.rng.normal(0.0, self.sensor_noise_std) if self.sensor_noise_std else 0.0
        return np.array([delayed + noise])

    def step(self, actuation) -> np.ndarray:
        a_val = float(np.atleast_1d(actuation)[0]) if actuation is not None else 0.0
        w = self.rng.normal(0.0, self.noise_std)
        self.x = self.a * self.x + a_val + w
        self.n += 1
        if not np.isfinite(self.x) or abs(self.x) > self.blowup:
            raise NumericalBlowup(self.n, "linear-plant")
        self.history = np.roll(self.history, 1)
        self.history[0] = self.x
        return np.array([self.x])

    def target(self, state) -> np.ndarray:
        return np.atleast_1d(state)

    def closed_loop(self, gain: float, theta_s: float, n_steps: int, transient: int,
                    seed: int) -> np.ndarray:
        """Rows (x, S, A) of steps transient..n_steps-1 under A = -gain * S
        from reset(seed): bit for bit what reset/sense/step give step by step
        (same noise order, same float operations, same blow-up step), run on
        Python floats. The plant's per-step state is left as it was."""
        if not n_steps >= transient >= 0:
            raise ValueError("need n_steps >= transient >= 0")
        rng = np.random.default_rng(seed)
        d = float(np.clip(theta_s, 0.0, self.max_delay))
        lo = int(np.floor(d))
        frac = d - lo
        history = [0.0] * (int(np.ceil(self.max_delay)) + 2)
        x = 0.0
        rows = np.empty(3 * n_steps)
        for start in range(0, n_steps, NOISE_BLOCK):
            m = min(NOISE_BLOCK, n_steps - start)
            if self.sensor_noise_std:  # per step: sensor, then process noise
                scale = (self.sensor_noise_std, self.noise_std)
                vs, ws = rng.normal(0.0, scale, size=(m, 2)).T.tolist()
            else:
                vs, ws = [0.0] * m, rng.normal(0.0, self.noise_std, size=m).tolist()
            block = []
            for n, (v, w) in enumerate(zip(vs, ws), start + 1):
                s = (1 - frac) * history[lo] + frac * history[lo + 1] + v
                act = -gain * s
                x = self.a * x + act + w
                if not math.isfinite(x) or abs(x) > self.blowup:
                    raise NumericalBlowup(n, "linear-plant")
                history.insert(0, x)
                history.pop()
                block += (x, s, act)
            rows[3 * start:3 * (start + m)] = block
        return rows.reshape(n_steps, 3)[transient:]


def _linear_plant_signal(spec: SystemSpec, gain: float, theta_s: float) -> SignalMatrix:
    plant = LinearPlant(**{k: float(v) for k, v in spec.parameters.items() if k in PLANT_KEYS})
    rows = plant.closed_loop(gain, theta_s, spec.n_steps, spec.transient_steps, spec.seed)
    return SignalMatrix(np.column_stack([rows, rows[:, 0]]), ("x", "S", "A", "J"), spec.dt)


# parameter keys each system kind reads; SystemSpec.check_parameters refuses others
SYSTEM_KEYS = {
    "coupled-logistic": ("coupling",),
    "lorenz96": ("n_sites", "forcing"),
    "goy-shell": tuple(GOY_DEFAULTS),
    "linear-plant": (*PLANT_KEYS, "theta_s"),
    "symbolic-map": ("name",),
}


def simulate(spec: SystemSpec) -> SignalMatrix:
    """Run the system and return its labeled observables; deterministic for
    a fixed spec + seed, transient discarded."""
    spec.check_parameters()
    if spec.kind == "coupled-logistic":
        return _coupled_logistic(spec)
    if spec.kind == "lorenz96":
        return _lorenz96(spec)
    if spec.kind == "goy-shell":
        return _goy_run(spec)
    if spec.kind == "linear-plant":
        return _linear_plant_signal(spec, gain=0.0, theta_s=float(spec.param("theta_s", 0.0)))
    # symbolic-map, the one kind left
    suite, name = symbolic_map_suite(), spec.param("name", None)
    if name not in suite:
        raise ValueError(f"symbolic-map needs a known parameters['name'], got {name!r}; "
                         f"known: {sorted(suite)}")
    symbols = suite[name].sample(spec.n_steps - spec.transient_steps, spec.seed)
    return SignalMatrix(symbols.codes.astype(float), suite[name].names, spec.dt)


def simulate_controlled(spec: SystemSpec, controller, law: str = "proportional-opposition") -> SignalMatrix:
    """Actuated trajectory under A = -beta * S, recording (x, S, A, J)."""
    if law != "proportional-opposition":
        raise ValueError(f"unknown control law {law!r}")
    if spec.kind != "linear-plant":
        raise ValueError("controlled simulation supports the linear-plant kind")
    spec.check_parameters()
    beta = float(np.atleast_1d(controller.theta_aa)[0]) if hasattr(controller, "theta_aa") else float(controller)
    theta_s = 0.0
    if hasattr(controller, "theta_s") and np.size(controller.theta_s):
        theta_s = float(np.atleast_1d(controller.theta_s)[0])
    return _linear_plant_signal(spec, gain=beta, theta_s=theta_s)


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

    @property
    def n_variables(self) -> int:
        return len(self.alphabet)

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
