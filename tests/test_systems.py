import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn.control import ControllerParams, rollout
from infodyn.params import KINDS, SECTIONS, resolve
from infodyn.systems import (
    NOISE_BLOCK,
    LinearPlant,
    NumericalBlowup,
    SystemSpec,
    _goy_model,
    _integrate,
    simulate,
    symbolic_map_suite,
)

GOY_DEFAULTS = resolve("goy-shell", {})


def exactly(message):
    """A pytest.raises match for `message` and nothing else."""
    return f"^{re.escape(message)}$"


def test_spec_validation():
    with pytest.raises(ValueError, match=exactly(
            "system.kind must be one of ['coupled-logistic', 'lorenz96', 'goy-shell', "
            "'linear-plant', 'symbolic-map'], got 'pendulum'")):
        SystemSpec("pendulum")
    with pytest.raises(ValueError, match="n_steps"):
        SystemSpec("lorenz96", n_steps=10, transient_steps=10)


@pytest.mark.parametrize("field, value", [
    ("n_steps", 100.5), ("n_steps", True), ("n_steps", "100"),
    ("transient_steps", 2.5), ("seed", 1.5), ("seed", np.True_),
])
def test_spec_refuses_non_integral_fields(field, value):
    # 100.5 and 1.5 failed inside NumPy with a TypeError; True read as 1
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        SystemSpec("lorenz96", **{"n_steps": 300, "transient_steps": 10, field: value})


def test_spec_stores_integral_fields_as_int():
    spec = SystemSpec("lorenz96", n_steps=np.int64(300), transient_steps=10.0, seed=np.uint8(3))
    assert [type(v) for v in (spec.n_steps, spec.transient_steps, spec.seed)] == [int] * 3
    assert (spec.n_steps, spec.transient_steps, spec.seed) == (300, 10, 3)


def test_simulate_deterministic():
    spec = SystemSpec("coupled-logistic", n_steps=500, transient_steps=100, seed=11)
    a = simulate(spec)
    b = simulate(spec)
    assert np.array_equal(a.values, b.values)


def _coupled_logistic_oracle(spec):
    # the former coupled-logistic loop, on NumPy scalars
    c = float(spec.parameters.get("coupling", 0.4))
    x, y = np.random.default_rng(spec.seed).uniform(0.1, 0.9, size=2)
    out = np.empty((spec.n_steps - spec.transient_steps, 2))
    for n in range(spec.n_steps):
        x_new = 4.0 * x * (1.0 - x)
        y_mix = (1.0 - c) * y + c * x
        y_new = 4.0 * y_mix * (1.0 - y_mix)
        x, y = x_new, y_new
        if n >= spec.transient_steps:
            out[n - spec.transient_steps] = (x, y)
    return out


@pytest.mark.parametrize("coupling", [0.4, 0.0, 0.9, 1.0])
def test_coupled_logistic_matches_former_loop(coupling):
    for seed, n_steps, transient in ((0, 3000, 500), (7, 1000, 0), (11, 202, 200)):
        spec = SystemSpec("coupled-logistic", {"coupling": coupling}, n_steps, transient, seed)
        assert np.array_equal(simulate(spec).values, _coupled_logistic_oracle(spec))


def test_coupled_logistic_stays_in_unit_interval():
    sig = simulate(SystemSpec("coupled-logistic", n_steps=2000, transient_steps=100, seed=0))
    assert sig.values.min() >= 0.0 and sig.values.max() <= 1.0


def test_lorenz96_bounded_chaos():
    sig = simulate(SystemSpec("lorenz96", {"n_sites": 6}, n_steps=5000, transient_steps=1000, dt=0.01))
    assert np.all(np.isfinite(sig.values))
    assert sig.values.std() > 1.0  # not collapsed onto the fixed point


def _rk4_step(rhs, x, dt):
    # the former allocating RK4 step, the oracle of the stepper
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _lorenz96_rhs_roll(x, forcing):
    # the former right-hand side, three np.roll calls per evaluation
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing


def _goy_nonlinear(u, k, coeff):
    # the former allocating GOY nonlinear term
    n = u.shape[0]
    pad = np.zeros(n + 4, dtype=complex)
    pad[2 : n + 2] = u
    um2, um1, up1, up2 = pad[:n], pad[1 : n + 1], pad[3 : n + 3], pad[4:]
    term = k * up1 * up2 - coeff[0] * um1 * up1 - coeff[1] * um1 * um2
    return 1j * np.conj(term)


@pytest.mark.parametrize("n_sites", [4, 7, 8])
def test_lorenz96_matches_roll_form(n_sites):
    # a whole run, stepped with the np.roll form as the oracle
    spec = SystemSpec("lorenz96", {"n_sites": n_sites, "forcing": 8.0},
                      n_steps=400, transient_steps=100, dt=0.01, seed=3)
    x = 8.0 * np.ones(n_sites) + 0.01 * np.random.default_rng(3).standard_normal(n_sites)
    rows = []
    for n in range(spec.n_steps):
        x = _rk4_step(lambda v: _lorenz96_rhs_roll(v, 8.0), x, spec.dt)
        if n >= spec.transient_steps:
            rows.append(x)
    assert np.array_equal(simulate(spec).values, np.array(rows))


def test_goy_nonlinear_conserves_energy_instantaneously():
    # the nonlinear term the stepper runs must not change sum |u|^2:
    # 2 Re <u, N(u)> = 0, with the coefficients the model builds, at any eps,
    # down to 2 shells (no shell has two below it) and up to 25
    rng = np.random.default_rng(0)
    for n_shells in (19, 2, 3, 25):
        for eps in (0.5, 0.3):
            parameters = {"n_shells": n_shells, "eps": eps, "forced_shell": 0, "cuts": [0]}
            _, _, nonlinear, _ = _goy_model(SystemSpec("goy-shell", parameters),
                                            resolve("goy-shell", parameters))
            u = rng.standard_normal(n_shells) + 1j * rng.standard_normal(n_shells)
            nl = nonlinear(u)
            assert abs(np.sum(2 * np.real(np.conj(u) * nl))) < 1e-10 * np.sum(np.abs(u) ** 2)


def _goy_setup_oracle(spec):
    # the former GOY set-up, repeated by the run and the drift check
    p = {**GOY_DEFAULTS, **spec.parameters}
    n = int(p["n_shells"])
    k = p["k0"] * p["lam"] ** np.arange(1, n + 1)
    coeff = (p["eps"] * np.concatenate(([0.0], k[:-1])),
             (1.0 - p["eps"]) * np.concatenate(([0.0, 0.0], k[:-2])))
    rng = np.random.default_rng(spec.seed)
    u = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * k ** (-1 / 3)
    return p, k, coeff, u


def _goy_run_oracle(spec):
    # the former GOY loop: transient, sampling and smoothing inline
    p, k, coeff, u = _goy_setup_oracle(spec)
    f = np.zeros(len(k), dtype=complex)
    f[int(p["forced_shell"])] = (1 + 1j) * p["f_amp"]
    damp = p["nu"] * k**2
    rhs = lambda v: _goy_nonlinear(v, k, coeff) - damp * v + f
    cuts = np.asarray(p["cuts"], dtype=int)
    sample_every = int(p["sample_every"])
    alpha = min(1.0, spec.dt * sample_every / p["smooth_time"]) if p["smooth_time"] > 0 else 1.0
    n_keep = (spec.n_steps - spec.transient_steps) // sample_every
    out = np.empty((n_keep, len(cuts)))
    kept, smoothed = 0, None
    for step in range(spec.n_steps):
        u = _rk4_step(rhs, u, spec.dt)
        if (step >= spec.transient_steps and (step - spec.transient_steps) % sample_every == 0
                and kept < n_keep):
            sample = -np.cumsum(2.0 * np.real(np.conj(u) * _goy_nonlinear(u, k, coeff)))[cuts]
            smoothed = sample if smoothed is None else alpha * sample + (1 - alpha) * smoothed
            out[kept] = smoothed
            kept += 1
    return out[:kept]


def _goy_drift_oracle(spec):
    # the former drift loop: the nonlinear term alone, every step from step 0
    _, k, coeff, u = _goy_setup_oracle(spec)
    e0 = np.sum(np.abs(u) ** 2)
    for _ in range(spec.n_steps):
        u = _rk4_step(lambda v: _goy_nonlinear(v, k, coeff), u, spec.dt)
    return abs(np.sum(np.abs(u) ** 2) - e0) / e0


@pytest.mark.parametrize("params, n_steps, transient", [
    ({}, 600, 100),
    ({"sample_every": 3, "cuts": [2, 9]}, 601, 0),  # step 600 starts a period that does not fit
    ({"sample_every": 1, "smooth_time": 0.0, "n_shells": 12, "cuts": [0, 11], "eps": 0.3,
      "forced_shell": 0}, 300, 37),
    ({"cuts": [8, 2, 2], "sample_every": 2}, 400, 20),  # unsorted and repeated cuts
])
def test_goy_run_matches_former_loop(params, n_steps, transient):
    for seed in (0, 5):
        spec = SystemSpec("goy-shell", params, n_steps, transient, seed, dt=2e-4)
        assert np.array_equal(simulate(spec).values, _goy_run_oracle(spec))


def _goy_energy_drift(spec):
    """Relative drift of total energy over the run, an integrator check:
    with nu = f_amp = 0 in the spec, RK4 of the nonlinear term alone."""
    p, step, _, u0 = _goy_model(spec, resolve(spec.kind, spec.parameters))
    energy = lambda u: np.sum(np.abs(u) ** 2)
    _, u = _integrate(step, u0, spec, energy, p["sample_every"])
    return abs(energy(u) - energy(u0)) / energy(u0)


@pytest.mark.parametrize("seed, transient", [(1, 0), (4, 300)])
def test_goy_energy_drift_matches_former_loop(seed, transient):
    # the drift runs every step from step 0 whatever the transient
    spec = SystemSpec("goy-shell", {"nu": 0.0, "f_amp": 0.0}, 700, transient, seed, dt=2e-4)
    assert _goy_energy_drift(spec) == _goy_drift_oracle(spec)


def test_goy_energy_drift_inviscid():
    spec = SystemSpec("goy-shell", {"nu": 0.0, "f_amp": 0.0}, n_steps=2000, transient_steps=0,
                      seed=1, dt=2e-4)
    assert _goy_energy_drift(spec) < 1e-10


def _outcome(run):
    """A run's values as bytes, or the step at which it blew up."""
    try:
        return run().tobytes()
    except NumericalBlowup as blowup:
        return blowup.step


@settings(max_examples=100, deadline=None)
@given(n_shells=st.integers(2, 25),  # at 2 shells no shell has two below it
       eps=st.floats(0.0, 1.0), nu=st.floats(0.0, 1e-3), f_amp=st.floats(0.0, 1.0),
       dt=st.floats(1e-5, 1e-2),  # stiff enough at many shells to blow up
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_goy_stepper_matches_allocating_form_bit_for_bit(n_shells, eps, nu, f_amp, dt, seed, data):
    forced_shell = data.draw(st.integers(0, n_shells - 1), label="forced_shell")
    spec = SystemSpec("goy-shell", {"n_shells": n_shells, "eps": eps, "nu": nu, "f_amp": f_amp,
                                    "forced_shell": forced_shell, "cuts": [0]},
                      n_steps=250, transient_steps=0, seed=seed, dt=dt)
    _, step, _, u0 = _goy_model(spec, resolve(spec.kind, spec.parameters))
    _, k, coeff, u = _goy_setup_oracle(spec)
    f = np.zeros(n_shells, dtype=complex)
    f[forced_shell] = (1 + 1j) * f_amp
    damp = nu * k**2
    rhs = lambda v: _goy_nonlinear(v, k, coeff) - damp * v + f
    every_state = lambda v: v.view(float)  # real and imaginary parts, bit for bit
    expected = _outcome(lambda: _integrate(lambda v: _rk4_step(rhs, v, dt), u, spec, every_state)[0])
    assert _outcome(lambda: _integrate(step, u0, spec, every_state)[0]) == expected


@settings(max_examples=100, deadline=None)
@given(n_sites=st.integers(4, 40), forcing=st.floats(-20.0, 40.0), dt=st.floats(1e-3, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_lorenz96_stepper_matches_roll_form_bit_for_bit(n_sites, forcing, dt, seed):
    spec = SystemSpec("lorenz96", {"n_sites": n_sites, "forcing": forcing}, n_steps=250,
                      transient_steps=0, seed=seed, dt=dt)
    x0 = forcing * np.ones(n_sites) + 0.01 * np.random.default_rng(seed).standard_normal(n_sites)
    step = lambda x: _rk4_step(lambda v: _lorenz96_rhs_roll(v, forcing), x, dt)
    expected = _outcome(lambda: _integrate(step, x0, spec, lambda x: x)[0])
    assert _outcome(lambda: simulate(spec).values) == expected


class _Recording:
    """A ufunc that records the operands of each call (methods such as
    accumulate pass through unrecorded)."""

    def __init__(self, ufunc, operands):
        self.ufunc, self.operands = ufunc, operands

    def __call__(self, *args, **kwargs):
        self.operands.extend(args)
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)


def test_integrated_runs_pass_numpy_no_python_scalar(monkeypatch):
    # a Python scalar operand costs NumPy a cast on every call: the constants
    # of GOY's RK4 stepper, right-hand side and flux row are 0-d arrays,
    # bound when the model is built, so the ufuncs are wrapped first.
    # Lorenz-96 steps on Python floats and calls none of these ufuncs.
    operands = []
    for name in ("multiply", "add", "subtract"):
        monkeypatch.setattr(np, name, _Recording(getattr(np, name), operands))
    simulate(SystemSpec("lorenz96", {"n_sites": 5}, n_steps=300, transient_steps=0))
    assert operands == []
    simulate(SystemSpec("goy-shell", {"sample_every": 1}, n_steps=4, transient_steps=0))
    assert len(operands) > 100
    assert [op for op in operands if not isinstance(op, np.ndarray)] == []


def test_goy_signal_shape_and_names():
    sig = simulate(SystemSpec("goy-shell", n_steps=2000, transient_steps=1000, seed=2, dt=2e-4))
    assert sig.names == tuple(f"sigma{i + 1}" for i in range(len(GOY_DEFAULTS["cuts"])))
    assert sig.n_samples == 1000 // GOY_DEFAULTS["sample_every"]
    assert sig.dt == pytest.approx(2e-4 * GOY_DEFAULTS["sample_every"])


@pytest.mark.parametrize("params, message", [
    pytest.param({"n_shells": 1, "cuts": [0], "forced_shell": 0}, "n_shells must be >= 2, got 1",
                 id="params0-n_shells 1 is not >= 2"),
    ({"n_shells": 19.5}, "n_shells must be an integer, got 19.5"),
    ({"forced_shell": 2.5}, "forced_shell must be an integer, got 2.5"),
    ({"sample_every": 2.5}, "sample_every must be an integer, got 2.5"),
    pytest.param({"cuts": [6.7, 8]}, "cuts[0] must be an integer, got 6.7",
                 id="params4-cut must be an integer, got 6.7"),
])
def test_goy_refuses_non_integral_or_single_shell_parameters(params, message):
    spec = SystemSpec("goy-shell", params, n_steps=200, transient_steps=0, dt=2e-4)
    with pytest.raises(ValueError, match=exactly(f"goy-shell.{message}")):
        simulate(spec)


@pytest.mark.parametrize("cuts, message", [
    pytest.param([50], "cuts[0] must be < n_shells = 19, got 50", id="cuts0-50"),
    pytest.param([-1, 6], "cuts[0] must be >= 0, got -1", id="cuts1--1"),
    pytest.param([6, 19], "cuts[1] must be < n_shells = 19, got 19", id="cuts2-19"),
])
def test_goy_refuses_cuts_outside_the_shells(cuts, message):
    # a cut past the last shell used to raise IndexError; a negative one
    # silently read a shell counted from the end
    spec = SystemSpec("goy-shell", {"cuts": cuts}, n_steps=200, transient_steps=0, dt=2e-4)
    with pytest.raises(ValueError, match=exactly(f"goy-shell.{message}")):
        simulate(spec)


@pytest.mark.parametrize("kind, params", [
    ("coupled-logistic", {"bogus": 3}),
    ("coupled-logistic", {"n_sites": 4}),
    ("lorenz96", {"coupling": 0.4}),
    ("goy-shell", {"n_shell": 12}),
    ("symbolic-map", {"name": "xor", "n_samples": 10}),
])
def test_spec_refuses_parameters_the_kind_does_not_read(kind, params):
    spec = SystemSpec(kind, params, n_steps=200, transient_steps=0)
    key = next(k for k in params if k not in SECTIONS[kind])
    known = ", ".join(SECTIONS[kind])
    with pytest.raises(ValueError, match=exactly(f"{kind}.{key} is not a known key; known: {known}")):
        simulate(spec)


@pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf")])
def test_spec_refuses_dt_not_finite_and_positive(dt):
    with pytest.raises(ValueError, match=r"dt must be finite and > 0"):
        SystemSpec("lorenz96", dt=dt)


def test_every_kind_reads_its_declared_parameters():
    # each kind runs with every key it declares set explicitly
    specs = [
        SystemSpec("coupled-logistic", {"coupling": 0.3}, n_steps=200, transient_steps=0),
        SystemSpec("lorenz96", {"n_sites": 5, "forcing": 8.0}, n_steps=200, transient_steps=0,
                   dt=0.01),
        SystemSpec("goy-shell", dict(GOY_DEFAULTS), n_steps=200, transient_steps=0, dt=2e-4),
        SystemSpec("linear-plant", {"a": 0.5, "noise_std": 0.5, "sensor_noise_std": 0.1,
                                    "max_delay": 2.0, "theta_s": 1.0},
                   n_steps=200, transient_steps=0),
        SystemSpec("symbolic-map", {"name": "xor"}, n_steps=200, transient_steps=0),
    ]
    assert sorted(s.kind for s in specs) == sorted(KINDS)
    for spec in specs:
        assert set(spec.parameters) == set(SECTIONS[spec.kind])
        assert simulate(spec).n_samples > 0


class SteppedPlant(LinearPlant):
    """LinearPlant driven one step at a time through reset(seed),
    sense(theta_s) -> S, step(A) -> x and target(x) -> J: the oracle that
    closed_loop must match bit for bit."""

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.history = np.zeros(int(np.ceil(self.max_delay)) + 2)
        self.x, self.n = 0.0, 0

    def sense(self, theta_s):
        d = float(np.clip(theta_s, 0.0, self.max_delay))
        lo = int(np.floor(d))
        delayed = (1 - (d - lo)) * self.history[lo] + (d - lo) * self.history[lo + 1]
        noise = self.rng.normal(0.0, self.sensor_noise_std) if self.sensor_noise_std else 0.0
        return delayed + noise

    def step(self, actuation):
        self.x = self.a * self.x + actuation + self.rng.normal(0.0, self.noise_std)
        self.n += 1
        if not np.isfinite(self.x) or abs(self.x) > self.blowup:
            raise NumericalBlowup(self.n, "linear-plant")
        self.history = np.roll(self.history, 1)
        self.history[0] = self.x
        return self.x

    def target(self, state):
        return state

    def loop(self, gain, theta_s, n_steps, transient, seed):
        """Rows (J, S, A) of the opposition loop A = -gain * S."""
        self.reset(seed)
        rows = []
        for n in range(n_steps):
            s = float(self.sense(theta_s))
            a = -gain * s
            state = self.step(a)
            if n >= transient:
                rows.append((float(self.target(state)), s, a))
        return np.array(rows).reshape(-1, 3)


def test_linear_plant_stationary_variance():
    # uncontrolled AR(1): var = noise_std^2 / (1 - a^2)
    plant = LinearPlant(a=0.9, noise_std=0.5, sensor_noise_std=0.0)
    xs = plant.closed_loop(0.0, 0.0, 60000, 2000, 0)[:, 0]
    expected = 0.25 / (1 - 0.81)
    assert np.var(xs) == pytest.approx(expected, rel=0.05)


def test_linear_plant_sense_delay_interpolation():
    # with no sensor noise and no gain, the state path is the same at every
    # delay, and half a sample of delay averages the two whole ones
    plant = LinearPlant(sensor_noise_std=0.0)
    s0, s_half, s1 = (plant.closed_loop(0.0, d, 50, 0, 0)[:, 1] for d in (0.0, 0.5, 1.0))
    assert s_half == pytest.approx(0.5 * (s0 + s1))
    assert np.array_equal(s1[1:], s0[:-1]) and s1[0] == 0.0


def test_linear_plant_blowup():
    with pytest.raises(NumericalBlowup, match="in linear-plant"):
        LinearPlant(a=2.0, blowup=10.0).closed_loop(0.0, 0.0, 100, 0, 0)


def _assert_loops_agree(plant_kw, gain, theta_s, n_steps, transient, seed):
    plant = SteppedPlant(**plant_kw)
    params = ControllerParams(theta_s=[theta_s], theta_aa=[gain])
    try:
        expected = plant.loop(gain, theta_s, n_steps, transient, seed)
    except NumericalBlowup as blowup:
        with pytest.raises(NumericalBlowup, match=f"at step {blowup.step} "):
            rollout(plant, params, n_steps, transient, seed)
        return blowup.step
    x, n = plant.x, plant.n
    assert np.array_equal(rollout(plant, params, n_steps, transient, seed).values, expected)
    assert (plant.x, plant.n) == (x, n)  # the stepped state is not advanced
    return None


def test_closed_loop_matches_stepped_loop():
    for sensor_noise_std in (0.1, 0.0):
        for seed in (0, 3):
            for gain in (0.0, 0.1, 0.55, 0.9):
                for theta_s in (0.0, 0.3, 1.7, 4.0):
                    _assert_loops_agree({"sensor_noise_std": sensor_noise_std},
                                        gain, theta_s, 300, 50, seed)
    # no transient, and longer than one block of noise draws
    assert _assert_loops_agree({}, 0.4, 0.3, NOISE_BLOCK + 500, 0, 1) is None
    assert _assert_loops_agree({"sensor_noise_std": 0.0}, 0.4, 2.5, NOISE_BLOCK + 500, 0, 1) is None


def test_closed_loop_blowup_matches_stepped_loop():
    # an unstable loop early on, and an unstable plant past the first block
    assert _assert_loops_agree({}, 2.0, 1.7, 2000, 100, 2) < 100
    assert _assert_loops_agree({"a": 1.004}, 0.0, 0.0, 2 * NOISE_BLOCK, 0, 1) > NOISE_BLOCK


@settings(max_examples=150, deadline=None)
@given(plant_kw=st.fixed_dictionaries({
           "a": st.sampled_from([0.9, -0.5, 1.0, 1.004]),
           "noise_std": st.sampled_from([0.5, 0.0]),
           "sensor_noise_std": st.sampled_from([0.1, 0.0]),
           "max_delay": st.floats(0.0, 6.0),  # 0, integral or fractional
           "blowup": st.sampled_from([1e9, 1e3])}),
       gain=st.floats(-1.5, 3.0),  # unstable at either end
       theta_s=st.floats(-2.0, 8.0),  # negative, integral, fractional, beyond max_delay
       # short runs, and runs across one or two block ends
       n_steps=st.integers(2, 300) | st.integers(NOISE_BLOCK - 2, 2 * NOISE_BLOCK + 50),
       data=st.data())
def test_closed_loop_matches_stepped_loop_on_any_draw(plant_kw, gain, theta_s, n_steps, data):
    transient = data.draw(st.integers(0, n_steps - 2), label="transient")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_loops_agree(plant_kw, gain, theta_s, n_steps, transient, seed)


def test_linear_plant_blowup_threshold():
    with pytest.raises(NumericalBlowup, match="at step 5091 "):
        LinearPlant(a=1.001, blowup=1e3).closed_loop(0.0, 0.0, 10000, 1000, 1)


@pytest.mark.parametrize("params", [{"noise_sd": 5.0}, {"a": 1.001, "blowup": 1e3}])
def test_linear_plant_spec_rejects_unknown_parameters(params):
    # a spec sets only the plant keys and theta_s; anything else would be ignored
    spec = SystemSpec("linear-plant", params, seed=1)
    bad = next(k for k in params if k != "a")
    with pytest.raises(ValueError, match=bad):
        simulate(spec)


def test_rollout_zero_gain_matches_simulate():
    spec = SystemSpec("linear-plant", {"theta_s": 1.5}, n_steps=3000, transient_steps=500, seed=4)
    free = rollout(LinearPlant(), ControllerParams(theta_s=[1.5], theta_aa=[0.0]), 3000, 500, 4)
    assert np.array_equal(simulate(spec).values[:, :3], free.values)


def test_rollout_reduces_variance():
    plant, steps = LinearPlant(), (20000, 1000, 5)
    free = simulate(SystemSpec("linear-plant", n_steps=20000, transient_steps=1000, seed=5))
    held = rollout(plant, ControllerParams(theta_s=[0.0], theta_aa=[0.9]), *steps)
    assert held.column("J").var() < free.column("J").var()


def test_controlled_variance_monotone_in_gain_below_a():
    # var(J) = (sigma_w^2 + beta^2 sigma_s^2) / (1 - (a - beta)^2) decreases
    # with beta only on [0, a]; past that the sensor noise term takes over
    plant = LinearPlant()
    variances = [rollout(plant, ControllerParams(theta_s=[0.0], theta_aa=[g]), 30000, 2000,
                         6).column("J").var() for g in (0.0, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(variances, variances[1:]))


def test_symbolic_suite_exact_joints_normalized():
    for fx in symbolic_map_suite().values():
        assert fx.exact_joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert fx.exact_joint.ndim == len(fx.alphabet) + 1


def test_symbolic_sample_matches_exact_joint():
    # empirical lagged joint of the markov fixture approaches the exact one
    from infodyn.discretization import estimate_joint_pmf
    fx = symbolic_map_suite()["markov_pair"]
    sym = fx.sample(200000, seed=7)
    emp = estimate_joint_pmf(sym, [(1, 1), (0, 0), (1, 0)])
    assert np.allclose(emp.to_dense(), fx.exact_joint.to_dense(), atol=5e-3)


def test_symbolic_map_simulate_needs_name():
    with pytest.raises(ValueError, match="name"):
        simulate(SystemSpec("symbolic-map", n_steps=100, transient_steps=0))
