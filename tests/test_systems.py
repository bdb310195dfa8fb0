import numpy as np
import pytest

from infodyn.control import ControllerParams, rollout
from infodyn.systems import (
    GOY_DEFAULTS,
    NOISE_BLOCK,
    SYSTEM_KEYS,
    LinearPlant,
    NumericalBlowup,
    SystemSpec,
    _goy_model,
    _goy_nonlinear,
    _lorenz96_neighbours,
    _lorenz96_rhs,
    _rk4_step,
    goy_total_energy_drift,
    simulate,
    simulate_controlled,
    symbolic_map_suite,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown system kind"):
        SystemSpec("pendulum")
    with pytest.raises(ValueError, match="n_steps"):
        SystemSpec("lorenz96", n_steps=10, transient_steps=10)


def test_simulate_deterministic():
    spec = SystemSpec("coupled-logistic", n_steps=500, transient_steps=100, seed=11)
    a = simulate(spec)
    b = simulate(spec)
    assert np.array_equal(a.values, b.values)


def _coupled_logistic_oracle(spec):
    # the former coupled-logistic loop, on NumPy scalars
    c = float(spec.param("coupling", 0.4))
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


def _lorenz96_rhs_roll(x, forcing):
    # the former right-hand side, three np.roll calls per evaluation
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing


@pytest.mark.parametrize("n_sites", [4, 7, 8])
def test_lorenz96_index_arrays_match_roll(n_sites):
    rng = np.random.default_rng(n_sites)
    neighbours = _lorenz96_neighbours(n_sites)
    for _ in range(20):
        x = 8.0 * rng.standard_normal(n_sites)
        assert np.array_equal(_lorenz96_rhs(x, 8.0, neighbours), _lorenz96_rhs_roll(x, 8.0))
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
    # the nonlinear term alone must not change sum |u|^2: 2 Re <u, N(u)> = 0,
    # with the coefficients the model builds, at any eps
    rng = np.random.default_rng(0)
    for eps in (0.5, 0.3):
        _, _, nonlinear, _ = _goy_model(SystemSpec("goy-shell", {"eps": eps}))
        u = rng.standard_normal(19) + 1j * rng.standard_normal(19)
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
])
def test_goy_run_matches_former_loop(params, n_steps, transient):
    for seed in (0, 5):
        spec = SystemSpec("goy-shell", params, n_steps, transient, seed, dt=2e-4)
        assert np.array_equal(simulate(spec).values, _goy_run_oracle(spec))


@pytest.mark.parametrize("seed, transient", [(1, 0), (4, 300)])
def test_goy_energy_drift_matches_former_loop(seed, transient):
    # the drift runs every step from step 0 whatever the transient
    spec = SystemSpec("goy-shell", {"nu": 1e-3, "f_amp": 0.1}, 700, transient, seed, dt=2e-4)
    assert goy_total_energy_drift(spec) == _goy_drift_oracle(spec)


def test_goy_energy_drift_inviscid():
    spec = SystemSpec("goy-shell", n_steps=2000, transient_steps=0, seed=1, dt=2e-4)
    assert goy_total_energy_drift(spec) < 1e-10


def test_goy_signal_shape_and_names():
    sig = simulate(SystemSpec("goy-shell", n_steps=2000, transient_steps=1000, seed=2, dt=2e-4))
    assert sig.names == tuple(f"sigma{i + 1}" for i in range(len(GOY_DEFAULTS["cuts"])))
    assert sig.n_samples == 1000 // GOY_DEFAULTS["sample_every"]
    assert sig.dt == pytest.approx(2e-4 * GOY_DEFAULTS["sample_every"])


@pytest.mark.parametrize("cuts, bad", [([50], "50"), ([-1, 6], "-1"), ([6, 19], "19")])
def test_goy_refuses_cuts_outside_the_shells(cuts, bad):
    # a cut past the last shell used to raise IndexError; a negative one
    # silently read a shell counted from the end
    spec = SystemSpec("goy-shell", {"cuts": cuts}, n_steps=200, transient_steps=0, dt=2e-4)
    with pytest.raises(ValueError, match=f"cut {bad} outside"):
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
    with pytest.raises(ValueError, match=f"unknown {kind} parameters"):
        simulate(spec)


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
    assert sorted(s.kind for s in specs) == sorted(SYSTEM_KEYS)
    for spec in specs:
        assert set(spec.parameters) == set(SYSTEM_KEYS[spec.kind])
        assert simulate(spec).n_samples > 0


def test_linear_plant_stationary_variance():
    # uncontrolled AR(1): var = noise_std^2 / (1 - a^2)
    plant = LinearPlant(a=0.9, noise_std=0.5, sensor_noise_std=0.0)
    plant.reset(0)
    xs = [plant.step([0.0])[0] for _ in range(60000)]
    expected = 0.25 / (1 - 0.81)
    assert np.var(xs[2000:]) == pytest.approx(expected, rel=0.05)


def test_linear_plant_sense_delay_interpolation():
    plant = LinearPlant(sensor_noise_std=0.0, noise_std=0.0)
    plant.reset(0)
    plant.step([1.0])
    plant.step([2.0])  # history now [2.9, 1.0, 0, ...] with a=0.9
    s0 = plant.sense([0.0])[0]
    s1 = plant.sense([1.0])[0]
    s_half = plant.sense([0.5])[0]
    assert s_half == pytest.approx(0.5 * (s0 + s1))


def test_linear_plant_blowup():
    plant = LinearPlant(blowup=10.0, noise_std=0.0)
    plant.reset(0)
    with pytest.raises(NumericalBlowup):
        for _ in range(100):
            plant.step([5.0 + plant.x])


def _stepped_loop(plant, gain, theta_s, n_steps, transient, seed):
    """The opposition loop A = -gain * S driven through reset/sense/step/target:
    the reference that LinearPlant.closed_loop must reproduce bit for bit."""
    plant.reset(seed)
    rows = []
    for n in range(n_steps):
        s = float(plant.sense([theta_s])[0])
        a = -gain * s
        state = plant.step([a])
        if n >= transient:
            rows.append((float(plant.target(state)[0]), s, a))
    return np.array(rows).reshape(-1, 3)


def _assert_loops_agree(plant_kw, gain, theta_s, n_steps, transient, seed):
    plant = LinearPlant(**plant_kw)
    params = ControllerParams(theta_s=[theta_s], theta_aa=[gain])
    spec = SystemSpec("linear-plant", plant_kw, n_steps, transient, seed)
    try:
        expected = _stepped_loop(plant, gain, theta_s, n_steps, transient, seed)
    except NumericalBlowup as blowup:
        for run in (lambda: rollout(plant, params, n_steps, transient, seed),
                    lambda: simulate_controlled(spec, params)):
            with pytest.raises(NumericalBlowup, match=f"at step {blowup.step} "):
                run()
        return blowup.step
    x, n = plant.x, plant.n
    assert np.array_equal(rollout(plant, params, n_steps, transient, seed).values, expected)
    assert (plant.x, plant.n) == (x, n)  # the per-step state is not advanced
    assert np.array_equal(simulate_controlled(spec, params).values[:, :3], expected)
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


def test_linear_plant_blowup_threshold():
    with pytest.raises(NumericalBlowup, match="at step 5091 "):
        LinearPlant(a=1.001, blowup=1e3).closed_loop(0.0, 0.0, 10000, 1000, 1)


@pytest.mark.parametrize("params", [{"noise_sd": 5.0}, {"a": 1.001, "blowup": 1e3}])
def test_linear_plant_spec_rejects_unknown_parameters(params):
    # a spec sets only PLANT_KEYS and theta_s; anything else would be ignored
    spec = SystemSpec("linear-plant", params, seed=1)
    bad = next(k for k in params if k != "a")
    with pytest.raises(ValueError, match=bad):
        simulate(spec)
    with pytest.raises(ValueError, match=bad):
        simulate_controlled(spec, 0.5)


def test_simulate_controlled_zero_gain_matches_uncontrolled():
    spec = SystemSpec("linear-plant", n_steps=3000, transient_steps=500, seed=4)
    a = simulate(spec)
    b = simulate_controlled(spec, 0.0)
    assert np.array_equal(a.values, b.values)


def test_simulate_controlled_reduces_variance():
    spec = SystemSpec("linear-plant", n_steps=20000, transient_steps=1000, seed=5)
    free = simulate(spec).column("J").var()
    held = simulate_controlled(spec, 0.9).column("J").var()
    assert held < free


def test_controlled_variance_monotone_in_gain_below_a():
    # var(J) = (sigma_w^2 + beta^2 sigma_s^2) / (1 - (a - beta)^2) decreases
    # with beta only on [0, a]; past that the sensor noise term takes over
    spec = SystemSpec("linear-plant", n_steps=30000, transient_steps=2000, seed=6)
    variances = [simulate_controlled(spec, g).column("J").var() for g in (0.0, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(variances, variances[1:]))


def test_symbolic_suite_exact_joints_normalized():
    for fx in symbolic_map_suite().values():
        assert fx.exact_joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert fx.exact_joint.ndim == fx.n_variables + 1


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
