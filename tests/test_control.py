from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import control, params
from infodyn.control import (
    ControllerParams,
    ControlTarget,
    bootstrap_mi_floor,
    build_auxiliary_target,
    channel_capacity,
    classify_loop,
    controllability,
    kl_objective,
    missing_information,
    noisy_observability_bound,
    observability,
    rollout,
)
from infodyn.descent import OptimizationTrace, minimize
from infodyn.discretization import PartitionSpec, discretize, estimate_joint_pmf
from infodyn.infocore import mutual_information
from infodyn.pmf import JointPMF
from infodyn.signals import SignalMatrix
from infodyn.systems import LinearPlant, NumericalBlowup


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_controller_params_validation():
    with pytest.raises(ValueError, match="empty interval"):
        ControllerParams(theta_aa=[0.5], bounds_aa=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="outside bounds"):
        ControllerParams(theta_s=[9.0], bounds_s=[[0.0, 4.0]])
    p = ControllerParams(theta_s=[1.0], theta_aa=[0.2])
    q = replace(p, theta_aa=[0.5])
    assert q.theta_aa[0] == 0.5 and q.theta_s[0] == 1.0
    assert np.array_equal(q.packed(), [1.0, 0.5])


def _j_or_blowup(plant, params, *steps):
    """The bytes of a rollout's J column, or the step at which it blew up."""
    try:
        return rollout(plant, params, *steps).column("J").tobytes()
    except NumericalBlowup as blowup:
        return blowup.step


@settings(max_examples=80, deadline=None)
@given(a=st.floats(-1.2, 1.2), noise_std=st.sampled_from([0.0, 0.1, 0.5, 3.0]),
       sensor_noise_std=st.sampled_from([0.0, 0.1, 2.0]), max_delay=st.sampled_from([4.0, 500.0]),
       delay=st.floats(0.0, 500.0), seed=st.integers(0, 2**16))
def test_uncontrolled_rollout_does_not_read_the_delay(a, noise_std, sensor_noise_std, max_delay,
                                                      delay, seed):
    # at zero gain the state never reads the sensor, so ControllerParams() is
    # the uncontrolled plant at any delay, blow-ups included (a past 1 with
    # a low threshold); a max_delay of 500 lets the delay pass the run
    plant = LinearPlant(a=a, noise_std=noise_std, sensor_noise_std=sensor_noise_std,
                        max_delay=max_delay, blowup=20.0)
    steps = (400, 50, seed)
    assert (_j_or_blowup(plant, ControllerParams(theta_s=[delay]), *steps)
            == _j_or_blowup(plant, ControllerParams(), *steps))


def test_control_target_validation():
    with pytest.raises(ValueError, match="sigma shape"):
        ControlTarget([0.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^target\.relax_mu must be > 0 and <= 1, got 0\.0$"):
        ControlTarget([0.0], [[1.0]], relax_mu=0.0)


def test_classify_loop_open_product():
    # A independent of Q: open loop
    q = np.array([0.5, 0.5])
    joint = np.einsum("i,j,k->ijk", q, np.array([0.7, 0.3]), np.array([0.4, 0.6]))
    rep = classify_loop(JointPMF.from_dense(joint))
    assert rep.label == "open"
    assert rep.mi_actuator_state <= 1e-9


def test_classify_loop_closed_copy():
    # A copies Q through a perfect sensor: closed loop
    mass = {(s, s, s): 0.5 for s in range(2)}
    rep = classify_loop(JointPMF.from_mapping(mass, (2, 2, 2)), assume_no_actuator_noise=True)
    assert rep.label == "closed"
    assert rep.mi_actuator_state == pytest.approx(1.0)


def test_classify_loop_actuator_noise_assertion():
    # actuation depends on the state directly but the sensor is useless;
    # impossible without actuator-side noise, so the assertion trips
    mass = {(q, s, q): 0.25 for q in range(2) for s in range(2)}
    with pytest.raises(AssertionError, match="actuation"):
        classify_loop(JointPMF.from_mapping(mass, (2, 2, 2)), assume_no_actuator_noise=True)


def test_bootstrap_mi_floor_small():
    rng = np.random.default_rng(0)
    codes = np.column_stack([rng.integers(0, 4, 2000), rng.integers(0, 4, 2000)])
    floor = bootstrap_mi_floor(codes, (4, 4), seed=1)
    assert 0 <= floor < 0.01


def test_capacity_identity_channel():
    for k in (2, 3, 4, 8):
        assert channel_capacity(np.eye(k)) == pytest.approx(np.log2(k), abs=1e-9)


def test_capacity_bsc_analytic():
    p = 0.11
    P = np.array([[1 - p, p], [p, 1 - p]])
    assert channel_capacity(P) == pytest.approx(1 - binary_entropy(p), abs=1e-6)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8])
def test_capacity_z_channel_analytic(p):
    # the Z channel's optimal input is not uniform, so the input is updated
    P = np.array([[1.0, 0.0], [p, 1 - p]])
    want = np.log2(1 + (1 - p) * p ** (p / (1 - p)))
    assert channel_capacity(P) == pytest.approx(want, abs=1e-8)


def test_capacity_out_of_iterations_warns_and_returns_the_lower_bound():
    p = 0.5
    P = np.array([[1.0, 0.0], [p, 1 - p]])
    uniform_mi = binary_entropy((1 - p) / 2) - 0.5 * binary_entropy(p)  # I(X;Y), X uniform
    with pytest.warns(UserWarning, match="capacity iteration hit max_iters"):
        lower = channel_capacity(P, max_iters=1)
    assert lower == pytest.approx(uniform_mi, abs=1e-12)
    assert lower < channel_capacity(P) - 1e-3


def test_capacity_useless_channel_zero():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert channel_capacity(P) == pytest.approx(0.0, abs=1e-9)


def test_capacity_rejects_non_stochastic():
    with pytest.raises(ValueError, match="stochastic"):
        channel_capacity(np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_observability_perfect_sensor():
    mass = {(j, j): 0.25 for j in range(4)}
    assert observability(JointPMF.from_mapping(mass, (4, 4))) == pytest.approx(1.0)


def test_observability_independent_sensor():
    joint = np.outer([0.5, 0.5], [0.3, 0.7])
    assert observability(JointPMF.from_dense(joint)) == pytest.approx(0.0, abs=1e-12)


def test_controllability_deterministic_actuation():
    mass = {(a % 2, a): 0.25 for a in range(4)}
    assert controllability(JointPMF.from_mapping(mass, (2, 4))) == pytest.approx(1.0)


def test_scores_need_entropic_target():
    with pytest.raises(ValueError, match="no information"):
        observability(JointPMF.from_mapping({(0, 0): 0.5, (0, 1): 0.5}, (2, 2)))


def test_missing_information():
    assert missing_information(3.0, 1.0) == 0.0
    assert missing_information(3.0, 0.25) == pytest.approx(2.25)
    with pytest.raises(ValueError):
        missing_information(3.0, 1.5)


def test_noisy_observability_bound_holds():
    # S = J + W with J a fair bit and W a biased noise bit
    for q in np.linspace(0.05, 0.95, 10):
        mass = {}
        for j in range(2):
            for w in range(2):
                mass[(j, j + w, w)] = 0.5 * (q if w else 1 - q)
        joint = JointPMF.from_mapping(mass, (2, 3, 2))
        bound = noisy_observability_bound(joint)
        assert bound <= 1.0 + 1e-12


def test_build_auxiliary_target_full_relaxation_is_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5000, 1))
    sig = SignalMatrix(x, ("J",))
    edges = np.linspace(-5, 5, 9)
    target = ControlTarget([3.0], [[0.01]])
    aux = build_auxiliary_target(sig, target, relax=(1.0, 1.0), reference_edges=edges)
    direct = estimate_joint_pmf(discretize(sig, PartitionSpec("explicit-edges", edges=(edges,))),
                                [(0, 0)])
    assert np.allclose(aux.to_dense(), direct.to_dense())


def test_build_auxiliary_target_moment_match_at_floor():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20000, 1)) * 2.0 + 1.0
    sig = SignalMatrix(x, ("J",))
    target = ControlTarget([0.0], [[0.25]])
    edges = np.linspace(-8, 8, 33)
    aux = build_auxiliary_target(sig, target, relax=(1e-3, 1e-3), reference_edges=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dense = aux.to_dense()
    mean = (centers * dense).sum()
    var = ((centers - mean) ** 2 * dense).sum()
    assert mean == pytest.approx(0.0, abs=0.05)
    assert var == pytest.approx(0.25, abs=0.05)


def test_build_auxiliary_target_reads_a_list_as_one_edge_array():
    # a list was read as one edge array per column: "each edge list needs at least 2 bins"
    sig = SignalMatrix(np.random.default_rng(3).standard_normal((500, 1)), ("J",))
    target = ControlTarget([0.0], [[0.25]])
    edges = [-3.0, -1.0, 0.0, 1.0, 3.0]
    from_list, from_array = (build_auxiliary_target(sig, target, (0.6, 0.6), e)
                             for e in (edges, np.array(edges)))
    assert np.array_equal(from_list.to_dense(), from_array.to_dense())


def test_build_auxiliary_target_degenerate_rescale():
    sig = SignalMatrix(np.ones((100, 1)) + np.zeros((100, 1)), ("J",))
    target = ControlTarget([0.0], [[1.0]])
    with pytest.raises(ValueError, match="degenerate rescale"):
        build_auxiliary_target(sig, target, relax=(0.5, 0.5), reference_edges=np.linspace(-2, 2, 5))


def test_rollout_columns_and_law():
    plant = LinearPlant(sensor_noise_std=0.0)
    params = ControllerParams(theta_s=[0.0], theta_aa=[0.4])
    traj = rollout(plant, params, 200, 50, seed=3)
    assert traj.names == ("J", "S", "A")
    assert np.allclose(traj.column("A"), -0.4 * traj.column("S"))
    with pytest.raises(ValueError, match="transient"):
        rollout(plant, params, 100, 200, seed=3)


def test_kl_objective_deterministic():
    plant = LinearPlant()
    params = ControllerParams(theta_s=[0.0], theta_aa=[0.3])
    target = ControlTarget([0.0], [[0.25]])
    edges = np.linspace(-5, 5, 9)
    a = kl_objective(rollout(plant, params, 1000, 200, 0), target, (0.6, 0.6), edges, 1e-9)
    b = kl_objective(rollout(plant, params, 1000, 200, 0), target, (0.6, 0.6), edges, 1e-9)
    assert a == b
    assert a >= 0


def test_optimize_controller_rolls_out_once_per_record(monkeypatch):
    counts = {"rollouts": 0, "evaluations": 0}
    real_rollout, real_minimize = control.rollout, control.minimize

    def counted_rollout(*args, **kwargs):
        counts["rollouts"] += 1
        return real_rollout(*args, **kwargs)

    def counted_minimize(f, *args, **kwargs):
        def objective(theta):
            counts["evaluations"] += 1
            return f(theta)
        return real_minimize(objective, *args, **kwargs)

    monkeypatch.setattr(control, "rollout", counted_rollout)
    monkeypatch.setattr(control, "minimize", counted_minimize)
    init = ControllerParams(theta_s=[0.0], theta_aa=[0.1], bounds_s=[[0.0, 4.0]],
                            bounds_aa=[[0.0, 1.0]])
    _, trace = control.optimize_controller(LinearPlant(), ControlTarget([0.0], [[0.25]]), init,
                                           {"n_steps": 1000, "transient": 200, "outer_iters": 2})
    # one per objective evaluation, one for the reference edges and one per
    # outer iteration for its record (KL, I(J;S) and I(J;A) together)
    assert counts["rollouts"] == counts["evaluations"] + 1 + len(trace.records)


def test_mi_objective_codes_only_its_pair():
    # at zero gain A is identically 0, which must not zero I(J;S)
    traj = rollout(LinearPlant(), ControllerParams(theta_s=[1.0], theta_aa=[0.0]), 2000, 300, 0)
    pair = SignalMatrix(traj.values[:, :2], ("J", "S"))
    pmf = estimate_joint_pmf(discretize(pair, PartitionSpec(bins_per_variable=8)), [(0, 0), (1, 0)])
    expected = mutual_information(pmf, [0], [1])
    assert expected > 0.5
    assert control._mi_objective(traj, 8, ("J", "S")) == expected
    assert control._mi_objective(traj, 8, ("J", "A")) == 0.0


def _three_column_mi(traj, bins, pair):
    # the former MI objective: codes J, S and A, and reads 0 if any is constant
    try:
        symbols = discretize(traj, PartitionSpec(bins_per_variable=bins))
    except ValueError:
        return 0.0
    return mutual_information(estimate_joint_pmf(symbols, [(pair[0], 0), (pair[1], 0)]), [0], [1])


def _two_step_search_oracle(plant, target, init, options):
    # the former search: step 1 and step 2 written out, and only step 2
    # catching a blow-up (one in step 1 or in the record ends the search)
    opts = params.resolve("control.options", options)
    edges = control.padded_edges(rollout(plant, replace(init, theta_aa=[0.0]), opts["n_steps"],
                                         opts["transient"], opts["seed"]), opts["bins"])
    trace = OptimizationTrace()
    current, bounds_aa = init, init.bounds_aa.copy()
    relax = (target.relax_mu, target.relax_sigma)
    best_params, best_kl, last_accepted = current, np.inf, np.inf
    inner = dict(tol=opts["inner_tol"], max_iters=opts["inner_iters"],
                 initial_step=opts["initial_step"], fd_step=control.FD_STEP)

    def run(p):
        return rollout(plant, p, opts["n_steps"], opts["transient"], opts["seed"])

    for outer in range(opts["outer_iters"]):
        theta_s, _, _ = minimize(
            lambda t: -_three_column_mi(run(replace(current, theta_s=t)), opts["bins"], (0, 1)),
            current.theta_s, bounds=current.bounds_s, **inner)
        current = replace(current, theta_s=theta_s)
        failure = False

        def aa_objective(t):
            nonlocal failure
            try:
                return kl_objective(run(replace(current, theta_aa=t, bounds_aa=bounds_aa)),
                                    target, relax, edges, opts["kl_floor"])
            except NumericalBlowup:
                failure = True
                return 1e6

        theta_aa, _, _ = minimize(aa_objective, current.theta_aa, bounds=bounds_aa, **inner)
        if failure:
            center = current.theta_aa
            bounds_aa = np.column_stack([center + 0.5 * (bounds_aa[:, 0] - center),
                                         center + 0.5 * (bounds_aa[:, 1] - center)])
        current = replace(current, theta_aa=theta_aa, bounds_aa=bounds_aa)
        traj = run(current)
        kl_now = kl_objective(traj, target, relax, edges, opts["kl_floor"])
        accepted = kl_now < last_accepted
        trace.add(iteration=outer, value=kl_now, theta=current.packed(), step=0.0,
                  obs_mi=_three_column_mi(traj, opts["bins"], (0, 1)),
                  ctrl_mi=_three_column_mi(traj, opts["bins"], (0, 2)), relax=relax,
                  accepted=accepted, plant_failure=failure)
        if kl_now < best_kl:
            best_kl, best_params = kl_now, current
        if not accepted:
            trace.converged = True
            break
        last_accepted = kl_now
        relax = tuple(max(opts["relax_floor"], r * opts["relax_decay"]) for r in relax)
    return best_params, trace


def _records_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(r["theta"], q["theta"])
        and {k: v for k, v in r.items() if k != "theta"} == {k: v for k, v in q.items() if k != "theta"}
        for r, q in zip(a, b))


@pytest.mark.parametrize("plant, init, seed, failures", [
    (LinearPlant(), ControllerParams(theta_s=[0.0], theta_aa=[0.1], bounds_s=[[0.0, 4.0]],
                                     bounds_aa=[[0.0, 1.0]]), 0, [False, False]),
    (LinearPlant(a=0.95, blowup=5.0), ControllerParams(theta_s=[2.0], theta_aa=[0.2], bounds_s=[[0.0, 4.0]],
                                                       bounds_aa=[[0.0, 2.0]]), 2, [False, False]),
    # step 2 probes unstable gains at delays 4 and 3, and contracts its bounds
    (LinearPlant(blowup=20.0), ControllerParams(theta_s=[4.0], theta_aa=[0.4], bounds_s=[[4.0, 4.0]],
                                                bounds_aa=[[0.0, 1.0]]), 1, [True, True]),
    (LinearPlant(blowup=20.0), ControllerParams(theta_s=[3.0], theta_aa=[0.45], bounds_s=[[3.0, 3.0]],
                                                bounds_aa=[[0.0, 1.0]]), 0, [True, False]),
], ids=["stable", "low-blowup", "contract-twice", "contract-once"])
def test_block_search_matches_two_step_search(plant, init, seed, failures):
    target = ControlTarget([0.0], [[0.25]])
    options = {"n_steps": 600, "transient": 100, "bins": 6, "outer_iters": 3, "inner_iters": 6,
               "seed": seed}
    best, trace = control.optimize_controller(plant, target, init, options)
    expected_best, expected = _two_step_search_oracle(plant, target, init, options)
    assert np.array_equal(best.packed(), expected_best.packed())
    assert np.array_equal(best.bounds_aa, expected_best.bounds_aa)
    assert _records_equal(trace.records, expected.records)
    assert [r["plant_failure"] for r in trace.records] == failures


def test_optimize_controller_rejects_a_record_that_blows_up():
    # a zero-width box at an unstable gain: the one probe and the record blow up
    init = ControllerParams(theta_s=[4.0], theta_aa=[0.6], bounds_s=[[4.0, 4.0]], bounds_aa=[[0.6, 0.6]])
    best, trace = control.optimize_controller(LinearPlant(blowup=20.0), ControlTarget([0.0], [[0.25]]),
                                              init, {"n_steps": 600, "transient": 100,
                                                     "reference_edges": [-3.0, 0.0, 3.0]})
    [record] = trace.records
    assert record["value"] == control.REJECTED_SCORE
    assert record["plant_failure"] and not record["accepted"]
    assert np.isnan(record["obs_mi"]) and np.isnan(record["ctrl_mi"])
    assert trace.converged and best is init


@st.composite
def start_and_box(draw, low, high):
    """A one-entry start and its box within [low, high]: zero width, the start
    on either end, or inside."""
    lo, hi = sorted([draw(st.floats(low, high)), draw(st.floats(low, high))])
    where = draw(st.sampled_from(["zero width", "on low", "on high", "inside"]))
    if where == "zero width":
        return [lo], [[lo, lo]]
    start = {"on low": lo, "on high": hi}[where] if where != "inside" else draw(st.floats(lo, hi))
    return [start], [[lo, hi]]


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-0.9, 0.9), noise_std=st.floats(0.1, 1.0), sensor_noise_std=st.floats(0.0, 0.5),
       max_delay=st.floats(0.0, 4.0), seed=st.integers(0, 2**16),
       delay=start_and_box(0.0, 4.0), gain=start_and_box(-1.0, 3.0), blowup=st.sampled_from([20.0, 1e9]))
def test_controller_search_keeps_every_rollout_in_its_box(a, noise_std, sensor_noise_std, max_delay,
                                                          seed, delay, gain, blowup):
    # a gain box reaching far past the stable gains makes probes blow up, and
    # the search halves the box about its start; no point of any search, and
    # no record, may leave the box it started in (raised as "theta_aa
    # outside bounds" at the time of the first controller search). A plant
    # without process noise is left out: its J is constant at zero gain,
    # and the auxiliary target refuses to rescale it ("degenerate rescale")
    plant = LinearPlant(a=a, noise_std=noise_std, sensor_noise_std=sensor_noise_std,
                        max_delay=max_delay, blowup=blowup)
    init = ControllerParams(theta_s=delay[0], bounds_s=delay[1], theta_aa=gain[0], bounds_aa=gain[1])
    rolled = []
    real_rollout = control.rollout

    def recorded(plant, params, *steps):
        rolled.append(params)
        return real_rollout(plant, params, *steps)

    with mock.patch.object(control, "rollout", recorded):
        best, trace = control.optimize_controller(
            plant, ControlTarget([0.0], [[0.25]]), init,
            {"n_steps": 300, "transient": 50, "bins": 4, "seed": seed, "inner_iters": 3,
             "outer_iters": 3})
    (s_lo, s_hi), (aa_lo, aa_hi) = init.bounds_s[0], init.bounds_aa[0]
    thetas = [p.packed() for p in rolled[1:]] + [r["theta"] for r in trace.records]
    assert all(s_lo <= s <= s_hi and aa_lo <= aa <= aa_hi for s, aa in thetas)
    assert best is init or any(best is p for p in rolled)
