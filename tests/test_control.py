import numpy as np
import pytest

from infodyn import control
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
from infodyn.discretization import PartitionSpec, discretize, estimate_joint_pmf
from infodyn.pmf import JointPMF
from infodyn.signals import SignalMatrix
from infodyn.systems import LinearPlant


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_controller_params_validation():
    with pytest.raises(ValueError, match="empty interval"):
        ControllerParams(theta_aa=[0.5], bounds_aa=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="outside bounds"):
        ControllerParams(theta_s=[9.0], bounds_s=[[0.0, 4.0]])
    p = ControllerParams(theta_s=[1.0], theta_aa=[0.2])
    q = p.replace(theta_aa=[0.5])
    assert q.theta_aa[0] == 0.5 and q.theta_s[0] == 1.0
    assert np.array_equal(q.packed(), [1.0, 0.5])


def test_control_target_validation():
    with pytest.raises(ValueError, match="sigma_target shape"):
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
