"""Numbered end-to-end checks of the library's headline properties."""

import json
from dataclasses import replace

import numpy as np
import pytest

from infodyn import infocore
from infodyn.causality import causality_map, correlation_map, flux_report, flux_report_from_pmf, information_flux
from infodyn.cli import main as cli_main
from infodyn.control import (
    ControllerParams,
    ControlTarget,
    channel_capacity,
    controllability,
    kl_objective,
    noisy_observability_bound,
    observability,
    optimize_controller,
    rollout,
)
from infodyn.discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
from infodyn.modeling import (
    ModelAssessment,
    ModelParams,
    expected_error_lower_bound,
    fano_error_probability_bound,
    kl_fit,
    ml_equivalence_check,
    pinsker_statistical_bound,
)
from infodyn.pmf import JointPMF, marginalize
from infodyn.signals import SignalMatrix
from infodyn.systems import LinearPlant, NumericalBlowup, SystemSpec, simulate, symbolic_map_suite

SUITE = symbolic_map_suite()


def random_joint(rng, dims):
    dense = rng.random(dims)
    dense /= dense.sum()
    return JointPMF.from_dense(dense)


def test_01_decomposition_identity():
    # sum of all subset fluxes plus the leak recovers the target's future
    # entropy, within 1e-10 bits, on every fixture with up to 4 variables
    for fx in SUITE.values():
        rep = flux_report_from_pmf(fx.exact_joint)
        residual = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
        assert residual < 1e-10, fx.name

    sampled = [
        discretize(simulate(SystemSpec("coupled-logistic", n_steps=20000, transient_steps=1000, seed=1)),
                   PartitionSpec(bins_per_variable=4)),
        discretize(simulate(SystemSpec("lorenz96", {"n_sites": 4}, n_steps=20000, transient_steps=2000, dt=0.01, seed=2)),
                   PartitionSpec(bins_per_variable=3)),
        SUITE["xor"].sample(20000, seed=3),
        SUITE["markov_pair"].sample(20000, seed=4),
    ]
    for sym in sampled:
        for j in range(sym.n_variables):
            rep = flux_report(sym, target=j)
            residual = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
            assert residual < 1e-10


def test_02_zero_flux_for_decoupled_variables():
    # sampled: two logistic maps with the coupling switched off
    spec = SystemSpec("coupled-logistic", {"coupling": 0.0}, n_steps=1_001_000, transient_steps=1000, seed=0)
    sym = discretize(simulate(spec), PartitionSpec(bins_per_variable=8))
    assert abs(information_flux(sym, 1, [0])) < 0.01
    assert abs(information_flux(sym, 0, [1])) < 0.01

    # exact: fixtures whose variables evolve independently
    for name, cross in (("markov_pair", (0,)), ("rotation_pair", (0,)), ("noise_target", (0,))):
        rep = flux_report_from_pmf(SUITE[name].exact_joint)
        for subset in cross:
            assert abs(rep.fluxes[(subset,)]) < 1e-12, name


def test_03_singleton_flux_is_transfer_entropy():
    # singleton flux equals H(target+ | all others) - H(target+ | all),
    # verified against entropies computed directly from the dense array
    def dense_cond_entropy(dense, target_axis, given_axes):
        axes = tuple(sorted({target_axis, *given_axes}))
        drop = tuple(a for a in range(dense.ndim) if a not in axes)
        joint = dense.sum(axis=drop) if drop else dense
        h_joint = -(joint[joint > 0] * np.log2(joint[joint > 0])).sum()
        if not given_axes:
            return h_joint
        drop_g = tuple(a for a in range(dense.ndim) if a not in given_axes)
        marg = dense.sum(axis=drop_g)
        h_given = -(marg[marg > 0] * np.log2(marg[marg > 0])).sum()
        return h_joint - h_given

    rng = np.random.default_rng(42)
    for _ in range(50):
        n_vars = int(rng.integers(2, 4))
        dims = tuple(rng.integers(2, 4, size=n_vars + 1))
        pmf = random_joint(rng, dims)
        dense = pmf.to_dense()
        rep = flux_report_from_pmf(pmf, max_order=1)
        for i in range(n_vars):
            others = [v + 1 for v in range(n_vars) if v != i]
            expected = (dense_cond_entropy(dense, 0, tuple(others))
                        - dense_cond_entropy(dense, 0, tuple(range(1, n_vars + 1))))
            assert rep.fluxes[(i,)] == pytest.approx(expected, abs=1e-12)


def test_04_cascade_directionality():
    # energy-transfer observables of the shell cascade: flux map points
    # downscale while the lagged correlation map stays dense and symmetric
    spec = SystemSpec("goy-shell", n_steps=1_500_000, transient_steps=250_000, seed=7, dt=2e-4)
    sig = simulate(spec)
    sym = discretize(sig, PartitionSpec(bins_per_variable=8))
    M = causality_map(sym, lag=40, order=1).to_matrix()
    C = np.abs(correlation_map(sig, lag=40))
    n = M.shape[0]
    off = ~np.eye(n, dtype=bool)

    # forward transfer beats backward transfer between adjacent scales
    for i in range(n - 1):
        assert M[i, i + 1] > M[i + 1, i]
    # adjacent-forward fluxes are the largest off-diagonal entries, both
    # per column and globally
    for j in range(1, n):
        assert M[j - 1, j] == max(M[i, j] for i in range(n) if i != j)
    ranked = sorted(((M[i, j], (i, j)) for i in range(n) for j in range(n) if i != j), reverse=True)
    assert {pos for _, pos in ranked[:3]} == {(0, 1), (1, 2), (2, 3)}

    # flux map is sparse (wide off-diagonal dynamic range) where the
    # correlation map is uniformly dense
    flux_spread = M[off].max() / M[off].min()
    corr_spread = C[off].max() / C[off].min()
    assert flux_spread >= 5 * corr_spread
    assert np.all(C > 0.5)


def test_05_xor_joint_attribution():
    joint = SUITE["xor"].exact_joint
    # co-information of (future, input 1, input 2) is exactly -1 bit
    coinfo = infocore.co_information(joint, [[0], [1], [2]])
    assert coinfo == pytest.approx(-1.0, abs=1e-12)

    # the output bit is attributed to the input pair, not to either input
    # alone: the pair flux carries the full bit in magnitude while the
    # target's own past contributes nothing
    rep = flux_report_from_pmf(joint)
    assert abs(rep.fluxes[(0, 1)]) >= 0.99
    assert abs(rep.fluxes[(2,)]) < 0.01
    assert rep.leak < 0.01

    # duplicated-driver fixture: the literal reading (pair flux positive
    # and large, singleton fluxes negligible) holds exactly
    rep2 = flux_report_from_pmf(SUITE["redundant_pair"].exact_joint)
    assert rep2.fluxes[(0, 1)] >= 0.99
    assert abs(rep2.fluxes[(0,)]) < 0.01
    assert abs(rep2.fluxes[(1,)]) < 0.01


def test_06_fano_and_markov_bounds():
    # truth on up to 5 cells of size delta_q = 1; the model prediction
    # pins the truth to a window of epsilon/delta_q adjacent cells, the
    # geometry under which the bound is derived
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        w = int(rng.integers(1, n))
        eps = float(w)
        n_pred = n - w + 1
        pmf = random_joint(rng, (n, n_pred))
        dense = pmf.to_dense()
        a = ModelAssessment(
            truth_entropy=infocore.entropy(pmf, [0]),
            model_mutual_info=infocore.mutual_information(pmf, [0], [1]),
            epsilon=eps, delta_q=1.0, n_states=n,
        )
        x = np.arange(n)[:, None]
        start = np.arange(n_pred)[None, :]
        inside = (x >= start) & (x < start + w)
        dist = np.where(x < start, start - x,
                        np.where(x >= start + w, x - (start + w - 1), 0)).astype(float)
        err = np.where(inside, 0.0, eps + dist)
        pe_emp = dense[err > eps].sum()
        ee_emp = (dense * err).sum()
        assert pe_emp >= fano_error_probability_bound(a) - 1e-12
        assert ee_emp >= expected_error_lower_bound(a) - 1e-12


def test_07_pinsker_bounds_l1_distance():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = random_joint(rng, (n,))
        q = random_joint(rng, (n,))
        l1 = np.abs(p.to_dense() - q.to_dense()).sum()
        assert pinsker_statistical_bound(p, q) >= l1 - 1e-12


def test_08_kl_fit_matches_maximum_likelihood():
    rng = np.random.default_rng(8)
    grid = [i / 10 for i in range(1, 10)]
    family = lambda p: JointPMF.from_mapping({(0,): 1 - p, (1,): p}, (2,))
    disagreements = 0
    for _ in range(100):
        p_true = rng.uniform(0.05, 0.95)
        codes = (rng.random(500) < p_true).astype(np.int64)[:, None]
        report = ml_equivalence_check(SymbolSeries(codes, (2,)), family, grid)
        disagreements += 0 if report.agree else 1
    assert disagreements == 0


def test_09_kl_fit_parameter_recovery():
    def sim(params):
        g = np.random.default_rng(0).standard_normal(200000)
        return SignalMatrix((params.theta[0] + params.theta[1] * g)[:, None], ("x",))

    true = ModelParams([0.7, 1.3], [[-2, 2], [0.1, 3]])
    ref_sig = sim(true)
    edges = np.linspace(ref_sig.values.min() - 1, ref_sig.values.max() + 1, 33)
    spec = PartitionSpec("explicit-edges", edges=(edges,))
    reference = estimate_joint_pmf(discretize(ref_sig, spec), [(0, 0)])
    fitted, trace = kl_fit(sim, reference, spec, ModelParams([0.2, 0.8], true.bounds), {"epsilon": 1e-9})
    assert np.abs(fitted.theta - true.theta).max() < 1e-3
    # best-seen objective is monotone over the accepted (improving) iterates
    best_so_far = np.inf
    accepted = []
    for v in trace.values:
        if v < best_so_far:
            accepted.append(v)
            best_so_far = v
    assert all(a > b for a, b in zip(accepted, accepted[1:]))


def test_10_channel_capacity_oracles():
    for k in (2, 3, 4, 8):
        assert channel_capacity(np.eye(k)) == pytest.approx(np.log2(k), abs=1e-9)
    p = 0.11
    h_b = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    bsc = np.array([[1 - p, p], [p, 1 - p]])
    assert channel_capacity(bsc) == pytest.approx(1 - h_b, abs=1e-6)


def test_11_observability_controllability():
    # scores stay in [0, 1] on every fixture's (future, variable) marginals
    for fx in SUITE.values():
        for v in range(1, fx.exact_joint.ndim):
            score = observability(marginalize(fx.exact_joint, [0, v]))
            assert -1e-12 <= score <= 1 + 1e-12, fx.name

    # a perfect sensor gives observability 1
    perfect = JointPMF.from_mapping({(j, j): 0.25 for j in range(4)}, (4, 4))
    assert observability(perfect) == pytest.approx(1.0, abs=1e-12)

    # an actuation value that determines the target gives controllability 1
    determined = JointPMF.from_mapping({(a % 2, a): 0.25 for a in range(4)}, (2, 4))
    assert controllability(determined) == pytest.approx(1.0, abs=1e-12)

    # noisy sensor sweep: observability never exceeds 1 - I(W;S)/H(J),
    # asserted inside noisy_observability_bound for each level
    for q in np.linspace(0.02, 0.98, 20):
        mass = {}
        for j in range(2):
            for w in range(2):
                mass[(j, j + w, w)] = 0.5 * (q if w else 1 - q)
        bound = noisy_observability_bound(JointPMF.from_mapping(mass, (2, 3, 2)))
        assert bound <= 1.0 + 1e-12


def test_12_controller_search_matches_grid():
    plant = LinearPlant()
    target = ControlTarget([0.0], [[0.25]])
    init = ControllerParams(theta_s=[0.0], theta_aa=[0.1],
                            bounds_s=[[0.0, 4.0]], bounds_aa=[[0.0, 1.0]])
    best, trace = optimize_controller(plant, target, init)

    # exhaustive grid over the same objective at the initial relaxation
    base = rollout(plant, replace(init, theta_aa=np.zeros(1)), 4000, 500, 0)
    j = base.column("J")
    span = j.max() - j.min()
    edges = np.linspace(j.min() - 0.1 * span, j.max() + 0.1 * span, 9)
    s_grid = np.linspace(0.0, 4.0, 9)
    b_grid = np.linspace(0.0, 1.0, 21)
    grid_best = (np.inf, None)
    for s in s_grid:
        for b in b_grid:
            try:
                traj = rollout(plant, replace(init, theta_s=[s], theta_aa=[b]), 4000, 500, 0)
                v = kl_objective(traj, target, (0.6, 0.6), edges, 1e-9)
            except NumericalBlowup:
                v = 1e6
            if v < grid_best[0]:
                grid_best = (v, (s, b))
    s_star, b_star = grid_best[1]
    assert abs(best.theta_s[0] - s_star) <= (s_grid[1] - s_grid[0]) + 1e-12
    assert abs(best.theta_aa[0] - b_star) <= (b_grid[1] - b_grid[0]) + 1e-12

    # accepted outer iterations decrease strictly
    accepted = [r["value"] for r in trace.records if r["accepted"]]
    assert all(a > b for a, b in zip(accepted, accepted[1:]))

    # the found controller beats no control
    controlled = rollout(plant, best, 4000, 500, 0)
    assert controlled.column("J").var() < base.column("J").var()


def test_13_cli_reports_byte_identical(tmp_path):
    config = {
        "system": {"kind": "coupled-logistic", "n_steps": 10000, "transient_steps": 1000, "seed": 5},
        "bins": 4, "lag": 1, "order": 2,
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    for out in ("runA", "runB"):
        code = cli_main(["causality", "--config", str(cfg), "--out", str(tmp_path / out)])
        assert code == 0
    a = (tmp_path / "runA" / "report.json").read_bytes()
    b = (tmp_path / "runB" / "report.json").read_bytes()
    assert a == b
    assert (tmp_path / "runA" / "flux_map.csv").read_bytes() == (tmp_path / "runB" / "flux_map.csv").read_bytes()
