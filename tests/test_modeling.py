import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import infocore, modeling
from infodyn.descent import OptimizationTrace, fd_gradient, minimize
from infodyn.discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
from infodyn.modeling import (
    AffineNoise,
    ModelAssessment,
    ModelParams,
    expected_error_lower_bound,
    fano_error_probability_bound,
    kl_fit,
    ml_equivalence_check,
    pinsker_statistical_bound,
)
from infodyn.pmf import JointPMF
from infodyn.signals import SignalMatrix


def test_assessment_invariants():
    with pytest.raises(ValueError, match="positive"):
        ModelAssessment(1.0, 0.5, epsilon=-1.0, delta_q=1.0, n_states=4)
    with pytest.raises(ValueError, match="2 states"):
        ModelAssessment(1.0, 0.5, epsilon=0.5, delta_q=1.0, n_states=1)
    with pytest.raises(ValueError, match="state space"):
        ModelAssessment(1.0, 0.5, epsilon=8.0, delta_q=1.0, n_states=4)


def test_fano_bound_clamped():
    # perfect model: bound collapses to 0
    a = ModelAssessment(truth_entropy=2.0, model_mutual_info=2.0, epsilon=1.0, delta_q=1.0, n_states=4)
    assert fano_error_probability_bound(a) == 0.0
    # no information at all: bound is positive
    b = ModelAssessment(truth_entropy=3.0, model_mutual_info=0.0, epsilon=1.0, delta_q=1.0, n_states=8)
    assert 0 < fano_error_probability_bound(b) <= 1.0


def test_fano_closed_form():
    a = ModelAssessment(truth_entropy=3.0, model_mutual_info=0.5, epsilon=1.0, delta_q=1.0, n_states=8)
    assert fano_error_probability_bound(a) == pytest.approx((3.0 - 0.5 - 0.0 - 1.0) / 3.0)


def test_expected_error_scales_with_epsilon():
    a = ModelAssessment(truth_entropy=3.0, model_mutual_info=0.0, epsilon=0.5, delta_q=1.0, n_states=8)
    raw = (3.0 - 0.0 - np.log2(0.5) - 1.0) / (3.0 - np.log2(0.5))
    assert expected_error_lower_bound(a) == pytest.approx(0.5 * raw)


def test_pinsker_zero_for_identical():
    p = JointPMF.from_dense(np.array([0.4, 0.6]))
    assert pinsker_statistical_bound(p, p) == pytest.approx(0.0, abs=1e-12)


def test_pinsker_infinite_on_support_mismatch():
    p = JointPMF.from_dense(np.array([0.5, 0.5]))
    q = JointPMF.from_mapping({(0,): 1.0}, (2,))
    with pytest.warns(UserWarning):
        assert np.isinf(pinsker_statistical_bound(p, q))


def test_model_params_bounds_check():
    with pytest.raises(ValueError, match="outside bounds"):
        ModelParams([5.0], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="bounds shape"):
        ModelParams([1.0, 2.0], [[0.0, 5.0]])


# --- optimizer ---

def test_fd_gradient_quadratic():
    f = lambda t: float(t[0] ** 2 + 3 * t[1] ** 2)
    _, g = fd_gradient(f, np.array([1.0, -2.0]))
    assert g == pytest.approx([2.0, -12.0], abs=1e-3)


def test_minimize_quadratic_converges():
    f = lambda t: float((t[0] - 2.0) ** 2 + (t[1] + 1.0) ** 2)
    theta, val, trace = minimize(f, [0.0, 0.0], tol=1e-10, max_iters=100)
    assert theta == pytest.approx([2.0, -1.0], abs=1e-3)
    assert trace.converged


def test_minimize_respects_bounds():
    f = lambda t: float((t[0] - 5.0) ** 2)
    theta, _, _ = minimize(f, [0.0], bounds=[[0.0, 1.0]])
    assert theta[0] <= 1.0 + 1e-12


def test_minimize_probes_backward_at_upper_bound():
    # the optimum lies beyond theta[0]'s upper bound, and f refuses to be
    # evaluated outside the box, as the control and fit objectives do
    cases = [
        ([0.5, 0.0], [[0.0, 1.0], [-1.0, 1.0]]),
        # intervals narrower than the finite-difference step (1e-4 here)
        ([0.0], [[0.0, 1e-5]]),
        ([6e-5], [[0.0, 1.5e-4]]),
        ([0.3], [[0.3, 0.3]]),
    ]
    for theta0, bounds in cases:
        box = np.asarray(bounds)

        def f(t):
            if np.any(t < box[:, 0]) or np.any(t > box[:, 1]):
                raise ValueError("theta outside bounds")
            return float((t[0] - 5.0) ** 2 + np.sum((t[1:] - 0.2) ** 2))

        theta, _, trace = minimize(f, theta0, bounds=bounds, tol=1e-12)
        top = box[0, 1]
        assert theta[0] == top
        assert theta[1:] == pytest.approx([0.2] * (len(theta0) - 1), abs=1e-3)
        path = [r["theta"][0] for r in trace.records]
        assert all(t == top for t in path[path.index(top):])
        if box[0, 0] < top:
            # the backward slope keeps pushing theta[0] into its bound
            assert top in path[:-1]
        else:
            # a zero-width interval has slope 0: no probe, and the search stops
            assert len(path) == 1 and trace.converged


@pytest.mark.parametrize("bounds", [None, [[-1.0, 1.0]], [[0.0, 0.0], [-1.0, 1.0]]])
def test_minimize_stops_on_a_flat_gradient_without_converging(bounds):
    # a flat finite difference says nothing about the optimum where a
    # coordinate could move: the search stops, unconverged
    theta0 = [0.0] * (1 if bounds is None else len(bounds))
    _, _, trace = minimize(lambda t: 1.0, theta0, bounds=bounds)
    assert len(trace.records) == 1 and trace.converged is False


def test_kl_fit_passes_only_the_given_search_options(monkeypatch):
    calls = []

    def recorded(f, theta0, **kwargs):
        calls.append(kwargs)
        return np.asarray(theta0, dtype=float), 0.0, OptimizationTrace()

    monkeypatch.setattr(modeling, "minimize", recorded)
    reference = JointPMF.from_mapping({(0,): 1.0}, (1,))
    spec = PartitionSpec("explicit-edges", edges=(np.array([0.0, 1.0, 2.0]),))
    for options in (None, {"epsilon": 1e-9}, {"tol": 1e-3, "max_iters": 5, "initial_step": 0.1}):
        kl_fit(None, reference, spec, ModelParams([0.0]), options)
    assert calls == [{"bounds": None}, {"bounds": None},
                     {"bounds": None, "tol": 1e-3, "max_iters": 5, "initial_step": 0.1}]


def test_trace_csv_roundtrip(tmp_path):
    trace = OptimizationTrace()
    trace.add(iteration=0, value=1.0, theta=np.array([0.5]), step=0.1)
    trace.add(iteration=1, value=0.5, theta=np.array([0.4]), step=0.2)
    trace.write_csv(tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,value,theta_0,step"
    assert len(lines) == 3
    assert trace.best()["value"] == 0.5


def test_kl_fit_recovers_location_scale():
    def sim(params):
        g = np.random.default_rng(0).standard_normal(50000)
        return SignalMatrix((params.theta[0] + params.theta[1] * g)[:, None], ("x",))

    true = ModelParams([0.5, 1.2], [[-2, 2], [0.1, 3]])
    ref_sig = sim(true)
    edges = np.linspace(ref_sig.values.min() - 1, ref_sig.values.max() + 1, 33)
    spec = PartitionSpec("explicit-edges", edges=(edges,))
    reference = estimate_joint_pmf(discretize(ref_sig, spec), [(0, 0)])
    fitted, trace = kl_fit(sim, reference, spec, ModelParams([0.0, 0.5], true.bounds), {"epsilon": 1e-9})
    assert np.abs(fitted.theta - true.theta).max() < 5e-3
    assert trace.converged


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), bins=st.integers(2, 400), seed=st.integers(0, 2**16),
       theta0=st.floats(-3, 3), theta1=st.one_of(st.just(0.0), st.floats(-3, 3)),
       ties=st.booleans(), on_samples=st.booleans(), lo=st.floats(-8, 8), width=st.floats(0.01, 16))
def test_affine_noise_counts_are_those_of_binning_every_sample(n, bins, seed, theta0, theta1, ties,
                                                               on_samples, lo, width):
    g = np.random.default_rng(seed).standard_normal(n)
    if ties:
        g = np.round(g, 1)
    theta = np.array([theta0, theta1])
    x = theta[0] + theta[1] * g  # in draw order
    if on_samples and np.unique(x).size >= 3:  # edges on sample values
        edges = np.unique(x)[:bins + 1]
    else:  # edges may lie beyond the samples on either side
        edges = np.linspace(lo, lo + width, bins + 1)
    spec = PartitionSpec("explicit-edges", edges=(edges,))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        expected = estimate_joint_pmf(discretize(SignalMatrix(x, ("x",)), spec), [(0, 0)])
        warned = len(seen)
        model = AffineNoise(g.copy())
        pmf = model.pmf(theta, spec)
    assert len(seen) == 2 * warned  # the same OccupancyWarning, if any
    dense = np.zeros(len(edges) - 1, dtype=np.int64)
    dense[expected.codes] = expected.counts
    assert np.array_equal(model.counts(theta, edges), dense)
    # == compares dims, codes and probabilities bitwise
    assert pmf == expected and np.array_equal(pmf.counts, expected.counts)


@pytest.mark.parametrize("theta", [[0.5, 1e308], [np.inf, 1.2], [0.0, np.nan]])
def test_affine_noise_refuses_non_finite_samples(theta):
    model = AffineNoise(np.random.default_rng(0).standard_normal(100))
    edges = np.linspace(-3, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        with pytest.raises(ValueError, match="values contain NaN or Inf"):
            model.counts(theta, edges)


def test_ml_equivalence_bernoulli():
    rng = np.random.default_rng(1)
    codes = (rng.random(2000) < 0.3).astype(np.int64)[:, None]
    family = lambda p: JointPMF.from_mapping({(0,): 1 - p, (1,): p}, (2,))
    report = ml_equivalence_check(SymbolSeries(codes, (2,)), family, [i / 10 for i in range(1, 10)])
    assert report.agree
    assert report.kl_argmin_index == 2  # p = 0.3


def test_ml_equivalence_degenerate_family():
    codes = np.array([[0], [1], [0], [1]])
    family = lambda p: JointPMF.from_dense(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="degenerate family"):
        ml_equivalence_check(SymbolSeries(codes, (2,)), family, [0.1, 0.9])
