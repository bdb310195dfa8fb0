import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodyn import infocore, modeling, params
from infodyn.control import ControllerParams, ControlTarget, optimize_controller
from infodyn.descent import OptimizationTrace, fd_gradient, minimize
from infodyn.discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
from infodyn.modeling import (
    AffineNoise,
    ModelAssessment,
    ModelParams,
    expected_error_lower_bound,
    fano_error_probability_bound,
    kl_descent,
    kl_fit,
    ml_equivalence_check,
    pinsker_statistical_bound,
)
from infodyn.pmf import JointPMF
from infodyn.signals import SignalMatrix
from infodyn.systems import LinearPlant
from test_cli import CAPPED


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
    with pytest.raises(ValueError, match=r"bounds must be one \[low, high\] row per entry of theta"):
        ModelParams([1.0, 2.0], [[0.0, 5.0]])


# --- the start and box of a search ---

def _refusal(build):
    """The message of build()'s ValueError, or None when it returns."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _start_and_box_are_valid(theta, bounds):
    """The contract of a search's start and box, stated on its own."""
    t = np.asarray(theta, dtype=float)
    if t.ndim > 1 or not np.all(np.isfinite(t)):
        return False
    if bounds is None:
        return True
    b = np.asarray(bounds, dtype=float)
    return (b.shape == (t.size, 2) and not np.any(np.isnan(b)) and np.all(b[:, 0] <= b[:, 1])
            and np.all(b[:, 0] <= t) and np.all(t <= b[:, 1]))


def mostly(usual, rare):
    """`usual` in seven draws of eight, else `rare`."""
    return st.tuples(st.integers(0, 7), usual, rare).map(lambda t: t[2] if t[0] == 0 else t[1])


ENTRIES = mostly(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def starts_and_boxes(draw):
    """A theta of one or two entries, now and then 2-D or non-finite, and
    none or some [low, high] rows: one per entry about theta in most draws."""
    size = draw(st.integers(1, 2))
    theta = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    if draw(st.integers(0, 7)) == 0:
        theta = [theta]
    kind = draw(st.sampled_from(["none", "about theta", "any rows"]))
    if kind == "none":
        return theta, None
    if kind == "any rows":
        rows = draw(st.integers(0, 3))
        return theta, draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2),
                                    min_size=rows, max_size=rows))
    # a row per entry reaching from theta by a margin each side, maybe negative
    margins = st.lists(mostly(st.floats(-0.5, 2.0), st.just(math.inf)), min_size=size, max_size=size)
    below, above = draw(margins), draw(margins)
    flat = np.ravel(theta).tolist()  # Python floats: inf - inf is NaN without a warning
    return theta, [[t - lo, t + hi] for t, lo, hi in zip(flat, below, above)]


@settings(max_examples=500, deadline=None)
@given(starts_and_boxes())
# the reproduced cases: each was accepted by one caller and refused by another
@example(([math.nan], None))  # ModelParams and minimize took it
@example(([math.inf], None))
@example(([0.5], [[math.nan, 1.0]]))  # all three took a NaN bound
@example(([[0.1, 0.2]], None))  # ModelParams kept the (1, 2) shape
@example(([[0.5]], None))
@example(([9.0], [[0.0, 1.0]]))  # minimize projected it to 1.0
def test_model_controller_and_search_accept_the_same_starts_and_boxes(case):
    theta, bounds = case
    valid = _start_and_box_are_valid(theta, bounds)
    model = _refusal(lambda: ModelParams(theta, bounds))
    search = _refusal(lambda: minimize(lambda t: 0.0, theta, bounds=bounds))
    assert (model is None) == (search is None) == valid, (model, search)
    if np.size(theta) == 1:  # a one-entry block, after its own one-entry check
        controller = _refusal(lambda: ControllerParams(theta_aa=theta, bounds_aa=bounds))
        assert (controller is None) == valid, controller
        if not valid:  # one line, naming the block's field
            assert "\n" not in controller and ("theta_aa" in controller or "bounds_aa" in controller)
    if valid:
        p = ModelParams(theta, bounds)
        assert p.theta.ndim == 1 and np.array_equal(p.theta, np.ravel(theta))
        assert minimize(lambda t: 0.0, theta, bounds=bounds)[0].tolist() == p.theta.tolist()
    else:
        assert "\n" not in model and ("theta" in model or "bounds" in model)
        assert "theta0" in search or "bounds" in search


@pytest.mark.parametrize("theta, bounds, message", [
    pytest.param([math.nan], None, "theta must be a finite 1-D vector, got [nan]", id="NaN theta"),
    pytest.param([math.inf], None, "theta must be a finite 1-D vector, got [inf]", id="inf theta"),
    pytest.param([[0.1, 0.2]], None, "theta must be a finite 1-D vector, got [[0.1, 0.2]]",
                 id="2-D theta"),
    pytest.param([0.1], [[math.nan, 1.0]], "bounds must not be NaN, got [[nan, 1.0]]",
                 id="NaN bound"),
    pytest.param([0.5], [[1.0, 0.0]], "bounds: empty interval", id="low above high"),
    pytest.param([9.0], [[0.0, 1.0]], "theta outside bounds", id="theta outside its box"),
])
def test_a_bad_start_or_box_is_refused_in_one_line_naming_its_field(theta, bounds, message):
    def named(field):
        return message.replace("theta", field[0]).replace("bounds", field[1])

    assert _refusal(lambda: ModelParams(theta, bounds)) == message
    assert _refusal(lambda: minimize(lambda t: 0.0, theta, bounds=bounds)) == named(("theta0", "bounds"))
    if np.size(theta) == 1:
        assert (_refusal(lambda: ControllerParams(theta_aa=theta, bounds_aa=bounds))
                == named(("theta_aa", "bounds_aa")))


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


def test_minimize_stops_unconverged_at_a_non_finite_value():
    # the slope at the start was -inf: each step went to theta - 0 * (-inf),
    # NaN, for all 200 iterations
    f = lambda t: math.inf if t[0] < 0.3 else (t[0] - 0.7) ** 2
    theta, value, trace = minimize(f, [0.2], bounds=[[0.0, 1.0]])
    assert theta.tolist() == [0.2] and value == math.inf
    assert len(trace.records) == 1 and trace.converged is False
    # a zero-width box has no slope, but its value is not finite either
    _, value, trace = minimize(lambda t: math.inf, [0.3], bounds=[[0.3, 0.3]])
    assert value == math.inf and len(trace.records) == 1 and trace.converged is False


@pytest.mark.parametrize("wall", [math.inf, math.nan])
def test_minimize_keeps_the_best_finite_theta_when_a_step_reaches_a_non_finite_value(wall):
    f = lambda t: wall if t[0] > 0.25 else (t[0] - 0.7) ** 2
    theta, value, trace = minimize(f, [0.0])
    assert trace.converged is False and not math.isfinite(trace.records[-1]["value"])
    assert theta[0] <= 0.25 and value == (theta[0] - 0.7) ** 2
    assert all(math.isfinite(r["value"]) for r in trace.records[:-1])


@pytest.mark.parametrize("bounds", [None, [[-1.0, 1.0]], [[0.0, 0.0], [-1.0, 1.0]]])
def test_minimize_stops_on_a_flat_gradient_without_converging(bounds):
    # a flat finite difference says nothing about the optimum where a
    # coordinate could move: the search stops, unconverged
    theta0 = [0.0] * (1 if bounds is None else len(bounds))
    _, _, trace = minimize(lambda t: 1.0, theta0, bounds=bounds)
    assert len(trace.records) == 1 and trace.converged is False


def test_kl_fit_gives_minimize_each_table_option_given_or_its_default(monkeypatch):
    # every key of the fit.options table reaches the search: the given value,
    # else the table's default (epsilon through the objective's KL floor)
    calls, floors = [], []

    def recorded(f, theta0, **kwargs):
        f(np.asarray(theta0, dtype=float))
        calls.append(kwargs)
        return np.asarray(theta0, dtype=float), 0.0, OptimizationTrace()

    def kl(p, q, epsilon):
        floors.append(epsilon)
        return 0.0

    monkeypatch.setattr(modeling, "minimize", recorded)
    monkeypatch.setattr(infocore, "kl_divergence", kl)
    table = params.SECTIONS["fit.options"]
    reference = JointPMF.from_mapping({(0,): 1.0}, (2,))
    spec = PartitionSpec("explicit-edges", edges=(np.array([0.0, 1.0, 2.0]),))
    simulate = lambda p: SignalMatrix(np.array([[0.5], [1.5]]), ("x",))
    given_options = [None, {}, {"epsilon": 1e-3}, {"max_iters": 7},
                     {"tol": 1e-3, "max_iters": 5, "initial_step": 0.1, "epsilon": 0.5}]
    for options in given_options:
        kl_fit(simulate, reference, spec, ModelParams([0.0]), options)
    for options, kwargs, floor in zip(given_options, calls, floors, strict=True):
        expected = {key: (options or {}).get(key, default) for key, (_, default, _) in table.items()}
        assert floor == expected.pop("epsilon")
        assert kwargs == {"bounds": None, **expected}


@pytest.mark.parametrize("options, message", [
    # was ignored: the fit ran its default 200 iterations
    ({"max_iter": 1}, "fit.options.max_iter is not a known key; known: tol, max_iters, epsilon, "
                      "initial_step"),
    # was accepted
    ({"tol": -1}, "fit.options.tol must be >= 0, got -1.0"),
    # returned an empty trace
    ({"max_iters": 0}, "fit.options.max_iters must be >= 1, got 0"),
    ({"epsilon": None}, "fit.options.epsilon must be a number, got None"),
])
def test_fit_options_are_refused_by_the_table_as_the_controller_options_are(options, message):
    model = mock.Mock(side_effect=AssertionError("the model ran"))
    reference = JointPMF.from_mapping({(0,): 1.0}, (2,))
    spec = PartitionSpec("explicit-edges", edges=(np.array([0.0, 1.0, 2.0]),))
    init = ModelParams([0.0], [[-1.0, 1.0]])
    for fit in (lambda: kl_descent(model, reference, init, options),
                lambda: kl_fit(model, reference, spec, init, options)):
        with pytest.raises(ValueError) as exc:
            fit()
        assert str(exc.value) == message
    model.assert_not_called()
    with pytest.raises(ValueError, match=r"^control.options.max_iter is not a known key; known: "):
        optimize_controller(LinearPlant(), ControlTarget([0.0], [[0.25]]), ControllerParams(),
                            {"max_iter": 1})


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


def dense_log_likelihood(samples, pmf):
    """Oracle: the samples' log-likelihood read off pmf's dense grid."""
    cell_p = pmf.to_dense()[tuple(samples.codes.T)]
    return np.sum(np.log(cell_p)) if np.all(cell_p > 0) else -np.inf


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ml_log_likelihoods_match_dense_grid_oracle(data):
    alphabet = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    samples = SymbolSeries(rng.integers(0, alphabet, size=(data.draw(st.integers(1, 40)),
                                                             len(alphabet))), alphabet)
    # each family PMF on a random part of the grid, so some samples may miss it
    pmfs = []
    for _ in range(3):
        mass = rng.random(alphabet) * (rng.random(alphabet) < 0.8)
        mass.flat[rng.integers(mass.size)] += 0.1
        pmfs.append(JointPMF.from_dense(mass / mass.sum()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an infinite KL warns
        try:
            report = ml_equivalence_check(samples, lambda k: pmfs[k], range(3))
        except ValueError as exc:  # the same likelihood at every grid point
            assert "degenerate family" in str(exc)
            return
    want = [dense_log_likelihood(samples, pmf) for pmf in pmfs]
    assert np.array_equal(report.log_likelihoods, want)  # bitwise


# 50 samples of 40 binary variables, each row all 0 or all 1
ML_CHECK_40_BITS = CAPPED + """import numpy as np
from infodyn.discretization import SymbolSeries
from infodyn.modeling import ml_equivalence_check
from infodyn.pmf import JointPMF
ones = np.random.default_rng(0).random(50) < 0.7
samples = SymbolSeries(np.repeat(ones.astype(np.int64)[:, None], 40, axis=1), (2,) * 40)
family = lambda p: JointPMF((2,) * 40, [[0] * 40, [1] * 40], [1 - p, p])
print(ml_equivalence_check(samples, family, [0.2, 0.5, 0.8]).agree)
"""


def test_ml_equivalence_of_a_wide_family_stays_within_the_cap():
    # each family PMF was read off its dense grid: 2**40 cells raised
    # "MemoryError: Unable to allocate 8.00 TiB" under the 2 GiB cap
    env = {**os.environ, "PYTHONPATH": str(Path(modeling.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", ML_CHECK_40_BITS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_ml_equivalence_degenerate_family():
    codes = np.array([[0], [1], [0], [1]])
    family = lambda p: JointPMF.from_dense(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="degenerate family"):
        ml_equivalence_check(SymbolSeries(codes, (2,)), family, [0.1, 0.9])
