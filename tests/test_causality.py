import math
import os
import subprocess
import sys
import time
import warnings
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infodyn import infocore, pmf
from infodyn.causality import (
    CausalityMap,
    _flux_lattice,
    causality_map,
    correlation_map,
    flux_report,
    flux_report_from_pmf,
    flux_reports,
    information_flux,
)
from infodyn.discretization import OccupancyWarning, SymbolSeries, estimate_joint_pmf
from infodyn.pmf import JointPMF, _cell_codes, _count_codes, _marginal_walk
from infodyn.signals import SignalMatrix
from infodyn.systems import symbolic_map_suite
from test_cli import CAPPED
from test_pmf import unique_tally

SUITE = symbolic_map_suite()


def marginalize_flux_lattice(joint, variables, order):
    """Oracle: the lattice as it was before the count walk. Each
    H(target | C) comes from infocore.conditional_entropy, which marginalizes
    the full joint afresh for every C; a Moebius transform over the subsets
    (closed under removal) turns them into fluxes and leaves the leak."""
    n = joint.ndim - 1
    subsets = [s for k in range(order + 1) for s in combinations(variables, k)]
    masks = [sum(1 << v for v in s) for s in subsets]
    h = {m: infocore.conditional_entropy(joint, [0], [v + 1 for v in range(n) if not m >> v & 1])
         for m in masks}
    leak = h[0]
    for v in variables:
        bit = 1 << v
        for m in h:
            if m & bit:
                h[m] -= h[m ^ bit]
    return {s: h[m] for s, m in zip(subsets[1:], masks[1:])}, leak


def inclusion_exclusion_flux(joint, subset):
    """Oracle: the flux of `subset` as the direct alternating sum of
    H(target | everything outside a reduced subset) over every reduced
    subset. A full report costs 3^n terms this way, so only small joints
    (n <= 5 present variables) are checked against it."""
    n = joint.ndim - 1
    total = 0.0
    for k in range(len(subset) + 1):
        for removed in combinations(subset, k):
            kept = set(subset) - set(removed)
            given = [v + 1 for v in range(n) if v not in kept]
            total += (-1) ** k * infocore.conditional_entropy(joint, [0], given)
    return total


@st.composite
def sparse_joints(draw):
    """Random sparse joint over (target future, n present variables)."""
    n = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=n + 1, max_size=n + 1)))
    cells = list(product(*(range(d) for d in dims)))
    rows = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=20, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows), max_size=len(rows))))
    return JointPMF.from_mapping(dict(zip(rows, weights / weights.sum())), dims)


@st.composite
def symbol_series(draw, max_variables=4):
    """Random short symbol series over 1..max_variables variables."""
    alphabet = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=max_variables)))
    n_samples = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SymbolSeries(rng.integers(0, alphabet, size=(n_samples, len(alphabet))), alphabet)


def estimated_joint(symbols, target=0, lag=1):
    selection = [(target, lag)] + [(v, 0) for v in range(symbols.n_variables)]
    return estimate_joint_pmf(symbols, selection), selection


def test_query_validation():
    sym = SymbolSeries(np.zeros((10, 2), dtype=int), (2, 2))
    with pytest.raises(ValueError, match="invalid target"):
        flux_report(sym, target=5)
    with pytest.raises(ValueError, match="invalid target"):
        information_flux(sym, 5, [0])
    with pytest.raises(ValueError, match="lag"):
        flux_report(sym, target=0, lag=0)
    with pytest.raises(ValueError, match="lag"):
        information_flux(sym, 0, [0], lag=0)
    with pytest.raises(ValueError, match="lag"):
        flux_reports(sym, lag=0)
    with pytest.raises(ValueError, match="max_order"):
        flux_report(sym, target=0, max_order=3)
    with pytest.raises(ValueError, match="max_order"):
        flux_reports(sym, max_order=0)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_report_from_pmf_refuses_an_order_out_of_range(name):
    # max_order 0 and -1 returned a report with no fluxes, and n + 1 was accepted
    joint = SUITE[name].exact_joint
    n = joint.ndim - 1
    for max_order in (0, -1, n + 1):
        with pytest.raises(ValueError, match="max_order out of range"):
            flux_report_from_pmf(joint, max_order=max_order)
    assert flux_report_from_pmf(joint, max_order=n).fluxes == flux_report_from_pmf(joint).fluxes


def test_subset_validation():
    fx = SUITE["markov_pair"]
    sym = fx.sample(500, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        information_flux(sym, 1, [])
    with pytest.raises(ValueError, match="distinct"):
        information_flux(sym, 1, [0, 0])
    with pytest.raises(ValueError, match="invalid variable"):
        information_flux(sym, 1, [7])


def test_singleton_flux_is_transfer_entropy_exact():
    # flux from the exact XOR joint vs the direct entropy difference
    joint = SUITE["xor"].exact_joint
    rep = flux_report_from_pmf(joint)
    # singleton flux of i conditions on every other present variable
    te_x1 = (infocore.conditional_entropy(joint, [0], [2, 3])
             - infocore.conditional_entropy(joint, [0], [1, 2, 3]))
    te_z = (infocore.conditional_entropy(joint, [0], [1, 2])
            - infocore.conditional_entropy(joint, [0], [1, 2, 3]))
    assert rep.fluxes[(0,)] == pytest.approx(te_x1, abs=1e-12)
    assert rep.fluxes[(2,)] == pytest.approx(te_z, abs=1e-12)


def test_xor_exact_flux_structure():
    # each input alone fully determines what the other contributes: the
    # singleton fluxes are 1 bit and the pair flux is -1 bit, cancelling in
    # the decomposition identity
    rep = flux_report_from_pmf(SUITE["xor"].exact_joint)
    assert rep.fluxes[(0,)] == pytest.approx(1.0, abs=1e-12)
    assert rep.fluxes[(1,)] == pytest.approx(1.0, abs=1e-12)
    assert rep.fluxes[(0, 1)] == pytest.approx(-1.0, abs=1e-12)
    assert rep.fluxes[(2,)] == pytest.approx(0.0, abs=1e-12)
    assert rep.leak == pytest.approx(0.0, abs=1e-12)


def test_redundant_pair_attributes_jointly():
    # duplicated driver: neither copy contributes exclusively, the pair does
    rep = flux_report_from_pmf(SUITE["redundant_pair"].exact_joint)
    assert rep.fluxes[(0,)] == pytest.approx(0.0, abs=1e-12)
    assert rep.fluxes[(1,)] == pytest.approx(0.0, abs=1e-12)
    assert rep.fluxes[(0, 1)] == pytest.approx(1.0, abs=1e-12)


def test_rotation4_deterministic_self_flux():
    rep = flux_report_from_pmf(SUITE["rotation4"].exact_joint)
    assert rep.fluxes[(0,)] == pytest.approx(2.0, abs=1e-12)
    assert rep.leak == pytest.approx(0.0, abs=1e-12)
    assert rep.target_entropy == pytest.approx(2.0, abs=1e-12)


def test_decomposition_identity_exact_joints():
    for fx in SUITE.values():
        rep = flux_report_from_pmf(fx.exact_joint)
        residual = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
        assert residual < 1e-12, fx.name


def test_decomposition_identity_sampled():
    fx = SUITE["xor"]
    rep = flux_report(fx.sample(5000, seed=1), target=2)
    residual = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
    assert residual < 1e-10


def test_normalized_report():
    rep = flux_report_from_pmf(SUITE["rotation4"].exact_joint)
    assert rep.normalized[(0,)] == pytest.approx(1.0, abs=1e-12)
    assert rep.normalized_leak == pytest.approx(0.0, abs=1e-12)


def test_normalized_report_of_a_target_with_zero_entropy():
    # a constant target has nothing to apportion: every share is 0.0
    codes = np.column_stack([np.arange(40) % 4, np.zeros(40, dtype=int)])
    rep = flux_report(SymbolSeries(codes, (4, 2)), target=1)
    assert rep.target_entropy == 0.0
    assert rep.normalized == {(0,): 0.0, (1,): 0.0, (0, 1): 0.0}
    assert rep.normalized_leak == 0.0


def test_flux_max_order_truncation():
    fx = SUITE["xor"]
    rep = flux_report(fx.sample(2000, seed=2), target=2, max_order=1)
    assert all(len(s) == 1 for s in rep.fluxes)


def test_causality_map_matrix_layout():
    fx = SUITE["markov_pair"]
    cmap = causality_map(fx.sample(20000, seed=3), lag=1, order=1)
    mat = cmap.to_matrix()
    assert mat.shape == (2, 2)
    # independent chains: self flux positive, cross flux near zero
    assert mat[0, 0] > 0.01 and mat[1, 1] > 0.01
    assert abs(mat[0, 1]) < 0.01 and abs(mat[1, 0]) < 0.01


def test_causality_map_order_validation():
    fx = SUITE["markov_pair"]
    with pytest.raises(ValueError, match="order"):
        causality_map(fx.sample(100, seed=0), order=4)


def test_correlation_map_identity_at_zero_lag():
    sig = SignalMatrix(np.random.default_rng(5).standard_normal((1000, 3)), ("a", "b", "c"))
    C = correlation_map(sig, lag=0)
    assert np.allclose(np.diag(C), 1.0)
    assert np.allclose(C, C.T)


def test_correlation_map_detects_lagged_copy():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2001)
    sig = SignalMatrix(np.column_stack([x[1:], x[:-1]]), ("x", "y"))
    C = correlation_map(sig, lag=1)
    assert C[0, 1] > 0.99  # y at t+1 copies x at t
    assert abs(C[1, 0]) < 0.1


def test_correlation_map_rejects_zero_column():
    sig = SignalMatrix(np.column_stack([np.zeros(10), np.ones(10)]), ("a", "b"))
    with pytest.raises(ValueError, match="zero-norm"):
        correlation_map(sig)


@pytest.mark.parametrize("lag", [9, 10, 12, 25])
def test_correlation_map_refuses_a_lag_past_the_series(lag):
    # on 10 samples lags 10 and 25 gave an all-zero matrix and lag 12 a matmul error
    sig = SignalMatrix(np.random.default_rng(9).standard_normal((10, 2)), ("a", "b"))
    if lag < sig.n_samples:
        assert correlation_map(sig, lag).shape == (2, 2)
    else:
        with pytest.raises(ValueError, match=f"lag {lag} must be < n_samples = 10"):
            correlation_map(sig, lag)


def test_information_leak_matches_report():
    # the leak is H(target future | every present variable)
    sym = SUITE["noise_target"].sample(3000, seed=7)
    joint, _ = estimated_joint(sym, target=1)
    leak = infocore.conditional_entropy(joint, [0], range(1, sym.n_variables + 1))
    assert abs(flux_report(sym, target=1).leak - leak) <= 1e-12


def test_lattice_matches_oracle_on_fixtures():
    for fx in SUITE.values():
        rep = flux_report_from_pmf(fx.exact_joint)
        for subset, value in rep.fluxes.items():
            assert value == pytest.approx(inclusion_exclusion_flux(fx.exact_joint, subset), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(sparse_joints())
def test_lattice_matches_oracle_on_random_joints(joint):
    rep = flux_report_from_pmf(joint)
    for subset, value in rep.fluxes.items():
        assert abs(value - inclusion_exclusion_flux(joint, subset)) <= 1e-12
    n = joint.ndim - 1
    assert abs(rep.leak - infocore.conditional_entropy(joint, [0], range(1, n + 1))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(sparse_joints())
def test_decomposition_identity_on_random_joints(joint):
    rep = flux_report_from_pmf(joint)
    assert abs(sum(rep.fluxes.values()) + rep.leak - infocore.entropy(joint, [0])) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(sparse_joints(), st.data())
def test_flux_chain_rule_on_random_joints(joint, data):
    # the fluxes of the non-empty subsets of S add up to I(target; S | rest),
    # which the chain rule splits into one conditional MI per member of S
    n = joint.ndim - 1
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted))
    rep = flux_report_from_pmf(joint)
    lattice_sum = sum(v for s, v in rep.fluxes.items() if set(s) <= set(subset))
    given_dims = [v + 1 for v in range(n) if v not in subset]
    chain = 0.0
    for v in subset:
        chain += infocore.conditional_mutual_information(joint, [0], [v + 1], given_dims)
        given_dims = given_dims + [v + 1]
    assert abs(lattice_sum - chain) <= 1e-10


def test_report_keys_by_size_then_lexicographic():
    rep = flux_report_from_pmf(SUITE["xor"].exact_joint)
    assert list(rep.fluxes) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_truncated_report_matches_full_report():
    joint = SUITE["xor"].exact_joint
    full = flux_report_from_pmf(joint)
    truncated = flux_report_from_pmf(joint, max_order=1)
    assert truncated.fluxes == {s: v for s, v in full.fluxes.items() if len(s) == 1}
    assert truncated.leak == full.leak


def test_information_flux_matches_report():
    sym = SUITE["xor"].sample(3000, seed=4)
    rep = flux_report(sym, target=2)
    for subset, value in rep.fluxes.items():
        assert information_flux(sym, 2, reversed(subset)) == pytest.approx(value, abs=1e-12)


def test_causality_map_rows_match_reports():
    sym = SUITE["xor"].sample(3000, seed=5)
    cmap = causality_map(sym, lag=1, order=2)
    for j in range(sym.n_variables):
        rep = flux_report(sym, target=j, lag=1)
        for s, subset in enumerate(cmap.subsets):
            assert cmap.values[s, j] == pytest.approx(rep.fluxes[subset], abs=1e-12)


def test_lattice_cap_refuses_at_once():
    # 21 present variables: the full lattice has 2^21 conditioning sets
    joint = JointPMF((2,) * 22, np.zeros((1, 22), dtype=int), [1.0])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        flux_report_from_pmf(joint)
    assert time.perf_counter() - start < 1.0
    symbols = SymbolSeries(np.zeros((10, 21), dtype=int), (2,) * 21)
    with pytest.raises(ValueError, match="exceeds cap"):
        flux_report(symbols, target=0)
    with pytest.raises(ValueError, match="exceeds cap"):
        flux_reports(symbols)
    with pytest.raises(ValueError, match="exceeds cap"):
        information_flux(symbols, 0, range(21))
    assert information_flux(symbols, 0, [3]) == 0.0  # a small lattice of a wide series runs


# ---------------------------------------------------------------------------
# the count walk against the marginalize lattice it replaced

@settings(max_examples=60, deadline=None)
@given(symbol_series(), st.integers(0, 2))
def test_walk_counts_every_marginal_as_a_fresh_tally(symbols, lag):
    assume(symbols.n_samples > lag)
    joint, selection = estimated_joint(symbols, lag=lag)
    n_valid = symbols.n_samples - lag
    columns = [symbols.codes[lg:lg + n_valid, v] for v, lg in selection]
    dims = joint.dims
    seen = []
    for removed, cells, counts in _marginal_walk(joint.codes, joint.counts, dims,
                                                 range(len(dims)), len(dims)):
        seen.append(removed)
        assert counts.dtype == np.int64
        kept = [d for d in range(len(dims)) if not removed >> d & 1]
        if not kept:
            assert cells.tolist() == [0] and counts.tolist() == [n_valid]
            continue
        kept_dims = [dims[d] for d in kept]
        indices, want = unique_tally([columns[d] for d in kept], kept_dims)
        got = np.column_stack(np.unravel_index(cells, kept_dims))
        assert np.array_equal(got, indices)
        assert np.array_equal(counts, want)
    # each subset of dimensions once
    assert sorted(seen) == list(range(2 ** len(dims)))


def sparse_walk(cells, weights, dims, removable, depth):
    """Oracle: the walk before its dense tail. Every marginal is a sparse
    tally of codes over the full `dims` with the summed-out digits set to 0,
    counted from its parent's occupied cells by zeroing one digit and
    sorting the codes stably."""
    strides = [math.prod(dims[d + 1:]) for d in range(len(dims))]
    removable = sorted(removable)

    def walk(cells, weights, removed, below, depth):
        yield removed, cells, weights
        if depth > 0:
            for d in removable:
                if d >= below:
                    break
                s, b = strides[d], dims[d]
                child = _count_codes(cells - cells // s % b * s, weights)
                yield from walk(*child, removed | 1 << d, d, depth - 1)

    yield from walk(cells, weights, 0, len(dims), depth)


@pytest.mark.parametrize("weighting", ["counts", "probs"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_tail_yields_the_tallies_of_the_sparse_walk(weighting, data):
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=6)))
    # rows on both sides of the cell count, so that the walk runs sparse,
    # dense, or turns dense partway down
    n_rows = data.draw(st.integers(1, 2 * math.prod(dims)))
    removable = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    depth = data.draw(st.integers(0, len(dims)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = rng.integers(0, dims, size=(n_rows, len(dims))).T
    cells, counts = _count_codes(_cell_codes(columns, dims))
    # counts far above the support, and bounds per occupied cell below
    # pmf's, so that the bound on the dense cells decides on these few cells
    scale = data.draw(st.sampled_from([1, 10**9]))
    per_cell = data.draw(st.sampled_from([pmf.DENSE_CELLS_PER_ROOT_CELL, 1, 2]))
    weights = counts * scale if weighting == "counts" else counts / n_rows
    want = list(sparse_walk(cells, weights, dims, removable, depth))
    with mock.patch.object(pmf, "DENSE_CELLS_PER_ROOT_CELL", per_cell):
        got = list(_marginal_walk(cells, weights, dims, removable, depth))
    assert [m for m, _, _ in got] == [m for m, _, _ in want]
    for (removed, got_cells, got_weights), (_, zeroed, want_weights) in zip(got, want):
        kept = [d for d in range(len(dims)) if not removed >> d & 1]
        # the oracle's codes recoded over the kept dims (the empty marginal's is 0)
        digits = np.unravel_index(zeroed, dims)
        want_cells = np.ravel_multi_index([digits[d] for d in kept] or [zeroed],
                                          [dims[d] for d in kept] or [1])
        assert np.array_equal(got_cells, want_cells)
        assert got_weights.dtype == want_weights.dtype
        assert np.array_equal(got_weights, want_weights)  # bitwise, also for float masses


# two occupied cells of 10**10 counts each over ten 10-symbol variables
HUGE_COUNTS = CAPPED + """from infodyn.causality import flux_report_from_pmf
from infodyn.pmf import JointPMF
joint = JointPMF.from_counts([[0] * 10, [1] * 10], [10**10, 10**10], (10,) * 10)
report = flux_report_from_pmf(joint, max_order=1)
print(report.leak, report.target_entropy)
"""


def test_dense_tail_of_huge_counts_stays_within_the_cap():
    # a marginal of 10**9 cells was held dense, as the counts outnumber its
    # cells: the child raised MemoryError (7.45 GiB) under its 2 GiB cap
    env = {**os.environ, "PYTHONPATH": str(Path(pmf.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", HUGE_COUNTS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.0 1.0\n", "")


@settings(max_examples=40, deadline=None)
@given(sparse_joints(), st.data())
def test_walk_visits_each_subset_within_the_depth_once(joint, data):
    removable = data.draw(st.lists(st.integers(0, joint.ndim - 1), unique=True))
    depth = data.draw(st.integers(0, joint.ndim))
    seen = [m for m, _, _ in _marginal_walk(joint.codes, joint.probs, joint.dims, removable,
                                            depth)]
    want = [sum(1 << d for d in s) for k in range(depth + 1) for s in combinations(removable, k)]
    assert sorted(seen) == sorted(want)


def assert_matches_marginalize_oracle(joint, tol=1e-12):
    n = joint.ndim - 1
    rep = flux_report_from_pmf(joint)
    fluxes, leak = marginalize_flux_lattice(joint, tuple(range(n)), n)
    assert list(rep.fluxes) == list(fluxes)
    for s, value in fluxes.items():
        assert abs(rep.fluxes[s] - value) <= tol, s
    assert abs(rep.leak - leak) <= tol
    assert abs(rep.target_entropy - infocore.entropy(joint, [0])) <= tol


def test_walk_matches_marginalize_oracle_on_fixtures():
    for fx in SUITE.values():
        assert_matches_marginalize_oracle(fx.exact_joint)


@settings(max_examples=60, deadline=None)
@given(sparse_joints())
def test_walk_matches_marginalize_oracle_on_random_joints(joint):
    assert_matches_marginalize_oracle(joint)


@settings(max_examples=60, deadline=None)
@given(symbol_series(max_variables=5))
def test_walk_matches_marginalize_oracle_on_estimated_joints(symbols):
    joint, _ = estimated_joint(symbols)
    assert joint.counts is not None
    assert_matches_marginalize_oracle(joint)


@settings(max_examples=40, deadline=None)
@given(symbol_series(), st.integers(1, 2), st.data())
def test_present_half_is_the_same_for_every_target(symbols, lag, data):
    assume(symbols.n_samples > lag)
    n = symbols.n_variables
    order = data.draw(st.integers(1, n))
    joints = [estimated_joint(symbols, j, lag)[0] for j in range(n)]
    halves = [_flux_lattice(joint, range(n), order)[1] for joint in joints]
    assert all(half == halves[0] for half in halves)  # bitwise: float ==
    shared = flux_reports(symbols, lag, order)
    for j, rep in enumerate(shared):
        own = flux_report(symbols, target=j, lag=lag, max_order=order)
        assert (rep.target, rep.lag) == (own.target, own.lag)
        assert rep.fluxes == own.fluxes
        assert (rep.leak, rep.target_entropy) == (own.leak, own.target_entropy)


def test_flux_reports_warn_once_for_the_fullest_joint():
    rng = np.random.default_rng(8)
    symbols = SymbolSeries(rng.integers(0, 6, size=(400, 3)), (6, 6, 6))
    with pytest.warns(OccupancyWarning):  # once per joint when estimated one by one
        occupied = max(estimated_joint(symbols, j)[0].support_count for j in range(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        flux_reports(symbols)
    assert [type(w.message) for w in caught] == [OccupancyWarning]
    assert f"occupied cells ({occupied}) exceed 10% of sample count (399)" in str(caught[0].message)
