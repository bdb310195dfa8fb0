import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infodyn import infocore
from infodyn.causality import flux_report_from_pmf
from infodyn.discretization import SymbolSeries, estimate_joint_pmf
from infodyn.pmf import JointPMF, _cell_codes, _count_codes, marginalize
from infodyn.signals import SignalMatrix


def test_from_mapping_and_mass_roundtrip():
    mass = {(0, 1): 0.25, (1, 0): 0.75}
    pmf = JointPMF.from_mapping(mass, (2, 2))
    assert pmf.mass == mass
    assert pmf.ndim == 2
    assert pmf.support_count == 2


def test_from_dense_roundtrip():
    dense = np.array([[0.1, 0.0], [0.2, 0.7]])
    pmf = JointPMF.from_dense(dense)
    assert np.allclose(pmf.to_dense(), dense)
    assert pmf.support_count == 3


def test_rows_are_stored_distinct_and_sorted():
    rows = [[1, 0], [0, 2], [1, 0], [0, 1]]
    pmf = JointPMF((2, 3), rows, [0.1, 0.2, 0.3, 0.4])
    assert pmf.indices.tolist() == [[0, 1], [0, 2], [1, 0]]
    assert pmf.probs.tolist() == [0.4, 0.2, 0.1 + 0.3] and pmf.counts is None
    counted = JointPMF((2, 3), rows, np.array([1, 2, 3, 4]))
    assert counted.indices.tolist() == [[0, 1], [0, 2], [1, 0]]
    assert counted.counts.tolist() == [4, 2, 4] and counted.counts.dtype == np.int64


def test_equality_compares_values_and_never_raises():
    mass = {(0, 1): 0.25, (1, 0): 0.5, (1, 1): 0.25}
    pmf = JointPMF.from_mapping(mass, (2, 2))
    assert pmf == JointPMF.from_mapping(dict(reversed(list(mass.items()))), (2, 2))
    assert pmf != JointPMF.from_mapping({(0, 1): 0.5, (1, 0): 0.25, (1, 1): 0.25}, (2, 2))
    assert pmf != JointPMF.from_mapping(mass, (2, 3))
    assert pmf == JointPMF(np.array([2, 2]), list(mass), list(mass.values()))
    values = np.arange(6.0).reshape(3, 2)
    series = SymbolSeries(np.zeros((3, 2), dtype=int), (2, 2))
    assert SignalMatrix(values, ("a", "b")) != SignalMatrix(values, ("a", "b"))
    assert series == series and series != SymbolSeries(series.codes, (2, 2))


def test_zero_mass_cells_dropped():
    pmf = JointPMF.from_mapping({(0,): 0.0, (1,): 1.0}, (2,))
    assert pmf.support_count == 1
    assert pmf.mass.get((0,), 0.0) == 0.0
    assert pmf.mass.get((1,), 0.0) == 1.0


def test_mass_must_sum_to_one():
    with pytest.raises(ValueError, match="total mass"):
        JointPMF.from_mapping({(0,): 0.3, (1,): 0.3}, (2,))


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        JointPMF(dims=(2,), indices=np.array([[0], [1]]), weights=np.array([1.5, -0.5]))


@pytest.mark.parametrize("mapping, dim", [({(5, 0): 0.5, (1, 1): 0.5}, 0),
                                          ({(0, -1): 0.5, (1, 1): 0.5}, 1)])
def test_index_rows_outside_dims_rejected(mapping, dim):
    with pytest.raises(ValueError, match=f"dimension {dim}: index outside"):
        JointPMF.from_mapping(mapping, (2, 2))


def test_integer_weights_are_normalized_counts():
    # integer weights that do not sum to 1 are counts, not a total mass of 4
    pmf = JointPMF((2,), np.array([[0], [1]]), [3, 1])
    assert pmf.mass.get((0,), 0.0) == pytest.approx(0.75)
    assert pmf.counts.tolist() == [3, 1] and pmf.counts.dtype == np.int64


def test_only_integer_weights_are_kept_as_counts():
    pmf = JointPMF((2,), np.array([[0], [1]]), [0.75, 0.25])
    assert pmf.counts is None and pmf.probs.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError, match="total mass 2.0 not 1"):
        JointPMF((2,), np.array([[0], [1]]), [1.5, 0.5])


@pytest.mark.parametrize("counts, message", [
    ([3], "indices/weights length mismatch"),
    ([3, 0], "stored weights must be strictly positive"),
    ([3.0, 1.0], "total mass 4.0 not 1"),  # float weights are masses, not counts
    ([-3, 1], "stored weights must be strictly positive"),
], ids=[f"counts{i}" for i in range(4)])
def test_counts_must_be_one_positive_integer_per_row(counts, message):
    with pytest.raises(ValueError, match=message):
        JointPMF((2,), np.array([[0], [1]]), np.array(counts))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_rows_with_repeats_hold_one_distribution(data):
    # the masses that infocore reads and the counts that the flux lattice
    # reads are one distribution, however often a row repeats
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, dims, size=(data.draw(st.integers(1, 30)), len(dims)))
    rows = np.concatenate([rows, rows[rng.integers(0, len(rows), size=len(rows))]])
    counts = rng.integers(1, 50, size=len(rows))
    pmf = JointPMF(dims, rows, counts)
    cells, inverse = np.unique(_cell_codes(rows.T, dims), return_inverse=True)
    summed = np.bincount(inverse, counts)
    assert np.array_equal(pmf.codes, cells) and np.array_equal(pmf.counts, summed)
    np.testing.assert_allclose(pmf.probs, summed / summed.sum(), rtol=1e-15, atol=0)
    assert (flux_report_from_pmf(pmf).target_entropy
            == pytest.approx(infocore.entropy(pmf, [0]), abs=1e-12))


def test_estimate_keeps_the_sample_counts():
    symbols = SymbolSeries(np.array([[0, 1], [0, 1], [1, 0], [0, 1]]), (2, 2))
    pmf = estimate_joint_pmf(symbols, [(0, 0), (1, 0)])
    assert pmf.indices.tolist() == [[0, 1], [1, 0]]
    assert pmf.counts.tolist() == [3, 1]
    assert np.array_equal(pmf.probs, pmf.counts / 4)


def test_marginalize_sums_out():
    dense = np.array([[0.1, 0.2], [0.3, 0.4]])
    pmf = JointPMF.from_dense(dense)
    m0 = marginalize(pmf, [0])
    assert np.allclose(m0.to_dense(), dense.sum(axis=1))
    m1 = marginalize(pmf, [1])
    assert np.allclose(m1.to_dense(), dense.sum(axis=0))


def test_marginalize_keeps_order():
    dense = np.arange(1, 9, dtype=float).reshape(2, 2, 2)
    dense /= dense.sum()
    pmf = JointPMF.from_dense(dense)
    swapped = marginalize(pmf, [2, 0])
    assert np.allclose(swapped.to_dense(), dense.sum(axis=1).T)


def test_marginalize_rejects_bad_dims():
    pmf = JointPMF.from_dense(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        marginalize(pmf, [])
    with pytest.raises(ValueError):
        marginalize(pmf, [0, 0])
    with pytest.raises(ValueError):
        marginalize(pmf, [5])


# ---------------------------------------------------------------------------
# cell tallies against the implementations they replaced

def unique_tally(columns, dims, weights=None):
    """Oracle: occupied cells of the tuples zip(*columns) in lexicographic
    order with their counts or summed weights, by a dense bincount when
    there are no more cells than rows, else by np.unique + bincount."""
    codes = np.ravel_multi_index(tuple(columns), dims)
    if math.prod(dims) <= len(codes):
        totals = np.bincount(codes, weights)
        cells = np.flatnonzero(totals)
        totals = totals[cells]
    else:
        cells, inverse = np.unique(codes, return_inverse=True)
        totals = np.bincount(inverse, weights)
    return np.column_stack(np.unravel_index(cells, dims)), totals


@pytest.mark.parametrize("weighting", [None, "int", "float"])
@pytest.mark.parametrize("dense", [True, False])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_codes_matches_unique_tally(dense, weighting, data):
    dims = tuple(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    n_rows = data.draw(st.integers(1, 200))
    # the dense count when told the number of cells and it fits, else the sort
    assume(math.prod(dims) <= n_rows or not dense)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = rng.integers(0, dims, size=(n_rows, len(dims))).T
    weights = {None: None, "int": rng.integers(1, 1000, n_rows),
               "float": rng.random(n_rows)}[weighting]
    cells, totals = _count_codes(_cell_codes(columns, dims), weights,
                                 math.prod(dims) if dense else None)
    indices, want = unique_tally(columns, dims, weights)
    assert np.array_equal(np.column_stack(np.unravel_index(cells, dims)), indices)
    assert totals.dtype == (np.float64 if weighting == "float" else np.int64)
    assert np.array_equal(totals, want)


def unique_marginalize(pmf, keep):
    """Oracle: marginal by a row-wise np.unique over the kept columns."""
    uniq, inv = np.unique(pmf.indices[:, keep], axis=0, return_inverse=True)
    p = np.bincount(inv, weights=pmf.probs, minlength=uniq.shape[0])
    return JointPMF(tuple(pmf.dims[k] for k in keep), uniq, p)


def dense_estimate(symbols, selection):
    """Oracle: plug-in joint by a dense bincount over every cell."""
    n_valid = symbols.n_samples - max(lag for _, lag in selection)
    dims = [symbols.alphabet[v] for v, _ in selection]
    stacked = np.column_stack([symbols.codes[lag:lag + n_valid, v] for v, lag in selection])
    counts = np.bincount(np.ravel_multi_index(tuple(stacked.T), dims))
    support = np.flatnonzero(counts)
    return JointPMF(dims, np.column_stack(np.unravel_index(support, dims)), counts[support])


@st.composite
def sparse_joints(draw):
    """Joint over 1-4 variables of 2-5 symbols; its support is a random set
    of cells in random (unsorted) row order."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    n_cells = math.prod(dims)
    codes = draw(st.lists(st.integers(0, n_cells - 1), min_size=1,
                          max_size=min(n_cells, 40), unique=True))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(codes),
                                     max_size=len(codes))))
    return JointPMF(dims, np.column_stack(np.unravel_index(codes, dims)), weights / weights.sum())


def assert_same_pmf(got, want):
    assert got.dims == want.dims
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.probs, want.probs)


@pytest.mark.parametrize("dense", [True, False])
@settings(max_examples=60, deadline=None)
@given(sparse_joints(), st.data())
def test_marginalize_matches_unique_oracle(dense, pmf, data):
    keep = data.draw(st.permutations(range(pmf.ndim)))[:data.draw(st.integers(1, pmf.ndim))]
    # a dense count when the marginal has no more cells than support rows
    assume((math.prod(pmf.dims[k] for k in keep) <= pmf.support_count) == dense)
    assert_same_pmf(marginalize(pmf, keep), unique_marginalize(pmf, keep))


@settings(max_examples=60, deadline=None)
@given(sparse_joints(), st.data())
def test_entropy_of_marginal_is_marginal_entropy(pmf, data):
    keep = data.draw(st.permutations(range(pmf.ndim)))[:data.draw(st.integers(1, pmf.ndim))]
    assert infocore.entropy(marginalize(pmf, keep)) == infocore.entropy(pmf, keep)


@pytest.mark.parametrize("dense", [True, False])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_estimate_matches_dense_bincount_oracle(dense, data):
    alphabet = tuple(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    n_samples = data.draw(st.integers(4, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    symbols = SymbolSeries(rng.integers(0, alphabet, size=(n_samples, len(alphabet))), alphabet)
    selection = data.draw(st.lists(st.tuples(st.integers(0, len(alphabet) - 1), st.integers(0, 3)),
                                   min_size=1, max_size=4))
    n_valid = n_samples - max(lag for _, lag in selection)
    assume((math.prod(alphabet[v] for v, _ in selection) <= n_valid) == dense)
    assert_same_pmf(estimate_joint_pmf(symbols, selection), dense_estimate(symbols, selection))


def row_scan_prob(pmf, symbol):
    """Oracle: the mass at `symbol` by a scan over the support rows."""
    hit = np.all(pmf.indices == np.asarray(symbol, dtype=np.int64), axis=1)
    return float(pmf.probs[hit].sum())


@st.composite
def built_joints(draw):
    """A JointPMF as each path makes one: the constructor given unsorted rows
    with repeats, an estimate or a marginal."""
    how = draw(st.sampled_from(["constructed", "estimated", "marginalized"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    if how == "constructed":
        rows = rng.integers(0, dims, size=(draw(st.integers(1, 40)), len(dims)))
        rows = np.concatenate([rows, rows[rng.integers(0, len(rows), size=len(rows) // 2)]])
        weights = rng.random(len(rows)) + 0.01
        return JointPMF(dims, rows, weights / weights.sum())
    if how == "estimated":
        symbols = SymbolSeries(rng.integers(0, dims, size=(draw(st.integers(4, 60)), len(dims))),
                               dims)
        selection = [(int(v), int(lag)) for v, lag in rng.integers(0, [len(dims), 3], size=(3, 2))]
        return estimate_joint_pmf(symbols, selection[:draw(st.integers(1, 3))])
    pmf = draw(sparse_joints())
    order = draw(st.permutations(range(pmf.ndim)))
    return marginalize(pmf, order[:draw(st.integers(1, pmf.ndim))])


@settings(max_examples=120, deadline=None)
@given(built_joints(), st.integers(0, 2**32 - 1))
def test_support_is_stored_as_increasing_cell_codes(pmf, seed):
    assert pmf.codes.dtype == np.int64 and np.all(np.diff(pmf.codes) > 0)
    assert np.array_equal(pmf.codes, _cell_codes(pmf.indices.T, pmf.dims))
    # every support row, then symbols in and out of the support and alphabets
    off = np.random.default_rng(seed).integers(-1, np.asarray(pmf.dims) + 1, size=(20, pmf.ndim))
    mass = pmf.mass
    for symbol in [*pmf.indices, *off]:
        assert mass.get(tuple(symbol), 0.0) == row_scan_prob(pmf, symbol)


def test_estimate_refuses_joints_wider_than_int64_codes():
    symbols = SymbolSeries(np.zeros((5, 22), dtype=np.int64), (8,) * 22)
    with pytest.raises(ValueError, match=r"dims \(8, 8, .*2\*\*63-1"):
        estimate_joint_pmf(symbols, [(v, 0) for v in range(22)])


def test_estimate_memory_scales_with_samples_not_cells():
    # 8**10 = 2**30 cells: a dense count would need 8 GiB
    rng = np.random.default_rng(0)
    symbols = SymbolSeries(rng.integers(0, 8, size=(2000, 10)), (8,) * 10)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="occupied cells"):
            pmf = estimate_joint_pmf(symbols, [(v, 0) for v in range(10)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert pmf.support_count <= 2000
