import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infodyn import signals
from infodyn.discretization import (
    PartitionSpec,
    SymbolSeries,
    _edge_codes,
    _quantile_codes,
    discretize,
    estimate_joint_pmf,
)
from infodyn.signals import SignalMatrix, read_csv, write_csv


def test_signal_matrix_validation():
    with pytest.raises(ValueError, match="2 time samples"):
        SignalMatrix(np.zeros((1, 2)), ("a", "b"))
    with pytest.raises(ValueError, match="names length"):
        SignalMatrix(np.zeros((5, 2)), ("a",))
    with pytest.raises(ValueError, match="NaN or Inf"):
        SignalMatrix(np.array([[0.0], [np.nan]]), ("a",))


def test_signal_column_and_select():
    sig = SignalMatrix(np.arange(6.0).reshape(3, 2), ("a", "b"), dt=0.5)
    assert np.array_equal(sig.column("b"), [1.0, 3.0, 5.0])
    sub = sig.select(["b"])
    assert sub.names == ("b",)
    assert sub.dt == 0.5


def test_csv_roundtrip(tmp_path):
    sig = SignalMatrix(np.random.default_rng(0).standard_normal((20, 3)), ("x", "y", "z"))
    write_csv(sig, tmp_path / "s.csv")
    back = read_csv(tmp_path / "s.csv")
    assert back.names == sig.names
    assert np.array_equal(back.values, sig.values)


# the extreme cells of %.17g: signed zero, subnormals, the largest finite
# values and three-digit exponents either way
EDGE_CELLS = [-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1e300, -3.5e-300, 1.2345678901234567e-300]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_columns=st.integers(1, 9), n_rows=st.integers(2, 12),
       block=st.integers(1, 5))
def test_write_csv_writes_the_bytes_of_savetxt(data, n_columns, n_rows, block):
    cells = st.one_of(st.sampled_from(EDGE_CELLS), st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(data.draw(st.lists(cells, min_size=n_rows * n_columns,
                                         max_size=n_rows * n_columns))).reshape(n_rows, n_columns)
    names = tuple(f"v{i}" for i in range(n_columns))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(signals, "CSV_BLOCK", block):  # rows cross block edges
            write_csv(SignalMatrix(values, names), got)
        np.savetxt(want, values, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
        assert got.read_bytes() == want.read_bytes()


def test_read_csv_malformed(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n1.0,oops\n")
    with pytest.raises(ValueError, match="malformed"):
        read_csv(tmp_path / "bad.csv")


# --- discretization ---

def test_quantile_codes_equal_counts():
    x = np.random.default_rng(2).standard_normal((800, 1))
    sym = discretize(SignalMatrix(x, ("x",)), PartitionSpec(bins_per_variable=8))
    counts = np.bincount(sym.codes[:, 0], minlength=8)
    assert np.all(counts == 100)


def test_quantile_codes_invariant_under_monotone_transform():
    x = np.random.default_rng(3).standard_normal(500)
    a = discretize(SignalMatrix(x[:, None], ("x",)), PartitionSpec())
    b = discretize(SignalMatrix(np.exp(x)[:, None], ("x",)), PartitionSpec())
    assert np.array_equal(a.codes, b.codes)


def stable_rank_codes(x, n_bins):
    """Oracle: quantile codes ranked by a stable sort for every column."""
    order = np.argsort(x, kind="stable")
    codes = np.empty(x.shape[0], dtype=np.int64)
    codes[order] = np.arange(x.shape[0], dtype=np.int64) * n_bins // x.shape[0]
    return codes


@st.composite
def columns_with_ties(draw):
    """A column of distinct values, few values, signed zeros, or a long
    constant run, in any order."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["distinct", "few values", "signed zeros", "constant run"]))
    if kind == "distinct":
        x = rng.standard_normal(n)
    elif kind == "few values":
        x = rng.integers(0, draw(st.integers(2, 5)), n).astype(float)
    elif kind == "signed zeros":
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], n)
    else:
        x = rng.standard_normal(n)
        start = draw(st.integers(0, n - 1))
        x[start:draw(st.integers(start, n))] = x[start]
    order = draw(st.sampled_from(["as drawn", "sorted", "reversed"]))
    return x if order == "as drawn" else np.sort(x)[::1 if order == "sorted" else -1].copy()


@settings(max_examples=300, deadline=None)
@given(columns_with_ties(), st.integers(2, 9))
def test_quantile_codes_match_the_stable_rank(x, n_bins):
    # ties keep their sample order; without ties any sort gives that rank
    assume(x.max() != x.min())
    assert np.array_equal(_quantile_codes(x, n_bins), stable_rank_codes(x, n_bins))


def test_constant_column_rejected_under_quantile():
    sig = SignalMatrix(np.ones((10, 1)), ("x",))
    with pytest.raises(ValueError, match="degenerate variable"):
        discretize(sig, PartitionSpec())


def test_uniform_width_half_open_cells():
    # values land in [e_k, e_{k+1}) with the top cell closed
    sig = SignalMatrix(np.array([0.0, 1.0, 2.0, 3.0, 4.0])[:, None], ("x",))
    sym = discretize(sig, PartitionSpec("uniform-width", bins_per_variable=4))
    assert np.array_equal(sym.codes[:, 0], [0, 1, 2, 3, 3])


def _edge_codes_three_pass(x, edges):
    # the former formula: search all edges, shift, clip into the end cells
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)


@st.composite
def _edges_and_samples(draw):
    # sorted distinct edges, and samples on them, one ulp either side of
    # them, beyond both ends, non-finite, and anywhere in between
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    edges = np.array(sorted(set(draw(st.lists(values, min_size=3, max_size=12)))))
    if edges.size < 3:
        edges = np.array([-1.0, 0.0, 1.0])
    x = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [edges[0] - 1.0, edges[-1] + 1.0, -np.inf, np.inf, np.nan],
        draw(st.lists(values, max_size=20)),
    ])
    return edges, x


@settings(max_examples=200, deadline=None)
@given(_edges_and_samples())
def test_edge_codes_match_three_pass_formula(case):
    edges, x = case
    codes = _edge_codes(x, edges)
    expected = _edge_codes_three_pass(x, edges)
    assert codes.dtype == expected.dtype
    assert np.array_equal(codes, expected)
    # monotone samples (the fit's sorted draw) bin the same as shuffled ones
    order = np.random.default_rng(0).permutation(x.size)
    assert np.array_equal(_edge_codes(x[order], edges), expected[order])


def test_explicit_edges_clip_out_of_range():
    spec = PartitionSpec("explicit-edges", edges=(np.array([0.0, 1.0, 2.0]),))
    sig = SignalMatrix(np.array([-5.0, 0.5, 1.5, 9.0])[:, None], ("x",))
    sym = discretize(sig, spec)
    assert np.array_equal(sym.codes[:, 0], [0, 0, 1, 1])


def test_explicit_edges_pmf_clips_and_normalizes():
    spec = PartitionSpec("explicit-edges", edges=(np.array([0.0, 1.0, 2.0]),))
    sig = SignalMatrix(np.array([-3.0, 0.5, 1.5, 8.0]), ("x",))
    pmf = estimate_joint_pmf(discretize(sig, spec), [(0, 0)])
    assert pmf.mass.get((0,), 0.0) == pytest.approx(0.5)
    assert pmf.mass.get((1,), 0.0) == pytest.approx(0.5)


def test_partition_spec_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        PartitionSpec("nope")
    with pytest.raises(ValueError, match="requires edges"):
        PartitionSpec("explicit-edges")
    with pytest.raises(ValueError, match="at least 2 bins"):
        PartitionSpec(bins_per_variable=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        PartitionSpec("explicit-edges", edges=(np.array([0.0, 0.0, 1.0]),))
    # a NaN difference is neither <= 0 nor > 0: [0, nan, 1] was accepted
    for edges in ([0, np.nan, 1], [np.nan, 0, 1], [0, 1, np.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PartitionSpec("explicit-edges", edges=(edges,))
    # infinite outer edges stay allowed
    assert PartitionSpec("explicit-edges", edges=([-np.inf, 0, np.inf],)).bins_for(1) == [2]


def test_bins_per_variable_list_gives_each_variable_its_own_count():
    spec = PartitionSpec(bins_per_variable=[2, 3, 5])
    assert spec.bins_for(3) == [2, 3, 5]
    signal = SignalMatrix(np.random.default_rng(0).standard_normal((60, 3)), ("a", "b", "c"))
    symbols = discretize(signal, spec)
    assert symbols.alphabet == (2, 3, 5)
    assert [np.unique(symbols.codes[:, v]).tolist() for v in range(3)] == [
        [0, 1], [0, 1, 2], [0, 1, 2, 3, 4]]
    with pytest.raises(ValueError, match="bins_per_variable length does not match variable count"):
        spec.bins_for(2)
    edges = PartitionSpec("explicit-edges", edges=([0.0, 1.0, 2.0],))
    with pytest.raises(ValueError, match="edges count does not match variable count"):
        edges.bins_for(2)


def test_symbol_series_validation():
    with pytest.raises(ValueError, match="code outside"):
        SymbolSeries(np.array([[0], [3]]), (2,))


def test_estimate_joint_pmf_lagged_pairs():
    # deterministic alternation: x lags itself perfectly
    codes = np.array([0, 1] * 50)[:, None]
    sym = SymbolSeries(codes, (2,))
    pmf = estimate_joint_pmf(sym, [(0, 1), (0, 0)])
    assert pmf.mass.get((1, 0), 0.0) == pytest.approx(0.5, abs=0.02)
    assert pmf.mass.get((0, 0), 0.0) == 0.0


def test_estimate_joint_pmf_lag_bounds():
    sym = SymbolSeries(np.zeros((5, 1), dtype=int), (2,))
    with pytest.raises(ValueError, match="no valid samples"):
        estimate_joint_pmf(sym, [(0, 10), (0, 0)])


def test_occupancy_warning():
    rng = np.random.default_rng(4)
    sym = SymbolSeries(rng.integers(0, 50, size=(150, 2)), (50, 50))
    with pytest.warns(UserWarning, match="occupied cells"):
        estimate_joint_pmf(sym, [(0, 0), (1, 0)])
