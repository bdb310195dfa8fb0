import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import infocore
from infodyn.pmf import JointPMF


def random_joint(rng, dims):
    dense = rng.random(dims)
    dense /= dense.sum()
    return JointPMF.from_dense(dense)


def test_entropy_uniform():
    pmf = JointPMF.from_dense(np.full(8, 0.125))
    assert infocore.entropy(pmf) == pytest.approx(3.0)


def test_entropy_deterministic_is_zero():
    pmf = JointPMF.from_mapping({(2,): 1.0}, (4,))
    assert math.copysign(1.0, infocore.entropy(pmf)) == 1.0 and infocore.entropy(pmf) == 0.0


def test_duplicate_rows_are_one_cell():
    p = JointPMF((2,), [[0], [0]], [0.5, 0.5])
    q = JointPMF.from_dense(np.full(2, 0.5))
    assert infocore.entropy(p) == infocore.entropy(p, [0]) == 0.0
    assert infocore.kl_divergence(p, q) == 1.0
    assert p.to_dense().sum() == 1.0


def test_entropy_marginal_matches_numpy():
    rng = np.random.default_rng(0)
    pmf = random_joint(rng, (3, 4))
    marg = pmf.to_dense().sum(axis=1)
    expected = -(marg * np.log2(marg)).sum()
    assert infocore.entropy(pmf, [0]) == pytest.approx(expected, abs=1e-12)


def test_chain_rule():
    rng = np.random.default_rng(1)
    pmf = random_joint(rng, (3, 3))
    h_joint = infocore.entropy(pmf)
    h_chain = infocore.entropy(pmf, [1]) + infocore.conditional_entropy(pmf, [0], [1])
    assert h_joint == pytest.approx(h_chain, abs=1e-12)


def test_mutual_information_independent_product():
    px = np.array([0.3, 0.7])
    py = np.array([0.6, 0.4])
    pmf = JointPMF.from_dense(np.outer(px, py))
    assert infocore.mutual_information(pmf, [0], [1]) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identity_channel():
    pmf = JointPMF.from_dense(np.diag([0.25, 0.25, 0.25, 0.25]))
    assert infocore.mutual_information(pmf, [0], [1]) == pytest.approx(2.0)


def test_mutual_information_symmetric_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pmf = random_joint(rng, (4, 5))
        ab = infocore.mutual_information(pmf, [0], [1])
        ba = infocore.mutual_information(pmf, [1], [0])
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab >= -1e-12


def test_conditional_mi_chain_identity():
    # I(a;b) + I(a;c|b) = I(a;[b,c])
    rng = np.random.default_rng(3)
    pmf = random_joint(rng, (3, 3, 3))
    lhs = infocore.mutual_information(pmf, [0], [1]) + infocore.conditional_mutual_information(pmf, [0], [2], [1])
    rhs = infocore.mutual_information(pmf, [0], [1, 2])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_co_information_two_parts_is_mi():
    rng = np.random.default_rng(4)
    pmf = random_joint(rng, (3, 4))
    assert infocore.co_information(pmf, [[0], [1]]) == pytest.approx(
        infocore.mutual_information(pmf, [0], [1]), abs=1e-12)


def test_co_information_xor_is_negative_one():
    mass = {(x, y, x ^ y): 0.25 for x in range(2) for y in range(2)}
    pmf = JointPMF.from_mapping(mass, (2, 2, 2))
    assert infocore.co_information(pmf, [[0], [1], [2]]) == pytest.approx(-1.0, abs=1e-12)


def test_variable_sets_must_be_disjoint():
    pmf = JointPMF.from_dense(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="overlap"):
        infocore.mutual_information(pmf, [0], [0])


def test_kl_divergence_identical_is_zero():
    rng = np.random.default_rng(5)
    pmf = random_joint(rng, (6,))
    assert infocore.kl_divergence(pmf, pmf) == pytest.approx(0.0, abs=1e-12)


def test_kl_divergence_closed_form():
    p = JointPMF.from_dense(np.array([0.5, 0.5]))
    q = JointPMF.from_dense(np.array([0.25, 0.75]))
    expected = 0.5 * np.log2(0.5 / 0.25) + 0.5 * np.log2(0.5 / 0.75)
    assert infocore.kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)


def test_kl_divergence_support_mismatch_warns_inf():
    p = JointPMF.from_dense(np.array([0.5, 0.5]))
    q = JointPMF.from_mapping({(0,): 1.0}, (2,))
    with pytest.warns(UserWarning, match="zero mass"):
        assert np.isinf(infocore.kl_divergence(p, q))


def test_kl_divergence_epsilon_floor_finite():
    p = JointPMF.from_dense(np.array([0.5, 0.5]))
    q = JointPMF.from_mapping({(0,): 1.0}, (2,))
    val = infocore.kl_divergence(p, q, epsilon=1e-9)
    assert np.isfinite(val) and val > 0


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_joint(rng, (5,))
        q = random_joint(rng, (5,))
        assert infocore.kl_divergence(p, q) >= -1e-12


def test_kl_divergence_refuses_joints_wider_than_int64_codes():
    # such a joint is refused at construction, so no KL can be asked of it
    with pytest.raises(ValueError, match=r"2\*\*63-1"):
        JointPMF((8,) * 22, np.zeros((1, 22), dtype=np.int64), np.ones(1))


def test_cross_entropy_identity():
    # H(p) + KL(p, q) is the cross entropy -sum p log2 q
    rng = np.random.default_rng(7)
    p = random_joint(rng, (4,))
    q = random_joint(rng, (4,))
    q_at = dict(zip(q.codes.tolist(), q.probs))
    cross = -sum(m * np.log2(q_at[c]) for c, m in zip(p.codes.tolist(), p.probs))
    assert infocore.entropy(p) + infocore.kl_divergence(p, q) == pytest.approx(cross, abs=1e-12)


def dict_kl(p, q, epsilon=None):
    """Oracle: KL(p||q) with q aligned to p's rows through a dict."""
    q_map = {tuple(row): float(m) for row, m in zip(q.indices, q.probs)}
    qs = np.array([q_map.get(tuple(row), 0.0) for row in p.indices])
    missing = qs == 0
    if missing.any():
        if epsilon is None:
            return float("inf")
        qs = np.maximum(qs, epsilon)
    return float((p.probs * np.log2(p.probs / qs)).sum())


@st.composite
def joint_pairs(draw):
    """Joints p and q over the same 1-3 variables, rows in random order;
    q either covers p's support or misses some of its cells."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    cells = st.integers(0, math.prod(dims) - 1)

    def joint(codes):
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(codes), max_size=len(codes))))
        return JointPMF(dims, np.column_stack(np.unravel_index(codes, dims)), w / w.sum())

    p_codes = draw(st.lists(cells, min_size=1, max_size=30, unique=True))
    q_codes = draw(st.lists(cells, min_size=1, max_size=30, unique=True))
    if draw(st.booleans()):
        q_codes = draw(st.permutations(sorted(set(p_codes) | set(q_codes))))
    return joint(p_codes), joint(q_codes)


@settings(max_examples=100, deadline=None)
@given(joint_pairs(), st.sampled_from([None, 1e-9, 0.05]))
def test_kl_divergence_matches_dict_oracle(pair, epsilon):
    p, q = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = infocore.kl_divergence(p, q, epsilon)
    assert np.array_equal(got, dict_kl(p, q, epsilon))
