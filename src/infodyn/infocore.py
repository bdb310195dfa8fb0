"""Exact information-theoretic functionals over joint PMFs.

Everything is computed in log base 2 (bits). All conditional and mutual
quantities are derived from marginals of one shared JointPMF, so the
algebraic identities among them (chain rule, flux decompositions) hold to
machine precision rather than up to estimator noise.
"""

from __future__ import annotations

import warnings

import numpy as np

from .pmf import JointPMF, marginalize

__all__ = [
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "co_information",
    "kl_divergence",
]


def _as_dims(over) -> list[int]:
    dims = [int(d) for d in over]
    if len(set(dims)) != len(dims):
        raise ValueError("variable set contains repeated dimensions")
    return dims


def _check_disjoint(*sets):
    seen = set()
    for s in sets:
        for d in s:
            if d in seen:
                raise ValueError(f"variable sets overlap at dimension {d}")
            seen.add(d)


def entropy(pmf: JointPMF, over=None) -> float:
    """Shannon entropy H (bits) of the marginal on `over` (default: all)."""
    p = pmf.probs if over is None else marginalize(pmf, _as_dims(over)).probs
    return _weights_entropy(p)


def _weights_entropy(weights) -> float:
    """Entropy (bits) of the distribution proportional to positive `weights`
    (counts or masses): -sum(p log2 p) with p = weights / sum(weights). A
    single cell has entropy +0.0 (0.0 - 0.0, where negating would give -0.0)."""
    p = weights / np.add.reduce(weights)
    return float(0.0 - np.add.reduce(p * np.log2(p)))


def conditional_entropy(pmf: JointPMF, target, given) -> float:
    """H(target | given) = H(target, given) - H(given); empty given allowed."""
    target = _as_dims(target)
    given = _as_dims(given)
    _check_disjoint(target, given)
    if not given:
        return entropy(pmf, target)
    return entropy(pmf, target + given) - entropy(pmf, given)


def mutual_information(pmf: JointPMF, a, b) -> float:
    """I(a;b) = H(a) - H(a|b); symmetric and nonnegative."""
    a, b = _as_dims(a), _as_dims(b)
    _check_disjoint(a, b)
    return entropy(pmf, a) - conditional_entropy(pmf, a, b)


def conditional_mutual_information(pmf: JointPMF, a, b, given=()) -> float:
    """I(a;b|given) = H(a|given) - H(a|b,given)."""
    a, b, given = _as_dims(a), _as_dims(b), _as_dims(given)
    _check_disjoint(a, b, given)
    return conditional_entropy(pmf, a, given) - conditional_entropy(pmf, a, b + given)


def co_information(pmf: JointPMF, parts, given=()) -> float:
    """Conditional co-information I(p1; p2; ...; pM | given).

    Defined by the recursion
        I(p1;...;pM | g) = I(p1;...;p(M-1) | g) - I(p1;...;p(M-1) | [pM, g])
    down to the pairwise conditional mutual information. May be negative
    for three or more parts.
    """
    parts = [_as_dims(p) for p in parts]
    given = _as_dims(given)
    if len(parts) < 2:
        raise ValueError("co-information needs at least 2 parts")
    _check_disjoint(*parts, given)
    if len(parts) == 2:
        return conditional_mutual_information(pmf, parts[0], parts[1], given)
    head, last = parts[:-1], parts[-1]
    return co_information(pmf, head, given) - co_information(pmf, head, last + given)


def kl_divergence(p: JointPMF, q: JointPMF, epsilon: float | None = None) -> float:
    """KL(p||q) in bits: sum p log2(p/q).

    Returns inf when p has mass on cells where q has none, with a warning
    listing the offending cells. Passing `epsilon` floors the missing q
    masses instead, keeping the value (and gradients) finite.
    """
    if p.dims != q.dims:
        raise ValueError(f"dimension mismatch: {p.dims} vs {q.dims}")
    # q's mass on each of p's cells, matched by cell code (q's codes increase)
    hit = np.searchsorted(q.codes, p.codes).clip(max=q.support_count - 1)
    qs = np.where(q.codes[hit] == p.codes, q.probs[hit], 0.0)
    missing = qs == 0
    if missing.any():
        if epsilon is None:
            cells = [tuple(row) for row in p.indices[missing]][:10]
            warnings.warn(
                f"KL divergence infinite: q has zero mass on {missing.sum()} "
                f"cells of p's support, e.g. {cells}",
                stacklevel=2,
            )
            return float("inf")
        qs = np.maximum(qs, epsilon)
    return float((p.probs * np.log2(p.probs / qs)).sum())
