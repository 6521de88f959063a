"""Forward-backward over the chunk x label output probability lattice.

Tables use 0-based indices: chunk m in [0, M) and u = number of labels
already emitted, u in [0, U]. ``blank_lp[m, u]`` is the log-probability of
emitting the blank symbol given chunk m and prefix y_{1:u};
``label_lp[m, u]`` (u < U) is the log-probability of emitting y_{u+1}.

The recursion follows the standard transducer convention: a chunk
transition consumes the blank of the *source* chunk,

    alpha[m, u] = alpha[m-1, u] * blank[m-1, u] + alpha[m, u-1] * label[m, u-1]

with alpha[0, 0] = 1 and total probability alpha[M-1, U] * blank[M-1, U],
all in log domain via log-sum-exp. One recursion, ``_sweep``, computes it.
beta is the same recursion run on the reversed lattice (both axes flipped,
started at the terminal blank), so ``backward_pass`` has no loop of its own.
``lattice_grad`` validates its tables once, as the passes do theirs.

``enumerate_paths`` is the independent brute-force oracle: it sums
explicitly over every monotone assignment of the U labels to the M chunks.
It and ``diagonal_identity_check`` sum through their own ``_logsumexp``,
so neither shares code with the recursion it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import autodiff
from .errors import CapacityError, DegenerateLatticeError, NumericError, ShapeError

NEG_INF = -np.inf


def _validate(blank_lp, label_lp):
    blank_lp = np.asarray(blank_lp, dtype=np.float64)
    label_lp = np.asarray(label_lp, dtype=np.float64)
    if blank_lp.ndim != 2:
        raise ShapeError("blank_lp must be 2-d (M, U+1)")
    M, U1 = blank_lp.shape
    if label_lp.shape != (M, U1 - 1):
        raise ShapeError(f"label_lp shape {label_lp.shape} != ({M}, {U1 - 1})")
    if np.isnan(blank_lp).any() or np.isnan(label_lp).any():
        raise NumericError("NaN in lattice log-probabilities")
    return blank_lp, label_lp


def _sweep(down, right, start):
    """The one alpha/beta recursion, filled a row at a time on Python floats.

    x[0, 0] = start and x[m, u] = logaddexp(x[m-1, u] + down[m-1, u],
    x[m, u-1] + right[m, u-1]), where a term off the lattice is -inf.
    down is (M-1, U+1) and right is (M, U); returns x, shape (M, U+1).
    """
    # Row 0 is a zero-cost down move from a virtual row [start, -inf, ...].
    x = [float(start)] + [NEG_INF] * right.shape[1]
    rows = []
    for d, r in zip([[0.0] * len(x)] + down.tolist(), right.tolist()):
        x = [p + q for p, q in zip(x, d)]
        for u, lab in enumerate(r):
            a, b = x[u + 1], x[u] + lab
            hi, lo = (a, b) if a >= b else (b, a)
            # For two terms this is exactly what _logsumexp computes.
            x[u + 1] = hi if hi == NEG_INF else hi + math.log(1.0 + math.exp(lo - hi))
        rows.append(x)
    return np.array(rows)


def _alpha(blank_lp, label_lp):
    """(alpha, log_prob) of validated tables."""
    alpha = _sweep(blank_lp[:-1], label_lp, 0.0)
    return alpha, alpha[-1, -1] + blank_lp[-1, -1]


def _beta(blank_lp, label_lp):
    """beta of validated tables: alpha's recursion with both axes flipped."""
    return _sweep(blank_lp[-2::-1, ::-1], label_lp[::-1, ::-1], blank_lp[-1, -1])[::-1, ::-1]


def forward_pass(blank_lp, label_lp):
    """Return (alpha, log_prob) for the lattice tables."""
    return _alpha(*_validate(blank_lp, label_lp))


def backward_pass(blank_lp, label_lp):
    """Return beta; beta[0, 0] equals the total log_prob."""
    return _beta(*_validate(blank_lp, label_lp))


def _logsumexp(terms):
    if not terms:
        return NEG_INF
    m = max(terms)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(t - m) for t in terms))


def diagonal_identity_check(alpha, beta, log_prob):
    """Max |logsumexp_{m+u=n} alpha+beta - log_prob| over all anti-diagonals.

    Every alignment path crosses each anti-diagonal exactly once, so each
    diagonal's alpha*beta mass must reproduce the total probability.
    """
    M, U1 = alpha.shape
    max_dev = 0.0
    for n in range(M - 1 + U1):
        terms = [alpha[m, n - m] + beta[m, n - m]
                 for m in range(max(0, n - U1 + 1), min(M, n + 1))]
        terms = [t for t in terms if t > NEG_INF]
        if not terms:
            continue
        max_dev = max(max_dev, abs(_logsumexp(terms) - log_prob))
    return max_dev


def lattice_grad(blank_lp, label_lp):
    """Gradients of log_prob w.r.t. each log-probability table entry.

    Each gradient entry is the posterior probability (edge occupancy) of the
    corresponding lattice transition, so it lies in [0, 1]. Blank entries of
    the last chunk other than the terminal one are never used and get 0.

    Returns (log_prob, grad_blank, grad_label).
    """
    blank_lp, label_lp = _validate(blank_lp, label_lp)
    alpha, log_prob = _alpha(blank_lp, label_lp)
    if log_prob == NEG_INF:
        raise DegenerateLatticeError("lattice carries no path mass")
    beta = _beta(blank_lp, label_lp)
    # An edge no path uses has a -inf log-occupancy, and exp(-inf) = 0.
    grad_blank = np.zeros_like(blank_lp)
    grad_blank[:-1] = np.exp(alpha[:-1] + blank_lp[:-1] + beta[1:] - log_prob)
    grad_blank[-1, -1] = np.exp(alpha[-1, -1] + blank_lp[-1, -1] - log_prob)
    grad_label = np.exp(alpha[:, :-1] + label_lp + beta[:, 1:] - log_prob)
    return log_prob, grad_blank, grad_label


def alignment_paths(M, U):
    """Yield every assignment (k_1..k_M), k_i >= 0, sum k_i = U."""
    for cuts in itertools.combinations(range(U + M - 1), M - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(U + M - 1 - prev - 1)
        yield counts


def enumerate_paths(blank_lp, label_lp):
    """Brute-force total log-probability by explicit path enumeration.

    Guarded to M, U <= 8; the number of paths is C(U+M-1, M-1).
    """
    blank_lp, label_lp = _validate(blank_lp, label_lp)
    M, U = label_lp.shape
    if M > 8 or U > 8:
        raise CapacityError("enumerate_paths limited to M,U <= 8")
    terms = []
    for counts in alignment_paths(M, U):
        lp = 0.0
        u = 0
        for m, k in enumerate(counts):
            for _ in range(k):
                lp += label_lp[m, u]
                u += 1
            lp += blank_lp[m, u]
        terms.append(lp)
    return _logsumexp(terms)


def lattice_nll(blank_lp, label_lp):
    """Negative log-loss as an autodiff node over Tensor tables.

    Forward uses the alpha recursion; backward distributes the edge
    occupancies from lattice_grad (negated, since the loss is -ln p).
    """
    b, l = autodiff._as_tensor(blank_lp), autodiff._as_tensor(label_lp)
    log_prob, grad_blank, grad_label = lattice_grad(b.data, l.data)
    data = np.float64(-log_prob)
    autodiff.check_finite(data, "lattice loss")  # _make checks nothing

    def bwd(g):
        return -g * grad_blank, -g * grad_label

    return autodiff._make(np.asarray(data), (b, l), bwd)
