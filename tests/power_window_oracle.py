"""The per-row powering that ``scaling._power_rows`` batches: one row, one window.

``power_window`` powers the law's spectrum for a single N as the package
did before a whole ladder went through one pass: the same masks, polar
powering, refinement, read-back, sum check, noise cut and normalization,
each over one row's frequencies and weights.  The refinement of a frequency
is the package's ``scaling._centred_log_power``, whose value does not depend
on the other frequencies of a call; so the batched kernel must match this
row by row up to the order of its per-row sums.
"""

import math

import numpy as np

from frameness import scaling
from frameness.states import _STACK_ENTRIES, CONVOLVED_SUM_EPS, FramenessError

_EPS = np.finfo(float).eps


def power_window(law, n_copies: int) -> tuple[np.ndarray, int]:
    """The normalized N-fold law of ``law.w`` on its mass window, and its start."""
    if n_copies < 1:
        raise ValueError("need at least one copy")
    w, total, levels = law.w, law.total, law.levels
    length, start, centre = scaling._mass_window(law, n_copies)
    factor = np.fft.rfft(w, length)
    size = np.abs(factor)
    near = np.flatnonzero(size > total * _EPS ** (1 / n_copies))
    size = size[near]
    log_power = n_copies * (np.log(size) + 1j * np.angle(factor[near]))
    log_power[0] = n_copies * math.log(total)
    fine = 1 + np.flatnonzero(size[1:] > total * n_copies ** (-1 / n_copies))
    if fine.size * levels.size > length:
        fine = fine[np.argsort(-size[fine], kind="stable")[:max(1, length // levels.size)]]
    weights = law.level_weights
    step = max(1, _STACK_ENTRIES // levels.size)
    for k in (fine[i:i + step] for i in range(0, fine.size, step)):
        j = near[k]
        log_power[k] = scaling._centred_log_power(weights, levels, total, j, n_copies, centre, length)
    spectrum = np.zeros(factor.size, dtype=complex)
    spectrum[near] = np.exp(log_power)
    folded = np.fft.irfft(spectrum, length)
    cut = start % length
    acc = np.concatenate((folded[cut:], folded[:cut]))[:n_copies * (w.size - 1) + 1]
    got, expected = float(acc.sum()), total**n_copies
    if not abs(got - expected) <= CONVOLVED_SUM_EPS * n_copies * _EPS:
        raise FramenessError(f"{n_copies}-fold convolution sums to {got!r}, expected {expected!r}")
    acc[np.abs(acc) <= -acc.min()] = 0.0
    return acc / acc.sum(), start
