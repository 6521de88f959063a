"""Small, chunkrec-free helpers for the benchmark's end-to-end metrics."""

from __future__ import annotations

import math

import numpy as np


def percentile(values, q):
    """q-th percentile (linear interpolation) of a non-empty sequence."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def open_loop_lag(due, service):
    """Completion time minus due time for requests served in order.

    Request i is due at due[i] and takes service[i] once started; it starts
    when it is due and its predecessor has finished:
    finish_i = max(due_i, finish_{i-1}) + service_i. That is what an open
    loop sending each request at its due time would observe from a server
    that handles one request at a time.
    """
    lags = []
    finish = float("-inf")
    for d, s in zip(due, service):
        finish = max(d, finish) + s
        lags.append(finish - d)
    return lags


def tail_indices(keys, share=0.25):
    """Indices of the `share` of items with the largest keys (stable order)."""
    n = max(1, math.ceil(len(keys) * share))
    order = sorted(range(len(keys)), key=lambda i: (-keys[i], -i))
    return sorted(order[:n])
