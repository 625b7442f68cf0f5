"""Whole-horizon Picard sweeps and a dense block planner, the oracles the blocked solvers are tested against.

picard takes the memory integral as a callback and sweeps the whole horizon
window by window; the kernel form's block march and the derivative form's
derivative rows must reproduce what it gives.  dense_blocks plans the
march's blocks from the rows of the dense weight matrix.
"""

from functools import partial

import numpy as np

from fracwave.duhamel import (
    _BLOCK_ROWS,
    _base_trajectory,
    _block_levels,
    _converge,
    _fold_blocks,
    _forced,
    _plan_meta,
    _relative,
    _report,
    _row_sup,
    _stored,
    _volterra,
)
from fracwave.fractional import pi_weights, rl_integral


def picard(p, opts, windows, integral_term, form, extra_meta):
    """Whole-horizon Picard sweeps u <- b + integral_term(f(u) + P), window by window.

    windows are _fold_blocks' row ranges (s, e, q), in order.  A window sweeps
    until the row-sup change on its rows [s, e), relative to the whole
    iterate's size, is below tol; every sweep also moves the rows after it,
    which later windows start from.
    """
    base = _base_trajectory(p)
    weight = p.state_weight
    current = base.copy()
    histories: list = []
    stalled = None
    for s, e, _ in windows:

        def sweep(u):
            candidate = base + integral_term(_forced(p, u))
            change = _row_sup(candidate[s:e] - u[s:e], weight)
            u = _stored(u, s, u.shape[0], candidate[s:])
            return u, _relative(change, _row_sup(u, weight))

        current, history, converged = _converge(opts, f"window rows {s}..{e - 1}", current, sweep)
        if not converged:
            stalled = stalled or (s, e - 1)
        histories.append(history)
    return _report(form, current, histories, stalled, extra_meta)


def kernel_plan(p):
    """Blocks of _BLOCK_ROWS rows with the levels of the kernel form's head order alpha + 1."""
    n = p.mesh.n_nodes
    blocks = [(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]
    return [(s, e, _block_levels(p, s, e, p.alpha + 1.0)) for s, e in blocks]


def old_kernel_picard(p, opts):
    """The kernel form as whole-horizon Picard sweeps over 64-row blocks, in derived windows."""
    weights = partial(pi_weights, p.alpha, p.mesh.n_nodes, p.mesh.dt)
    plan = kernel_plan(p)
    windows = list(_fold_blocks(p, p.mesh.n_nodes))

    def integral_term(g):
        return rl_integral(_volterra(weights, p.action, g, plan), p.alpha, p.mesh)

    return picard(p, opts, windows, integral_term, "kernel", _plan_meta(plan))


def dense_blocks(p, cap=_BLOCK_ROWS, fold_later=False):
    """_fold_blocks' plan as a list, each block's norms the running maximum of the row sums of |W_BB|."""
    lip = p.nonlinearity.lipschitz
    norm_a = p.action.norm_bound
    n = p.mesh.n_nodes
    weights = pi_weights(p.alpha, n, p.mesh.dt)
    plan = []
    s = 0
    while s < n:
        end = min(s + cap, n)
        norms = np.maximum.accumulate(np.abs(weights[s:end, s:end]).sum(axis=1))
        rows = int(np.count_nonzero(lip * norms <= 0.5))
        assert rows, "one time step does not resolve the nonlinearity"
        if fold_later and s:
            rows = int(np.count_nonzero(norms * (norm_a + lip) <= 0.5)) or rows
        plan.append((s, s + rows, float(norms[rows - 1]) * (norm_a + lip)))
        s += rows
    return plan
