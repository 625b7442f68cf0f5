"""Whole-horizon Picard sweeps, the oracle the blocked solvers are tested against.

picard takes the memory integral as a callback and sweeps the whole horizon
window by window; the kernel form's block march and the derivative form's
derivative rows must reproduce what it gives.
"""

from functools import partial

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
from fracwave.fractional import pi_weights


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
    windows = [block[:3] for block in _fold_blocks(p, p.mesh.n_nodes)]
    return picard(p, opts, windows, lambda g: _volterra(weights, p.action, g, plan)[0], "kernel", _plan_meta(plan))
