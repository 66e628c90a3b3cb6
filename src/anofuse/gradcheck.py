"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import grad, no_grad


@dataclass
class GradCheckResult:
    n_checked: int = 0
    n_skipped: int = 0
    max_rel_err: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    failures: list = field(default_factory=list)

    def passed(self):
        # compare_gradients records every entry with rel >= rtol as a failure
        return not self.failures


def finite_difference(f, params, names, h=1e-5):
    """Central-difference gradient of the scalar tensor f() w.r.t. each
    element of the params listed in `names`.

    f must read parameter values from the .data arrays in `params`, which
    are perturbed in place and restored. Runs with autodiff disabled.
    """
    out = {}
    with no_grad():
        for name in names:
            p = params[name]
            g = np.zeros_like(p.data)
            flat = p.data.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(f().data)
                flat[i] = orig - h
                f_minus = float(f().data)
                flat[i] = orig
                gflat[i] = (f_plus - f_minus) / (2.0 * h)
            out[name] = g
    return out


def compare_gradients(analytic, numeric, rtol=1e-4, floor=1e-8, missing_floor=1e-5):
    """Elementwise relative comparison, skipping entries with |analytic| <= floor.

    A skipped entry whose numeric gradient is still large (> missing_floor)
    is reported as a failure: that pattern means a gradient path was dropped,
    not that the derivative is genuinely tiny.
    """
    res = GradCheckResult()
    for name in sorted(analytic):
        a = analytic[name]
        n = numeric[name]
        mask = np.abs(a) > floor
        res.n_skipped += int((~mask).sum())
        for idx in zip(*np.nonzero(~mask & (np.abs(n) > missing_floor))):
            res.failures.append((name, idx, float(a[idx]), float(n[idx]), np.inf))
        if not mask.any():
            continue
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-300)
        rel = np.where(mask, rel, 0.0)
        res.n_checked += int(mask.sum())
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
        if rel[worst] > res.max_rel_err:
            res.max_rel_err = float(rel[worst])
            res.worst_param = name
            res.worst_index = worst
        for idx in zip(*np.nonzero(rel >= rtol)):
            res.failures.append((name, idx, float(a[idx]), float(n[idx]), float(rel[idx])))
    return res


def check_gradients(f, params, h=1e-5, rtol=1e-4, floor=1e-8):
    """Run analytic and numeric gradients of f and compare them."""
    loss = f()
    analytic = grad(loss, params)
    numeric = finite_difference(f, params, sorted(analytic), h=h)
    return compare_gradients(analytic, numeric, rtol=rtol, floor=floor)
