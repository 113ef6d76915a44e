"""Central-finite-difference verification of analytic gradients."""

import numpy as np

__all__ = ["GradCheckReport", "gradient_check"]

# A float64 loss L carries an absolute roundoff of about eps * |L|, so the
# central difference (L(θ+h) - L(θ-h)) / 2h is off by up to about
# eps * |L| / h from roundoff alone; three times that is the allowance.
_ROUNDOFF = 3.0 * np.finfo(np.float64).eps
# relative tolerance of the roundoff-aware bound
_RTOL = 1e-3
# the central difference's step h
_STEP = 1e-5


class GradCheckReport:
    """Per-parameter worst errors between analytic gradients ``a`` and
    numeric gradients ``n``. ``per_param`` holds the relative error
    |a - n| / max(|a|, |n|, 1e-8). ``per_param_bound`` holds |a - n| as a
    fraction of the bound 1e-3 max(|a|, |n|) + r, where
    r = 3 eps max(|L(θ+h)|, |L(θ-h)|) / h allows for the central
    difference's roundoff; a parameter is within the bound at <= 1. A
    non-finite analytic or numeric gradient reads inf in both."""

    def __init__(self, per_param, per_param_bound):
        self.per_param = per_param
        self.per_param_bound = per_param_bound

    @property
    def max_rel_err(self):
        return max(self.per_param.values()) if self.per_param else 0.0

    def passed(self, tolerance):
        return self.max_rel_err < tolerance


def gradient_check(loss_fn, store):
    """Check every scalar in ``store`` by central differences.

    ``loss_fn(grad)`` must return the scalar loss, re-running the full
    forward pass against the store's current parameter values; with
    ``grad=True`` it must also accumulate analytic gradients into the store.
    It has to be deterministic (fix any dropout masks or seeds).
    """
    store.zero_grads()
    loss = loss_fn(grad=True)
    if not np.isfinite(loss):
        raise ValueError(f"loss is not finite: {loss}")
    analytic = {name: store.grad(name).copy() for name in store.names()}
    store.zero_grads()

    per_param = {}
    per_param_bound = {}
    for name in store.names():
        flat = store[name].ravel()
        ana = analytic[name].ravel()
        worst = worst_bound = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + _STEP
            lp = loss_fn(grad=False)
            flat[idx] = orig - _STEP
            lm = loss_fn(grad=False)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * _STEP)
            err = abs(ana[idx] - numeric)
            if not np.isfinite(err):  # a NaN or infinite gradient fails outright
                worst = worst_bound = np.inf
                break
            scale = max(abs(ana[idx]), abs(numeric))
            worst = max(worst, err / max(scale, 1e-8))
            if err > 0.0:  # then scale > 0, so the bound is too
                bound = _RTOL * scale + _ROUNDOFF * max(abs(lp), abs(lm)) / _STEP
                worst_bound = max(worst_bound, err / bound)
        per_param[name] = worst
        per_param_bound[name] = worst_bound
    return GradCheckReport(per_param, per_param_bound)
