"""Finite-difference gradient checks of the autodiff ops, for the tests."""

import numpy as np

from mixtrack.autodiff import Tape


class GradCheckError(RuntimeError):
    """A non-finite value appeared while checking gradients."""


def _rel_err(a, n, atol):
    """Relative error, after discounting ``atol`` of absolute disagreement.

    Central differences carry rounding noise of order eps * |f| / h, so an
    element whose true gradient sits near that floor shows a large relative
    error no matter how exact the analytic value is.
    """
    diff = np.maximum(np.abs(a - n) - atol, 0.0)
    scale = np.maximum(np.abs(a), np.abs(n))
    return diff / np.where(scale < 1e-7, 1.0, scale)


def grad_check(f, params, h=1e-5):
    """Compare analytic gradients of scalar ``f()`` against central differences.

    ``params`` maps names to float64 leaf Tensors that ``f`` closes over.
    Returns {name: max relative error}, 0.0 for an empty parameter; raises
    GradCheckError on non-finite values, naming the first op whose output
    holds one.
    """
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise GradCheckError(f"parameter '{name}' is non-finite")
        p.data = np.ascontiguousarray(p.data)
        p.grad = None
    with Tape() as tape:
        loss = f()
        for op, out, _, _ in tape._entries:
            if not np.all(np.isfinite(out.data)):
                raise GradCheckError(f"non-finite values produced by op '{op}'")
        tape.backward(loss)
    eps = np.finfo(np.float64).eps
    atol = 32.0 * eps * max(abs(loss.item()), 1.0) / h
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            analytic[name] = np.zeros_like(p.data)
        else:
            if not np.all(np.isfinite(p.grad)):
                raise GradCheckError(f"gradient of '{name}' is non-finite")
            analytic[name] = p.grad.copy()
        p.grad = None

    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f().item()
            flat[i] = orig - h
            lo = f().item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * h)
        if not np.all(np.isfinite(numeric)):
            raise GradCheckError(f"numeric gradient of '{name}' is non-finite")
        err = _rel_err(analytic[name].reshape(-1), numeric, atol)
        report[name] = float(err.max()) if err.size else 0.0
    return report
