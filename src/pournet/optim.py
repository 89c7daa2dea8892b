"""Adam with bias correction, as a pure function over flat parameter vectors."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(eq=False)
class AdamState:
    """First/second moment estimates and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n, dtype=np.float64), v=np.zeros(n, dtype=np.float64), t=0)


def adam_step(params, grads, state: AdamState, lr: float):
    """One update; returns (new_params, new_state) without mutating inputs.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected
    m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t); b1, b2, eps = BETA1, BETA2, EPS.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads, and state must share one flat shape")
    if lr < 0:
        raise ValueError(f"lr must be >= 0 (got {lr!r})")
    if not np.all(np.isfinite(grads)):
        raise NumericalError(f"non-finite gradient at Adam step {state.t + 1}")
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + EPS)
    if not np.all(np.isfinite(new_params)):
        raise NumericalError(f"non-finite parameters after Adam step {t}")
    return new_params, AdamState(m=m, v=v, t=t)
