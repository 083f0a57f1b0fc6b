"""Adadelta parameter updates with per-tensor accumulators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import ShapeMismatch

RHO = 0.95  # decay of both running averages
EPSILON = 1e-6
LR = 1.0


@dataclass
class AdadeltaState:
    """Running averages E[g^2] and E[dx^2], one pair per named parameter."""

    eg2: dict[str, np.ndarray] = field(default_factory=dict)
    edx2: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdadeltaState":
        return cls(
            eg2={k: np.zeros_like(v) for k, v in params.items()},
            edx2={k: np.zeros_like(v) for k, v in params.items()},
        )


def adadelta_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                  state: AdadeltaState) -> dict[str, np.ndarray]:
    """Apply one adadelta update in place; returns the params dict.

    Per element, with rho, eps and lr the module's RHO, EPSILON and LR:
    E[g^2] <- rho E[g^2] + (1-rho) g^2;
    dx = -sqrt((E[dx^2]+eps)/(E[g^2]+eps)) g;
    E[dx^2] <- rho E[dx^2] + (1-rho) dx^2;  param <- param + lr dx.
    """
    if set(params) != set(grads) or set(params) != set(state.eg2):
        raise ShapeMismatch("params, grads, and state must share the same names")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        eg2 = state.eg2[name]
        edx2 = state.edx2[name]
        eg2 *= RHO
        eg2 += (1.0 - RHO) * g * g
        dx = -np.sqrt((edx2 + EPSILON) / (eg2 + EPSILON)) * g
        edx2 *= RHO
        edx2 += (1.0 - RHO) * dx * dx
        p += LR * dx
    return params
