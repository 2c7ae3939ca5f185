"""rmsprop: divide each gradient by the root of a decayed average of its squares.

Update rule, elementwise over every parameter array:

    E <- rho * E + (1 - rho) * g^2
    theta <- theta - lr * g / sqrt(E + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from morbench.errors import TrainingDiverged

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class RmspropConfig:
    rho: float = 0.9
    learning_rate: float = 0.001
    eps: float = 1e-7


@dataclass
class RmspropState:
    config: RmspropConfig
    square_avg: Params = field(default_factory=dict)

    @classmethod
    def fresh(cls, params: Params, config: RmspropConfig | None = None) -> "RmspropState":
        config = config or RmspropConfig()
        return cls(config=config, square_avg={k: np.zeros_like(v) for k, v in params.items()})


def rmsprop_step(params: Params, grads: Params, state: RmspropState) -> tuple[Params, RmspropState]:
    """Apply one rmsprop update in place; returns the mutated (params, state)."""
    rho = state.config.rho
    lr = state.config.learning_rate
    eps = state.config.eps
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        avg = state.square_avg[name]
        avg *= rho
        avg += (1.0 - rho) * grad * grad
        params[name] -= lr * grad / np.sqrt(avg + eps)
    return params, state
