"""Central-finite-difference verification of hand-written backward passes.

The harness reduces any block application to a scalar by weighting its
outputs with a fixed random array, runs the analytic backward once, then
perturbs parameters and inputs element by element (large tensors are probed
on a seeded random subset). Relative error uses
``|analytic - numeric| / max(1, |analytic|, |numeric|)`` so near-zero
gradients do not blow the ratio up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import Block, check_finite

FD_EPS = 1e-4


@dataclass
class GradCheckReport:
    tolerance: float
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.max_errors.values()) if self.max_errors else 0.0

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def lines(self):
        for name, err in sorted(self.max_errors.items(), key=lambda kv: -kv[1]):
            yield f"{name:50s} max rel err {err:.3e}"


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def _probe_indices(size: int, rng: np.random.Generator, max_probes: int | None):
    if max_probes is None or size <= max_probes:
        return range(size)
    return rng.choice(size, size=max_probes, replace=False)


def grad_check(block: Block | None, forward_fn, inputs: dict[str, np.ndarray],
               tolerance: float, eps: float = FD_EPS,
               max_probes: int | None = 256,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``block`` against central differences.

    ``forward_fn(**inputs)`` must run the block's forward pass(es) and return
    ``(scalar_loss, backward_fn)`` where ``backward_fn()`` performs the full
    analytic backward and returns a dict of input-name -> input gradient.
    The scalar must be a deterministic function of the current parameter
    values and the given inputs. ``block`` may be None for parameterless
    operations (losses), in which case only input gradients are probed.
    """
    rng = np.random.default_rng(seed)
    report = GradCheckReport(tolerance=tolerance)

    if block is not None:
        block.zero_grad()
        block.clear_caches()
    loss, backward_fn = forward_fn(**inputs)
    check_finite("grad-check loss", np.asarray(loss))
    input_grads = backward_fn()

    def run() -> float:
        if block is not None:
            block.clear_caches()
        value, _ = forward_fn(**inputs)
        return float(value)

    # parameters first, then inputs: the probe draws come from one stream
    named = list(block.named_parameters()) if block is not None else []
    targets = [(name, p.data, p.grad) for name, p in named]
    targets += [(f"input:{name}", inputs[name], grad) for name, grad in input_grads.items()]
    for name, values, analytic in targets:
        flat = values.reshape(-1)
        worst = 0.0
        for idx in _probe_indices(flat.size, rng, max_probes):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = run()
            flat[idx] = orig - eps
            down = run()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            check_finite("finite-difference probe", np.asarray(numeric))
            worst = max(worst, _rel_err(float(analytic.reshape(-1)[idx]), numeric))
        report.max_errors[name] = worst

    if block is not None:
        block.clear_caches()
    return report
