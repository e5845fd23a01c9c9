"""Flat unconstrained parameter vectors with named blocks.

Positive parameters are carried on the log scale. Each block declares its
natural-scale prior; the prior pass in ``assemble`` evaluates them all and
adds the change-of-variables Jacobian of the log-scale blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..priors import PriorSpec

TRANSFORMS = ("identity", "log")


@dataclass(frozen=True)
class Block:
    name: str
    size: int
    transform: str = "identity"
    prior: PriorSpec | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"block {self.name!r} has negative size")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")


class Layout:
    """Ordered named blocks inside a flat parameter vector."""

    def __init__(self, blocks: list[Block]):
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        # empty blocks hold no parameters but read as empty arrays
        self.blocks = tuple(b for b in blocks if b.size > 0)
        self.slices: dict[str, slice] = {}
        offset = 0
        for b in blocks:
            self.slices[b.name] = slice(offset, offset + b.size)
            offset += b.size
        self.size = offset

    def sl(self, name: str) -> slice:
        return self.slices[name]

    def raw(self, theta: np.ndarray, name: str) -> np.ndarray:
        return theta[self.slices[name]]

    def constrained(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for b in self.blocks:
            v = theta[self.slices[b.name]]
            out[b.name] = np.exp(v) if b.transform == "log" else v.copy()
        return out

    def pack(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`constrained` for a full set of block values."""
        theta = np.zeros(self.size)
        for b in self.blocks:
            v = np.atleast_1d(np.asarray(values[b.name], dtype=float))
            if v.shape != (b.size,):
                raise ValueError(f"block {b.name!r} expects size {b.size}")
            theta[self.slices[b.name]] = np.log(v) if b.transform == "log" else v
        return theta

    def parameter_names(self) -> list[str]:
        names = []
        for b in self.blocks:
            if b.size == 1:
                names.append(b.name)
            else:
                names.extend(f"{b.name}[{i}]" for i in range(b.size))
        return names


class GradAccumulator:
    """Mutable gradient buffer with named-slice addition."""

    def __init__(self, layout: Layout):
        self.slices = layout.slices
        self.grad = np.zeros(layout.size)

    def add(self, name: str, value) -> None:
        self.grad[self.slices[name]] += value
