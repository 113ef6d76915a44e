"""Named parameter storage with paired gradient accumulators."""

import numpy as np

__all__ = ["ParamStore", "uniform_init"]


def uniform_init(rng, shape, fan_in):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Flat map of name -> float64 array, each with a same-shape gradient
    accumulator. Layers register parameters here and keep references; the
    optimizer updates them in place so those references stay valid."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self._params[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def grad(self, name):
        return self._grads[name]

    def accumulate(self, name, delta):
        self._grads[name] += delta

    def names(self):
        return sorted(self._params)

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0

    def copy_values(self):
        """Snapshot of all parameter arrays (e.g. best-epoch checkpoint)."""
        return {name: p.copy() for name, p in self._params.items()}

    def load_values(self, values):
        """Write a snapshot back in place; shapes must match exactly."""
        missing = set(self._params) ^ set(values)
        if missing:
            raise ValueError(f"parameter set mismatch: {sorted(missing)}")
        for name, arr in values.items():
            p = self._params[name]
            if p.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}: {p.shape} vs {arr.shape}")
            p[...] = arr
