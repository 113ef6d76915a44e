"""Adam with decoupled weight decay, updating a ParamStore in place."""

import numpy as np

__all__ = ["AdamOptimizer"]

# decay rates of the first and second moment estimates, and the guard added
# to the second moment's root (the defaults of Kingma & Ba)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamOptimizer:
    def __init__(self, store, learning_rate, weight_decay=0.0):
        if learning_rate <= 0.0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.store = store
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(store[name]) for name in store.names()}
        self._v = {name: np.zeros_like(store[name]) for name in store.names()}

    def step(self):
        """One update from the accumulated gradients; zeroes them after."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1 ** t
        bc2 = 1.0 - _BETA2 ** t
        for name in self.store.names():
            p = self.store[name]
            g = self.store.grad(name)
            m = self._m[name]
            v = self._v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.learning_rate * update
        self.store.zero_grads()
