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
            # the textbook update's operations in its order, in place through
            # two temporaries instead of a new array for each operation
            tmp = np.multiply(g, 1.0 - _BETA1)
            m *= _BETA1
            m += tmp
            np.multiply(g, 1.0 - _BETA2, out=tmp)
            tmp *= g
            v *= _BETA2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += _EPS
            update = np.divide(m, bc1)
            update /= tmp
            if self.weight_decay:
                np.multiply(p, self.weight_decay, out=tmp)
                update += tmp
            update *= self.learning_rate
            p -= update
        self.store.zero_grads()
