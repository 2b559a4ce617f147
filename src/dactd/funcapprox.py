"""Actor and critic function approximators with analytic gradients.

Two families behind one small interface:

* linear-in-features critics (the convergence-theory setting) over a
  (local states, dim) feature table, where the parameter gradient is the
  state's feature row;
* small feed-forward networks (the experiment setting) with leaky-rectifier
  hidden layers (slope 0.3), hand-rolled forward/backward in numpy.

:class:`MlpStack` keeps ``n_copies`` independent parameter sets in one set
of arrays so a whole team of per-agent networks evaluates in one batched
``matmul`` per layer.
Policies are softmax heads over a finite local action set.  The learners
draw actions by inverse CDF in ascending action order: with two actions,
action 1 exactly when the uniform draw is at least pi(0|s), so runs are
reproducible from the generator state alone.

Weights are initialized uniformly in [-0.5, 0.5] scaled by 1/sqrt(fan-in);
biases start at zero.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def one_hot(idx, size: int) -> np.ndarray:
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError(f"index outside 0..{size - 1}")
    return np.eye(size)[arr]


def leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)


# ---------------------------------------------------------------------------
# Linear critics over feature tables
# ---------------------------------------------------------------------------

def tabular_features(n_states: int) -> np.ndarray:
    """One-hot features as a (local states, dim) table: row s is phi(s)."""
    return np.eye(n_states)


class LinearCritic:
    """V(s) = v . phi(s) over a (local states, dim) feature table; the
    parameter gradient is exactly phi(s)."""

    def __init__(self, features: np.ndarray, v: np.ndarray | None = None):
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("feature table must be (local states, dim)")
        dim = self.features.shape[1]
        self.v = np.zeros(dim) if v is None else np.asarray(v, float)
        if self.v.shape != (dim,):
            raise ValueError("weight vector length must match feature dim")

    def value(self, s_local) -> float:
        return float(self.v @ self.features[s_local])

    def grad(self, s_local) -> np.ndarray:
        return self.features[s_local].copy()

    def get_flat(self) -> np.ndarray:
        return self.v.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self.v = np.asarray(flat, dtype=np.float64).copy()


# ---------------------------------------------------------------------------
# Stacked feed-forward networks
# ---------------------------------------------------------------------------

class MlpStack:
    """n_copies independent MLPs with shared architecture.

    All parameters live in one (n_copies, n_params) array, each row laid
    out flat (each layer's weights row-major, then its biases).
    W[layer], of shape (n_copies, out, in), and b[layer], of shape
    (n_copies, out), are views of that array, so a flat step updates them
    in place.  Inputs are (n_copies, batch, in).  Hidden layers use the
    leaky rectifier; the output layer is linear.
    """

    def __init__(self, sizes: tuple[int, ...], n_copies: int,
                 rng: np.random.Generator | None = None, slope: float = 0.3):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.n_copies = int(n_copies)
        self.slope = float(slope)
        self.n_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out
                            in zip(self.sizes[:-1], self.sizes[1:]))
        self._flat = np.zeros((self.n_copies, self.n_params))
        self.W, self.b = self._layers(self._flat)
        if rng is not None:
            for w in self.W:
                w[...] = rng.uniform(-0.5, 0.5, size=w.shape) / np.sqrt(w.shape[2])

    def _layers(self, flat: np.ndarray):
        """Per-layer weight and bias views of an (..., n_params) array in the
        flat layout."""
        lead = flat.shape[:-1]
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[..., pos:pos + fan_out * fan_in]
                           .reshape(*lead, fan_out, fan_in))
            pos += fan_out * fan_in
            biases.append(flat[..., pos:pos + fan_out])
            pos += fan_out
        return weights, biases

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] != self.n_copies or x.shape[2] != self.sizes[0]:
            raise ValueError(f"expected input ({self.n_copies}, B, {self.sizes[0]}), "
                             f"got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_cached(x)[0]

    def _forward_cached(self, x: np.ndarray):
        """Output plus the layer inputs and pre-activations backprop needs."""
        x = self._check_input(x)
        acts = [x]
        pre: list[np.ndarray] = []
        h = x
        last = len(self.W) - 1
        for l, (w, bias) in enumerate(zip(self.W, self.b)):
            z = h @ w.transpose(0, 2, 1) + bias[:, None, :]
            pre.append(z)
            h = z if l == last else leaky(z, self.slope)
            acts.append(h)
        return h, (acts, pre)

    def param_grads(self, x: np.ndarray, out_grad: np.ndarray,
                    per_sample: bool = True) -> np.ndarray:
        """Backpropagate out_grad (n_copies, B, out_dim) to parameter space.

        per_sample=True returns (n_copies, B, n_params); otherwise gradients
        are summed over the batch, returning (n_copies, n_params).
        """
        out, (acts, pre) = self._forward_cached(x)
        return self._backward(acts, pre, out_grad, per_sample)

    def _backward(self, acts, pre, out_grad, per_sample: bool) -> np.ndarray:
        delta = np.asarray(out_grad, dtype=np.float64)
        lead = delta.shape[:2] if per_sample else delta.shape[:1]
        grads = np.empty((*lead, self.n_params))
        grads_w, grads_b = self._layers(grads)
        for l in range(len(self.W) - 1, -1, -1):
            if per_sample:
                np.multiply(delta[:, :, :, None], acts[l][:, :, None, :],
                            out=grads_w[l])
                grads_b[l][...] = delta
            else:
                np.matmul(delta.transpose(0, 2, 1), acts[l], out=grads_w[l])
                delta.sum(axis=1, out=grads_b[l])
            if l > 0:
                delta = (delta @ self.W[l]) * leaky_grad(pre[l - 1], self.slope)
        return grads

    # -- flat parameter vector ---------------------------------------------

    def _check_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ValueError(f"expected flat shape {self._flat.shape}, "
                             f"got {flat.shape}")
        return flat

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self._flat[...] = self._check_flat(flat)

    def apply_update(self, flat_step: np.ndarray) -> None:
        """In-place parameter step by a (n_copies, n_params) flat increment;
        bitwise equal to ``set_flat(get_flat() + flat_step)``."""
        self._flat += self._check_flat(flat_step)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Tabular softmax policies
# ---------------------------------------------------------------------------

class TabularSoftmaxPolicy:
    """One logit per (local state, action); parameters are the logit table."""

    def __init__(self, n_states: int, n_actions: int,
                 logits: np.ndarray | None = None):
        self.n_states = n_states
        self.n_actions = n_actions
        self.logits = (np.zeros((n_states, n_actions)) if logits is None
                       else np.asarray(logits, dtype=np.float64).copy())
        if self.logits.shape != (n_states, n_actions):
            raise ValueError("logit table shape mismatch")

    def probs(self, s_local: int) -> np.ndarray:
        return softmax(self.logits[int(s_local)])

    def score(self, s_local: int, a_local: int) -> np.ndarray:
        """Gradient of log pi(a|s) w.r.t. the flat logit table."""
        if not (0 <= a_local < self.n_actions):
            raise ValueError(f"action {a_local} outside 0..{self.n_actions - 1}")
        g = np.zeros((self.n_states, self.n_actions))
        p = self.probs(s_local)
        g[int(s_local)] = -p
        g[int(s_local), int(a_local)] += 1.0
        return g.ravel()

    def get_flat(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self.logits = np.asarray(flat, dtype=np.float64).reshape(
            self.n_states, self.n_actions).copy()


def finite_difference(f: Callable[[np.ndarray], float], x: np.ndarray,
                      step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy(); hi[i] += step
        lo = x.copy(); lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def max_relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Infinity-norm relative error against the reference gradient."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    r = np.asarray(reference, dtype=np.float64).ravel()
    denom = max(float(np.max(np.abs(r))), 1e-12)
    return float(np.max(np.abs(a - r))) / denom
