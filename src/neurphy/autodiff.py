"""Dense-tensor reverse-mode automatic differentiation.

Define-by-run graph over float64 numpy arrays. Every op checks its output for
NaN/Inf and raises instead of propagating; the batch dimension is always the
leading axis.
"""

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    pass


class ShapeMismatchError(AutodiffError):
    pass


class NonScalarRootError(AutodiffError):
    pass


class Tensor:
    """Graph node: a float64 array plus the vjp closure linking it to its parents.

    Leaves (no parents) accumulate gradients into .grad during backward();
    interior nodes keep theirs only transiently.
    """

    __slots__ = ("value", "parents", "_vjp", "grad")

    def __init__(self, value, parents=(), vjp=None, _where="tensor"):
        v = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"non-finite values in {_where}")
        self.value = v
        self.parents = tuple(parents)
        self._vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient g of a broadcast result back to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(out, (a, b), vjp, _where="add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.value - b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor(out, (a, b), vjp, _where="sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.value * b.value

    def vjp(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out, (a, b), vjp, _where="mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.value / b.value

    def vjp(g):
        return (_unbroadcast(g / b.value, a.value.shape),
                _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return Tensor(out, (a, b), vjp, _where="div")


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    out = a.value * c

    def vjp(g):
        return (g * c,)

    return Tensor(out, (a,), vjp, _where="scale")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeMismatchError(f"matmul expects (batch,k)@(k,n), got {a.shape} @ {b.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.value @ b.value

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor(out, (a, b), vjp, _where="matmul")


def _sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)  # tanh form is stable for large |x|


# Activation name -> (forward, derivative written in terms of the forward's output).
_LINEAR_ACTIVATIONS = {
    "identity": (lambda h: h, lambda y: 1.0),
    "relu": (lambda h: np.maximum(h, 0.0), lambda y: y > 0.0),
    "sigmoid": (_sigmoid, lambda y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
}


def linear(x, w, b, activation):
    """activation(x @ w + b) as one graph node; x is (batch, k), w (k, n), b (n,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.value.ndim != 2 or w.value.shape != (x.value.shape[1], b.value.shape[0]):
        raise ShapeMismatchError(
            f"linear expects (batch,k)@(k,n)+(n,), got {x.shape} @ {w.shape} + {b.shape}")
    forward, derivative = _LINEAR_ACTIVATIONS[activation]
    out = forward(x.value @ w.value + b.value)

    def vjp(g):
        gh = g * derivative(out)
        return gh @ w.value.T, x.value.T @ gh, gh.sum(axis=0)

    return Tensor(out, (x, w, b), vjp, _where="linear")


def relu(a):
    a = as_tensor(a)
    mask = a.value > 0.0
    out = np.where(mask, a.value, 0.0)

    def vjp(g):
        return (np.where(mask, g, 0.0),)

    return Tensor(out, (a,), vjp, _where="relu")


def sigmoid(a):
    a = as_tensor(a)
    out = _sigmoid(a.value)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), vjp, _where="sigmoid")


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.value)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (a,), vjp, _where="tanh")


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.value)

    def vjp(g):
        return (g * out,)

    return Tensor(out, (a,), vjp, _where="exp")


def log(a):
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.value)

    def vjp(g):
        return (g / a.value,)

    return Tensor(out, (a,), vjp, _where="log")


def softplus(a):
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.value)
    sig = _sigmoid(a.value)

    def vjp(g):
        return (g * sig,)

    return Tensor(out, (a,), vjp, _where="softplus")


def sin(a):
    a = as_tensor(a)
    out = np.sin(a.value)

    def vjp(g):
        return (g * np.cos(a.value),)

    return Tensor(out, (a,), vjp, _where="sin")


def square(a):
    a = as_tensor(a)
    out = a.value * a.value

    def vjp(g):
        return (g * 2.0 * a.value,)

    return Tensor(out, (a,), vjp, _where="square")


def tsum(a, axis=None):
    a = as_tensor(a)
    out = a.value.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.ones_like(a.value) * g,)
        return (np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy(),)

    return Tensor(out, (a,), vjp, _where="sum")


def tmean(a, axis=None):
    a = as_tensor(a)
    out = a.value.mean(axis=axis)
    n = a.value.size if axis is None else a.value.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.ones_like(a.value) * (g / n),)
        return (np.broadcast_to(np.expand_dims(g / n, axis), a.value.shape).copy(),)

    return Tensor(out, (a,), vjp, _where="mean")


def concat(parts):
    """Concatenate along the last axis."""
    parts = [as_tensor(p) for p in parts]
    widths = [p.value.shape[-1] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=-1)

    def vjp(g):
        grads, lo = [], 0
        for w in widths:
            grads.append(g[..., lo:lo + w])
            lo += w
        return tuple(grads)

    return Tensor(out, tuple(parts), vjp, _where="concat")


def slice_last(a, start, stop):
    """Slice along the last axis."""
    a = as_tensor(a)
    out = a.value[..., start:stop].copy()

    def vjp(g):
        full = np.zeros_like(a.value)
        full[..., start:stop] = g
        return (full,)

    return Tensor(out, (a,), vjp, _where="slice")


def slice_rows(a, start, stop):
    """Slice along the leading axis."""
    a = as_tensor(a)
    out = a.value[start:stop].copy()

    def vjp(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        return (full,)

    return Tensor(out, (a,), vjp, _where="slice_rows")


def tile_rows(a, n):
    """Repeat a 1-D tensor as n identical rows (for conditioning a batch)."""
    a = as_tensor(a)
    if a.value.ndim != 1:
        raise ShapeMismatchError(f"tile_rows expects 1-D input, got {a.shape}")
    out = np.broadcast_to(a.value, (n, a.value.shape[0])).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return Tensor(out, (a,), vjp, _where="tile_rows")


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root):
    """Reverse sweep from a scalar root; leaf .grad fields accumulate (+=)."""
    root = as_tensor(root)
    if root.value.size != 1:
        raise NonScalarRootError(f"backward root must be scalar, got shape {root.shape}")
    order = _toposort(root)
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.parents:
            for parent, pg in zip(node.parents, node._vjp(g)):
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else prev + pg
        else:
            node.grad = g.copy() if node.grad is None else node.grad + g


def grad_check(f, x, eps=1e-5):
    """Max relative error between backward() and central finite differences.

    f maps a Tensor to a scalar Tensor; denominator floored at 1e-8.
    """
    x = np.asarray(x, dtype=np.float64)
    leaf = Tensor(x)
    backward(f(leaf))
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)

    numeric = np.zeros_like(x)
    flat = numeric.ravel()
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.ravel()[i] += eps
        xm.ravel()[i] -= eps
        fp = float(f(Tensor(xp)).value)
        fm = float(f(Tensor(xm)).value)
        flat[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) if x.size else 0.0
