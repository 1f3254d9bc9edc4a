"""Dense-tensor reverse-mode automatic differentiation.

Define-by-run graph over float64 numpy arrays. Every op but linear checks its
output for NaN/Inf and raises instead of propagating; linear leaves the check
to the network that stacks it (nn.MLP checks its output once). The batch
dimension is always the leading axis.

Each derivative is written once. _ELEMENTWISE holds the forward and the vjp
of every element-wise function; _elementwise turns an entry into a primitive
and linear fuses one with the affine map. The broadcasting binary ops come
from _broadcasting, tsum/tmean from _reduction and slice_last/slice_rows from
_slicer; scale, matmul, concat, tile_rows, take_rows and segment_sum are
written out.

Under no_grad() the graph is not recorded: a new Tensor keeps no parents and
no vjp, so intermediates are freed as soon as nothing references them.
"""

import contextlib
import contextvars

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    pass


class ShapeMismatchError(AutodiffError):
    pass


class NonScalarRootError(AutodiffError):
    pass


_recording = contextvars.ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Forward-only mode, as a context manager or a decorator: Tensors made
    inside it record no parents and no vjp, so backward() through them reaches
    nothing. Values and the finiteness check are unchanged."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """Graph node: a float64 array plus the vjp closure linking it to its parents.

    Leaves (no parents) accumulate gradients into .grad during backward();
    interior nodes keep theirs only transiently. Under no_grad() every new
    Tensor is a leaf.
    """

    __slots__ = ("value", "parents", "_vjp", "grad")

    def __init__(self, value, parents=(), vjp=None, _where="tensor", _checked=True):
        v = np.asarray(value, dtype=np.float64)
        if _checked and not np.isfinite(v).all():
            raise NonFiniteError(f"non-finite values in {_where}")
        self.value = v
        if _recording.get():
            self.parents, self._vjp = tuple(parents), vjp
        else:
            self.parents, self._vjp = (), None
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)


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


def _quiet(f, **errstate):
    """f with the given numpy warnings off; Tensor reports a non-finite result."""
    def quiet(*args):
        with np.errstate(**errstate):
            return f(*args)
    return quiet


def _sigmoid(x, out=None):
    # 0.5 * (tanh(0.5 * x) + 1): the tanh form is stable for large |x|
    y = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    y += 1.0
    y *= 0.5
    return y


# Element-wise function -> (forward(x), vjp(g, x, y)) with y = forward(x).
_ELEMENTWISE = {
    "identity": (lambda x, out=None: x, lambda g, x, y: g),
    "relu": (lambda x, out=None: np.maximum(x, 0.0, out=out), lambda g, x, y: g * (y > 0.0)),
    "sigmoid": (_sigmoid, lambda g, x, y: g * (y * (1.0 - y))),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "exp": (_quiet(np.exp, over="ignore"), lambda g, x, y: g * y),
    "log": (_quiet(np.log, divide="ignore", invalid="ignore"), lambda g, x, y: g / x),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda g, x, y: g * _sigmoid(x)),
    "sin": (np.sin, lambda g, x, y: g * np.cos(x)),
    "square": (lambda x: x * x, lambda g, x, y: g * 2.0 * x),
}
# The activations linear fuses: their rules read only y, so linear's vjp does
# not keep the pre-activation array alive, and their forwards take out=, so
# linear applies them in place.
_FUSED = ("identity", "relu", "sigmoid", "tanh")


def _elementwise(name):
    forward, rule = _ELEMENTWISE[name]

    def primitive(a):
        a = as_tensor(a)
        out = forward(a.value)
        return Tensor(out, (a,), lambda g: (rule(g, a.value, out),), _where=name)

    return primitive


relu = _elementwise("relu")
sigmoid = _elementwise("sigmoid")
tanh = _elementwise("tanh")
exp = _elementwise("exp")
log = _elementwise("log")
softplus = _elementwise("softplus")
sin = _elementwise("sin")
square = _elementwise("square")


def _broadcasting(name, forward, rule):
    """A binary primitive on broadcasting operands; rule(g, a, b) gives both
    operands' gradients at the broadcast shape."""
    def primitive(a, b):
        a, b = as_tensor(a), as_tensor(b)

        def vjp(g):
            ga, gb = rule(g, a.value, b.value)
            return _unbroadcast(ga, a.value.shape), _unbroadcast(gb, b.value.shape)

        return Tensor(forward(a.value, b.value), (a, b), vjp, _where=name)

    return primitive


add = _broadcasting("add", np.add, lambda g, a, b: (g, g))
sub = _broadcasting("sub", np.subtract, lambda g, a, b: (g, -g))
mul = _broadcasting("mul", np.multiply, lambda g, a, b: (g * b, g * a))
div = _broadcasting("div", _quiet(np.divide, divide="ignore", invalid="ignore"),
                    lambda g, a, b: (g / b, -g * a / (b * b)))


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


def linear(x, w, b, activation):
    """activation(x @ w + b) as one graph node; x is (batch, k), w (k, n), b (n,).

    The bias and the activation are applied in place on the product, and the
    output is not checked for NaN/Inf: the caller checks what the layers
    stack up to."""
    if activation not in _FUSED:
        raise ValueError(f"linear cannot fuse activation {activation!r}")
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.value.ndim != 2 or w.value.shape != (x.value.shape[1], b.value.shape[0]):
        raise ShapeMismatchError(
            f"linear expects (batch,k)@(k,n)+(n,), got {x.shape} @ {w.shape} + {b.shape}")
    forward, rule = _ELEMENTWISE[activation]
    out = x.value @ w.value
    out += b.value
    forward(out, out=out)

    def vjp(g):
        gh = rule(g, None, out)
        return gh @ w.value.T, x.value.T @ gh, gh.sum(axis=0)

    return Tensor(out, (x, w, b), vjp, _where="linear", _checked=False)


def _reduction(name, reduce, count):
    """A reduction over one axis, or all of them if axis is None; the vjp spreads
    g / count(value, axis) back over the reduced entries."""
    def primitive(a, axis=None):
        a = as_tensor(a)
        n = count(a.value, axis)

        def vjp(g):
            if axis is None:
                return (np.ones_like(a.value) * (g / n),)
            return (np.broadcast_to(np.expand_dims(g / n, axis), a.value.shape).copy(),)

        return Tensor(reduce(a.value, axis=axis), (a,), vjp, _where=name)

    return primitive


tsum = _reduction("sum", np.ndarray.sum, lambda v, axis: 1)
tmean = _reduction("mean", np.ndarray.mean,
                   lambda v, axis: v.size if axis is None else v.shape[axis])


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


def _slicer(name, index):
    """a[index(slice(start, stop))] as a primitive; the vjp zero-fills the rest."""
    def primitive(a, start, stop):
        a = as_tensor(a)
        where = index(slice(start, stop))

        def vjp(g):
            full = np.zeros_like(a.value)
            full[where] = g
            return (full,)

        return Tensor(a.value[where].copy(), (a,), vjp, _where=name)

    return primitive


slice_last = _slicer("slice", lambda s: (Ellipsis, s))  # along the last axis
slice_rows = _slicer("slice_rows", lambda s: s)  # along the leading axis


def tile_rows(a, n):
    """Repeat a 1-D tensor as n identical rows (for conditioning a batch)."""
    a = as_tensor(a)
    if a.value.ndim != 1:
        raise ShapeMismatchError(f"tile_rows expects 1-D input, got {a.shape}")
    out = np.broadcast_to(a.value, (n, a.value.shape[0])).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return Tensor(out, (a,), vjp, _where="tile_rows")


def take_rows(a, index):
    """a[index] along the leading axis; rows may repeat, and the vjp sums the
    gradients of every copy of a row."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, index, g)
        return (full,)

    return Tensor(a.value[index], (a,), vjp, _where="take_rows")


def segment_sum(a, sizes):
    """Row i is the sum over axis 0 of the next sizes[i] rows of a, summed as
    tsum(axis=0) sums them."""
    a = as_tensor(a)
    sizes = np.asarray(sizes, dtype=np.intp)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    if bounds[-1] != a.value.shape[0] or np.any(sizes < 1):
        raise ShapeMismatchError(f"segment_sum of {a.shape} into segments {sizes.tolist()}")
    out = np.stack([a.value[lo:hi].sum(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])

    def vjp(g):
        return (np.repeat(g, sizes, axis=0),)

    return Tensor(out, (a,), vjp, _where="segment_sum")


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
        # every consumer of node comes before it, so its gradient is complete
        g = grads.pop(id(node))
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
