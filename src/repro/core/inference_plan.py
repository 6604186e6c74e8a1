"""Compiled zero-copy inference: fused NumPy forward plans.

The serving hot path only ever runs the model *forward*, under
``no_grad`` — yet the eager path pays for the full autograd stack on
every microbatch: one :class:`~repro.nn.autograd.Tensor` per layer
output, a backward closure per op, Python dispatch per module, and a
dense ``toarray()`` materialization of the CO-VV block before the first
GEMM ever runs.  :class:`InferencePlan` removes all of it:

* :func:`compile_model` walks an :class:`~repro.nn.Sequential` **once**
  and exports each ``Linear`` to a contiguous float32 transposed weight
  array (``(in_features, out_features)``, the layout BLAS sgemm and
  scipy's CSR·dense kernel both consume without copying) plus its bias,
  and each activation module to an entry in a fused activation schedule.
* :meth:`InferencePlan.forward` replays that schedule with pure NumPy:
  dense GEMMs via ``np.dot(..., out=)`` into preallocated per-worker
  :class:`PlanScratch` buffers, biases and activations applied in
  place — zero ``Tensor`` allocations, no graph.
* The first layer accepts a **CSR** block directly (``X @ W1ᵀ``
  sparse·dense), so the serving path never densifies the CO-VV matrix;
  width alignment (the :meth:`~repro.serve.ModelSnapshot.align`
  pad/slice semantics) happens for free by slicing the weight rows —
  rows encoded against an older registry use only the first ``width``
  weight rows, rows from a newer registry drop the trailing columns the
  model never saw.

Plans are **immutable** (weight arrays are read-only copies, so later
training of the source model can never leak into serving) and
**versioned**: :meth:`~repro.serve.ModelHandle.publish` stamps
``model_version`` with the snapshot version it is published under, and
the frozen :class:`~repro.serve.ModelSnapshot` carries the
``(model, plan)`` pair atomically — a stale plan can never serve a
newer model.

Threading: a plan is safe to share across workers; a
:class:`PlanScratch` is **not** — each worker thread owns one and
rebuilds it (cheap, lazily-allocated buffers) when a hot-swap publishes
a new plan.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..errors import PlanCompileError
from ..nn.functional import softmax_inplace

__all__ = ["InferencePlan", "PlanScratch", "compile_model"]

#: Fused in-place activation kernels, keyed by schedule name.
_ACTIVATIONS = {
    "identity": None,
    "relu": lambda buf: np.maximum(buf, 0, out=buf),
    "tanh": lambda buf: np.tanh(buf, out=buf),
    "sigmoid": lambda buf: _sigmoid_inplace(buf),
}

_MODULE_ACTIVATIONS = {
    nn.ReLU: "relu",
    nn.Tanh: "tanh",
    nn.Sigmoid: "sigmoid",
    nn.Identity: "identity",
}


def _sigmoid_inplace(buf: np.ndarray) -> np.ndarray:
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    np.reciprocal(buf, out=buf)
    return buf


class PlanScratch:
    """Per-worker scratch buffers for one plan's layer outputs.

    Buffers are allocated lazily per layer and grown geometrically when
    a larger batch arrives, so the steady state runs allocation-free.
    Not thread-safe: one instance per worker thread.
    """

    __slots__ = ("plan", "_buffers", "_wt0_padded")

    def __init__(self, plan: "InferencePlan", capacity: int = 64):
        self.plan = plan
        self._buffers: list[np.ndarray | None] = [None] * plan.n_layers
        self._wt0_padded: np.ndarray | None = None
        if capacity > 0:
            for i in range(plan.n_layers):
                self.buffer(i, capacity)

    def buffer(self, layer: int, n_rows: int) -> np.ndarray:
        """A C-contiguous float32 ``(n_rows, layer_width)`` view."""

        buf = self._buffers[layer]
        if buf is None or buf.shape[0] < n_rows:
            capacity = n_rows if buf is None else max(n_rows,
                                                      2 * buf.shape[0])
            buf = np.empty((capacity, self.plan.layer_widths[layer]),
                           dtype=np.float32)
            self._buffers[layer] = buf
        return buf[:n_rows]

    def first_weights(self, width: int) -> np.ndarray:
        """First-layer weight rows matched to an input of ``width``.

        Narrower input uses a prefix view (the missing columns are
        implicitly zero); wider input gets a zero-row-padded copy —
        appended registry columns the model never saw contribute
        nothing, which is exactly ``align()``'s slice semantics without
        per-batch CSR column slicing.  The padded copy is cached and
        only rebuilt when the registry grows again (monotonic), so the
        steady state is allocation-free.
        """

        wt = self.plan._weights_t[0]
        n_rows = wt.shape[0]
        if width == n_rows:
            return wt
        if width < n_rows:
            return wt[:width]
        padded = self._wt0_padded
        if padded is None or padded.shape[0] < width:
            padded = np.zeros((width, wt.shape[1]), dtype=np.float32)
            padded[:n_rows] = wt
            self._wt0_padded = padded
        return padded[:width]


class InferencePlan:
    """One immutable, versioned, fused forward pass of a network.

    Built by :func:`compile_model` /
    :meth:`~repro.core.GrowingModel.compile`; executed with
    :meth:`forward` / :meth:`predict` / :meth:`predict_proba` against a
    caller-owned :class:`PlanScratch`.
    """

    __slots__ = ("model_version", "features_count", "out_features",
                 "_weights_t", "_biases", "_activations")

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray | None]],
                 activations: list[str], model_version: int = 0):
        if not layers:
            raise PlanCompileError("cannot compile an empty network")
        if len(activations) != len(layers):
            raise ValueError("one activation entry per layer required")
        weights_t: list[np.ndarray] = []
        biases: list[np.ndarray | None] = []
        width = None
        for weight, bias in layers:
            weight = np.asarray(weight)
            if weight.ndim != 2:
                raise PlanCompileError("plan layers must be 2-D affine")
            out_f, in_f = weight.shape
            if width is not None and in_f != width:
                raise PlanCompileError(
                    f"layer width mismatch: expected {width} inputs, "
                    f"got {in_f}")
            width = out_f
            # Transposed contiguous copy: (in, out) is what both sgemm
            # (no transpose flag) and scipy's CSR·dense kernel consume
            # zero-copy.  Always an explicit copy — ascontiguousarray
            # would alias the live weights for 1-wide layers, letting
            # in-place optimizer steps mutate a "frozen" plan — and
            # read-only so the plan is deeply immutable.
            wt = np.array(weight.T, dtype=np.float32, order="C")
            wt.flags.writeable = False
            weights_t.append(wt)
            if bias is None:
                biases.append(None)
            else:
                b = np.array(bias, dtype=np.float32)
                b.flags.writeable = False
                biases.append(b)
        for name in activations:
            if name not in _ACTIVATIONS:
                raise PlanCompileError(f"unknown activation {name!r}")
        self.model_version = int(model_version)
        self.features_count = int(weights_t[0].shape[0])
        self.out_features = int(weights_t[-1].shape[1])
        self._weights_t = tuple(weights_t)
        self._biases = tuple(biases)
        self._activations = tuple(activations)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self._weights_t)

    @property
    def layer_widths(self) -> tuple[int, ...]:
        """Output width of each fused layer."""

        return tuple(wt.shape[1] for wt in self._weights_t)

    @property
    def activations(self) -> tuple[str, ...]:
        return self._activations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = " -> ".join(str(w) for w in
                            (self.features_count, *self.layer_widths))
        return (f"InferencePlan(v{self.model_version}, {shape}, "
                f"activations={list(self._activations)})")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def scratch(self, capacity: int = 64) -> PlanScratch:
        """Fresh per-worker scratch sized for ``capacity``-row batches."""

        return PlanScratch(self, capacity)

    def forward(self, X, scratch: PlanScratch | None = None) -> np.ndarray:
        """Fused logits for a dense or CSR row block.

        ``X`` may be narrower than :attr:`features_count` (rows encoded
        before the registry grew — the missing columns are implicitly
        zero) or wider (rows from a newer registry — the trailing
        columns are ignored), exactly matching
        :meth:`~repro.serve.ModelSnapshot.align` followed by the eager
        forward.  Returns a view into ``scratch`` valid until the next
        call on that scratch.
        """

        if scratch is None:
            scratch = self.scratch(capacity=0)
        elif scratch.plan is not self:
            raise ValueError(
                f"scratch belongs to plan v{scratch.plan.model_version} "
                f"({scratch.plan.features_count} features), not plan "
                f"v{self.model_version} ({self.features_count} features)")
        if sp.issparse(X):
            hidden = self._first_layer_sparse(X.tocsr(), scratch)
        else:
            hidden = self._first_layer_dense(
                np.asarray(X, dtype=np.float32), scratch)
        for index in range(1, self.n_layers):
            out = scratch.buffer(index, hidden.shape[0])
            np.dot(hidden, self._weights_t[index], out=out)
            hidden = self._finish_layer(index, out)
        return hidden

    def predict(self, X, scratch: PlanScratch | None = None) -> np.ndarray:
        """Argmax class labels (the serving fast path's endpoint)."""

        return self.forward(X, scratch).argmax(axis=1)

    def predict_proba(self, X,
                      scratch: PlanScratch | None = None) -> np.ndarray:
        """Class probabilities via the shared in-place softmax pass.

        Computed in place on the scratch logits buffer — the same
        single-pass head ``MLPClassifier.predict_proba`` uses.
        """

        return softmax_inplace(self.forward(X, scratch))

    # ------------------------------------------------------------------
    # layer kernels
    # ------------------------------------------------------------------
    def _finish_layer(self, index: int, buf: np.ndarray) -> np.ndarray:
        bias = self._biases[index]
        if bias is not None:
            buf += bias
        kernel = _ACTIVATIONS[self._activations[index]]
        if kernel is not None:
            kernel(buf)
        return buf

    def _first_layer_dense(self, X: np.ndarray,
                           scratch: PlanScratch) -> np.ndarray:
        wt = self._weights_t[0]
        width = X.shape[1]
        out = scratch.buffer(0, X.shape[0])
        if width == self.features_count:
            np.dot(X, wt, out=out)
        elif width < self.features_count:
            # Implicit zero-padding: absent columns contribute nothing,
            # so only the first `width` weight rows participate.
            np.dot(X, wt[:width], out=out)
        else:
            np.dot(X[:, :self.features_count], wt, out=out)
        return self._finish_layer(0, out)

    def _first_layer_sparse(self, X: sp.csr_matrix,
                            scratch: PlanScratch) -> np.ndarray:
        # scipy's CSR·dense kernel owns its (n, hidden) output — tiny
        # next to the dense (n, features) block toarray() would build —
        # so bias/activation fuse into it rather than a scratch copy.
        out = np.asarray(X @ scratch.first_weights(X.shape[1]),
                         dtype=np.float32)
        return self._finish_layer(0, out)


def compile_model(model, model_version: int = 0) -> InferencePlan:
    """Export a network to an :class:`InferencePlan`.

    Accepts an :class:`~repro.nn.Sequential` (possibly nested) of
    ``Linear`` layers and elementwise activation modules (``ReLU`` /
    ``Tanh`` / ``Sigmoid`` / ``Identity``; ``Dropout`` is an inference
    no-op).  Anything else raises
    :class:`~repro.errors.PlanCompileError` — the caller then keeps the
    eager path.
    """

    layers: list[tuple[np.ndarray, np.ndarray | None]] = []
    activations: list[str] = []
    _flatten(model, layers, activations)
    if not layers:
        raise PlanCompileError(
            f"{type(model).__name__} contains no Linear layer to compile")
    return InferencePlan(layers, activations, model_version=model_version)


def _flatten(module, layers: list, activations: list) -> None:
    if isinstance(module, nn.Linear):
        bias = None if module.bias is None else module.bias.data
        layers.append((module.weight.data, bias))
        activations.append("identity")
        return
    for module_type, name in _MODULE_ACTIVATIONS.items():
        if type(module) is module_type:
            if name != "identity":
                if not layers:
                    raise PlanCompileError(
                        f"activation {name!r} before any Linear layer "
                        f"cannot be fused")
                if activations[-1] != "identity":
                    raise PlanCompileError(
                        f"stacked activations ({activations[-1]!r} then "
                        f"{name!r}) cannot be fused")
                activations[-1] = name
            return
    if isinstance(module, nn.Dropout):
        return  # identity at inference time
    if isinstance(module, nn.Sequential):
        for child in module:
            _flatten(child, layers, activations)
        return
    raise PlanCompileError(
        f"cannot fuse {type(module).__name__}: no compiled equivalent "
        f"(publication falls back to the eager path)")
