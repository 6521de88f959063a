"""Synthetic tasks, the batch loss (lattice.lattice_nll, the one loss node, over the
model's log-prob table), warmup schedule, Adam, the training loop and data files.

The synthetic task stands in for a real corpus: each label sequence is
drawn uniformly over the non-special vocabulary, and its features are the
per-symbol embedding rows repeated frames_per_symbol times plus Gaussian
noise. That keeps end-to-end runs deterministic and desk-sized.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import lattice
from .chunking import FRONT_END_DOWNSAMPLE, as_frames
from .decoding import cer, greedy_decode
from .errors import ConfigError, ContractError, NumericError, ShapeError, check_fields


# -- synthetic data ---------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTaskSpec:
    vocab_size: int = 16
    min_len: int = 2
    max_len: int = 5
    frames_per_symbol: int = 8
    noise_std: float = 0.05
    d_in: int = 8
    seed: int = 0

    def __post_init__(self):
        # one symbol must span the front end's downsampling; vocab_size 3 holds one symbol
        check_fields(self, vocab_size=3, min_len=1, frames_per_symbol=FRONT_END_DOWNSAMPLE,
                     noise_std=0, d_in=1, seed=0)
        if self.min_len > self.max_len:
            raise ConfigError("need 1 <= min_len <= max_len")

    def symbol_embedding(self):
        """Fixed random symbol -> feature map (shared across samples)."""
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, 1.0, size=(self.vocab_size, self.d_in))


def gen_synthetic(spec, n, seed=None):
    """Deterministic list of (features, label ids); ids 2.. (blank=0, unk=1)."""
    emb = spec.symbol_embedding()
    rng = np.random.default_rng(spec.seed + 1 if seed is None else seed)
    out = []
    for _ in range(n):
        u = int(rng.integers(spec.min_len, spec.max_len + 1))
        y = rng.integers(2, spec.vocab_size, size=u)
        x = np.repeat(emb[y], spec.frames_per_symbol, axis=0)
        x = x + rng.normal(0.0, spec.noise_std, size=x.shape)
        out.append((x, y.tolist()))
    return out


# -- optimizer --------------------------------------------------------------


def noam_lr(step, d_model, warmup, scale=1.0):
    """Inverse-sqrt schedule with linear warmup; peaks at step == warmup."""
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    return scale * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


class Adam:
    """Adam over a name->Tensor parameter dict; betas follow the cited
    transformer recipe (0.9, 0.98, eps 1e-9).

    The optimizer owns one arena: three contiguous float64 buffers that
    hold every parameter's data and its moments m and v, in the dict's
    order. Each ``p.data`` and each ``state[name]["m"]``/``["v"]`` is a
    reshaped view into them, so a step updates them in place. ``step`` runs
    the per-parameter update's 14 elementwise operations, in its order,
    over whole groups of the arena with ``out=`` buffers: the same bits as
    a loop over the parameters, in a few calls per group.

    A parameter whose ``grad`` is None is skipped: its data, m and v do not
    move. A parameter whose ``data``, or a slot whose array, was re-bound
    since is read back into the arena before its next update, so it is
    optimized from its new value. ``load_state`` raises ContractError
    (ShapeError for a slot's shape) naming the parameter, and changes
    nothing, unless the snapshot is one this optimizer can take.
    """

    beta1, beta2, eps = 0.9, 0.98, 1e-9
    # floats per group: a group's data, m, v and two scratch buffers stay within L2
    _GROUP = 32768

    def __init__(self, params):
        self.params = params
        self.step_count = 0
        sizes = [t.data.size for t in params.values()]
        n = sum(sizes)
        self._p, self._m, self._v = np.empty(n), np.zeros(n), np.zeros(n)
        self._scratch = np.empty((2, max([self._GROUP] + sizes)))
        self.state, self._views, lo = {}, [], 0
        for (name, t), size in zip(params.items(), sizes):
            hi = lo + size
            data, m, v = (a[lo:hi].reshape(t.data.shape) for a in (self._p, self._m, self._v))
            data[...] = t.data
            t.data = data
            self.state[name] = {"m": m, "v": v}
            self._views.append((name, t, lo, hi, data, m, v))
            lo = hi

    def load_state(self, snapshot):
        """Take snapshot's step and slots, as load_checkpoint returns them:
        {"step": int >= 0, "slots": {name: {"m": array, "v": array}}} naming
        exactly this optimizer's parameters, each slot of its parameter's shape."""
        if not (isinstance(snapshot, dict) and snapshot.keys() == {"step", "slots"}
                and isinstance(snapshot["slots"], dict)):
            raise ContractError("optimizer snapshot must be {'step': int, 'slots': {name: ...}}")
        step, slots = snapshot["step"], snapshot["slots"]
        if type(step) is not int or step < 0:
            raise ContractError(f"optimizer step must be an int >= 0, got {step!r}")
        odd = sorted(slots.keys() ^ self.state.keys(), key=str)
        if odd:
            what = "an unknown parameter" if odd[0] in slots else "no slots for the parameter"
            raise ContractError(f"optimizer snapshot has {what} {odd[0]}")
        arrays = []
        for name, *_, m, v in self._views:
            if not isinstance(slots[name], dict) or slots[name].keys() != {"m", "v"}:
                raise ContractError(f"optimizer snapshot of {name} needs exactly slots m and v")
            for slot, view in (("m", m), ("v", v)):
                arrays.append((view, _checked(slots[name][slot], view.shape,
                                              f"optimizer slot {name}.{slot}")))
        for view, a in arrays:
            view[...] = a
        for name, *_, m, v in self._views:
            self.state[name] = {"m": m, "v": v}
        self.step_count = step

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1 - self.beta1 ** t, 1 - self.beta2 ** t
        grads, start, end = [], 0, 0
        for name, p, lo, hi, data, m, v in self._views:
            if grads and (p.grad is None or hi - start > self._GROUP):
                self._update(start, end, grads, lr, c1, c2)
                grads = []
            if p.grad is None:
                continue
            slots = self.state[name]
            if p.data is not data or slots["m"] is not m or slots["v"] is not v:
                self._read_back(name, p, slots, data, m, v)
            if not grads:
                start = lo
            grads.append(p.grad)
            end = hi
        if grads:
            self._update(start, end, grads, lr, c1, c2)

    def _update(self, start, end, grads, lr, c1, c2):
        """Adam on arena floats [start, end), whose gradients are grads in order:
        the per-parameter formula
            m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g ** 2
            p = p - lr (m / c1) / (sqrt(v / c2) + eps)
        one operation at a time over the whole group."""
        b1, b2 = self.beta1, self.beta2
        p, m, v = self._p[start:end], self._m[start:end], self._v[start:end]
        g, u = self._scratch[:, :end - start]
        np.concatenate(grads, axis=None, out=g)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=u)
        np.add(m, u, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=g)
        np.multiply(g, 1 - b2, out=g)
        np.add(v, g, out=v)
        np.divide(m, c1, out=u)
        np.multiply(u, lr, out=u)
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        np.add(g, self.eps, out=g)
        np.divide(u, g, out=u)
        np.subtract(p, u, out=p)

    def _read_back(self, name, p, slots, data, m, v):
        """Copy re-bound arrays of a parameter into the arena and bind its views again."""
        new = [(view, _checked(a, view.shape, what)) for view, a, what in (
            (data, p.data, f"parameter {name}"), (m, slots["m"], f"optimizer slot {name}.m"),
            (v, slots["v"], f"optimizer slot {name}.v")) if a is not view]
        for view, a in new:
            view[...] = a
        p.data, slots["m"], slots["v"] = data, m, v

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def _checked(a, shape, what):
    """a as a float64 array; ShapeError naming what unless it has shape."""
    try:
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ContractError(f"{what} is not a float array: {e}") from e
    if a.shape != shape:
        raise ShapeError(f"{what} has shape {a.shape}, not {shape}")
    return a


def clip_grad_norm(params, max_norm):
    """Scale all grads in place so their global L2 norm is at most max_norm;
    returns the norm.

    A norm that is not finite scales nothing: it is a NumericError naming
    the first parameter, in sorted order, whose gradient is not finite, or
    saying that finite gradients overflowed the norm.
    """
    # fixed (sorted) reduction order so resumed runs are bit-identical
    names = sorted(name for name in params if params[name].grad is not None)
    total = 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # the check below reports it
        for name in names:
            g = params[name].grad
            total += float(np.add.reduce(np.multiply(g, g), axis=None))
    norm = np.sqrt(total)
    if not math.isfinite(norm):
        for name in names:
            ad.check_finite(params[name].grad, f"the gradient of {name}")
        raise NumericError("finite gradients overflow the gradient norm")
    if norm > max_norm:
        s = max_norm / norm
        for name in names:
            g = params[name].grad
            np.multiply(g, s, out=g)
    return norm


# -- training loop ----------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    total_steps: int = 2000
    warmup_steps: int = 1000
    lr_scale: float = 1.0
    grad_clip: float = 5.0
    eval_interval: int = 200
    seed: int = 0
    target_eval_cer: float = 0.0  # stop early once held-out CER <= this

    def __post_init__(self):
        check_fields(self, batch_size=1, total_steps=0, warmup_steps=1, lr_scale=0,
                     grad_clip=0, eval_interval=0, seed=0)


def batch_loss(model, batch):
    """Mean per-sequence lattice NLL over a batch (scalar Tensor), teacher-forced in one
    padded pass: the one lattice loss node over the decoder's log-prob table."""
    return lattice.lattice_nll(*model.log_prob_table(batch))


def train_step(model, batch, optimizer, step, cfg):
    """One optimization step; returns the batch loss.

    The loss is finite: the model's checks raise NumericError at the first
    non-finite sub-layer. A non-finite gradient norm raises NumericError in
    clip_grad_norm, before the optimizer step, so no parameter changes.
    """
    optimizer.zero_grad()
    loss = batch_loss(model, batch)
    loss.backward()
    clip_grad_norm(model.params, cfg.grad_clip)
    lr = noam_lr(step, model.cfg.d_model, cfg.warmup_steps, cfg.lr_scale)
    optimizer.step(lr)
    return loss.item()


def train(model, data, cfg, optimizer=None, eval_data=None, log=None, start_step=1):
    """Run the training loop; returns (optimizer, history of (step, loss)).

    Batch membership at step s depends only on (cfg.seed, s), so resuming
    from a checkpoint at start_step replays the identical trajectory.
    """
    optimizer = optimizer or Adam(model.params)
    history = []
    for step in range(start_step, cfg.total_steps + 1):
        rng = np.random.default_rng((cfg.seed, step))
        idx = rng.choice(len(data), size=min(cfg.batch_size, len(data)), replace=False)
        batch = [data[i] for i in idx]
        loss = train_step(model, batch, optimizer, step, cfg)
        history.append((step, loss))
        if cfg.eval_interval and step % cfg.eval_interval == 0:
            msg = f"step {step} loss {loss:.4f}"
            if eval_data:
                eval_cer = cer((greedy_decode(model, x)[0], y) for x, y in eval_data)
                msg += f" eval_cer {eval_cer:.4f}"
            if log:
                log(msg)
            if eval_data and eval_cer <= cfg.target_eval_cer:
                break
    return optimizer, history


# -- feature files and manifests -------------------------------------------


_FEATURE_HEADER = re.compile(rb"(\d{1,12}) (\d{1,12}) f8\n")


def save_features(path, x):
    """Write one utterance (header 'rows cols f8\\n', then <f8 payload), or ContractError."""
    x = as_frames(x)
    try:
        with open(path, "wb") as f:
            f.write(f"{x.shape[0]} {x.shape[1]} f8\n".encode("ascii"))
            f.write(x.astype("<f8").tobytes())
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise ContractError(f"cannot write feature file {path}: {e}") from e


def load_features(path):
    """Read a save_features file; a missing, misshapen or truncated one is ContractError."""
    try:
        with open(path, "rb") as f:
            header = _FEATURE_HEADER.fullmatch(f.readline())
            payload = f.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise ContractError(f"cannot read feature file {path}: {e}") from e
    if header is None:
        raise ContractError(f"bad feature file header in {path}")
    rows, cols = int(header[1]), int(header[2])
    if len(payload) != 8 * rows * cols:
        raise ContractError(f"feature file {path} holds {len(payload)} payload bytes, "
                            f"not the {8 * rows * cols} of its {rows} x {cols} header")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def load_manifest(path, vocab):
    """Tab-separated (feature path, transcript) lines -> (features, ids) pairs."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8 or a NUL byte in the path
        raise ContractError(f"cannot read manifest {path}: {e}") from e
    out = []
    for line in filter(None, lines):
        try:
            feat_path, transcript = line.split("\t", 1)
        except ValueError:
            raise ContractError(f"manifest line without a tab: {line!r}")
        out.append((load_features(feat_path), vocab.encode(transcript)))
    return out
