"""Synthetic tasks, warmup schedule, Adam, the training loop and data files.

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
from .chunking import FRONT_END_DOWNSAMPLE, as_frames
from .decoding import cer, greedy_decode
from .errors import ConfigError, ContractError, NumericError, check_fields


# -- synthetic data ---------------------------------------------------------


@dataclass
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
    transformer recipe (0.9, 0.98, eps 1e-9)."""

    beta1, beta2, eps = 0.9, 0.98, 1e-9

    def __init__(self, params):
        self.params = params
        self.step_count = 0
        self.state = {n: {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data)}
                      for n, t in params.items()}

    def load_state(self, snapshot):
        self.step_count = snapshot["step"]
        for n, slots in snapshot["slots"].items():
            self.state[n]["m"] = slots["m"].copy()
            self.state[n]["v"] = slots["v"].copy()

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        for n, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self.state[n]["m"], self.state[n]["v"]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params, max_norm):
    """Scale all grads so their global L2 norm is at most max_norm; returns the norm.

    A norm that is not finite scales nothing: it is a NumericError naming
    the first parameter, in sorted order, whose gradient is not finite, or
    saying that finite gradients overflowed the norm.
    """
    # fixed (sorted) reduction order so resumed runs are bit-identical
    names = sorted(name for name in params if params[name].grad is not None)
    total = 0.0
    for name in names:
        total += float((params[name].grad ** 2).sum())
    norm = np.sqrt(total)
    if not math.isfinite(norm):
        for name in names:
            ad.check_finite(params[name].grad, f"the gradient of {name}")
        raise NumericError("finite gradients overflow the gradient norm")
    if norm > max_norm:
        s = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * s
    return norm


# -- training loop ----------------------------------------------------------


@dataclass
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
        check_fields(self, batch_size=1, total_steps=0, warmup_steps=1, grad_clip=0,
                     eval_interval=0, seed=0)


def batch_loss(model, batch):
    """Mean per-sequence lattice NLL over a batch (scalar Tensor), teacher-forced in one
    padded pass."""
    nlls = model.sequence_nlls(batch)
    return sum(nlls[1:], nlls[0]) * (1.0 / len(batch))


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
    """Write one utterance: text header 'rows cols f8\\n' then little-endian payload."""
    x = as_frames(x)
    with open(path, "wb") as f:
        f.write(f"{x.shape[0]} {x.shape[1]} f8\n".encode("ascii"))
        f.write(x.astype("<f8").tobytes())


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
