import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkrec import autodiff as ad
from chunkrec.checkpoint import save_checkpoint
from chunkrec.errors import (ConfigError, ContractError, NumericError, ShapeError,
                             UndefinedMetricError)
from chunkrec.training import (Adam, SyntheticTaskSpec, TrainConfig, batch_loss,
                               clip_grad_norm, gen_synthetic, load_features,
                               load_manifest, noam_lr, save_features, train, train_step)

from conftest import make_tiny_model


def spec_for_tiny():
    return SyntheticTaskSpec(vocab_size=8, d_in=4, min_len=2, max_len=3,
                             frames_per_symbol=8, noise_std=0.05, seed=5)


# -- synthetic data ---------------------------------------------------------


def test_gen_synthetic_deterministic():
    spec = spec_for_tiny()
    a = gen_synthetic(spec, 2)
    b = gen_synthetic(spec, 2)
    for (xa, ya), (xb, yb) in zip(a, b):
        assert np.array_equal(xa, xb) and ya == yb


def test_gen_synthetic_shapes():
    spec = SyntheticTaskSpec(vocab_size=8, d_in=4, min_len=3, max_len=3,
                             frames_per_symbol=8, seed=1)
    x, y = gen_synthetic(spec, 1)[0]
    assert len(y) == 3
    assert x.shape == (24, 4)
    m = make_tiny_model()
    assert m.encoded_len(x.shape[0]) == 6


def test_gen_synthetic_label_histogram_uniform():
    from scipy.stats import chisquare
    spec = spec_for_tiny()
    labels = [s for _, y in gen_synthetic(spec, 5000) for s in y]
    counts = np.bincount(labels, minlength=8)[2:]
    assert chisquare(counts).pvalue > 0.001


def test_gen_synthetic_front_end_guard():
    with pytest.raises(ConfigError):
        SyntheticTaskSpec(frames_per_symbol=3)


@pytest.mark.parametrize("bad", [dict(min_len=2.5), dict(vocab_size=2), dict(noise_std=-0.1),
                                 dict(noise_std=float("nan")), dict(seed=-1)])
def test_synthetic_spec_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        SyntheticTaskSpec(**bad)


@pytest.mark.parametrize("bad", [dict(batch_size=2.5), dict(total_steps="3"), dict(seed=-1),
                                 dict(eval_interval=-1), dict(lr_scale=float("inf")),
                                 dict(grad_clip=-1.0), dict(lr_scale=-1.0)])
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


# -- schedule ---------------------------------------------------------------


def test_noam_peak_at_warmup():
    assert noam_lr(1000, 256, 1000) == pytest.approx(256 ** -0.5 * 1000 ** -0.5)


def test_noam_first_step():
    assert noam_lr(1, 256, 1000) == pytest.approx(1.0 / (16 * 1000 ** 1.5))


def test_noam_monotone_around_warmup():
    lrs = [noam_lr(s, 64, 100) for s in range(1, 300)]
    for s in range(1, 99):
        assert lrs[s] >= lrs[s - 1]
    for s in range(100, 298):
        assert lrs[s + 1] <= lrs[s]


def test_noam_step_zero_rejected():
    with pytest.raises(ContractError):
        noam_lr(0, 64, 100)


# -- optimization -----------------------------------------------------------


def test_two_steps_reduce_loss_on_same_batch():
    m = make_tiny_model(seed=2)
    batch = gen_synthetic(spec_for_tiny(), 4)
    opt = Adam(m.params)
    cfg = TrainConfig(batch_size=4, warmup_steps=10, lr_scale=0.5, eval_interval=0)
    l1 = train_step(m, batch, opt, 1, cfg)
    train_step(m, batch, opt, 2, cfg)
    l3 = batch_loss(m, batch).item()
    assert l3 < l1


def test_padded_batch_loss_matches_the_per_utterance_loop():
    # Nonzero biases (as after training) make the front end's padded frames
    # nonzero unless the batched pass re-zeroes them.
    m = make_tiny_model(seed=4)
    rng = np.random.default_rng(4)
    for p in m.params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.shape)
    # U = 0; one truncated chunk (L = 2 < W); one exact chunk (L = W = 3); a
    # truncated last chunk; T = 13 and 37, not multiples of 4
    batch = [(rng.normal(size=(T, 4)), y) for T, y in [
        (24, []), (8, [2, 5]), (12, [3]), (24, [2, 5, 3]), (13, [4]), (37, [6, 2, 7, 3])]]
    alone = [m.sequence_nll(x, y) for x, y in batch]
    for nll, ref in zip(m.sequence_nlls(batch), alone):
        assert abs(nll.item() - ref.item()) <= 1e-12
    (sum(alone[1:], alone[0]) * (1.0 / len(batch))).backward()  # the per-utterance loop
    want = {n: p.grad.copy() for n, p in m.params.items()}
    for p in m.params.values():
        p.zero_grad()
    batch_loss(m, batch).backward()
    for n, p in m.params.items():
        assert np.max(np.abs(p.grad - want[n])) <= 1e-12, n
    names = ["fe.conv1.w", "fe.conv1.b", "fe.conv2.b", "dec.0.cross_attn.bv", "dec.embed"]
    ok, dev = ad.check_gradients(lambda: batch_loss(m, batch), [m.params[n] for n in names])
    assert ok, dev


@pytest.mark.parametrize("overrides", [{}, dict(n_dec_blocks=0), dict(n_dec_blocks=2)])
def test_batch_loss_is_bitwise_the_mean_of_sequence_nlls(overrides):
    # one node over the decoder's table against one lattice_nll per utterance,
    # summed and scaled: the same value and gradients, bit for bit. The label
    # 0 is the blank id, so its label cells are blank cells too.
    m = make_tiny_model(seed=5, **overrides)
    rng = np.random.default_rng(5)
    batch = [(rng.normal(size=(T, 4)), y) for T, y in [
        (24, [2, 5, 3]), (8, []), (37, [6, 2, 7, 3, 4]), (24, [0, 3]), (20, [1])]]

    def reference():
        nlls = m.sequence_nlls(batch)
        return sum(nlls[1:], nlls[0]) * (1.0 / len(batch))

    runs = []
    for loss in (lambda: batch_loss(m, batch), reference):
        for p in m.params.values():
            p.zero_grad()
        value = loss()
        value.backward()
        runs.append((value.item(), {n: p.grad for n, p in m.params.items()}))
    (value, grads), (ref_value, ref_grads) = runs
    assert value == ref_value
    for n in grads:
        assert (grads[n] is None and ref_grads[n] is None) or np.array_equal(grads[n],
                                                                              ref_grads[n]), n


def test_zero_lr_leaves_params_bitwise():
    m = make_tiny_model(seed=2)
    batch = gen_synthetic(spec_for_tiny(), 2)
    before = {n: p.data.copy() for n, p in m.params.items()}
    opt = Adam(m.params)
    cfg = TrainConfig(batch_size=2, warmup_steps=10, lr_scale=0.0, eval_interval=0)
    train_step(m, batch, opt, 1, cfg)
    assert all(np.array_equal(before[n], m.params[n].data) for n in before)


def test_zero_clip_threshold_zeroes_gradients():
    m = make_tiny_model(seed=2)
    batch = gen_synthetic(spec_for_tiny(), 2)
    before = {n: p.data.copy() for n, p in m.params.items()}
    opt = Adam(m.params)
    cfg = TrainConfig(batch_size=2, warmup_steps=10, grad_clip=0.0, eval_interval=0)
    train_step(m, batch, opt, 1, cfg)
    assert all(np.array_equal(before[n], m.params[n].data) for n in before)
    assert opt.step_count == 1


def test_clip_grad_norm_scales_to_threshold():
    m = make_tiny_model(seed=2)
    for p in m.params.values():
        p.grad = np.ones_like(p.data)
    clip_grad_norm(m.params, 1.0)
    total = sum(float((p.grad ** 2).sum()) for p in m.params.values())
    assert np.sqrt(total) == pytest.approx(1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_stops_the_step_before_the_optimizer(value, monkeypatch):
    # a non-finite entry would put NaN into its parameter and Adam moment, and an
    # infinite one would also scale every other gradient to 0
    m = make_tiny_model(seed=2)
    batch = gen_synthetic(spec_for_tiny(), 2)
    before = {n: p.data.copy() for n, p in m.params.items()}
    opt = Adam(m.params)
    backward = ad.Tensor.backward

    def poisoned_backward(loss):
        backward(loss)
        m.params["fe.conv1.b"].grad[0] = value
        m.params["dec.out.b"].grad[1] = value

    monkeypatch.setattr(ad.Tensor, "backward", poisoned_backward)
    cfg = TrainConfig(batch_size=2, warmup_steps=10, eval_interval=0)
    with pytest.raises(NumericError, match=r"gradient of dec\.out\.b$"):  # first in sorted order
        train_step(m, batch, opt, 1, cfg)
    assert opt.step_count == 0
    assert all(np.array_equal(before[n], m.params[n].data) for n in before)
    assert all(not s["m"].any() and not s["v"].any() for s in opt.state.values())


def test_finite_gradients_that_overflow_the_norm_are_a_numeric_error():
    m = make_tiny_model(seed=2)
    for p in m.params.values():
        p.grad = np.full_like(p.data, 1e200)
    with pytest.raises(NumericError, match="overflow"):  # not numpy's overflow warning
        clip_grad_norm(m.params, 1.0)
    assert all((p.grad == 1e200).all() for p in m.params.values())  # nothing scaled


class ReferenceAdam:
    """Adam as a loop over the parameters, each update in fresh arrays: the
    arithmetic that Adam's arena must reproduce bit for bit."""

    beta1, beta2, eps = Adam.beta1, Adam.beta2, Adam.eps

    def __init__(self, params):
        self.params, self.step_count = params, 0
        self.state = {n: {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data)}
                      for n, t in params.items()}

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


def reference_train_step(model, batch, optimizer, step, cfg):
    """train_step with the global-norm clip written out: sum of squares per
    parameter in sorted order, and each clipped gradient a new array.
    Returns (loss, gradient norm)."""
    optimizer.zero_grad()
    loss = batch_loss(model, batch)
    loss.backward()
    grads = [model.params[n] for n in sorted(model.params) if model.params[n].grad is not None]
    total = 0.0
    for p in grads:
        total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > cfg.grad_clip:
        for p in grads:
            p.grad = p.grad * (cfg.grad_clip / norm)
    optimizer.step(noam_lr(step, model.cfg.d_model, cfg.warmup_steps, cfg.lr_scale))
    return loss.item(), norm


def twins(seed=2):
    """Two copies of a tiny model, the first under Adam and the second under ReferenceAdam."""
    models = [make_tiny_model(seed=seed) for _ in range(2)]
    return models, [Adam(models[0].params), ReferenceAdam(models[1].params)]


def assert_twins_bitwise(models, opts):
    assert opts[0].step_count == opts[1].step_count
    for n in models[1].params:
        assert np.array_equal(models[0].params[n].data, models[1].params[n].data), n
        for slot in ("m", "v"):
            assert np.array_equal(opts[0].state[n][slot], opts[1].state[n][slot]), (n, slot)


@pytest.mark.parametrize("grad_clip", [TrainConfig.grad_clip, 1e-3])
def test_adam_over_its_arena_equals_the_per_parameter_loop_bitwise(grad_clip, tmp_path):
    data = gen_synthetic(spec_for_tiny(), 8)
    cfg = TrainConfig(batch_size=4, warmup_steps=10, grad_clip=grad_clip, eval_interval=0)
    models, opts = twins()
    for step in range(1, 21):
        batch = data[4 * (step % 2):4 * (step % 2) + 4]
        loss = train_step(models[0], batch, opts[0], step, cfg)
        want, norm = reference_train_step(models[1], batch, opts[1], step, cfg)
        assert loss == want
        assert grad_clip > 1.0 or norm > grad_clip  # the small threshold clips every step
    assert_twins_bitwise(models, opts)
    for i in range(2):
        save_checkpoint(tmp_path / f"{i}.ckpt", models[i], opts[i])
    assert (tmp_path / "0.ckpt").read_bytes() == (tmp_path / "1.ckpt").read_bytes()


def backward_both(models, opts, batch):
    for model, opt in zip(models, opts):
        opt.zero_grad()
        batch_loss(model, batch).backward()


def test_a_parameter_without_a_gradient_keeps_its_data_and_moments():
    batch = gen_synthetic(spec_for_tiny(), 2)
    models, opts = twins()
    backward_both(models, opts, batch)
    for opt in opts:
        opt.step(0.01)
    skipped = "enc.0.attn.wk"  # in mid-parameter list, so its neighbours form two groups
    before = [models[0].params[skipped].data.copy(), opts[0].state[skipped]["m"].copy(),
              opts[0].state[skipped]["v"].copy()]
    backward_both(models, opts, batch)
    for model, opt in zip(models, opts):
        model.params[skipped].grad = None
        opt.step(0.01)
    after = [models[0].params[skipped].data, opts[0].state[skipped]["m"],
             opts[0].state[skipped]["v"]]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert_twins_bitwise(models, opts)  # and every other parameter moved as the loop moves it


def test_rebound_parameter_data_and_slots_are_optimized_from_their_new_values():
    batch = gen_synthetic(spec_for_tiny(), 2)
    models, opts = twins()
    rng = np.random.default_rng(3)
    data = rng.normal(size=models[0].params["dec.out.w"].shape)
    m = rng.normal(size=models[0].params["dec.out.b"].shape)
    for model, opt in zip(models, opts):
        model.params["dec.out.w"].data = data.copy()
        opt.state["dec.out.b"]["m"] = m.copy()
    backward_both(models, opts, batch)
    for opt in opts:
        opt.step(0.01)
    assert_twins_bitwise(models, opts)
    assert not np.array_equal(models[0].params["dec.out.w"].data, data)


def test_load_state_rejects_a_snapshot_that_does_not_fit_and_changes_nothing():
    m = make_tiny_model()
    opt = Adam(m.params)
    train_step(m, gen_synthetic(spec_for_tiny(), 2), opt, 1,
               TrainConfig(batch_size=2, warmup_steps=10, eval_interval=0))

    def snapshot(**edit):
        slots = {n: {k: a.copy() for k, a in s.items()} for n, s in opt.state.items()}
        slots.update(edit)
        return {"step": 4, "slots": {n: s for n, s in slots.items() if s is not None}}

    want = {n: {k: a.copy() for k, a in s.items()} for n, s in opt.state.items()}
    bad = [(ContractError, "nope", snapshot(nope={"m": np.zeros(1), "v": np.zeros(1)})),
           (ContractError, "dec.out.b", snapshot(**{"dec.out.b": None})),
           (ShapeError, r"dec\.out\.b\.m", snapshot(**{"dec.out.b": {"m": np.zeros(3),
                                                                     "v": np.zeros(8)}})),
           (ContractError, "-2", dict(snapshot(), step=-2)),
           (ContractError, "4.0", dict(snapshot(), step=4.0))]
    for error, match, snap in bad:
        with pytest.raises(error, match=match):
            opt.load_state(snap)
        assert opt.step_count == 1
        for n, s in want.items():
            assert all(np.array_equal(opt.state[n][k], a) for k, a in s.items()), n
    opt.load_state(snapshot())
    assert opt.step_count == 4


def test_training_deterministic_across_runs():
    batch_cfg = TrainConfig(batch_size=4, total_steps=8, warmup_steps=20, eval_interval=0, seed=9)
    data = gen_synthetic(spec_for_tiny(), 32)
    hists = []
    for _ in range(2):
        m = make_tiny_model(seed=7)
        _, hist = train(m, data, batch_cfg)
        hists.append(hist)
    assert hists[0] == hists[1]


def test_eval_on_empty_references_is_undefined_metric():
    m = make_tiny_model(seed=7)
    data = gen_synthetic(spec_for_tiny(), 8)
    opt, logged = Adam(m.params), []
    cfg = TrainConfig(batch_size=2, total_steps=50, warmup_steps=10, eval_interval=5)
    with pytest.raises(UndefinedMetricError):
        train(m, data, cfg, optimizer=opt, eval_data=[(x, []) for x, _ in data[:2]],
              log=logged.append)
    assert opt.step_count == 5 and logged == []


def nats_per_symbol(model, samples):
    """Mean teacher-forced NLL per reference symbol."""
    with ad.no_grad():
        nlls = model.sequence_nlls(samples)
    return sum(nll.item() for nll in nlls) / sum(len(y) for _, y in samples)


def test_single_batch_overfit_below_threshold():
    m = make_tiny_model(seed=8)
    batch = gen_synthetic(spec_for_tiny(), 4)
    opt = Adam(m.params)
    cfg = TrainConfig(batch_size=4, warmup_steps=50, lr_scale=1.0, eval_interval=0)
    for step in range(1, 501):
        train_step(m, batch, opt, step, cfg)
        if step % 50 == 0 and nats_per_symbol(m, batch) < 0.1:
            break
    assert nats_per_symbol(m, batch) < 0.1


# -- data files -------------------------------------------------------------


def test_feature_file_roundtrip(tmp_path):
    x = np.random.default_rng(0).normal(size=(13, 4))
    p = tmp_path / "utt0.feat"
    save_features(p, x)
    assert np.array_equal(load_features(p), x)


_dim = st.integers(-2, 5).map(str) | st.sampled_from(["", "ab", "1.5", "+3", "100000000000"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_dim, cols=_dim, dtype=st.sampled_from(["f8", "f8", "f4", "", "f8 f8"]),
       sep=st.sampled_from([" ", " ", "  ", "\t"]), end=st.sampled_from(["\n", "\n", "", "\r\n"]),
       extra=st.sampled_from([0, 0, 0, -8, -1, 1, 8]))
def test_feature_file_header_fuzz(tmp_path_factory, rows, cols, dtype, sep, end, extra):
    # loads exactly when the file is what save_features writes; else ContractError
    n = 8 * int(rows) * int(cols) if rows.isdigit() and cols.isdigit() else -1
    payload = bytes(max(n + extra, 0)) if n <= 8 * 25 else b""  # a huge header stays short
    p = tmp_path_factory.mktemp("feat") / "u.feat"
    p.write_bytes(sep.join([rows, cols, dtype]).encode() + end.encode() + payload)
    if len(payload) == n and (dtype, sep, end) == ("f8", " ", "\n"):
        assert load_features(p).shape == (int(rows), int(cols))
    else:
        with pytest.raises(ContractError):
            load_features(p)


def test_bad_feature_files_are_contract_errors(tmp_path):
    p = tmp_path / "u.feat"
    for header in (b"ab cd f8\n", b"-1 8 f8\n", b"2 4 f4\n", b"2 4\n", b"\xff\xfe f8\n"):
        p.write_bytes(header + bytes(64))
        with pytest.raises(ContractError):
            load_features(p)
    p.write_bytes(b"2 4 f8\n" + bytes(63))  # truncated
    with pytest.raises(ContractError):
        load_features(p)
    with pytest.raises(ContractError):
        load_features(tmp_path / "missing.feat")
    with pytest.raises(ContractError):
        load_manifest(tmp_path / "missing.tsv", make_tiny_model().vocab)


def test_feature_files_reject_frames_that_are_not_real_2d_and_nul_paths(tmp_path):
    for x in (np.zeros(4), np.zeros((2, 4), dtype=complex), [[1.0], [1.0, 2.0]]):
        with pytest.raises(ContractError):
            save_features(tmp_path / "u.feat", x)
    with pytest.raises(ContractError):
        load_features(str(tmp_path / "u\x00.feat"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=st.lists(st.tuples(
    st.sampled_from(["good", "good", "good", "missing", "dir"]) | st.text("s0/.\x00é", max_size=4),
    st.text(alphabet="s01 \t\x00/.é", max_size=6),
    st.sampled_from(["\t", "\t", "\t", "", "\t\t", " "])), max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\n\n"]),
    fault=st.sampled_from([None, None, None, None, "bad-utf8", "nul-in-path"]))
def test_fuzzed_manifest_loads_pairs_or_raises_contract_error(tmp_path_factory, lines, newline,
                                                               fault):
    d = tmp_path_factory.mktemp("manifest")
    save_features(d / "good", np.zeros((9, 4)))
    paths = {"good": str(d / "good"), "missing": str(d / "missing"), "dir": str(d)}
    text = newline.join(paths.get(p, p) + sep + t for p, t, sep in lines)
    man = d / "m.tsv"
    man.write_bytes(text.encode("utf-8") + b"\xff" * (fault == "bad-utf8"))
    path = str(man) + "\x00" * (fault == "nul-in-path")
    try:
        pairs = load_manifest(path, make_tiny_model().vocab)
    except ContractError:
        return
    assert [x.shape for x, _ in pairs] == [(9, 4)] * len(pairs)
    assert all(isinstance(ids, list) for _, ids in pairs)


def test_manifest_loading(tmp_path):
    m = make_tiny_model()
    x = np.random.default_rng(1).normal(size=(9, 4))
    fp = tmp_path / "utt0.feat"
    save_features(fp, x)
    man = tmp_path / "manifest.tsv"
    man.write_text(f"{fp}\ts0 s1 s9\n", encoding="utf-8")
    data = load_manifest(man, m.vocab)
    assert len(data) == 1
    assert np.array_equal(data[0][0], x)
    # the units are s0..s5, so the transcript is whitespace-separated units
    assert data[0][1] == [2, 3, m.vocab.unk_id]
