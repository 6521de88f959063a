"""Benchmark worker: one workload against the public chunkrec API.

Started by ``run.py``, which pins BLAS threads and sets ``PYTHONPATH``.
Single-threaded, one process. See ``README.md`` for the workloads, the
metrics and the output checks.

Every timed operation runs twice on the same inputs, in alternating order:
on the program (``chunkrec`` from the checkout's ``src/``) and on
``baseline_chunkrec``, a frozen copy of chunkrec as it was when this
benchmark was defined. A timing metric is the program's value times
``nominal / baseline value``, with the baseline timed in the same run and
``nominal`` its usual value (``nominal.json``). That cancels the host's
speed drift, which moves the unscaled figures by 10-25% between runs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import chunkrec

import stats
import synth
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
NOMINAL = json.loads((HERE / "nominal.json").read_text())

MODULES = ("autodiff", "checkpoint", "chunking", "decoding", "errors", "lattice", "model",
           "training")
BEAM_WIDTH = 5
FRAGMENT_FRAMES = 8          # 80 ms fragments
SETUP_REPS = 7
TRAIN_BATCH = 8
TRAIN_WARMUP_STEPS = 300     # the acceptance run's schedule
LOSS_WINDOW = 10             # final_loss: mean over the last 10 of the fixed steps
CER_LIMIT = 0.05
STREAM_LOGP_TOL = 1e-10      # criterion 6's bound
TIMING = ("rtf", "op_ms_p50", "op_ms_p90", "tail_op_ms_p50", "setup_s")

# "full" is the benchmark; "smoke" is a tiny size for the self-tests only.
SIZES = {
    "full": dict(train_steps=100, train_len=(2, 5), decode_len=(2, 24), stream_symbols=24,
                 streams_per_set=8, warm_symbols=12),
    "smoke": dict(train_steps=12, train_len=(2, 3), decode_len=(2, 4), stream_symbols=6,
                  streams_per_set=2, warm_symbols=4),
}


def load_lib(package):
    """The chunkrec modules of `package` (the program or the baseline)."""
    return SimpleNamespace(name=package, **{
        m: importlib.import_module(f"{package}.{m}") for m in MODULES})


# -- environment -------------------------------------------------------------


def blas_threads_in_use():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD's commit if the checkout holds a .git directory, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, size=args.size, nproc=os.cpu_count(),
                python=platform.python_version(), numpy=np.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads_env={v: os.environ.get(v) for v in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
                blas_threads=blas_threads_in_use(), git_commit=git_commit())


# -- inputs ------------------------------------------------------------------------


def train_batch(seed, step, size):
    rng = np.random.default_rng((seed, 1, step))
    lo, hi = size["train_len"]
    return synth.utterances(rng, synth.random_lengths(rng, TRAIN_BATCH, lo, hi),
                            synth.symbol_table())


def decode_set(seed, k, size):
    """Set k of the decode workload: every length in range once, seeded order."""
    rng = np.random.default_rng((seed, 2, k))
    lo, hi = size["decode_len"]
    return synth.utterances(rng, synth.stratified_lengths(rng, lo, hi), synth.symbol_table())


def stream_set(seed, k, size):
    """Set k of the stream workload: streams cut into 8-frame fragments."""
    rng = np.random.default_rng((seed, 3, k))
    streams = []
    for x, y in synth.utterances(rng, [size["stream_symbols"]] * size["streams_per_set"],
                                 synth.symbol_table()):
        frags = [x[i:i + FRAGMENT_FRAMES] for i in range(0, len(x), FRAGMENT_FRAMES)]
        streams.append(dict(x=x, y=y, fragments=frags))
    return streams


def releases(side, fragments):
    """Chunks each push releases, from a StreamBuffer fed ahead of time."""
    cfg = side["model"].cfg
    buf = side["lib"].chunking.StreamBuffer(cfg.W, cfg.B)
    return [len(buf.push(f)) for f in fragments]


# -- set-up -------------------------------------------------------------------


def load_benchmark_model(lib):
    """The committed decoding model; its sha256 must match model.json."""
    meta = json.loads((HERE / "model.json").read_text())
    raw = (HERE / "model.npz").read_bytes()
    if hashlib.sha256(raw).hexdigest() != meta["sha256"]:
        raise SystemExit("benchmark: model.npz does not match the sha256 in model.json")
    with np.load(HERE / "model.npz") as arrays:
        params = {name: lib.autodiff.Tensor(arrays[name], requires_grad=True)
                  for name in arrays.files}
    vocab = lib.model.Vocabulary(symbols=tuple(meta["vocab"]))
    return lib.model.ChunkTransducerModel(lib.model.ModelConfig(**synth.MODEL_CONFIG), vocab,
                                          params)


def fresh_model(lib):
    """The acceptance config at its seeded initialisation."""
    return lib.model.ChunkTransducerModel(lib.model.ModelConfig(**synth.MODEL_CONFIG),
                                          lib.model.Vocabulary.from_units(synth.UNITS))


def checkpoint_roundtrip(lib, model):
    """Save and load through a temp file; returns (save_s, load_s, lossless)."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        path = Path(tmp) / "model.ckpt"
        t0 = time.perf_counter()
        lib.checkpoint.save_checkpoint(path, model)
        t1 = time.perf_counter()
        loaded, _ = lib.checkpoint.load_checkpoint(path)
        t2 = time.perf_counter()
    lossless = (sorted(loaded.params) == sorted(model.params) and all(
        np.array_equal(loaded.params[n].data, model.params[n].data) for n in model.params))
    return t1 - t0, t2 - t1, lossless


def setup_once(lib, workload, seed, size):
    """Everything one side needs before its first timed operation."""
    model = fresh_model(lib) if workload == "train" else load_benchmark_model(lib)
    save_s, load_s, lossless = checkpoint_roundtrip(lib, model)
    side = dict(lib=lib, model=model, save_s=save_s, load_s=load_s, lossless=lossless)
    if workload == "decode":
        side["first_set"] = decode_set(seed, 0, size)
    elif workload == "stream":
        side["first_set"] = stream_set(seed, 0, size)
        side["first_releases"] = [releases(side, s["fragments"]) for s in side["first_set"]]
    return side


def setup(workload, seed, size, libs):
    """Set each side up SETUP_REPS times, alternating; returns the last of each.

    The first side (the program) also carries the median checkpoint times.
    """
    times = {lib.name: [] for lib in libs}
    saves, loads = [], []
    sides = {}
    for rep in range(SETUP_REPS):
        for lib in libs if rep % 2 == 0 else libs[::-1]:
            t0 = time.perf_counter()
            sides[lib.name] = setup_once(lib, workload, seed, size)
            times[lib.name].append(time.perf_counter() - t0)
            if lib is libs[0]:
                saves.append(sides[lib.name]["save_s"])
                loads.append(sides[lib.name]["load_s"])
    for lib in libs:
        sides[lib.name]["setup_s"] = statistics.median(times[lib.name])
    program = sides[libs[0].name]
    program["checkpoint.save_s"] = statistics.median(saves)
    program["checkpoint.load_s"] = statistics.median(loads)
    return [sides[lib.name] for lib in libs]


def warm_up(workload, side, size):
    """One small operation of the workload, untimed, on throwaway state."""
    lib = side["lib"]
    x, _ = synth.utterance(np.random.default_rng(0), size["warm_symbols"], synth.symbol_table())
    if workload == "train":
        m = fresh_model(lib)
        lib.training.train_step(m, train_batch(0, 1, size), lib.training.Adam(m.params), 1,
                                lib.training.TrainConfig())
    elif workload == "decode":
        lib.decoding.beam_decode(side["model"], x, lib.decoding.BeamConfig(width=BEAM_WIDTH))
        lib.decoding.greedy_decode(side["model"], x)
    else:
        frags = [x[i:i + FRAGMENT_FRAMES] for i in range(0, len(x), FRAGMENT_FRAMES)]
        lib.decoding.stream_decode(side["model"], frags,
                                   lib.decoding.BeamConfig(width=BEAM_WIDTH))


# -- workloads ----------------------------------------------------------------
#
# Each runner does whole units of work until `seconds` have passed and at
# least `min_units` are done. Each operation runs on every side, in an order
# that alternates between operations, and garbage is collected between
# operations. Runners return the shared inputs and, per side, the timings
# and outputs.


def audio_s(frames):
    return frames * synth.FRAME_MS / 1000.0


def alternate(sides, i):
    return sides if i % 2 == 0 else sides[::-1]


def run_train(sides, seed, size, seconds, min_units, tracer=None):
    out, state = {}, {}
    for side in sides:
        training = side["lib"].training
        out[side["lib"].name] = dict(service=[], losses=[], failed=0)
        state[side["lib"].name] = (training.Adam(side["model"].params), training.TrainConfig(
            batch_size=TRAIN_BATCH, warmup_steps=TRAIN_WARMUP_STEPS))
    frames = []
    start = time.perf_counter()
    step = 1
    while step <= min_units or time.perf_counter() - start < seconds:
        batch = train_batch(seed, step, size)
        frames.append(sum(len(x) for x, _ in batch))
        if tracer:
            tracer.request = step
        for side in alternate(sides, step):
            lib, r = side["lib"], out[side["lib"].name]
            opt, tc = state[lib.name]
            t0 = time.perf_counter()
            try:
                loss = lib.training.train_step(side["model"], batch, opt, step, tc)
            except lib.errors.ChunkrecError:
                loss = float("nan")
            r["service"].append(time.perf_counter() - t0)
            r["losses"].append(loss)
            r["failed"] += 0 if np.isfinite(loss) else 1
        gc.collect()
        step += 1
    return dict(frames=frames, fixed=min_units, sides=out, wall=time.perf_counter() - start)


def run_decode(sides, seed, size, seconds, min_units, tracer=None):
    out = {side["lib"].name: dict(service=[], greedy_s=[], beam=[], greedy=[]) for side in sides}
    frames, refs = [], []
    start = time.perf_counter()
    k = 0
    while k < min_units or time.perf_counter() - start < seconds:
        for x, y in sides[0]["first_set"] if k == 0 else decode_set(seed, k, size):
            if tracer:
                tracer.request = len(frames)
            for side in alternate(sides, len(frames)):
                decoding, r = side["lib"].decoding, out[side["lib"].name]
                t0 = time.perf_counter()
                ids, lp = decoding.beam_decode(side["model"], x,
                                               decoding.BeamConfig(width=BEAM_WIDTH))[0]
                t1 = time.perf_counter()
                g_ids, g_lp = decoding.greedy_decode(side["model"], x)
                r["greedy_s"].append(time.perf_counter() - t1)
                r["service"].append(t1 - t0)
                r["beam"].append((list(ids), lp))
                r["greedy"].append((list(g_ids), g_lp))
            frames.append(len(x))
            refs.append(y)
            gc.collect()
        k += 1
    return dict(frames=frames, refs=refs, sides=out, wall=time.perf_counter() - start)


def stream_once(side, stream, tracer):
    """stream_decode of one stream, timing each fragment's service."""
    decoding = side["lib"].decoding
    frags = stream["fragments"]
    service = [0.0] * len(frags)
    resumed = [0.0]

    def feed():
        for i, frag in enumerate(frags):
            if tracer:
                tracer.request = i
            t = time.perf_counter()
            yield frag
            resumed[0] = time.perf_counter()
            service[i] = resumed[0] - t
        if tracer:
            tracer.request = len(frags)

    t0 = time.perf_counter()
    ids, lp, emissions = decoding.stream_decode(side["model"], feed(),
                                                decoding.BeamConfig(width=BEAM_WIDTH))
    t_end = time.perf_counter()
    return dict(service=service, flush=t_end - resumed[0], busy=t_end - t0, ids=list(ids),
                logp=lp, emissions=[e.symbol for e in emissions])


def run_stream(sides, seed, size, seconds, min_units, tracer=None):
    out = {side["lib"].name: dict(outs=[], releases=[]) for side in sides}
    streams = []
    start = time.perf_counter()
    k = 0
    while k < min_units or time.perf_counter() - start < seconds:
        batch = sides[0]["first_set"] if k == 0 else stream_set(seed, k, size)
        for j, stream in enumerate(batch):
            for side in alternate(sides, len(streams)):
                r = out[side["lib"].name]
                r["releases"].append(side["first_releases"][j] if k == 0
                                     else releases(side, stream["fragments"]))
                r["outs"].append(stream_once(side, stream, tracer))
            streams.append(stream)
            gc.collect()
        k += 1
    for r in out.values():
        r["service"] = [s for o in r["outs"] for s in o["service"]]
    return dict(streams=streams, sides=out, wall=time.perf_counter() - start)


RUNNERS = {"train": run_train, "decode": run_decode, "stream": run_stream}


# -- metrics and checks ---------------------------------------------------------


def timing_metrics(service, busy_s, audio, ops, tail):
    """The timing metrics of one side of a run.

    service: seconds per operation; busy_s: compute seconds for `audio`
    seconds of input; ops: indices of the operations whose service-time
    percentiles are reported; tail: the subset of those for tail_op_ms_p50.
    """
    ms = [1000.0 * s for s in service]
    return dict(rtf=busy_s / audio,
                op_ms_p50=stats.percentile([ms[i] for i in ops], 50),
                op_ms_p90=stats.percentile([ms[i] for i in ops], 90),
                tail_op_ms_p50=stats.percentile([ms[i] for i in tail], 50))


def batch_timing(res, r):
    """train and decode: one operation per batch or utterance."""
    frames = res["frames"]
    return timing_metrics(r["service"], sum(r["service"]), audio_s(sum(frames)),
                          range(len(frames)), stats.tail_indices(frames))


def stream_timing(res, r):
    ops, tail = [], []
    offset = 0
    for rel in r["releases"]:
        released = [i for i in range(len(rel)) if rel[i] > 0]
        ops += [offset + i for i in released]
        tail += [offset + i for i in released if i >= 0.75 * len(rel)]
        offset += len(rel)
    audio = audio_s(sum(len(st["x"]) for st in res["streams"]))
    return timing_metrics(r["service"], sum(o["busy"] for o in r["outs"]), audio, ops, tail)


def train_checks(res, r, side):
    n, fixed = len(r["service"]), res["fixed"]
    details = {"train.steps": n, "train.steps_per_s": n / sum(r["service"]),
               "train.step_ms_p90": 1000.0 * stats.percentile(r["service"], 90),
               "train.final_loss": float(np.mean(r["losses"][fixed - LOSS_WINDOW:fixed])),
               "train.final_loss_steps": [fixed - LOSS_WINDOW + 1, fixed]}
    return r["failed"], details, {"every loss finite": r["failed"] == 0}


def decode_checks(res, r, side):
    decoding = side["lib"].decoding
    audio = audio_s(sum(res["frames"]))
    errs_b = sum(decoding.edit_distance(h, y) for (h, _), y in zip(r["beam"], res["refs"]))
    errs_g = sum(decoding.edit_distance(h, y) for (h, _), y in zip(r["greedy"], res["refs"]))
    n_ref = sum(len(y) for y in res["refs"])
    below = sum(1 for (_, b), (_, g) in zip(r["beam"], r["greedy"]) if b < g)
    beam_cer = errs_b / n_ref
    details = {"decode.utterances": len(res["frames"]),
               "decode.beam_rtf": sum(r["service"]) / audio,
               "decode.greedy_rtf": sum(r["greedy_s"]) / audio, "decode.beam_cer": beam_cer,
               "decode.greedy_cer": errs_g / n_ref, "decode.beam_below_greedy": below}
    checks = {"beam(5) score >= greedy score on every utterance": below == 0,
              f"beam(5) CER <= {CER_LIMIT}": beam_cer <= CER_LIMIT}
    return below, details, checks


def stream_checks(res, r, side):
    decoding = side["lib"].decoding
    frag_s = audio_s(FRAGMENT_FRAMES)
    lag = []
    mismatch = emitted = errors = symbols = failed = 0
    max_dlogp = 0.0
    for stream, out in zip(res["streams"], r["outs"]):
        n = len(stream["fragments"])
        # Open loop at 1x real time: fragment i (0-based) is due when its
        # last frame has been captured, and the end-of-stream flush with
        # the last one.
        due = [(i + 1) * frag_s for i in range(n)] + [n * frag_s]
        lag += stats.open_loop_lag(due, out["service"] + [out["flush"]])
        final = out["ids"]
        mismatch += sum(1 for k, s in enumerate(out["emissions"])
                        if k >= len(final) or final[k] != s)
        emitted += len(out["emissions"])
        errors += decoding.edit_distance(final, stream["y"])
        symbols += len(stream["y"])
        off_ids, off_lp = decoding.beam_decode(side["model"], stream["x"],
                                               decoding.BeamConfig(width=BEAM_WIDTH))[0]
        dlogp = abs(off_lp - out["logp"])
        max_dlogp = max(max_dlogp, dlogp)
        if list(off_ids) != final or dlogp > STREAM_LOGP_TOL:
            failed += 1
    details = {"stream.streams": len(r["outs"]),
               "stream.lag_ms_p50": 1000.0 * stats.percentile(lag, 50),
               "stream.lag_ms_p90": 1000.0 * stats.percentile(lag, 90),
               "stream.flush_ms_p50": 1000.0 * stats.percentile(
                   [o["flush"] for o in r["outs"]], 50),
               "stream.emitted": emitted, "stream.emission_mismatch": mismatch,
               "stream.emission_mismatch_frac": mismatch / emitted if emitted else 0.0,
               "stream.cer": errors / symbols, "stream.offline_dlogp_max": max_dlogp}
    checks = {f"stream ids == offline beam(5) ids and |dlogp| <= {STREAM_LOGP_TOL}, "
              "on every stream": failed == 0}
    return failed, details, checks


TIMINGS = {"train": batch_timing, "decode": batch_timing, "stream": stream_timing}
CHECKS = {"train": train_checks, "decode": decode_checks, "stream": stream_checks}


def outputs(workload, r):
    """What one side produced, for comparing two runs of the same work."""
    if workload == "train":
        return r["losses"]
    if workload == "decode":
        return r["beam"], r["greedy"]
    return [(o["ids"], o["logp"], o["emissions"]) for o in r["outs"]]


# -- main -------------------------------------------------------------------------


def metric_units():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if Path(chunkrec.__file__).resolve().parent != ROOT / "src" / "chunkrec":
        print("benchmark: chunkrec was not imported from this checkout's src/", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    size = SIZES[args.size]
    wl = args.workload
    run = RUNNERS[wl]
    min_units = size["train_steps"] if wl == "train" else 1  # steps, or sets
    program_lib = load_lib("chunkrec")
    libs = [program_lib] if args.trace else [program_lib, load_lib("baseline_chunkrec")]

    sides = setup(wl, args.seed, size, libs)
    program = sides[0]
    for side in sides:
        warm_up(wl, side, size)
    # As timeit does: no collector pauses inside timed operations; the
    # runners collect between operations instead.
    gc.collect()
    gc.disable()

    if not args.trace:
        res = run(sides, args.seed, size, args.seconds, min_units)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = {}
        for side in sides:
            name = side["lib"].name
            raw[name] = TIMINGS[wl](res, res["sides"][name])
            raw[name]["setup_s"] = side["setup_s"]
        e2e = {m: raw["chunkrec"][m] * NOMINAL[wl][m] / raw["baseline_chunkrec"][m]
               for m in TIMING}
        e2e["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in e2e_units.items()}
        failed, details, wl_checks = CHECKS[wl](res, res["sides"]["chunkrec"], program)
        details.update({f"{name}.{m}": v for name, vals in raw.items() for m, v in vals.items()})
        spans_path = None
    else:
        # The same fixed work twice, untraced then traced: the per-layer
        # numbers come from the second pass, and the ratio of the two wall
        # times is the tracing overhead.
        untraced = run(sides, args.seed, size, 0, min_units)
        if wl == "train":
            program["model"] = fresh_model(program_lib)
        model = program["model"]
        tracer = tracing.Tracer(vars(program_lib), lambda t: model.geometry_for(t).M)
        tracer.install()
        try:
            res = run(sides, args.seed, size, 0, min_units, tracer)
        finally:
            tracer.uninstall()
        failed, details, wl_checks = CHECKS[wl](res, res["sides"]["chunkrec"], program)
        wl_checks["traced outputs equal untraced outputs"] = (
            outputs(wl, res["sides"]["chunkrec"]) == outputs(wl, untraced["sides"]["chunkrec"]))
        layers = tracer.layer_metrics()
        layers["checkpoint.save_s"] = (program["checkpoint.save_s"], "s")
        layers["checkpoint.load_s"] = (program["checkpoint.load_s"], "s")
        layers["trace.overhead_frac"] = (res["wall"] / untraced["wall"] - 1.0, "ratio")
        details.update({"trace.untraced_wall_s": untraced["wall"],
                        "trace.traced_wall_s": res["wall"], "trace.spans": len(tracer.spans),
                        "trace.absent": tracer.absent})
        metrics = {name: {"value": float(layers[name][0]) if name in layers else 0.0,
                          "unit": unit} for name, unit in layer_units.items()}
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{wl}-seed{args.seed}-trace1-spans.npz"
        tracer.save(spans_path)

    checks = {"checkpoint round trip is lossless": program["lossless"]}
    checks.update(wl_checks)
    failed += 0 if program["lossless"] else 1
    r = res["sides"]["chunkrec"]
    # operations: train steps, beam and greedy decodes, streams
    attempted = {"train": len(r["service"]), "decode": 2 * len(res.get("frames", ())),
                 "stream": len(r.get("outs", ()))}[wl]
    correct = all(checks.values()) and failed == 0
    record = dict(environment=environment(args), correct=correct, attempted=attempted,
                  failed=failed, checks=checks, metrics=metrics, details=details,
                  setup=dict(reps=SETUP_REPS, setup_s=program["setup_s"],
                             save_s=program["checkpoint.save_s"],
                             load_s=program["checkpoint.load_s"]),
                  samples={name: s["service"] for name, s in res["sides"].items()},
                  spans_file=str(spans_path.relative_to(ROOT)) if spans_path else None)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in details.items():
        print(f"detail {name} = {value}")
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
