"""pournet benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0

Every workload runs the same round of public entry points, sized so that
its named stage takes most of the time:

    train       train() for a fixed number of epochs on the criterion-6 desk set
    checkpoint  save_checkpoint() + load_checkpoint() of the trained model
    corpus      generate_dataset(), serialize_dataset(), parse_dataset() +
                pad_and_mask() + apply_normalizer() in record-order chunks,
                then model_forward() on each chunk with the loaded checkpoint
    gradcheck   cli.main(["gradcheck"])

Whole rounds repeat until about --seconds is spent (always at least one);
every timed metric is a median over the equal units of work they produced. The
last stdout line is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from spans around the program's functions with --trace 1.
See bench/README.md for the workloads, the checks and reference figures.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started, from /proc (0 where it is absent)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

# The GEMMs here are at most 32 x 64: extra BLAS threads burn CPU without
# saving wall time and add scheduling noise on a shared host. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from host import PROBE_REF_S, HostClock  # noqa: E402
from layers import layer_metrics, probe_layers  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Training always uses the criterion-6 fixture: 300 pours simulated from seed 0,
# split with seed 0, model init and shuffling from seed 0. After a few epochs
# the validation loss spreads by ~30% across data or init seeds, which would
# drown the change in learning quality it guards; fixed, it is deterministic.
# --seed makes the corpus, the check minibatch's dropout masks and the check
# direction. The gradcheck stage runs `pournet gradcheck` as shipped (seed 0):
# its point search takes 1.2-2.0 s depending on the seed, which would swamp
# the per-call costs the stage is there to show.
TRAIN_SEED = 0
DESK_POURS = 300
DESK_PAD = 150
# The corpus is drawn in CORPUS_BANDS equal length bands whose pours are
# interleaved in record order, so every seed gets the same spread of lengths
# (and so of work and padding) while geometry and exact lengths vary.
CORPUS_BANDS = 8
CORPUS_SEED_OFFSET = 1_000_003  # corpus streams never coincide with the fixture's


@dataclass(frozen=True)
class Workload:
    epochs: int  # per train() call
    max_val_ratio: float  # trained / untrained validation loss must stay below this
    corpus_pours: int  # a multiple of CORPUS_BANDS
    corpus_len: tuple  # (shortest, longest) pour in steps
    chunk: int  # pours per prediction chunk
    corpus_reps: int  # corpus units per round
    gradchecks: int  # gradcheck commands per round


# The named stage of each workload takes most of its round; the others run
# at a small size so every run reports every metric.
WORKLOADS = {
    "train_desk": Workload(epochs=6, max_val_ratio=0.5, corpus_pours=96, corpus_len=(80, 150),
                           chunk=32, corpus_reps=3, gradchecks=2),
    "corpus_predict": Workload(epochs=2, max_val_ratio=1.0, corpus_pours=48, corpus_len=(80, 1099),
                               chunk=16, corpus_reps=3, gradchecks=2),
    "gradcheck": Workload(epochs=2, max_val_ratio=1.0, corpus_pours=96, corpus_len=(80, 150),
                          chunk=32, corpus_reps=2, gradchecks=4),
}


@dataclass
class Samples:
    """Timed units as (raw seconds, host-scaled seconds), plus the outputs kept for checking."""

    units: dict = field(default_factory=lambda: defaultdict(list))
    traced_epoch_s: list = field(default_factory=list)
    rounds: int = 0
    round_s: list = field(default_factory=list)  # traced runs: (tracing on, host-scaled seconds)
    valid_steps: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def median(self, unit, scaled=True):
        return float(statistics.median(pair[1] if scaled else pair[0] for pair in self.units[unit]))


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the pinned setting."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (pinned)"


def _git_revision():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, name, seed, seconds, traced, workdir):
        # import_module, because the package re-exports a function named train.
        checkpoint, cli, data, grad, nn, simulate, train = (
            importlib.import_module(f"pournet.{m}")
            for m in ("checkpoint", "cli", "data", "grad", "nn", "simulate", "train"))
        self.checkpoint, self.cli, self.data, self.grad = checkpoint, cli, data, grad
        self.nn, self.simulate, self.train_mod = nn, simulate, train
        self.w, self.seed, self.seconds, self.traced = WORKLOADS[name], seed, seconds, traced
        self.workdir = workdir
        self.samples = Samples()
        self.clock = HostClock(scale=not traced)
        self.tracer = Tracer()
        if traced:
            self.tracer.install()
            self.tracer.enabled = True
        else:
            # Epochs end with evaluate() and gradcheck cases with check_gradients().
            self.clock.hook(train, "evaluate")
            self.clock.hook(cli, "check_gradients")

        desk = simulate.generate_dataset(
            DESK_POURS, simulate.default_ranges(), simulate.TrajectoryConfig(noise_sigma=0.01, seed=TRAIN_SEED))
        manifest = data.split_dataset(desk, seed=TRAIN_SEED)
        self.normalizer = data.fit_normalizer([desk[i] for i in manifest.train_ids])

        def padded(ids):
            return data.apply_normalizer(self.normalizer, data.pad_and_mask([desk[i] for i in ids], DESK_PAD))

        self.train_batch, self.val_batch = padded(manifest.train_ids), padded(manifest.val_ids)
        self.spec = nn.reference_model()
        self.config = train.TrainConfig(loss="euclidean", lr=1e-3, epochs=self.w.epochs,
                                        batch_size=32, seed=TRAIN_SEED)
        # Warm-up: one minibatch through backward and one checkpoint round trip.
        params = nn.build_model(self.spec, TRAIN_SEED)
        grad.backward(params, self.train_batch.take(np.arange(32)), "euclidean", mode="train",
                      rng=np.random.default_rng(0))
        checkpoint.save_checkpoint(workdir / "init.txt", params, self.normalizer)
        checkpoint.load_checkpoint(workdir / "init.txt")
        self.tracer.enabled = False

    def _problem(self, text):
        if text is not None:
            self.samples.problems.append(text)

    def _timed(self, stage, fn):
        """Run one unit of work; returns (result, its segments)."""
        self.clock.begin()
        with self.tracer.stage(stage):
            out = fn()
        segments = self.clock.end()
        self.samples.attempted += 1
        return out, segments

    def _keep(self, unit, segments):
        """Record a unit as the sum of its segments (untraced rounds only)."""
        if not self.tracer.enabled:
            self.samples.units[unit].append(tuple(map(sum, zip(*segments))))

    # -- one round -------------------------------------------------------

    def run_round(self):
        s, w = self.samples, self.w
        (params, history), segments = self._timed(
            "stage.train", lambda: self.train_mod.train(self.spec, self.train_batch, self.val_batch, self.config))
        if self.traced:
            s.traced_epoch_s.extend(history.seconds)
        else:
            # One segment per epoch, then the few statements after the last one.
            *epochs, last, tail = segments
            s.units["epoch"].extend(epochs + [(last[0] + tail[0], last[1] + tail[1])])
        flat = params.flatten()
        if "flat" not in s.first:
            s.first.update(flat=flat, params=params, val_loss=history.val_loss[-1])
        elif flat.tobytes() != s.first["flat"].tobytes():
            self._problem("training is not bitwise reproducible across rounds")

        path = self.workdir / "checkpoint.txt"

        def round_trip():
            self.checkpoint.save_checkpoint(path, params, self.normalizer,
                                            seeds={"init_seed": TRAIN_SEED, "shuffle_seed": TRAIN_SEED})
            return self.checkpoint.load_checkpoint(path)

        ckpt, _ = self._timed("stage.checkpoint", round_trip)
        self._problem(checks.check_bitwise("loaded checkpoint", flat, ckpt.params.flatten()))

        for _ in range(w.corpus_reps):
            self._corpus_unit(ckpt)
        for _ in range(w.gradchecks):
            self._gradcheck_unit()

    def _corpus_unit(self, ckpt):
        data, s, w = self.data, self.samples, self.w
        lo, hi = w.corpus_len
        edges = np.linspace(lo, hi + 1, CORPUS_BANDS + 1).astype(int)
        configs = [self.simulate.TrajectoryConfig(
            length=(int(edges[b]), int(edges[b + 1]) - 1), noise_sigma=0.0,
            seed=CORPUS_SEED_OFFSET + CORPUS_BANDS * self.seed + b) for b in range(CORPUS_BANDS)]

        def generate():
            bands = []
            for config in configs:
                bands.append(self.simulate.generate_dataset(w.corpus_pours // CORPUS_BANDS,
                                                            self.simulate.default_ranges(), config))
                self.clock.mark()
            return [r for group in zip(*bands) for r in group]

        records, segments = self._timed("stage.generate", generate)
        self._keep("generate", segments)
        path = self.workdir / "corpus.jsonl"
        self._timed("stage.serialize", lambda: data.serialize_dataset(records, path))

        def load():
            parsed = data.parse_dataset(path)
            return parsed, [data.apply_normalizer(ckpt.normalizer, data.pad_and_mask(parsed[i : i + w.chunk]))
                            for i in range(0, len(parsed), w.chunk)]

        def predict():
            preds = []
            for batch in chunks:
                preds.append(self.nn.model_forward(ckpt.params, batch, mode="eval"))
                self.clock.mark()
            return preds

        (parsed, chunks), segments = self._timed("stage.load", load)
        self._keep("load", segments)
        preds, segments = self._timed("stage.predict", predict)
        self._keep("predict", segments)
        if "records" not in s.first:
            s.valid_steps = float(sum(b.mask.sum() for b in chunks))
            s.first.update(records=records, parsed=parsed, chunks=chunks, preds=preds, ckpt=ckpt)
        else:
            self._problem(checks.check_records_equal(s.first["records"], records))
            if any(a.tobytes() != b.tobytes() for a, b in zip(s.first["preds"], preds)):
                self._problem("corpus predictions are not bitwise reproducible")

    def _gradcheck_unit(self):
        s = self.samples
        out = io.StringIO()

        def command():
            with contextlib.redirect_stdout(out):
                return self.cli.main(["gradcheck"])

        code, segments = self._timed("stage.gradcheck", command)
        self._keep("gradcheck", segments)
        if code != 0:
            s.failed += 1
        text = out.getvalue()
        if "gradcheck" not in s.first:
            s.first["gradcheck"] = (code, text)
        elif text != s.first["gradcheck"][1]:
            self._problem("gradcheck report differs between repeats")

    def measure(self):
        """Whole rounds until about --seconds is spent: another round starts while
        the time so far plus half the longest round stays within it, so runs
        end within half a round of --seconds. A traced run leaves its first
        round untraced and always runs a traced one."""
        self.clock.probe.measure()
        start = time.perf_counter()
        longest = 0.0
        while True:
            self.tracer.enabled = self.traced and self.samples.rounds > 0
            before = self.clock.probe.times[-1]
            tic = time.perf_counter()
            self.run_round()
            took = time.perf_counter() - tic
            if self.traced:
                # Rounds with tracing off and on are compared at one host speed.
                scale = 2.0 * PROBE_REF_S / (before + self.clock.probe.measure())
                self.samples.round_s.append((self.tracer.enabled, took * scale))
            longest = max(longest, took)
            enough = time.perf_counter() - start + longest / 2 > self.seconds
            self.samples.rounds += 1
            if enough and (not self.traced or self.samples.rounds >= 2):
                break
        self.tracer.enabled = False

    # -- checks ----------------------------------------------------------

    def verify(self):
        nn, grad, data = self.nn, self.grad, self.data
        first, problem = self.samples.first, self._problem
        spec, params = self.spec, first["params"]

        untrained = self.train_mod.evaluate(nn.build_model(spec, TRAIN_SEED), self.val_batch).loss
        problem(checks.check_loss_ratio(untrained, first["val_loss"], self.w.max_val_ratio))

        # One minibatch: loss and gradient at 150 and 300 padded steps, the
        # loss against an independent masked Euclidean loss, and a central
        # difference along a random direction, all with dropout frozen.
        rng = np.random.default_rng(self.seed)
        mini = self.train_batch.take(np.arange(32))
        masks = grad.frozen_dropout_masks(spec, mini, rng)

        def widen(a, dtype=np.float64):
            return np.concatenate([a, np.zeros((a.shape[0], DESK_PAD) + a.shape[2:], dtype=dtype)], axis=1)

        wide = data.PaddedBatch(widen(mini.features), widen(mini.targets), widen(mini.mask), mini.lengths)
        loss, g = grad.backward(params, mini, "euclidean", mode="train", dropout_masks=masks)
        loss_w, g_w = grad.backward(params, wide, "euclidean", mode="train",
                                    dropout_masks=[widen(m, bool) for m in masks])
        problem(checks.check_close("loss padded to 300 steps", loss, loss_w, 1e-12))
        problem(checks.check_close("gradient padded to 300 steps", g, g_w, 1e-12))

        def loss_at(flat):
            preds, _ = nn.forward(nn.ModelParams.from_flat(spec, flat), mini.features, mini.mask,
                                  mode="train", dropout_masks=masks)
            return checks.masked_euclidean(preds, mini.targets, mini.mask)

        flat = first["flat"]
        problem(checks.check_close("minibatch loss", loss_at(flat), loss, 1e-12))
        direction = rng.standard_normal(flat.size)
        direction /= np.linalg.norm(direction)
        numeric = checks.directional_derivative(loss_at, flat, direction, 1e-5)
        problem(checks.check_directional(float(g @ direction), numeric, rel_tol=1e-6))

        # Corpus: physics, file round trip, chunking and the cell equations.
        records, parsed, chunks, preds, ckpt = (first[k] for k in ("records", "parsed", "chunks", "preds", "ckpt"))
        for i, record in enumerate(records):
            reason = checks.check_pour_weights(record)
            if reason:
                problem(f"corpus pour {i}: {reason}")
                break
        problem(checks.check_records_equal(records, parsed))
        lengths = [r.length for r in records]
        longest, shortest = int(np.argmax(lengths)), int(np.argmin(lengths))
        layers = spec.to_dict()["layers"]
        arrays = [{} if p is None else {n: getattr(p, n) for n in p.FIELDS} for p in ckpt.params.layers]
        for i in sorted({0, longest, shortest, len(records) - 1}):
            chunk, row = divmod(i, self.w.chunk)
            got = preds[chunk][row, : lengths[i]]
            alone = data.apply_normalizer(ckpt.normalizer, data.pad_and_mask([parsed[i]]))
            problem(checks.check_close(f"pour {i} alone vs in its chunk",
                                       self.nn.model_forward(ckpt.params, alone, mode="eval")[0], got, 1e-12))
            if i in (longest, shortest):
                want = checks.oracle_forward(layers, arrays, chunks[chunk].features[row, : lengths[i]])
                problem(checks.check_close(f"pour {i} against the cell equations", want, got, 1e-9))
        problem(checks.check_not_constant("corpus predictions", np.concatenate([p.ravel() for p in preds])))

        code, text = first["gradcheck"]
        problem(checks.check_gradcheck_report(code, text))

    # -- results ---------------------------------------------------------

    def end_to_end(self, setup_s, scaled=True):
        s, w = self.samples, self.w

        def med(unit):
            return s.median(unit, scaled)

        setup_factor = self.clock.probe.times[0] / PROBE_REF_S if scaled else 1.0
        return {
            "setup_s": (setup_s / setup_factor, "s"),
            "train_seq_per_s": (self.train_batch.num_sequences / med("epoch"), "seq/s"),
            "val_loss": (s.first["val_loss"], "loss"),
            "generate_pours_per_s": (w.corpus_pours / med("generate"), "pours/s"),
            "dataset_load_pours_per_s": (w.corpus_pours / med("load"), "pours/s"),
            "predict_steps_per_s": (s.valid_steps / med("predict"), "steps/s"),
            "gradcheck_s": (med("gradcheck"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self):
        out = layer_metrics(self)
        out.update(probe_layers(self))
        out["host.probe_ms"] = (1e3 * statistics.median(self.clock.probe.times), "ms")
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pournet" / "__init__.py").is_file():
        print(f"error: no pournet sources under {SRC}; run from a pournet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        setup_s = _AGE0 + (time.perf_counter() - _T0)
        bench.measure()
        bench.verify()
        if args.trace:
            metrics = bench.per_layer()
            bench.tracer.write(workdir.parent / f"trace-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
        else:
            metrics = bench.end_to_end(setup_s)
            raw = bench.end_to_end(setup_s, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = bench.samples
    print(f"# workload={args.workload} seed={args.seed} rounds={s.rounds} numpy={np.__version__} "
          f"cpus={os.cpu_count()} blas_threads={_blas_threads()} git={_git_revision()} "
          f"host_probe_ms={1e3 * statistics.median(bench.clock.probe.times):.3f}")
    if not args.trace:
        print("# as timed, before host-speed scaling: "
              + " ".join(f"{name}={value:.6g}" for name, (value, _) in raw.items()))
    for text in s.problems:
        print(f"# check failed: {text}")
    print(json.dumps({
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
