"""Run a fixed set of pournet commands and hash every file they write.

    python3 tools/artifacts.py OUT_DIR

A change that must keep pournet's behaviour runs this once on the parent
commit and once on the change, each into its own OUT_DIR, and then compares
the two trees:

    diff A/SHA256SUMS B/SHA256SUMS     # or: diff -r A B

Every command runs through pournet.cli.main in this process, from OUT_DIR
with relative paths, with BLAS pinned to one thread. pournet is imported
from src/ of the checkout this file sits in. The set:

    the 60-pour (20-60 steps) and 300-pour generate and split;
    the criterion-8 train and its --config run_manifest.txt replay;
    the criterion-7 grid, and the same grid at lr 0.01 with --patience 2;
    evaluate and predict on the criterion-8 checkpoint;
    four 20-epoch desk trains (cell x loss), each with evaluate on all pours
        and on the test split, and predict;
    evaluate and predict of 300 pours of 80-1,099 steps with the desk
        euclidean LSTM and GRU checkpoints;
    the gradcheck reports at seed 0, seed 5 and --h 1e-4;
    the raw bytes of grad.numeric_gradient, both losses, for
        gradcheck_case(cell, seed) at seeds 0 and 5 and h 1e-5 and 1e-4, and
        for reference_model(cell) on a seeded 2-row, 7-step batch. The
        reports print errors to 4 significant digits, so they alone would
        miss a change in the low bits of the differences.

Wall-time columns (history seconds, grid report seconds) are dropped and so
is each run manifest's out_dir line, so only behaviour is compared.
commands.log holds every command's exit code, stdout and stderr. Hashes
depend on the CPU and the BLAS build, so compare trees made on one machine.
"""

import os
import sys

# Set before numpy loads: the one-thread BLAS the byte comparisons assume.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pournet import cli, grad, nn  # noqa: E402
from pournet.data import PaddedBatch  # noqa: E402

CELLS = ("lstm", "gru")
LOSSES = ("mse", "euclidean")


def commands():
    """Each command as its argv, in run order."""
    small = ["--data", "small/data.jsonl", "--manifest", "small/manifest.json"]
    desk = ["--data", "desk/data.jsonl", "--manifest", "desk/manifest.json"]
    yield ["generate", "--n", "60", "--ranges", "short.json", "--noise", "0.01", "--seed", "4",
           "--out", "small/data.jsonl"]
    yield ["split", "--data", "small/data.jsonl", "--seed", "0", "--out", "small/manifest.json"]
    yield ["train", *small, "--epochs", "3", "--lr", "0.001", "--batch-size", "8", "--seed", "0",
           "--out-dir", "c8"]
    yield ["train", "--config", "c8/run_manifest.txt", "--out-dir", "c8_replay"]
    yield ["grid", *small, "--epoch-scale", "0.01", "--lr", "0.001", "--out-dir", "c7"]
    yield ["grid", *small, "--epoch-scale", "0.01", "--lr", "0.01", "--patience", "2", "--out-dir", "c7_patience"]
    yield ["evaluate", "--checkpoint", "c8/checkpoint.txt", "--data", "small/data.jsonl", "--out-dir", "c8_eval"]
    yield ["predict", "--checkpoint", "c8/checkpoint.txt", "--data", "small/data.jsonl", "--ids", "0,5,59",
           "--out-dir", "c8_pred"]
    yield ["generate", "--n", "300", "--noise", "0.01", "--seed", "0", "--out", "desk/data.jsonl"]
    yield ["split", "--data", "desk/data.jsonl", "--seed", "0", "--out", "desk/manifest.json"]
    for cell in CELLS:
        for loss in LOSSES:
            run = f"desk_{cell}_{loss}"
            yield ["train", *desk, "--cell", cell, "--loss", loss, "--epochs", "20", "--lr", "0.001",
                   "--seed", "0", "--out-dir", run]
            checkpoint = ["--checkpoint", f"{run}/checkpoint.txt"]
            yield ["evaluate", *checkpoint, "--data", "desk/data.jsonl", "--loss", loss, "--out-dir", f"{run}/all"]
            yield ["evaluate", *checkpoint, *desk, "--split", "test", "--loss", loss, "--out-dir", f"{run}/test"]
            yield ["predict", *checkpoint, "--data", "desk/data.jsonl", "--ids", "0,7,299",
                   "--out-dir", f"{run}/pred"]
    yield ["generate", "--n", "300", "--ranges", "long.json", "--noise", "0.01", "--seed", "7",
           "--out", "long/data.jsonl"]
    every = ",".join(map(str, range(300)))
    for cell in CELLS:
        checkpoint = ["--checkpoint", f"desk_{cell}_euclidean/checkpoint.txt", "--data", "long/data.jsonl"]
        yield ["evaluate", *checkpoint, "--out-dir", f"long_{cell}"]
        yield ["predict", *checkpoint, "--ids", every, "--out-dir", f"long_{cell}/pred"]
    yield ["gradcheck", "--out", "gradcheck_seed0.txt"]
    yield ["gradcheck", "--seed", "5", "--out", "gradcheck_seed5.txt"]
    yield ["gradcheck", "--h", "1e-4", "--out", "gradcheck_h1e-4.txt"]


def reference_case(cell):
    """reference_model(cell) at its seed-0 initialisation, a 2-row, 7-step
    batch whose second row ends after 5 steps, and frozen dropout masks."""
    spec = nn.reference_model(cell)
    rng = np.random.default_rng(0)
    mask = np.ones((2, 7))
    mask[1, 5:] = 0.0
    batch = PaddedBatch(features=rng.normal(size=(2, 7, spec.input_dim)) * mask[:, :, None],
                        targets=rng.normal(size=(2, 7, 1)) * mask[:, :, None], mask=mask,
                        lengths=np.array([7, 5], dtype=np.int64))
    return nn.build_model(spec, 0), batch, grad.frozen_dropout_masks(spec, batch, rng)


def write_numeric_gradients(root):
    """One file of raw float64 bytes per numeric_gradient vector."""
    out = root / "numeric_gradient"
    out.mkdir()
    for cell in CELLS:
        cases = {f"seed{seed}": (grad.gradcheck_case(cell, seed), (1e-5, 1e-4)) for seed in (0, 5)}
        cases["reference"] = (reference_case(cell), (grad.FD_STEP,))
        for name, ((params, batch, masks), steps) in cases.items():
            for h in steps:
                for kind, values in grad.numeric_gradient(params, batch, masks, h=h).items():
                    (out / f"{cell}_{name}_h{h:g}_{kind}.f64").write_bytes(values.tobytes())


def _drop_column(path, index):
    """Rewrite a columnar report without one column of its data rows."""
    rows = []
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            fields = line.split()
            line = " ".join(fields[:index] + fields[index + 1:])
        rows.append(line)
    path.write_text("\n".join(rows) + "\n")


def strip_wall_time(root):
    for path in root.rglob("history.txt"):
        _drop_column(path, 3)
    for path in root.rglob("grid_report.txt"):
        _drop_column(path, 7)
    for path in root.rglob("run_manifest.txt"):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("out_dir=")]
        path.write_text("\n".join(lines) + "\n")


def write_sums(root):
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "SHA256SUMS"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    (root / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    return len(lines)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 1
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    Path("short.json").write_text(json.dumps({"trajectory": {"length": [20, 60]}}) + "\n")
    Path("long.json").write_text(json.dumps({"trajectory": {"length": [80, 1099]}}) + "\n")
    log = []
    tic = time.perf_counter()
    for command in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command)
        text = " ".join(command)
        log += [f"$ pournet {text}", f"exit {code}", "stdout:", out.getvalue().rstrip("\n"),
                "stderr:", err.getvalue().rstrip("\n")]
        print(f"exit {code}: pournet {text[:100]}", file=sys.stderr)
    write_numeric_gradients(root)
    seconds = time.perf_counter() - tic
    Path("commands.log").write_text("\n".join(log) + "\n")
    strip_wall_time(root)
    files = write_sums(root)
    print(f"{files} files hashed in {root / 'SHA256SUMS'}; commands took {seconds:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
