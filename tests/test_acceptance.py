"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

Criteria 1..5 are fast structural and numerical checks. Criterion 6 trains the
reference model on a desk-scale simulated dataset three times (the slow part,
budgeted at 15 minutes); two invariants ride on its runs, the second scoring
them on cups outside the training ranges. Criterion 7 walks the bundled
experiment grid through the command line at a 0.01 epoch scale; criterion 8
checks bitwise run reproducibility through the command line.
"""

import json
import time

import numpy as np
import pytest

from pournet.cli import EXIT_OK, main
from pournet.data import (
    PaddedBatch,
    apply_normalizer,
    fit_normalizer,
    pad_and_mask,
    split_dataset,
)
from pournet.grad import backward
from pournet.nn import (
    LayerSpec,
    ModelParams,
    ModelSpec,
    count_params,
    layer_param_counts,
    reference_model,
)
from pournet.simulate import (
    CupGeometry,
    TrajectoryConfig,
    default_ranges,
    generate_dataset,
    retained_volume,
    wide_cup_ranges,
)
from pournet.train import TrainConfig, evaluate, train


def _verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: parameter counts of the reference architecture


def test_criterion_1_parameter_counts():
    t0 = time.monotonic()
    spec = reference_model()
    counts = layer_param_counts(spec)
    total = count_params(spec)
    gru_total = count_params(ModelSpec(input_dim=9, layers=[LayerSpec("gru", units=16)]))
    ok = (counts == [1664, 2112, 2112, 2112, 17, 1152, 0, 17]
          and total == 9186 and gru_total == 1248)
    elapsed = time.monotonic() - t0
    _verdict("criterion 1 (parameter counts)", ok and elapsed < 1.0,
             f"per-layer {counts}, total {total}, gru {gru_total}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: deterministic split sizes


def test_criterion_2_split_sizes():
    t0 = time.monotonic()
    manifest = split_dataset(1307, seed=0)
    elapsed = time.monotonic() - t0
    _verdict("criterion 2 (split sizes)", manifest.sizes == (1045, 183, 79) and elapsed < 1.0,
             f"sizes {manifest.sizes}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: gradient check command


def test_criterion_3_gradcheck_command(capsys):
    t0 = time.monotonic()
    code = main(["gradcheck"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    pass_lines = [ln for ln in out.splitlines() if ln.endswith("PASS")]
    ok = code == EXIT_OK and len(pass_lines) == 4 and elapsed < 30.0
    _verdict("criterion 3 (gradcheck command)", ok,
             f"exit {code}, {len(pass_lines)} passing cases, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: padding extension changes nothing


def test_criterion_4_padding_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst_loss, worst_norm = 0.0, 0.0
    for trial in range(100):
        cell = ("lstm", "gru")[trial % 2]
        kind = ("mse", "euclidean")[(trial // 2) % 2]
        d = int(rng.integers(2, 5))
        spec = ModelSpec(input_dim=d, layers=[
            LayerSpec(cell, units=int(rng.integers(3, 7))),
            LayerSpec("dense", units=1, activation="relu"),
        ])
        params = ModelParams.from_flat(
            spec, rng.normal(0.0, 0.4, count_params(spec)))
        n, t_len = int(rng.integers(1, 4)), int(rng.integers(4, 11))
        features = rng.normal(0.0, 1.0, size=(n, t_len, d))
        targets = rng.normal(0.0, 1.0, size=(n, t_len, 1))
        mask = np.ones((n, t_len))
        lengths = np.full(n, t_len, dtype=np.int64)
        for i in range(n):
            cut = int(rng.integers(2, t_len + 1))
            mask[i, cut:] = 0.0
            features[i, cut:] = 0.0
            targets[i, cut:] = 0.0
            lengths[i] = cut
        base = PaddedBatch(features=features, targets=targets, mask=mask, lengths=lengths)
        extra = int(rng.integers(1, 51))
        wide = PaddedBatch(
            features=np.concatenate([features, np.zeros((n, extra, d))], axis=1),
            targets=np.concatenate([targets, np.zeros((n, extra, 1))], axis=1),
            mask=np.concatenate([mask, np.zeros((n, extra))], axis=1),
            lengths=lengths,
        )
        loss_a, grad_a = backward(params, base, kind, mode="eval")
        loss_b, grad_b = backward(params, wide, kind, mode="eval")
        worst_loss = max(worst_loss, abs(loss_a - loss_b))
        worst_norm = max(worst_norm, abs(np.linalg.norm(grad_a) - np.linalg.norm(grad_b)))
    elapsed = time.monotonic() - t0
    ok = worst_loss <= 1e-12 and worst_norm <= 1e-12 and elapsed < 30.0
    _verdict("criterion 4 (padding invariance)", ok,
             f"worst loss delta {worst_loss:.2e}, worst grad-norm delta {worst_norm:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: retained-volume geometry against independent oracles


def test_criterion_5_geometry_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_slab = 0.0
    for _ in range(1000):
        r = rng.uniform(10.0, 80.0)
        h = rng.uniform(20.0, 160.0)
        tilt = np.degrees(np.arctan(rng.uniform(0.01, 0.99) * h / (2.0 * r)))
        got = retained_volume(CupGeometry(radius=r, height=h), tilt)
        want = np.pi * r * r * (h - r * np.tan(np.radians(tilt)))
        worst_slab = max(worst_slab, abs(got - want) / want)

    worst_hoof = 0.0
    for r, h, tilt in [(1.0, 2.0, 70.0), (35.0, 110.0, 80.0), (50.0, 90.0, 55.0)]:
        tan_t = np.tan(np.radians(tilt))
        a = r - h / tan_t
        x = np.linspace(a, r, 400_001)
        mid = 0.5 * (x[1:] + x[:-1])
        depth = h - (r - mid) * tan_t
        width = 2.0 * np.sqrt(np.maximum(r * r - mid * mid, 0.0))
        oracle = float(np.sum(depth * width) * (x[1] - x[0]))
        got = retained_volume(CupGeometry(radius=r, height=h), tilt)
        worst_hoof = max(worst_hoof, abs(got - oracle) / oracle)

    g = CupGeometry(radius=30.0, height=100.0)
    vols = [retained_volume(g, t) for t in np.linspace(0.0, 90.0, 361)]
    monotone = bool(np.all(np.diff(vols) <= 1e-9 * g.full_volume)) and vols[-1] == 0.0

    elapsed = time.monotonic() - t0
    ok = worst_slab < 1e-8 and worst_hoof < 1e-6 and monotone and elapsed < 10.0
    _verdict("criterion 5 (geometry oracles)", ok,
             f"slab {worst_slab:.2e}, hoof {worst_hoof:.2e}, monotone {monotone}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: desk-scale learning (shared fixture, three seeds)


@pytest.fixture(scope="module")
def desk_scale_runs():
    t0 = time.monotonic()
    records = generate_dataset(300, default_ranges(), TrajectoryConfig(noise_sigma=0.01, seed=0))
    manifest = split_dataset(records, seed=0)
    normalizer = fit_normalizer([records[i] for i in manifest.train_ids])

    def grab(ids):
        return apply_normalizer(normalizer, pad_and_mask([records[i] for i in ids], 150))

    tb, vb, xb = grab(manifest.train_ids), grab(manifest.val_ids), grab(manifest.test_ids)
    spec = reference_model()
    runs = []
    for seed in (0, 1, 2):
        config = TrainConfig(loss="euclidean", lr=1e-3, epochs=200, batch_size=32, seed=seed)
        params, history = train(spec, tb, vb, config)
        test_loss = evaluate(params, xb, "euclidean").loss
        runs.append({"seed": seed, "epoch1": history.train_loss[0],
                     "final": history.train_loss[-1], "test": test_loss, "params": params})
    return {"runs": runs, "elapsed": time.monotonic() - t0, "normalizer": normalizer}


@pytest.mark.slow
def test_criterion_6_desk_scale_learning(desk_scale_runs):
    runs, elapsed = desk_scale_runs["runs"], desk_scale_runs["elapsed"]
    passing = [r for r in runs
               if r["final"] <= 0.3 * r["epoch1"] and r["test"] <= 2.0 * r["final"]]
    detail = ", ".join(
        f"seed {r['seed']}: ratio {r['final'] / r['epoch1']:.2f} test/final {r['test'] / r['final']:.2f}"
        for r in runs)
    ok = len(passing) >= 2 and elapsed < 900.0
    _verdict("criterion 6 (desk-scale learning)", ok,
             f"{len(passing)}/3 seeds pass, {detail}, {elapsed:.0f}s")


@pytest.mark.slow
def test_invariant_training_loss_decreases(desk_scale_runs):
    # Invariant rider on the criterion-6 fixture: the last recorded training
    # loss must fall below the first for every seed.
    runs = desk_scale_runs["runs"]
    ok = all(r["final"] < r["epoch1"] for r in runs)
    detail = ", ".join(f"seed {r['seed']}: {r['epoch1']:.3f} -> {r['final']:.3f}" for r in runs)
    _verdict("invariant (training loss decreases)", ok, detail)


@pytest.mark.slow
def test_invariant_wide_cup_generalization_gap(desk_scale_runs):
    # Invariant rider on the criterion-6 fixture, the paper's second finding:
    # the model does badly on cups far from the training cups. On 75 pours
    # with every cup dimension doubled, the Euclidean loss must be at least
    # 10x the in-range test loss for at least two of the three seeds.
    t0 = time.monotonic()
    wide = generate_dataset(75, wide_cup_ranges(), TrajectoryConfig(noise_sigma=0.01, seed=0))
    batch = apply_normalizer(desk_scale_runs["normalizer"], pad_and_mask(wide))
    runs = desk_scale_runs["runs"]
    wide_losses = [evaluate(r["params"], batch, "euclidean").loss for r in runs]
    ratios = [w / r["test"] for w, r in zip(wide_losses, runs)]
    elapsed = time.monotonic() - t0
    ok = sum(ratio >= 10.0 for ratio in ratios) >= 2
    detail = ", ".join(
        f"seed {r['seed']}: wide {w:.3f} / test {r['test']:.3f} = {ratio:.1f}x"
        for r, w, ratio in zip(runs, wide_losses, ratios))
    _verdict("invariant (wide-cup generalization gap)", ok, f"{detail}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 7 and 8: command-line grid and bitwise reproducibility


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    ranges = root / "ranges.json"
    ranges.write_text(json.dumps({"trajectory": {"length": [20, 60]}}) + "\n")
    data = root / "data.jsonl"
    manifest = root / "manifest.json"
    assert main(["generate", "--n", "60", "--out", str(data), "--ranges", str(ranges),
                 "--noise", "0.01", "--seed", "4"]) == EXIT_OK
    assert main(["split", "--data", str(data), "--out", str(manifest), "--seed", "0"]) == EXIT_OK
    return {"root": root, "data": data, "manifest": manifest}


def test_criterion_7_default_grid_end_to_end(cli_dataset):
    t0 = time.monotonic()
    out = cli_dataset["root"] / "grid"
    code = main(["grid", "--data", str(cli_dataset["data"]),
                 "--manifest", str(cli_dataset["manifest"]),
                 "--epoch-scale", "0.01", "--lr", "0.001", "--out-dir", str(out)])
    elapsed = time.monotonic() - t0
    lines = (out / "grid_report.txt").read_text().splitlines()
    body = [ln.split() for ln in lines if not ln.startswith("#")]
    combos = [tuple(row[1:4]) for row in body]
    expected = [("lstm", "mse", "linear"), ("lstm", "euclidean", "relu"),
                ("lstm", "mse", "relu"), ("lstm", "euclidean", "linear"),
                ("gru", "euclidean", "relu"), ("gru", "mse", "relu"),
                ("lstm", "euclidean", "relu")]
    epochs = [int(row[6]) for row in body]
    statuses = [row[8] for row in body]
    finite = all(np.isfinite(float(row[4])) and np.isfinite(float(row[5])) for row in body)
    ok = (code == EXIT_OK and combos == expected and epochs == [5, 5, 10, 15, 5, 5, 20]
          and statuses == ["ok"] * 7 and finite)
    _verdict("criterion 7 (default grid end to end)", ok,
             f"exit {code}, {len(body)} rows, epochs {epochs}, statuses {set(statuses)}, {elapsed:.0f}s")


def test_criterion_8_bitwise_reproducible_runs(cli_dataset):
    t0 = time.monotonic()
    dirs = [cli_dataset["root"] / name for name in ("rep_a", "rep_b")]
    for directory in dirs:
        code = main(["train", "--data", str(cli_dataset["data"]),
                     "--manifest", str(cli_dataset["manifest"]),
                     "--epochs", "3", "--lr", "0.001", "--batch-size", "8",
                     "--seed", "0", "--out-dir", str(directory)])
        assert code == EXIT_OK
    elapsed = time.monotonic() - t0
    ckpt_same = (dirs[0] / "checkpoint.txt").read_bytes() == (dirs[1] / "checkpoint.txt").read_bytes()

    def history_minus_seconds(path):
        rows = []
        for line in path.read_text().splitlines():
            parts = line.split()
            if line.startswith("#"):
                rows.append(line)
            else:
                rows.append(" ".join(parts[:3]))  # drop the wall-clock column
        return rows

    hist_same = (history_minus_seconds(dirs[0] / "history.txt")
                 == history_minus_seconds(dirs[1] / "history.txt"))
    ok = ckpt_same and hist_same and elapsed < 120.0
    _verdict("criterion 8 (bitwise reproducible runs)", ok,
             f"checkpoints identical {ckpt_same}, histories identical {hist_same}, {elapsed:.0f}s")
