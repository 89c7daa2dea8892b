"""The experiment grid: default combos, epoch scaling, failure capture, the report."""

import numpy as np
import pytest

import pournet.grid as grid_mod
from pournet.data import apply_normalizer, fit_normalizer, pad_and_mask, split_dataset
from pournet.errors import DatasetFormatError, NumericalError
from pournet.grid import (
    DEFAULT_GRID,
    GridCombo,
    parse_gridspec,
    run_grid,
    scale_epochs,
    write_report,
)
from pournet.nn import reference_model
from pournet.simulate import TrajectoryConfig, default_ranges, generate_dataset
from pournet.train import TrainConfig, evaluate, train

EXPECTED_DEFAULT = [
    ("lstm", "mse", "linear", 500),
    ("lstm", "euclidean", "relu", 500),
    ("lstm", "mse", "relu", 1000),
    ("lstm", "euclidean", "linear", 1500),
    ("gru", "euclidean", "relu", 500),
    ("gru", "mse", "relu", 500),
    ("lstm", "euclidean", "relu", 2000),
]


def small_split(n=10, seed=0):
    records = generate_dataset(n, default_ranges(),
                               TrajectoryConfig(length=(6, 10), seed=seed))
    manifest = split_dataset(records, seed=seed)
    norm = fit_normalizer([records[i] for i in manifest.train_ids])
    grab = lambda ids: apply_normalizer(norm, pad_and_mask([records[i] for i in ids], 10))
    return grab(manifest.train_ids), grab(manifest.val_ids)


def test_default_grid_matches_published_combos():
    got = [(c.cell, c.loss, c.activation, c.epochs) for c in DEFAULT_GRID]
    assert got == EXPECTED_DEFAULT


def test_combo_validation():
    with pytest.raises(ValueError):
        GridCombo(cell="rnn", loss="mse", activation="relu", epochs=10)
    with pytest.raises(ValueError):
        GridCombo(cell="lstm", loss="l1", activation="relu", epochs=10)
    with pytest.raises(ValueError):
        GridCombo(cell="lstm", loss="mse", activation="softmax", epochs=10)
    with pytest.raises(ValueError):
        GridCombo(cell="lstm", loss="mse", activation="relu", epochs=0)


def test_scale_epochs():
    assert scale_epochs(2000, 0.01) == 20
    assert scale_epochs(500, 0.01) == 5
    assert scale_epochs(1500, 0.01) == 15
    assert scale_epochs(3, 0.001) == 1  # never below one epoch
    assert scale_epochs(100, 1.0) == 100
    with pytest.raises(ValueError):
        scale_epochs(100, 0.0)


def test_run_grid_order_and_report(tmp_path):
    tb, vb = small_split()
    combos = [
        GridCombo("lstm", "mse", "linear", 2),
        GridCombo("gru", "euclidean", "relu", 3),
    ]
    base = TrainConfig(lr=1e-3, batch_size=4, seed=0)
    report = run_grid(tb, vb, combos, base)
    assert len(report.rows) == 2
    assert [r.combo for r in report.rows] == combos
    assert report.rows[0].epochs_run == 2
    assert report.rows[1].epochs_run == 3
    for row in report.rows:
        assert row.error is None
        assert np.isfinite(row.train_loss) and np.isfinite(row.val_loss)
    assert not report.all_failed

    path = tmp_path / "report.txt"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3
    assert lines[1].split()[1:4] == ["lstm", "mse", "linear"]
    assert lines[2].split()[-1] == "ok"


def test_run_grid_epoch_scale():
    tb, vb = small_split()
    combos = [GridCombo("lstm", "mse", "linear", 200)]
    base = TrainConfig(lr=1e-3, batch_size=4, seed=0)
    report = run_grid(tb, vb, combos, base, epoch_scale=0.01)
    assert report.rows[0].epochs_run == 2


@pytest.mark.parametrize("patience", [None, 1])
def test_run_grid_val_loss_scores_the_returned_params(patience):
    # A row's validation loss comes from the run's history. It must equal the
    # loss of the params train() returns, which patience rolls back to the
    # best epoch.
    tb, vb = small_split()
    config = TrainConfig(loss="mse", lr=0.05, epochs=8, batch_size=4, seed=0, patience=patience)
    row = run_grid(tb, vb, [GridCombo("lstm", "mse", "linear", 8)], config).rows[0]
    params, history = train(reference_model(cell="lstm", output_activation="linear"), tb, vb, config)
    if patience is not None:
        assert history.best_epoch < history.epochs_run  # an earlier epoch was restored
    assert row.val_loss == evaluate(params, vb, "mse").loss


def test_run_grid_records_failures(monkeypatch, tmp_path):
    tb, vb = small_split()
    combos = [GridCombo("lstm", "mse", "linear", 1), GridCombo("gru", "mse", "relu", 1)]
    real_train = grid_mod.train

    def explode_on_gru(spec, train_batch, val_batch, config, **kwargs):
        if spec.layers[0].kind == "gru":
            raise NumericalError("training diverged at epoch 1")
        return real_train(spec, train_batch, val_batch, config, **kwargs)

    monkeypatch.setattr(grid_mod, "train", explode_on_gru)
    report = run_grid(tb, vb, combos, TrainConfig(lr=1e-3, batch_size=4, seed=0))
    assert report.rows[0].error is None
    assert "diverged" in report.rows[1].error
    assert not report.all_failed

    path = tmp_path / "report.txt"
    write_report(report, path)
    assert "failed" in path.read_text().splitlines()[2]

    monkeypatch.setattr(grid_mod, "train", lambda *a, **k: (_ for _ in ()).throw(
        NumericalError("boom")))
    report = run_grid(tb, vb, combos, TrainConfig(lr=1e-3, batch_size=4, seed=0))
    assert report.all_failed


def test_parse_gridspec(tmp_path):
    path = tmp_path / "grid.jsonl"
    path.write_text(
        '{"cell": "lstm", "loss": "mse", "activation": "relu", "epochs": 7}\n'
        '{"cell": "gru", "loss": "euclidean", "activation": "linear", "epochs": 9}\n'
    )
    combos = parse_gridspec(path)
    assert combos == [GridCombo("lstm", "mse", "relu", 7),
                      GridCombo("gru", "euclidean", "linear", 9)]

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"cell": "lstm", "loss": "mse", "activation": "relu", "epochs": 7}\nnot json\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        parse_gridspec(bad)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(DatasetFormatError):
        parse_gridspec(empty)
