"""Training loop behavior: determinism, lr=0, patience, history export, evaluate."""

import types
from dataclasses import replace

import numpy as np
import pytest

from pournet.data import apply_normalizer, fit_normalizer, pad_and_mask, split_dataset
from pournet.errors import NumericalError
from pournet.nn import LayerSpec, ModelSpec, build_model, model_forward
from pournet.simulate import TrajectoryConfig, default_ranges, generate_dataset
from pournet.train import RunHistory, TrainConfig, evaluate, export_history, train

TINY_SPEC = ModelSpec(input_dim=9, layers=[
    LayerSpec("lstm", units=5),
    LayerSpec("dense", units=1, activation="relu"),
])


def tiny_batches(n=12, seed=0):
    records = generate_dataset(n, default_ranges(),
                               TrajectoryConfig(length=(8, 14), seed=seed))
    manifest = split_dataset(records, seed=seed)
    norm = fit_normalizer([records[i] for i in manifest.train_ids])
    grab = lambda ids: apply_normalizer(norm, pad_and_mask([records[i] for i in ids], 14))
    return grab(manifest.train_ids), grab(manifest.val_ids), grab(manifest.test_ids)


def test_config_validation():
    TrainConfig()
    with pytest.raises(ValueError, match=r"^loss must be one of .* \(got 'huber'\)$"):
        TrainConfig(loss="huber")
    with pytest.raises(ValueError, match=r"^epochs must be >= 1 \(got 0\)$"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match=r"^batch_size must be >= 1 \(got 0\)$"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match=r"^lr must be >= 0 \(got -1.0\)$"):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError, match=r"^lr must be >= 0 \(got nan\)$"):
        TrainConfig(lr=float("nan"))
    with pytest.raises(ValueError, match=r"^patience must be >= 1 when set \(got 0\)$"):
        TrainConfig(patience=0)
    with pytest.raises(ValueError, match=r"^clip_norm must be > 0 when set \(got 0.0\)$"):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError, match="^epochs must be >= 1"):
        replace(TrainConfig(), epochs=0)  # replace builds, so it checks too


def test_numerical_error_names_epoch_and_batch():
    tb, vb, _ = tiny_batches()  # 9 training sequences: batches of 4, 4 and 1
    spec = ModelSpec(input_dim=9, layers=[LayerSpec("lstm", units=3), LayerSpec("dense", units=1)])
    with pytest.raises(NumericalError, match=r"^epoch 1, batch 3: non-finite parameters after Adam step 3$") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        train(spec, tb, vb, TrainConfig(loss="mse", lr=1e308, epochs=3, batch_size=4, seed=0))
    assert isinstance(info.value.__cause__, NumericalError)
    tb.features[:, 0, 0] = np.nan  # every minibatch's loss is non-finite
    with pytest.raises(NumericalError, match=r"^epoch 1, batch 1: non-finite loss; first non-finite values in layer 0 \(lstm\)$"):
        train(spec, tb, vb, TrainConfig(loss="mse", epochs=1, batch_size=4, seed=0))


def test_nan_validation_loss_names_its_epoch():
    tb, vb, _ = tiny_batches()
    vb.features[0, 0, 0] = np.nan  # training stays finite; validation does not
    with pytest.raises(NumericalError, match=r"^epoch 1: non-finite validation loss$") as info:
        train(TINY_SPEC, tb, vb, TrainConfig(loss="mse", epochs=3, batch_size=4, seed=0))
    assert str(info.value.__cause__) == "non-finite mse loss (nan)"


@pytest.mark.parametrize("patience", [None, 2])
def test_each_epoch_calls_module_evaluate_once(monkeypatch, patience):
    # bench/run.py splits a train() call into epochs at its calls of the
    # module-level name pournet.train.evaluate.
    import pournet.train as module

    calls = []

    def counted(*args, **kwargs):
        calls.append(len(calls))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(module, "evaluate", counted)
    tb, vb, _ = tiny_batches()
    lr = 0.0 if patience else 1e-3  # lr 0: stale from epoch 2, so patience stops at epoch 3
    _, history = train(TINY_SPEC, tb, vb, TrainConfig(loss="mse", lr=lr, epochs=5, batch_size=4,
                                                      seed=0, patience=patience))
    assert history.epochs_run == (3 if patience else 5)
    assert len(calls) == history.epochs_run


def test_lr_zero_keeps_params_bitwise():
    tb, vb, _ = tiny_batches()
    config = TrainConfig(loss="mse", lr=0.0, epochs=3, batch_size=4, seed=1)
    params, history = train(TINY_SPEC, tb, vb, config)
    fresh = build_model(TINY_SPEC, init_seed=1)
    assert np.array_equal(params.flatten(), fresh.flatten())
    assert history.epochs_run == 3
    # constant params -> constant eval losses
    assert history.val_loss[0] == history.val_loss[1] == history.val_loss[2]


def test_training_reduces_loss_and_is_deterministic():
    tb, vb, _ = tiny_batches()
    config = TrainConfig(loss="euclidean", lr=5e-3, epochs=12, batch_size=4, seed=3)
    params_a, hist_a = train(TINY_SPEC, tb, vb, config)
    params_b, hist_b = train(TINY_SPEC, tb, vb, config)
    assert np.array_equal(params_a.flatten(), params_b.flatten())
    assert hist_a.train_loss == hist_b.train_loss
    assert hist_a.val_loss == hist_b.val_loss
    assert hist_a.train_loss[-1] < hist_a.train_loss[0]


def test_seed_changes_trajectory():
    tb, vb, _ = tiny_batches()
    cfg_a = TrainConfig(loss="mse", lr=5e-3, epochs=2, batch_size=4, seed=0)
    cfg_b = TrainConfig(loss="mse", lr=5e-3, epochs=2, batch_size=4, seed=1)
    _, hist_a = train(TINY_SPEC, tb, vb, cfg_a)
    _, hist_b = train(TINY_SPEC, tb, vb, cfg_b)
    assert hist_a.train_loss != hist_b.train_loss


def test_patience_stops_after_exactly_n_stale_epochs():
    tb, vb, _ = tiny_batches()
    # lr=0 makes validation loss identical every epoch: epoch 1 sets the best,
    # epochs 2-4 are the three stale strikes.
    config = TrainConfig(loss="mse", lr=0.0, epochs=50, batch_size=4, seed=0, patience=3)
    _, history = train(TINY_SPEC, tb, vb, config)
    assert history.epochs_run == 4
    assert history.best_epoch == 1


def test_patience_restores_best_params():
    tb, vb, _ = tiny_batches()
    config = TrainConfig(loss="euclidean", lr=5e-3, epochs=30, batch_size=4, seed=2, patience=2)
    params, history = train(TINY_SPEC, tb, vb, config)
    best = history.best_epoch
    assert history.val_loss[best - 1] == min(history.val_loss)
    # returned params evaluate to the best recorded validation loss
    result = evaluate(params, vb, "euclidean")
    assert result.loss == pytest.approx(history.val_loss[best - 1], rel=1e-12)


def test_batch_size_clamped_to_dataset():
    # 10 sims split to 8 train sequences, well under the requested batch of 32
    tb, vb, _ = tiny_batches(n=10)
    config = TrainConfig(loss="mse", lr=1e-3, epochs=1, batch_size=32, seed=0)
    _, history = train(TINY_SPEC, tb, vb, config)
    assert history.epochs_run == 1


def test_evaluate_per_sequence_and_duplication():
    tb, vb, _ = tiny_batches()
    params = build_model(TINY_SPEC, init_seed=0)
    result = evaluate(params, tb, "euclidean")
    assert len(result.per_sequence) == tb.num_sequences
    assert result.loss == pytest.approx(float(np.mean(result.per_sequence)), rel=1e-12)
    doubled = tb.take(list(range(tb.num_sequences)) * 2)
    assert evaluate(params, doubled, "euclidean").loss == pytest.approx(result.loss, rel=1e-12)
    # repeated calls agree exactly
    again = evaluate(params, tb, "euclidean")
    assert again.loss == result.loss


def test_evaluate_perfect_predictor_is_zero():
    tb, _, _ = tiny_batches()
    params = build_model(TINY_SPEC, init_seed=0)
    preds = model_forward(params, tb, mode="eval")
    from pournet.data import PaddedBatch

    fitted = PaddedBatch(features=tb.features, targets=preds * tb.mask[:, :, None],
                         mask=tb.mask, lengths=tb.lengths)
    assert evaluate(params, fitted, "mse").loss == 0.0
    assert evaluate(params, fitted, "euclidean").loss == 0.0


def test_gradient_clip_changes_path_but_stays_finite():
    tb, vb, _ = tiny_batches()
    base = TrainConfig(loss="mse", lr=5e-3, epochs=3, batch_size=4, seed=0)
    clipped = TrainConfig(loss="mse", lr=5e-3, epochs=3, batch_size=4, seed=0, clip_norm=1e-3)
    _, hist_a = train(TINY_SPEC, tb, vb, base)
    _, hist_b = train(TINY_SPEC, tb, vb, clipped)
    assert np.isfinite(hist_b.train_loss).all()
    assert hist_a.train_loss != hist_b.train_loss


def test_export_history_format(tmp_path):
    history = RunHistory(train_loss=[2.0, 1.0], val_loss=[2.5, 1.5],
                         seconds=[0.01, 0.01], best_epoch=2)
    path = tmp_path / "history.txt"
    export_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# epoch train_loss val_loss seconds")
    assert lines[1] == "# best_epoch 2"
    fields = lines[2].split()
    assert fields[0] == "1" and float(fields[1]) == 2.0 and float(fields[2]) == 2.5
    assert len(lines) == 4


def test_train_submodule_is_importable_as_a_module():
    # The package re-exports nothing, so no function shadows the submodule.
    import pournet.train as module

    assert isinstance(module, types.ModuleType)
    assert module.train is train
