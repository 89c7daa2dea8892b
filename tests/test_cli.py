"""End-to-end command line checks: exit codes, artifacts, and reproducibility."""

import json

import numpy as np
import pytest

from pournet.checkpoint import load_checkpoint
from pournet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _build_parser, main
from pournet.data import apply_normalizer, load_manifest, pad_and_mask, parse_dataset
from pournet.grad import FD_STEP, FD_TOL
from pournet.nn import model_forward
from pournet.train import evaluate


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: 12 short sequences, split, and a 2-epoch checkpoint."""
    root = tmp_path_factory.mktemp("cli_ws")
    ranges = root / "ranges.json"
    ranges.write_text(json.dumps({"trajectory": {"length": [8, 14]}}) + "\n")
    data = root / "data.jsonl"
    manifest = root / "manifest.json"
    train_dir = root / "run"
    assert main(["generate", "--n", "12", "--out", str(data),
                 "--ranges", str(ranges), "--seed", "3"]) == EXIT_OK
    assert main(["split", "--data", str(data), "--out", str(manifest),
                 "--seed", "0"]) == EXIT_OK
    assert main(["train", "--data", str(data), "--manifest", str(manifest),
                 "--epochs", "2", "--lr", "0.001", "--batch-size", "4",
                 "--seed", "1", "--out-dir", str(train_dir)]) == EXIT_OK
    return {"root": root, "ranges": ranges, "data": data, "manifest": manifest,
            "train_dir": train_dir}


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["generate", "--bogus", "1"]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(tmp_path):
    assert main(["generate", "--n", "0", "--out", str(tmp_path / "d.jsonl")]) == EXIT_USAGE
    assert main(["generate", "--n", "five", "--out", str(tmp_path / "d.jsonl")]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error(ws):
    assert main(["train", "--data", str(ws["data"])]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["split", "--data", str(tmp_path / "nope.jsonl")]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_nonfinite_checkpoint_is_data_error(tmp_path, ws, capsys):
    lines = (ws["train_dir"] / "checkpoint.txt").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("param 0 lstm W_i")) + 1
    lines[row] = " ".join(["nan"] + lines[row].split()[1:])
    bad = tmp_path / "nan.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--checkpoint", str(bad), "--data", str(ws["data"]),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DATA
    assert "non-finite value in layer 0 W_i" in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


def _checkpoint_with_unknown_layer_key(ws, tmp_path):
    lines = (ws["train_dir"] / "checkpoint.txt").read_text().splitlines()
    spec = json.loads(lines[1][len("spec "):])
    spec["layers"][0]["bogus"] = 1
    lines[1] = "spec " + json.dumps(spec)
    path = tmp_path / "ckpt.txt"
    path.write_text("\n".join(lines) + "\n")
    argv = ["evaluate", "--checkpoint", str(path), "--data", str(ws["data"]), "--out-dir", str(tmp_path)]
    return argv, [str(path), "line 2", "bogus"]


def _record_with_d_cup(value):
    def make(ws, tmp_path):
        lines = ws["data"].read_text().splitlines()
        doc = json.loads(lines[1])
        doc["d_cup"] = value
        lines[1] = json.dumps(doc)
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return ["split", "--data", str(path), "--out", str(tmp_path / "m.json")], [str(path), "line 2", "d_cup"]
    return make


def _ranges_file(doc, key):
    def make(ws, tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text(json.dumps(doc))
        return ["generate", "--n", "2", "--ranges", str(path), "--out", str(tmp_path / "d.jsonl")], [str(path), key]
    return make


@pytest.mark.parametrize("make", [
    _checkpoint_with_unknown_layer_key,
    _record_with_d_cup("abc"),
    _record_with_d_cup(None),
    _ranges_file({"trajectory": {"length": 5}}, "length"),
    _ranges_file({"d_cm": [60.0, 110.0], "bogus": [1, 2]}, "bogus"),
    _ranges_file({"trajectory": {"length": [8, 14], "noise_sigma": 0.1}}, "noise_sigma"),
    _ranges_file({"trajectory": [1, 2]}, "trajectory"),
], ids=["checkpoint_layer_key", "record_d_cup_text", "record_d_cup_null", "trajectory_length_scalar",
        "ranges_unknown_key", "trajectory_noise_sigma", "trajectory_not_object"])
def test_malformed_input_is_data_error_naming_file_and_field(tmp_path, ws, capsys, make):
    argv, named = make(ws, tmp_path)
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error")
    for text in named:
        assert text in err


def test_unknown_config_key_is_usage_error(tmp_path, ws):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus=3\n")
    code = main(["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# builtin defaults


def test_builtin_defaults_match_documented_run_settings():
    _, registries = _build_parser()
    train_reg = registries["train"]
    assert train_reg["loss"][1] == "euclidean"
    assert train_reg["activation"][1] == "relu"
    assert train_reg["lr"][1] == pytest.approx(1e-4)
    assert train_reg["epochs"][1] == 2000
    assert train_reg["batch_size"][1] == 32
    assert train_reg["cell"][1] == "lstm"
    assert registries["split"]["train_frac"][1] == pytest.approx(0.8)
    assert registries["split"]["val_frac"][1] == pytest.approx(0.7)
    assert registries["grid"]["epoch_scale"][1] == pytest.approx(1.0)
    assert registries["gradcheck"]["h"][1] == pytest.approx(FD_STEP)
    assert registries["gradcheck"]["tol"][1] == pytest.approx(FD_TOL)


# ---------------------------------------------------------------------------
# generate / split


def test_generate_deterministic_bytes_and_sidecar(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    for path in (a, b):
        assert main(["generate", "--n", "5", "--out", str(path), "--seed", "11"]) == EXIT_OK
    assert main(["generate", "--n", "5", "--out", str(c), "--seed", "12"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    sidecar = json.loads((tmp_path / "a.jsonl.gen.json").read_text())
    assert sidecar["n"] == 5 and sidecar["seed"] == 11
    assert "d_cup" in sidecar["ranges"]
    assert sidecar["trajectory"]["noise_sigma"] == 0.0


def test_ranges_file_overrides_trajectory(ws):
    records = parse_dataset(ws["data"])
    assert len(records) == 12
    assert all(8 <= r.length <= 14 for r in records)


def test_split_sizes_and_manifest(ws):
    manifest, normalizer = load_manifest(ws["manifest"])
    assert manifest.sizes == (9, 2, 1)
    assert normalizer is not None
    ids = sorted(manifest.train_ids + manifest.val_ids + manifest.test_ids)
    assert ids == list(range(12))


# ---------------------------------------------------------------------------
# train artifacts and config layering


def test_train_writes_artifacts(ws):
    for name in ("checkpoint.txt", "history.txt", "run_manifest.txt"):
        assert (ws["train_dir"] / name).exists()
    history = (ws["train_dir"] / "history.txt").read_text().splitlines()
    assert history[0].startswith("# epoch train_loss val_loss seconds")
    assert len([ln for ln in history if not ln.startswith("#")]) == 2


def test_run_manifest_records_choices_verbatim(tmp_path, ws):
    out = tmp_path / "run"
    code = main(["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--epochs", "1", "--loss", "mse", "--activation", "linear",
                 "--lr", "0.001", "--batch-size", "4", "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "run_manifest.txt").read_text().splitlines()
    doc = dict(line.split("=", 1) for line in lines)
    assert doc["loss"] == "mse"
    assert doc["activation"] == "linear"
    assert doc["epochs"] == "1"
    assert doc["cell"] == "lstm"
    assert doc["raw"] == "false"
    assert doc["patience"] == ""


def test_config_file_layering(tmp_path, ws):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment line\nepochs=1\nlr=0.5\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--config", str(cfg), "--lr", "0.001", "--batch-size", "4",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "run_manifest.txt").read_text().splitlines()
    doc = dict(line.split("=", 1) for line in lines)
    assert doc["lr"] == "0.001"  # command line beats the config file
    assert doc["epochs"] == "1"  # config file beats the builtin 2000
    assert doc["loss"] == "euclidean"  # builtin fills the rest


def test_run_manifest_reexecution_reproduces_checkpoint(tmp_path, ws):
    out = tmp_path / "replay"
    code = main(["train", "--config", str(ws["train_dir"] / "run_manifest.txt"),
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    original = (ws["train_dir"] / "checkpoint.txt").read_bytes()
    assert (out / "checkpoint.txt").read_bytes() == original


# ---------------------------------------------------------------------------
# evaluate / predict


def test_evaluate_split_rows_and_value(tmp_path, ws):
    metrics = tmp_path / "metrics.txt"
    code = main(["evaluate", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
                 "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--split", "test", "--out", str(metrics)])
    assert code == EXIT_OK
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("loss euclidean ")
    assert lines[1] == "# id length value"
    rows = [ln.split() for ln in lines[2:]]
    assert len(rows) == 1  # the test split holds one of twelve records

    # independent recomputation through the library route
    ckpt = load_checkpoint(ws["train_dir"] / "checkpoint.txt")
    manifest, _ = load_manifest(ws["manifest"])
    records = parse_dataset(ws["data"])
    batch = pad_and_mask([records[i] for i in manifest.test_ids], None)
    batch = apply_normalizer(ckpt.normalizer, batch)
    expected = evaluate(ckpt.params, batch, "euclidean").loss
    assert float(lines[0].split()[2]) == pytest.approx(expected, rel=0, abs=1e-15)

    again = tmp_path / "metrics2.txt"
    main(["evaluate", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
          "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
          "--split", "test", "--out", str(again)])
    assert again.read_bytes() == metrics.read_bytes()


def test_evaluate_whole_dataset_row_count(tmp_path, ws):
    metrics = tmp_path / "metrics.txt"
    code = main(["evaluate", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
                 "--data", str(ws["data"]), "--out", str(metrics)])
    assert code == EXIT_OK
    lines = metrics.read_text().splitlines()
    assert len(lines) == 2 + 12


def test_evaluate_split_without_manifest_is_usage_error(ws):
    code = main(["evaluate", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
                 "--data", str(ws["data"]), "--split", "test"])
    assert code == EXIT_USAGE


def test_predict_matches_forward_pass(tmp_path, ws):
    out = tmp_path / "preds"
    code = main(["predict", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
                 "--data", str(ws["data"]), "--ids", "0,3", "--out-dir", str(out)])
    assert code == EXIT_OK
    records = parse_dataset(ws["data"])
    ckpt = load_checkpoint(ws["train_dir"] / "checkpoint.txt")
    batch = pad_and_mask([records[0], records[3]], None)
    batch = apply_normalizer(ckpt.normalizer, batch)
    preds = model_forward(ckpt.params, batch, mode="eval")
    preds = ckpt.normalizer.invert_targets(preds)
    for row, record_id in enumerate((0, 3)):
        record = records[record_id]
        lines = (out / f"pred_{record_id}.txt").read_text().splitlines()
        assert lines[0] == "# actual predicted"
        table = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
        assert table.shape == (record.length, 2)
        np.testing.assert_allclose(table[:, 0], record.weight, rtol=0, atol=1e-8)
        np.testing.assert_allclose(table[:, 1], preds[row, : record.length, 0],
                                   rtol=0, atol=1e-8)


def test_predict_unknown_id_is_data_error(ws):
    code = main(["predict", "--checkpoint", str(ws["train_dir"] / "checkpoint.txt"),
                 "--data", str(ws["data"]), "--ids", "99"])
    assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_reports_deterministically(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["gradcheck", "--seed", "5", "--out", str(r1)]) == EXIT_OK
    out = capsys.readouterr().out
    pass_lines = [ln for ln in out.splitlines() if ln.endswith("PASS")]
    assert len(pass_lines) == 4
    assert r1.read_text().splitlines()[0] == "# h=1e-05 tol=1e-05 seed=5"
    assert main(["gradcheck", "--seed", "5", "--out", str(r2)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_gradcheck_impossible_tolerance_is_numeric_error(capsys):
    assert main(["gradcheck", "--tol", "1e-30"]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid


def test_grid_with_gridspec_file(tmp_path, ws):
    spec = tmp_path / "combos.jsonl"
    spec.write_text(
        json.dumps({"cell": "lstm", "loss": "mse", "activation": "linear", "epochs": 2}) + "\n"
        + json.dumps({"cell": "gru", "loss": "euclidean", "activation": "relu", "epochs": 1}) + "\n"
    )
    out = tmp_path / "grid"
    code = main(["grid", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--gridspec", str(spec), "--batch-size", "4", "--lr", "0.001",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    report = (out / "grid_report.txt").read_text().splitlines()
    body = [ln for ln in report if not ln.startswith("#")]
    assert len(body) == 2
    assert body[0].split()[1:4] == ["lstm", "mse", "linear"]
    assert body[1].split()[1:4] == ["gru", "euclidean", "relu"]
    assert all(ln.split()[-1] == "ok" for ln in body)
