"""End-to-end command line checks: exit codes, artifacts, and reproducibility."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pournet.checkpoint import load_checkpoint
from pournet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _build_parser, main
from pournet.data import apply_normalizer, load_manifest, pad_and_mask, parse_dataset, serialize_dataset
from pournet.grad import FD_STEP, FD_TOL
from pournet.nn import model_forward
from pournet.simulate import TrajectoryConfig, generate_dataset, wide_cup_ranges
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


def test_bad_flag_value_is_usage_error(tmp_path, capsys):
    assert main(["generate", "--n", "0", "--out", str(tmp_path / "d.jsonl")]) == EXIT_USAGE
    assert main(["generate", "--n", "five", "--out", str(tmp_path / "d.jsonl")]) == EXIT_USAGE
    for noise in ("nan", "inf", "-0.1"):
        assert main(["generate", "--noise", noise, "--out", str(tmp_path / "d.jsonl")]) == EXIT_USAGE
    assert not (tmp_path / "d.jsonl").exists()
    for flag in ("--h", "--tol"):
        assert main(["gradcheck", flag, "nan"]) == EXIT_USAGE
    assert main(["grid", "--data", "d", "--manifest", "m", "--epoch-scale", "inf"]) == EXIT_USAGE
    assert main(["train", "--data", "d", "--manifest", "m", "--max-len=-3"]) == EXIT_USAGE
    assert main(["grid", "--data", "d", "--manifest", "m", "--max-len=0"]) == EXIT_USAGE
    # A negative seed is refused while the flags are parsed, on every
    # subcommand and also from a config file, and the message names the flag.
    config = tmp_path / "seed.cfg"
    config.write_text("seed=-1\n")
    for command in ("generate", "split", "train", "grid", "evaluate", "predict", "gradcheck"):
        for flags in (["--seed=-1"], ["--config", str(config)]):
            capsys.readouterr()
            assert main([command, *flags, "--out-dir", str(tmp_path / command)]) == EXIT_USAGE
            assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not any(path.name != "seed.cfg" for path in tmp_path.iterdir())


def test_missing_required_flag_is_usage_error(ws):
    assert main(["train", "--data", str(ws["data"])]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["split", "--data", str(tmp_path / "nope.jsonl")]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def _checkpoint_with_value(ws, tmp_path, block, value):
    """The trained checkpoint with the first value of parameter block `block`
    (its header line, up to the shape) replaced by the text `value`."""
    lines = (ws["train_dir"] / "checkpoint.txt").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(f"param {block} ")) + 1
    lines[row] = " ".join([value] + lines[row].split()[1:])
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_nonfinite_checkpoint_is_data_error(tmp_path, ws, capsys):
    bad = _checkpoint_with_value(ws, tmp_path, "0 lstm W_i", "nan")
    code = main(["evaluate", "--checkpoint", str(bad), "--data", str(ws["data"]),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DATA
    assert "non-finite value in layer 0 W_i" in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


def test_huge_head_weight_is_numeric_error_in_evaluate(tmp_path, ws, capsys):
    # A finite checkpoint whose loss overflows to inf.
    huge = _checkpoint_with_value(ws, tmp_path, "7 dense W", "1e300")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code = main(["evaluate", "--checkpoint", str(huge), "--data", str(ws["data"]),
                     "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical failure: non-finite euclidean loss (inf)\n"
    assert not (tmp_path / "metrics.txt").exists()


def test_overflowing_prediction_is_numeric_error_in_predict(tmp_path, ws, capsys):
    # A finite checkpoint whose predictions overflow to inf once the
    # normalizer scales them back to pounds-force.
    overflow = _checkpoint_with_value(ws, tmp_path, "7 dense b", "1.7e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code = main(["predict", "--checkpoint", str(overflow), "--data", str(ws["data"]),
                     "--ids", "0,1", "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical failure: non-finite predictions for id 0\n"
    assert not list(tmp_path.glob("pred_*.txt"))


def _checkpoint_with(index, edit, named):
    """Evaluate the trained checkpoint with the JSON block of line index + 1
    edited in place."""
    def make(ws, tmp_path):
        lines = (ws["train_dir"] / "checkpoint.txt").read_text().splitlines()
        prefix, _, text = lines[index].partition(" ")
        doc = json.loads(text)
        edit(doc)
        lines[index] = f"{prefix} {json.dumps(doc)}"
        path = tmp_path / "ckpt.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--checkpoint", str(path), "--data", str(ws["data"]), "--out-dir", str(tmp_path)]
        return argv, [str(path), f"line {index + 1}", named]
    return make


def _record_with(key, value, named=None, element=None):
    """Split a dataset whose second record has `key` (or its element) set to value."""
    def make(ws, tmp_path):
        lines = ws["data"].read_text().splitlines()
        doc = json.loads(lines[1])
        if element is None:
            doc[key] = value
        else:
            doc[key][element] = value
        lines[1] = json.dumps(doc)
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["split", "--data", str(path), "--out", str(tmp_path / "m.json")]
        return argv, [str(path), "line 2", named or key]
    return make


def _manifest_with(edit, named):
    """Train on the shared split with its manifest document edited."""
    def make(ws, tmp_path):
        doc = json.loads(ws["manifest"].read_text())
        edit(doc)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        argv = ["train", "--data", str(ws["data"]), "--manifest", str(path), "--epochs", "1",
                "--batch-size", "4", "--out-dir", str(tmp_path / "run")]
        return argv, [str(path), named]
    return make


def _spec_file(input_dim, units, named):
    """Train with a spec file whose input_dim and first layer's units are
    written verbatim as the given JSON text."""
    def make(ws, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"input_dim": {input_dim}, "layers": [{{"kind": "lstm", "units": {units}}}, '
                        '{"kind": "dense", "units": 1}]}')
        argv = ["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]), "--spec", str(path),
                "--epochs", "1", "--batch-size", "4", "--out-dir", str(tmp_path / "run")]
        return argv, [str(path), named]
    return make


def _ranges_file(doc, key):
    def make(ws, tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text(json.dumps(doc))
        return ["generate", "--n", "2", "--ranges", str(path), "--out", str(tmp_path / "d.jsonl")], [str(path), key]
    return make


def _gridspec_with_epochs(epochs):
    """Run the grid on a one-combo gridspec whose epochs is the given JSON value."""
    def make(ws, tmp_path):
        path = tmp_path / "combos.jsonl"
        path.write_text(json.dumps({"cell": "lstm", "loss": "mse", "activation": "linear", "epochs": epochs}))
        argv = ["grid", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]), "--gridspec", str(path),
                "--batch-size", "4", "--out-dir", str(tmp_path / "grid")]
        return argv, [str(path), "line 1", f"epochs must be an integer (got {epochs!r})"]
    return make


@pytest.mark.parametrize("make", [
    _checkpoint_with(1, lambda spec: spec["layers"][0].update(bogus=1), "bogus"),
    _record_with("d_cup", "abc"),
    _record_with("d_cup", None),
    _record_with("d_cup", True),
    _record_with("d_cup", 10**400, "line 2: d_cup must be finite"),
    _ranges_file({"trajectory": {"length": 5}}, "length"),
    _ranges_file({"trajectory": {"length": [1, "a"]}}, "length"),
    _ranges_file({"trajectory": {"length": [8.5, 14.2]}}, "length bounds must be integers"),
    _ranges_file({"d_cm": ["a", 2]}, "d_cm"),
    _ranges_file({"d_cm": [60.0, 110.0], "bogus": [1, 2]}, "bogus"),
    _ranges_file({"trajectory": {"length": [8, 14], "noise_sigma": 0.1}}, "noise_sigma"),
    _ranges_file({"trajectory": [1, 2]}, "trajectory"),
    _record_with("theta", "a", element=0),
    _record_with("weight", 10**400, element=0),
    _manifest_with(lambda doc: doc.update(train_ids=[0.5] + doc["train_ids"][1:]), "train_ids"),
    _manifest_with(lambda doc: doc.update(train_ids="012"), "train_ids"),
    _manifest_with(lambda doc: doc["train_ids"].append(doc["train_ids"][0]), "twice in train_ids"),
    _manifest_with(lambda doc: doc["train_ids"].append(doc["val_ids"][0]), "in both train_ids and val_ids"),
    _manifest_with(lambda doc: doc.update(train_ids=[True] + doc["train_ids"][1:]), "train_ids"),
    _manifest_with(lambda doc: doc["normalizer"].update(feature_offset=[float("nan")] * 9),
                   "normalizer statistics must be finite"),
    _checkpoint_with(2, lambda norm: norm.update(target_offset=float("inf")),
                     "normalizer statistics must be finite"),
    _checkpoint_with(2, lambda norm: norm.update(feature_scale=[10**400] + norm["feature_scale"][1:]),
                     "normalizer statistics must be finite"),
    _checkpoint_with(2, lambda norm: norm.update(feature_scale=[1e-320] + norm["feature_scale"][1:]),
                     "normalizer maps"),
    _spec_file("9", "16.5", "layer 0: units must be an integer"),
    _spec_file("9", "1e400", "layer 0: units must be an integer"),
    _spec_file("9.5", "16", "input_dim must be an integer"),
    _gridspec_with_epochs(2.7),
    _gridspec_with_epochs(True),
    _gridspec_with_epochs("3"),
    _ranges_file({"trajectory": {"jitter_deg": 10**400}}, "jitter_deg"),
    _ranges_file({"trajectory": {"ramp_frac": 10**400}}, "ramp_frac"),
    _ranges_file({"trajectory": {"jitter_deg": True}}, "jitter_deg"),
    _ranges_file({"trajectory": {"ramp_frac": "0.2"}}, "ramp_frac"),
    _record_with("theta", True, element=3),
    _record_with("weight", False, element=0),
    _record_with("weight", "0.5", element=0),
    _manifest_with(lambda doc: doc["normalizer"]["feature_offset"].__setitem__(0, True), "feature_offset"),
    _manifest_with(lambda doc: doc["normalizer"].update(target_scale=True), "target_scale"),
    _manifest_with(lambda doc: doc["normalizer"]["feature_scale"].__setitem__(2, "1.5"), "feature_scale"),
    _checkpoint_with(2, lambda norm: norm["feature_scale"].__setitem__(0, True), "feature_scale"),
    _checkpoint_with(2, lambda norm: norm.update(target_offset=False), "target_offset"),
    _ranges_file({"d_cm": [1, 10**400]}, "d_cm range"),
    _ranges_file({"trajectory": {"length": [80, 10**30]}}, "length range"),
    _ranges_file({"trajectory": {"jitter_deg": 1e308}}, "jitter_deg"),
], ids=["checkpoint_layer_key", "record_d_cup_text", "record_d_cup_null", "record_d_cup_bool",
        "record_d_cup_huge_int",
        "trajectory_length_scalar", "trajectory_length_text", "trajectory_length_fraction", "ranges_d_cm_text",
        "ranges_unknown_key", "trajectory_noise_sigma", "trajectory_not_object",
        "record_theta_text", "record_weight_huge_int",
        "manifest_float_id", "manifest_id_string", "manifest_duplicate_train_id",
        "manifest_val_id_in_train", "manifest_bool_id", "manifest_nan_feature_offset",
        "checkpoint_infinite_target_offset", "checkpoint_huge_int_feature_scale",
        "checkpoint_tiny_feature_scale", "spec_units_fraction", "spec_units_overflow",
        "spec_input_dim_fraction", "gridspec_epochs_fraction", "gridspec_epochs_bool",
        "gridspec_epochs_string", "trajectory_jitter_huge_int", "trajectory_ramp_huge_int",
        "trajectory_jitter_bool", "trajectory_ramp_text", "record_theta_bool", "record_weight_bool",
        "record_weight_numeric_text", "manifest_bool_feature_offset", "manifest_bool_target_scale",
        "manifest_text_feature_scale", "checkpoint_bool_feature_scale", "checkpoint_bool_target_offset",
        "ranges_d_cm_huge_int", "trajectory_length_huge_int", "trajectory_jitter_huge_float"])
def test_malformed_input_is_data_error_naming_file_and_field(tmp_path, ws, capsys, make):
    argv, named = make(ws, tmp_path)
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error")
    for text in named:
        assert text in err


def _json_paths(doc, path=()):
    """The key or index path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


_HOSTILE_JSON = st.sampled_from([None, True, False, "text", "", 0, -1, 2.5, 1e308, -1e308, 1e-320,
                                 float("nan"), float("inf"), 10**400, [], {}, [0.5, "a"]])
_HOSTILE_NUMBER = st.sampled_from(["1e308", "-1e308", "1e400", "nan", "-inf", "true", "abc", "1e-320", "0x1p3", ""])


@st.composite
def _mutated_checkpoint(draw, text):
    """A valid checkpoint's text with one field of a JSON block dropped,
    duplicated or retyped, one parameter value replaced, a line repeated, or
    the file truncated."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop", "duplicate", "retype", "value", "line", "truncate"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "line":
        at = draw(st.integers(1, len(lines) - 1))
        lines.insert(at, lines[at])
    elif kind == "value":
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if line[:1] in "-0123456789"]))
        row = lines[at].split()
        row[draw(st.integers(0, len(row) - 1))] = draw(_HOSTILE_NUMBER)
        lines[at] = " ".join(row)
    else:
        at = draw(st.sampled_from([1, 2, 3]))  # spec, normalizer, seeds
        prefix, _, body = lines[at].partition(" ")
        doc = json.loads(body)
        paths = [p for p in _json_paths(doc) if kind != "duplicate" or isinstance(p[-1], int)]
        if not paths:
            doc = draw(_HOSTILE_JSON)
        else:
            *parents, last = draw(st.sampled_from(paths))
            parent = doc
            for key in parents:
                parent = parent[key]
            if kind == "drop":
                del parent[last]
            elif kind == "duplicate":
                parent.insert(last, parent[last])
            else:
                parent[last] = draw(_HOSTILE_JSON)
        lines[at] = f"{prefix} {json.dumps(doc)}"
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_ends_at_an_exit_code(ws, data):
    # evaluate and predict on a damaged checkpoint exit 0-3 and let nothing
    # escape, numpy's warnings included
    text = data.draw(_mutated_checkpoint((ws["train_dir"] / "checkpoint.txt").read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.txt"
        path.write_text(text)
        for argv in (["evaluate"], ["predict", "--ids", "0,1"]):
            argv += ["--checkpoint", str(path), "--data", str(ws["data"]), "--out-dir", tmp]
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)


_VALID_RANGES = {"d_cm": [60.0, 110.0], "h_cm": [80, 150], "d_cup": [60.0, 115.0], "h_cup": [80.0, 150.0],
                 "rho_rel": [0.8, 1.2], "fill_frac": [0.5, 0.95],
                 "trajectory": {"length": [8, 14], "ramp_frac": 0.25, "final_tilt": [55.0, 85.0], "jitter_deg": 0.5}}
# Every value that can stand in a valid length is an integer of at most 5,000.
_HOSTILE_RANGE_VALUE = _HOSTILE_JSON | st.sampled_from([10**30, 2**63, 5000, [3, 2], [1, 10**400], [80, 10**30]])


@st.composite
def _mutated_ranges(draw):
    """A valid ranges document with one field dropped, one list entry
    duplicated or one value retyped, and whether the new value is a boolean."""
    doc = json.loads(json.dumps(_VALID_RANGES))
    kind = draw(st.sampled_from(["drop", "duplicate", "retype"]))
    *parents, last = draw(st.sampled_from([p for p in _json_paths(doc) if kind != "duplicate"
                                           or isinstance(p[-1], int)]))
    parent = doc
    for key in parents:
        parent = parent[key]
    value = None
    if kind == "drop":
        del parent[last]
    elif kind == "duplicate":
        parent.insert(last, parent[last])
    else:
        value = parent[last] = draw(_HOSTILE_RANGE_VALUE)
    return doc, isinstance(value, bool)


@settings(max_examples=100, deadline=None)
@given(mutated=_mutated_ranges())
def test_mutated_ranges_file_ends_at_an_exit_code(mutated):
    # generate on a damaged ranges file exits 0-3 and lets nothing escape,
    # numpy's warnings included; a boolean anywhere is a data error
    doc, boolean = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ranges.json"
        path.write_text(json.dumps(doc))
        argv = ["generate", "--n", "2", "--ranges", str(path), "--out", str(Path(tmp) / "d.jsonl")]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
    assert code == EXIT_DATA if boolean else code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)


def test_unknown_config_key_is_usage_error(tmp_path, ws):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus=3\n")
    code = main(["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# builtin defaults


def test_builtin_defaults_match_documented_run_settings():
    parser = _build_parser()
    train_args = parser.parse_args(["train"])
    assert train_args.loss == "euclidean"
    assert train_args.activation == "relu"
    assert train_args.lr == pytest.approx(1e-4)
    assert train_args.epochs == 2000
    assert train_args.batch_size == 32
    assert train_args.cell == "lstm"
    split_args = parser.parse_args(["split"])
    assert split_args.train_frac == pytest.approx(0.8)
    assert split_args.val_frac == pytest.approx(0.7)
    assert parser.parse_args(["grid"]).epoch_scale == pytest.approx(1.0)
    gradcheck_args = parser.parse_args(["gradcheck"])
    assert gradcheck_args.h == pytest.approx(FD_STEP)
    assert gradcheck_args.tol == pytest.approx(FD_TOL)


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


def test_readme_wide_cup_ranges_generate_the_scored_pours(tmp_path):
    # The README's generalization recipe writes these ranges with integer
    # bounds; through `generate` they must give the same bytes as
    # wide_cup_ranges(), the set the acceptance rider scores.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ranges = tmp_path / "wide.json"
    ranges.write_text(re.search(r"echo '(\{.*\})' > wide\.json", readme).group(1) + "\n")
    out = tmp_path / "wide.jsonl"
    assert main(["generate", "--n", "8", "--noise", "0.01", "--seed", "0",
                 "--ranges", str(ranges), "--out", str(out)]) == EXIT_OK
    expected = tmp_path / "expected.jsonl"
    serialize_dataset(generate_dataset(8, wide_cup_ranges(), TrajectoryConfig(noise_sigma=0.01, seed=0)),
                      expected)
    assert out.read_bytes() == expected.read_bytes()


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
    train_flags = {action.dest for action in _build_parser().commands["train"]._actions}
    assert set(doc) == train_flags - {"help", "config"}


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


@pytest.mark.parametrize("line, key, expected", [
    ("raw=true", "raw", "true"),
    ("raw=maybe", None, None),
    ("lr=", "lr", "0.0001"),
    ("batch-size=4", "batch_size", "4"),
    ("lr=abc", None, None),
    ("loss=huber", None, None),
], ids=["bool_true", "bool_bad", "empty_value", "hyphenated_key", "bad_float", "bad_choice"])
def test_config_line_is_its_flag(tmp_path, ws, capsys, line, key, expected):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"epochs=1\n{line}\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(ws["data"]), "--manifest", str(ws["manifest"]),
                 "--config", str(cfg), "--out-dir", str(out)])
    if key is None:
        assert code == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == EXIT_OK
    doc = dict(row.split("=", 1) for row in (out / "run_manifest.txt").read_text().splitlines())
    assert doc[key] == expected


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

