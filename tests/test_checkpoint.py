"""Text checkpoint format: bitwise round trips and strict parsing."""

import re

import numpy as np
import pytest

from pournet.checkpoint import FORMAT_HEADER, load_checkpoint, save_checkpoint
from pournet.data import Normalizer
from pournet.errors import DatasetFormatError
from pournet.nn import ModelParams, ModelSpec, LayerSpec, build_model, count_params, reference_model


def nasty_params(spec, seed=0):
    # values that stress decimal round-tripping
    rng = np.random.default_rng(seed)
    flat = rng.normal(0, 1, count_params(spec))
    flat[0] = np.pi
    flat[1] = 1e-300
    flat[2] = -1.0 / 3.0
    flat[3] = 2.2250738585072014e-308  # smallest normal double
    return ModelParams.from_flat(spec, flat)


def test_round_trip_bitwise(tmp_path):
    spec = reference_model()
    params = nasty_params(spec)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.params.flatten(), params.flatten())
    assert loaded.params.spec.to_dict() == spec.to_dict()
    assert loaded.normalizer is None


def test_round_trip_with_normalizer_and_seeds(tmp_path):
    spec = ModelSpec(input_dim=9, layers=[LayerSpec("gru", units=3), LayerSpec("dense", units=1)])
    params = build_model(spec, init_seed=4)
    norm = Normalizer(
        feature_offset=np.linspace(-1, 1, 9),
        feature_scale=np.linspace(0.5, 2.0, 9),
        target_offset=0.25,
        target_scale=3.5,
    )
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params, norm, seeds={"init_seed": 4, "shuffle_seed": 7})
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.normalizer.feature_offset, norm.feature_offset)
    assert np.array_equal(loaded.normalizer.feature_scale, norm.feature_scale)
    assert loaded.normalizer.target_scale == 3.5
    assert loaded.seeds == {"init_seed": 4, "shuffle_seed": 7}


def test_save_is_deterministic(tmp_path):
    spec = reference_model()
    params = nasty_params(spec, seed=2)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_header_and_corruption_errors(tmp_path):
    spec = ModelSpec(input_dim=2, layers=[LayerSpec("dense", units=1)])
    params = build_model(spec, init_seed=0)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    text = path.read_text()
    assert text.splitlines()[0] == FORMAT_HEADER

    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text(text.replace(FORMAT_HEADER, "pournet-checkpoint v99", 1))
    with pytest.raises(DatasetFormatError):
        load_checkpoint(bad_header)

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(text.splitlines()[:-2]) + "\n")
    with pytest.raises(DatasetFormatError):
        load_checkpoint(truncated)

    # a parameter value replaced with garbage
    mangled = tmp_path / "mangled.txt"
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith(("pournet", "spec", "normalizer", "seeds", "param", "end")):
            lines[i] = "abc def"
            break
    mangled.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError):
        load_checkpoint(mangled)

    # non-finite values parse as floats but must not load
    first_row = next(i for i, line in enumerate(text.splitlines()) if line.startswith("param")) + 1
    for bad in ("nan", "inf", "-inf"):
        lines = text.splitlines()
        lines[first_row] = " ".join([bad] + lines[first_row].split()[1:])
        nonfinite = tmp_path / f"nonfinite_{bad}.txt"
        nonfinite.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="non-finite value in layer 0 W"):
            load_checkpoint(nonfinite)


def test_blocks_must_come_in_written_order(tmp_path):
    spec = ModelSpec(input_dim=2, layers=[LayerSpec("dense", units=2), LayerSpec("dense", units=1)])
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, build_model(spec, init_seed=0))
    lines = path.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("param")] + [len(lines) - 1]
    head, blocks = lines[: starts[0]], [lines[a:b] for a, b in zip(starts, starts[1:])]
    assert [b[0] for b in blocks] == ["param 0 dense W 2 2", "param 0 dense b 2",
                                      "param 1 dense W 1 2", "param 1 dense b 1"]
    first = starts[0] + 1
    wrong_shape = ["param 0 dense W 1 4", " ".join(blocks[0][1:])]
    cases = {
        "swapped": (blocks[1] + blocks[0] + blocks[2] + blocks[3], first, blocks[0][0]),
        "missing": (blocks[0] + blocks[2] + blocks[3], first + 3, blocks[1][0]),
        "extra": (blocks[0] + blocks[1] + blocks[2] + blocks[3] + blocks[3], len(lines), "end"),
        "wrong_shape": (wrong_shape + blocks[1] + blocks[2] + blocks[3], first, blocks[0][0]),
    }
    for name, (body, lineno, expected) in cases.items():
        bad = tmp_path / f"{name}.txt"
        bad.write_text("\n".join(head + body + ["end"]) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(f"line {lineno}: expected '{expected}'")):
            load_checkpoint(bad)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.txt")
