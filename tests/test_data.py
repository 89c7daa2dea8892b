"""Record validation, feature assembly, padding, splitting, normalization, file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pournet.data import (
    FEATURE_ORDER,
    NUM_FEATURES,
    PourRecord,
    apply_normalizer,
    build_features,
    fit_normalizer,
    load_manifest,
    pad_and_mask,
    parse_dataset,
    save_manifest,
    serialize_dataset,
    split_dataset,
    validate_record,
)
from pournet.errors import DatasetFormatError


def make_record(length=4, **overrides):
    fields = dict(
        theta=np.linspace(0.0, -50.0, length),
        weight=np.linspace(1.5, 0.8, length),
        f_init=1.5,
        f_empty=0.3,
        f_final=0.8,
        d_cup=70.0,
        h_cup=100.0,
        d_cm=65.0,
        h_cm=110.0,
        rho_rel=1.0,
    )
    fields.update(overrides)
    return PourRecord(**fields)


def test_valid_record_has_no_violations():
    assert validate_record(make_record()) == []


def test_length_mismatch_reported():
    rec = make_record()
    rec.weight = rec.weight[:-1]
    msgs = validate_record(rec)
    assert any("length mismatch" in m for m in msgs)


def test_sign_and_ordering_violations():
    msgs = validate_record(make_record(d_cup=-10.0))
    assert any("d_cup must be > 0" in m for m in msgs)
    msgs = validate_record(make_record(f_final=2.0))  # exceeds f_init =1.5
    assert any("f_final" in m for m in msgs)
    msgs = validate_record(make_record(f_empty=0.9))  # exceeds f_final = 0.8
    assert any("f_empty" in m for m in msgs)
    msgs = validate_record(make_record(rho_rel=float("nan")))
    assert any("rho_rel" in m for m in msgs)


def test_feature_order_is_frozen():
    assert FEATURE_ORDER == ("theta", "f_init", "f_empty", "f_final",
                             "d_cup", "h_cup", "d_cm", "h_cm", "rho_rel")
    assert NUM_FEATURES == 9
    rec = make_record(length=3, f_init=10.0, f_empty=1.0, f_final=2.0,
                      d_cup=3.0, h_cup=4.0, d_cm=5.0, h_cm=6.0, rho_rel=0.5,
                      weight=np.array([10.0, 5.0, 2.0]))
    rows = build_features(rec)
    assert rows.shape == (3, 9)
    assert np.array_equal(rows[:, 0], rec.theta)
    assert np.array_equal(rows[1, 1:], np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5]))
    # statics repeat on every row
    assert np.array_equal(rows[0, 1:], rows[2, 1:])


def test_build_features_rejects_invalid():
    rec = make_record(d_cm=-1.0)
    with pytest.raises(DatasetFormatError):
        build_features(rec)


def test_pad_and_mask_shapes_and_zeros():
    records = [make_record(length=3), make_record(length=5)]
    batch = pad_and_mask(records, max_len=6)
    assert batch.features.shape == (2, 6, 9)
    assert batch.targets.shape == (2, 6, 1)
    assert np.array_equal(batch.mask[0], [1, 1, 1, 0, 0, 0])
    assert np.array_equal(batch.mask[1], [1, 1, 1, 1, 1, 0])
    assert np.all(batch.features[0, 3:] == 0.0)
    assert np.all(batch.targets[0, 3:] == 0.0)
    assert np.array_equal(batch.lengths, [3, 5])


def test_pad_default_uses_longest_and_paper_constant():
    records = [make_record(length=3), make_record(length=7)]
    assert pad_and_mask(records).max_len == 7


def test_pad_rejects_overlong_record():
    records = [make_record(length=8)]
    with pytest.raises(DatasetFormatError, match="0"):
        pad_and_mask(records, max_len=5)


@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       extra=st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_padding_extension_only_adds_zeros(lengths, extra):
    records = [make_record(length=n) for n in lengths]
    base = max(lengths)
    a = pad_and_mask(records, max_len=base)
    b = pad_and_mask(records, max_len=base + extra)
    assert np.array_equal(a.features, b.features[:, :base])
    assert np.array_equal(a.targets, b.targets[:, :base])
    assert np.array_equal(a.mask, b.mask[:, :base])
    assert np.all(b.mask[:, base:] == 0.0)
    assert np.all(b.features[:, base:] == 0.0)


def test_split_paper_sizes():
    manifest = split_dataset(1307, seed=0)
    assert manifest.sizes == (1045, 183, 79)


def test_split_floor_arithmetic_small():
    assert split_dataset(10, seed=4).sizes == (8, 1, 1)


def test_split_requires_three_records():
    with pytest.raises(ValueError):
        split_dataset(2, seed=0)
    with pytest.raises(ValueError):
        split_dataset(100, seed=0, r_train=1.0)


@given(n=st.integers(3, 200), seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_split_is_a_deterministic_partition(n, seed):
    a = split_dataset(n, seed=seed)
    b = split_dataset(n, seed=seed)
    assert a.train_ids == b.train_ids and a.val_ids == b.val_ids and a.test_ids == b.test_ids
    everything = sorted(a.train_ids + a.val_ids + a.test_ids)
    assert everything == list(range(n))
    assert sum(a.sizes) == n


def test_split_accepts_record_list():
    records = [make_record(length=3 + i % 4) for i in range(10)]
    manifest = split_dataset(records, seed=1)
    assert manifest.sizes == (8, 1, 1)


def test_normalizer_round_trip_and_constant_column():
    records = [make_record(length=4), make_record(length=6, rho_rel=1.0)]
    norm = fit_normalizer(records)
    # rho_rel constant at 1.0 -> degenerate rule: scale 1, maps to 0
    idx = FEATURE_ORDER.index("rho_rel")
    assert norm.feature_scale[idx] == 1.0
    assert norm.feature_offset[idx] == 1.0
    rows = build_features(records[0])
    back = norm.transform_features(rows) * norm.feature_scale + norm.feature_offset
    assert np.allclose(back, rows, rtol=1e-12, atol=1e-12)
    assert np.all(norm.transform_features(rows)[:, idx] == 0.0)


def test_normalizer_maps_train_range_to_unit_interval():
    records = [make_record(length=5)]
    norm = fit_normalizer(records)
    batch = apply_normalizer(norm, pad_and_mask(records, max_len=8))
    valid = batch.mask[0] > 0.5
    assert batch.features[0][valid].min() >= -1e-12
    assert batch.features[0][valid].max() <= 1.0 + 1e-12
    assert batch.targets[0][valid].min() >= -1e-12
    # padding survives normalization untouched
    assert np.all(batch.features[0][~valid] == 0.0)
    assert np.all(batch.targets[0][~valid] == 0.0)


def test_normalizer_ignores_other_splits():
    train = [make_record(length=4)]
    norm_a = fit_normalizer(train)
    # mutating unrelated records cannot change fitted statistics
    other = make_record(length=4, f_init=99.0, weight=np.array([99.0, 98.0, 97.0, 96.0]),
                        f_final=96.0)
    assert validate_record(other) == []
    norm_b = fit_normalizer(train)
    assert np.array_equal(norm_a.feature_offset, norm_b.feature_offset)
    assert np.array_equal(norm_a.feature_scale, norm_b.feature_scale)


def test_serialize_parse_round_trip(tmp_path):
    records = [make_record(length=3), make_record(length=5, rho_rel=0.85)]
    path = tmp_path / "data.jsonl"
    serialize_dataset(records, path)
    again = parse_dataset(path)
    assert len(again) == 2
    for a, b in zip(records, again):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.weight, b.weight)
        assert a.f_init == b.f_init and a.rho_rel == b.rho_rel


def test_serialize_deterministic_bytes(tmp_path):
    records = [make_record(length=3)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    serialize_dataset(records, p1)
    serialize_dataset(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_errors_cite_line_numbers(tmp_path):
    good = tmp_path / "good.jsonl"
    serialize_dataset([make_record(length=3)], good)
    line = good.read_text().strip()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n{not json\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        parse_dataset(bad)

    missing = tmp_path / "missing.jsonl"
    import json

    doc = json.loads(line)
    doc.pop("rho_rel")
    missing.write_text(json.dumps(doc) + "\n")
    with pytest.raises(DatasetFormatError, match="rho_rel"):
        parse_dataset(missing)

    extra = tmp_path / "extra.jsonl"
    doc = json.loads(line)
    doc["bogus"] = 1
    extra.write_text(json.dumps(doc) + "\n")
    with pytest.raises(DatasetFormatError, match="bogus"):
        parse_dataset(extra)

    invalid = tmp_path / "invalid.jsonl"
    doc = json.loads(line)
    doc["d_cup"] = -5.0
    invalid.write_text(json.dumps(doc) + "\n")
    with pytest.raises(DatasetFormatError, match="d_cup"):
        parse_dataset(invalid)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert parse_dataset(path) == []


def test_manifest_round_trip(tmp_path):
    records = [make_record(length=4) for _ in range(10)]
    manifest = split_dataset(records, seed=3)
    norm = fit_normalizer([records[i] for i in manifest.train_ids])
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path, norm)
    loaded, loaded_norm = load_manifest(path)
    assert loaded.train_ids == manifest.train_ids
    assert loaded.val_ids == manifest.val_ids
    assert loaded.test_ids == manifest.test_ids
    assert loaded.seed == manifest.seed
    assert np.array_equal(loaded_norm.feature_scale, norm.feature_scale)
    assert loaded_norm.target_offset == norm.target_offset
