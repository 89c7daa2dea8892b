"""Pouring-trial records: validation, feature assembly, padding, splits,
normalization, and dataset file I/O.

A trial is one pour: a rotation-angle series theta (degrees, near zero while
the cup is upright and increasingly negative as it tips) paired with the
pouring cup's weight series (lbf), plus eight static scalars describing the
setup. Sequences have different lengths, so batches are zero-padded to a
common length with a validity mask.

A PourRecord checks itself when built and nothing downstream checks it
again, so run validate_record on a record changed after construction.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError

# Column order of the per-timestep input matrix. theta varies along the
# sequence; the remaining eight are static and repeat at every step.
FEATURE_ORDER = (
    "theta",
    "f_init",
    "f_empty",
    "f_final",
    "d_cup",
    "h_cup",
    "d_cm",
    "h_cm",
    "rho_rel",
)
NUM_FEATURES = len(FEATURE_ORDER)

_SCALAR_FIELDS = ("f_init", "f_empty", "f_final", "d_cup", "h_cup", "d_cm", "h_cm", "rho_rel")
_POSITIVE_FIELDS = ("d_cup", "h_cup", "d_cm", "h_cm", "rho_rel")

# On-disk key order for one JSON record per line.
DATASET_KEYS = ("theta", "weight") + _SCALAR_FIELDS


@dataclass(eq=False)
class PourRecord:
    """One pouring trial.

    theta and weight are aligned per-timestep series. Weights are in lbf:
    f_init is the noise-free weight at the first step, f_empty the cup-only
    weight, f_final the noise-free weight at the last step. Cup dimensions
    are in mm (d_cm/h_cm: pouring cup, d_cup/h_cup: receiving cup) and
    rho_rel is the liquid density relative to water.
    """

    theta: np.ndarray
    weight: np.ndarray
    f_init: float
    f_empty: float
    f_final: float
    d_cup: float
    h_cup: float
    d_cm: float
    h_cm: float
    rho_rel: float

    def __post_init__(self):
        self.theta = _series("theta", self.theta)
        self.weight = _series("weight", self.weight)
        problems = validate_record(self)
        if problems:
            raise DatasetFormatError("; ".join(problems))

    @property
    def length(self) -> int:
        return int(self.theta.shape[0])


def _json_numbers(value) -> bool:
    """Whether a JSON value is a number or a flat list of numbers; numpy would
    read a boolean as 0 or 1 and a numeric string as its number."""
    return set(map(type, value if isinstance(value, list) else [value])) <= {int, float}


def _series(name: str, values) -> np.ndarray:
    """values as a float64 array; a non-number element names the field."""
    if isinstance(values, list) and not _json_numbers(values):
        raise DatasetFormatError(f"{name} must be a list of numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{exc} (in {name})") from exc


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def validate_record(record: PourRecord) -> list[str]:
    """Check every record invariant; return human-readable violations (empty if valid)."""
    problems = []
    theta, weight = record.theta, record.weight
    if theta.ndim != 1:
        problems.append("theta must be one-dimensional")
    if weight.ndim != 1:
        problems.append("weight must be one-dimensional")
    if not problems:
        if theta.shape[0] != weight.shape[0]:
            problems.append(
                f"length mismatch: len(theta)={theta.shape[0]}, len(weight)={weight.shape[0]}"
            )
        if theta.shape[0] < 1:
            problems.append("length must be >= 1")
        if not np.isfinite(theta).all():
            problems.append("theta must be finite")
        if not np.isfinite(weight).all():
            problems.append("weight must be finite")
    bad = set()
    for name in _SCALAR_FIELDS:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, (float, int, np.number)):
            problems.append(f"{name} must be a number (got {value!r})")
            bad.add(name)
        elif not _finite(value):
            problems.append(f"{name} must be finite")
            bad.add(name)
    for name in _POSITIVE_FIELDS:
        value = getattr(record, name)
        if name not in bad and not value > 0:
            problems.append(f"{name} must be > 0 (got {value!r})")
    if not bad:
        if record.f_final > record.f_init:
            problems.append("f_final must be <= f_init")
        if record.f_empty > record.f_final:
            problems.append("f_empty must be <= f_final")
    return problems


def build_features(record: PourRecord) -> np.ndarray:
    """Per-timestep input matrix of shape [length, NUM_FEATURES].

    Row t is [theta_t, f_init, f_empty, f_final, d_cup, h_cup, d_cm, h_cm,
    rho_rel]; the target column for step t is weight_t.
    """
    out = np.empty((record.length, NUM_FEATURES), dtype=np.float64)
    out[:, 0] = record.theta
    out[:, 1:] = [getattr(record, name) for name in FEATURE_ORDER[1:]]
    return out


@dataclass(eq=False)
class PaddedBatch:
    """Zero-padded feature/target arrays with a {0,1} validity mask.

    features: [num_seq, max_len, NUM_FEATURES], targets: [num_seq, max_len, 1],
    mask: [num_seq, max_len] with 1.0 at valid steps, lengths: [num_seq].
    """

    features: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray

    @property
    def num_sequences(self) -> int:
        return int(self.features.shape[0])

    @property
    def max_len(self) -> int:
        return int(self.features.shape[1])

    def take(self, indices) -> "PaddedBatch":
        """Row subset (same max_len)."""
        idx = np.asarray(indices, dtype=np.int64)
        return PaddedBatch(
            features=self.features[idx],
            targets=self.targets[idx],
            mask=self.mask[idx],
            lengths=self.lengths[idx],
        )


def pad_and_mask(records, max_len: int | None = None) -> PaddedBatch:
    """Pad records to a common length with zeros and build the validity mask.

    max_len defaults to the longest record. Records longer than max_len are
    rejected (padding never truncates).
    """
    lengths = [r.length for r in records]
    if max_len is None:
        max_len = max(lengths, default=0)
    too_long = [i for i, n in enumerate(lengths) if n > max_len]
    if too_long:
        raise DatasetFormatError(f"records longer than max_len={max_len}: ids {too_long}")
    n = len(records)
    features = np.zeros((n, max_len, NUM_FEATURES), dtype=np.float64)
    targets = np.zeros((n, max_len, 1), dtype=np.float64)
    mask = np.zeros((n, max_len), dtype=np.float64)
    for i, record in enumerate(records):
        features[i, : record.length] = build_features(record)
        targets[i, : record.length, 0] = record.weight
        mask[i, : record.length] = 1.0
    return PaddedBatch(features, targets, mask, np.asarray(lengths, dtype=np.int64))


@dataclass
class SplitManifest:
    """Shuffled record ids assigned to train/val/test, plus the seed and ratios.

    Checked when built: int ids, none listed twice in or across the splits.
    """

    seed: int
    r_train: float
    r_val_of_rest: float
    train_ids: list
    val_ids: list
    test_ids: list

    def __post_init__(self):
        owner = {}
        for name in ("train_ids", "val_ids", "test_ids"):
            ids = getattr(self, name)
            if not isinstance(ids, list):
                raise ValueError(f"{name} must be a list (got {type(ids).__name__})")
            for i in ids:
                if isinstance(i, bool) or not isinstance(i, int):
                    raise ValueError(f"{name} must hold integer record ids (got {i!r})")
                if i in owner:
                    where = f"twice in {name}" if owner[i] == name else f"in both {owner[i]} and {name}"
                    raise ValueError(f"record id {i} appears {where}")
                owner[i] = name

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train_ids), len(self.val_ids), len(self.test_ids))


def split_dataset(records, seed: int, r_train: float = 0.8, r_val_of_rest: float = 0.7) -> SplitManifest:
    """Shuffle ids with a seeded RNG and cut train/val/test.

    n_train = floor(n * r_train); of the rest, n_val = floor(rest * r_val_of_rest)
    and the remainder is test. `records` may be a record list or a bare count.
    """
    n = records if isinstance(records, int) else len(records)
    if n < 3:
        raise ValueError(f"need at least 3 records to split, got {n}")
    if not (0.0 < r_train < 1.0 and 0.0 < r_val_of_rest < 1.0):
        raise ValueError("split ratios must lie in (0, 1)")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(n * r_train))
    rest = n - n_train
    n_val = int(np.floor(rest * r_val_of_rest))
    return SplitManifest(
        seed=seed,
        r_train=r_train,
        r_val_of_rest=r_val_of_rest,
        train_ids=[int(i) for i in order[:n_train]],
        val_ids=[int(i) for i in order[n_train : n_train + n_val]],
        test_ids=[int(i) for i in order[n_train + n_val :]],
    )


@dataclass(eq=False)
class Normalizer:
    """Per-column affine map x' = (x - offset) / scale, fitted on the training split.

    Checked when built: finite statistics and positive scales.
    """

    feature_offset: np.ndarray
    feature_scale: np.ndarray
    target_offset: float
    target_scale: float

    def __post_init__(self):
        try:
            self.feature_offset = np.asarray(self.feature_offset, dtype=np.float64)
            self.feature_scale = np.asarray(self.feature_scale, dtype=np.float64)
        except OverflowError as exc:  # an int too large for a float
            raise ValueError("normalizer statistics must be finite") from exc
        if self.feature_offset.shape != (NUM_FEATURES,) or self.feature_scale.shape != (NUM_FEATURES,):
            raise ValueError(f"normalizer statistics must have {NUM_FEATURES} columns")
        if not (np.all(self.feature_scale > 0) and self.target_scale > 0):
            raise ValueError("normalizer scales must be strictly positive")
        if not (np.isfinite(self.feature_offset).all() and np.isfinite(self.feature_scale).all()
                and _finite(self.target_offset) and _finite(self.target_scale)):
            raise ValueError("normalizer statistics must be finite")

    def transform_features(self, x):
        return (np.asarray(x, dtype=np.float64) - self.feature_offset) / self.feature_scale

    def transform_targets(self, y):
        return (np.asarray(y, dtype=np.float64) - self.target_offset) / self.target_scale

    def invert_targets(self, y):
        return np.asarray(y, dtype=np.float64) * self.target_scale + self.target_offset

    def to_dict(self) -> dict:
        return {
            "feature_offset": self.feature_offset.tolist(),
            "feature_scale": self.feature_scale.tolist(),
            "target_offset": float(self.target_offset),
            "target_scale": float(self.target_scale),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Normalizer":
        """Statistics as to_dict writes them; a value that is not a JSON number
        or a list of them raises ValueError."""
        fields = {name: doc[name] for name in ("feature_offset", "feature_scale", "target_offset", "target_scale")}
        for name, value in fields.items():
            if not _json_numbers(value):
                raise ValueError(f"normalizer {name} must be a number or a list of numbers")
        return cls(**fields)


def fit_normalizer(train_records) -> Normalizer:
    """Min-max statistics over every valid timestep of the training records.

    Scaling maps the training range to [0, 1]. A constant column gets
    scale 1 and offset equal to the constant, so it maps to exactly 0.
    """
    if not train_records:
        raise ValueError("cannot fit a normalizer on an empty training split")
    feats = np.concatenate([build_features(r) for r in train_records], axis=0)
    targs = np.concatenate([r.weight for r in train_records])
    f_lo, f_hi = feats.min(axis=0), feats.max(axis=0)
    t_lo, t_hi = float(targs.min()), float(targs.max())
    f_scale = f_hi - f_lo
    f_scale[f_scale <= 0] = 1.0
    t_scale = t_hi - t_lo
    if t_scale <= 0:
        t_scale = 1.0
    return Normalizer(f_lo, f_scale, t_lo, t_scale)


def apply_normalizer(normalizer: Normalizer, batch: PaddedBatch) -> PaddedBatch:
    """Scaled copy of a batch. Padded positions stay exactly zero."""
    gate = batch.mask[..., None]
    return PaddedBatch(
        features=normalizer.transform_features(batch.features) * gate,
        targets=normalizer.transform_targets(batch.targets) * gate,
        mask=batch.mask.copy(),
        lengths=batch.lengths.copy(),
    )


def serialize_dataset(records, path) -> None:
    """Write one JSON object per line with keys in DATASET_KEYS order."""
    with open(path, "w") as handle:
        for record in records:
            doc = {
                "theta": record.theta.tolist(),
                "weight": record.weight.tolist(),
            }
            for name in _SCALAR_FIELDS:
                doc[name] = float(getattr(record, name))
            handle.write(json.dumps(doc) + "\n")


def parse_dataset(path) -> list[PourRecord]:
    """Read a dataset file; each record checks itself as it is built. Errors
    cite the file and line."""
    records = []
    key_set = set(DATASET_KEYS)
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: not a valid record ({exc.msg})") from exc
            if not isinstance(doc, dict):
                raise DatasetFormatError(f"{path}: line {lineno}: record must be a JSON object")
            missing = key_set - doc.keys()
            extra = doc.keys() - key_set
            if missing or extra:
                parts = []
                if missing:
                    parts.append("missing keys " + ", ".join(sorted(missing)))
                if extra:
                    parts.append("unknown keys " + ", ".join(sorted(extra)))
                raise DatasetFormatError(f"{path}: line {lineno}: " + "; ".join(parts))
            try:
                record = PourRecord(**{k: doc[k] for k in DATASET_KEYS})
            except (TypeError, ValueError, OverflowError) as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
            records.append(record)
    return records


def save_manifest(manifest: SplitManifest, path, normalizer: Normalizer | None = None) -> None:
    """Write the split sidecar: ids, seed, ratios, and normalizer statistics."""
    doc = {
        "seed": manifest.seed,
        "r_train": manifest.r_train,
        "r_val_of_rest": manifest.r_val_of_rest,
        "train_ids": manifest.train_ids,
        "val_ids": manifest.val_ids,
        "test_ids": manifest.test_ids,
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def load_manifest(path) -> tuple[SplitManifest, Normalizer | None]:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: not a valid manifest ({exc.msg})") from exc
    try:
        manifest = SplitManifest(
            seed=doc["seed"],
            r_train=doc["r_train"],
            r_val_of_rest=doc["r_val_of_rest"],
            train_ids=doc["train_ids"],
            val_ids=doc["val_ids"],
            test_ids=doc["test_ids"],
        )
        norm_doc = doc.get("normalizer")
        normalizer = Normalizer.from_dict(norm_doc) if norm_doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad manifest field ({exc})") from exc
    return manifest, normalizer
