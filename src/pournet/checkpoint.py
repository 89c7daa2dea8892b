"""Versioned text checkpoints.

Layout (one logical item per line):

    pournet-checkpoint v1
    spec <json>
    normalizer <json or null>
    seeds <json>
    param <layer_index> <kind> <field> <dim0> [<dim1>]
    <rows of decimal values, one line per leading dimension>
    ...
    end

Values are written with 17 significant digits, which round-trips float64
bitwise. Field order inside a layer matches the flat parameter packing.
Values must be finite.
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import Normalizer
from .errors import DatasetFormatError
from .nn import ModelParams, ModelSpec, count_params

FORMAT_HEADER = "pournet-checkpoint v1"


@dataclass(eq=False)
class Checkpoint:
    params: ModelParams
    normalizer: Normalizer | None
    seeds: dict


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def save_checkpoint(path, params: ModelParams, normalizer: Normalizer | None = None,
                    seeds: dict | None = None) -> None:
    spec = params.spec
    lines = [FORMAT_HEADER]
    lines.append("spec " + json.dumps(spec.to_dict(), sort_keys=True))
    norm_doc = normalizer.to_dict() if normalizer is not None else None
    lines.append("normalizer " + json.dumps(norm_doc, sort_keys=True))
    lines.append("seeds " + json.dumps(seeds or {}, sort_keys=True))
    for idx, (layer, p) in enumerate(zip(spec.layers, params.layers)):
        if p is None:
            continue
        for name in p.FIELDS:
            array = getattr(p, name)
            dims = " ".join(str(d) for d in array.shape)
            lines.append(f"param {idx} {layer.kind} {name} {dims}")
            rows = array if array.ndim == 2 else array[None, :]
            for row in rows:
                lines.append(" ".join(_fmt(v) for v in row))
    lines.append("end")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise DatasetFormatError(f"{path}: not a {FORMAT_HEADER!r} file")

    def take_json(index, prefix):
        if index >= len(lines) or not lines[index].startswith(prefix + " "):
            raise DatasetFormatError(f"{path}: expected '{prefix}' on line {index + 1}")
        try:
            return json.loads(lines[index][len(prefix) + 1 :])
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: bad {prefix} block ({exc.msg})") from exc

    spec = ModelSpec.from_dict(take_json(1, "spec"))
    norm_doc = take_json(2, "normalizer")
    normalizer = Normalizer.from_dict(norm_doc) if norm_doc else None
    seeds = take_json(3, "seeds")

    arrays = {}
    cursor = 4
    while cursor < len(lines):
        line = lines[cursor]
        if line == "end":
            cursor += 1
            break
        parts = line.split()
        if parts[0] != "param" or len(parts) not in (5, 6):
            raise DatasetFormatError(f"{path}: line {cursor + 1}: expected a param header")
        try:
            idx = int(parts[1])
            shape = tuple(int(d) for d in parts[4:])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {cursor + 1}: bad param header") from exc
        name = parts[3]
        n_rows = shape[0] if len(shape) == 2 else 1
        rows = []
        for r in range(n_rows):
            cursor += 1
            if cursor >= len(lines):
                raise DatasetFormatError(f"{path}: truncated param block for layer {idx} {name}")
            try:
                values = [float(v) for v in lines[cursor].split()]
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{path}: line {cursor + 1}: bad value in layer {idx} {name}"
                ) from exc
            if not np.all(np.isfinite(values)):
                raise DatasetFormatError(
                    f"{path}: line {cursor + 1}: non-finite value in layer {idx} {name}"
                )
            rows.append(values)
        try:
            array = np.asarray(rows, dtype=np.float64).reshape(shape)
        except ValueError as exc:
            raise DatasetFormatError(
                f"{path}: layer {idx} {name} does not match shape {shape}"
            ) from exc
        arrays[(idx, name)] = array
        cursor += 1
    else:
        raise DatasetFormatError(f"{path}: missing 'end' line")

    # Copy each block into its view of a fresh vector; shapes are checked against the spec.
    params = ModelParams.from_flat(spec, np.zeros(count_params(spec)))
    for idx, p in enumerate(params.layers):
        if p is None:
            continue
        for name in p.FIELDS:
            view = getattr(p, name)
            if (idx, name) not in arrays:
                raise DatasetFormatError(f"{path}: missing parameters for layer {idx} {name}")
            got = arrays.pop((idx, name))
            if got.shape != view.shape:
                raise DatasetFormatError(
                    f"{path}: layer {idx} {name} has shape {got.shape}, expected {view.shape}"
                )
            view[:] = got
    if arrays:
        stray = ", ".join(f"layer {i} {n}" for i, n in sorted(arrays))
        raise DatasetFormatError(f"{path}: unexpected parameter blocks: {stray}")
    return Checkpoint(params=params, normalizer=normalizer, seeds=seeds)
