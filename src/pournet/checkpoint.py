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
Values must be finite. The reader expects exactly the blocks the spec
implies, in written order.
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


def _blocks(params: ModelParams):
    """(header, rows) of every parameter block in written order; rows is a
    view into params, a 1-D field as one row."""
    for idx, (layer, p) in enumerate(zip(params.spec.layers, params.layers)):
        if p is None:
            continue
        for name in p.FIELDS:
            view = getattr(p, name)
            yield f"param {idx} {layer.kind} {name} {' '.join(map(str, view.shape))}", np.atleast_2d(view)


def save_checkpoint(path, params: ModelParams, normalizer: Normalizer | None = None,
                    seeds: dict | None = None) -> None:
    lines = [FORMAT_HEADER]
    lines.append("spec " + json.dumps(params.spec.to_dict(), sort_keys=True))
    norm_doc = normalizer.to_dict() if normalizer is not None else None
    lines.append("normalizer " + json.dumps(norm_doc, sort_keys=True))
    lines.append("seeds " + json.dumps(seeds or {}, sort_keys=True))
    for header, rows in _blocks(params):
        lines.append(header)
        lines.extend(" ".join(format(float(v), ".17g") for v in row) for row in rows)
    lines.append("end")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. Blocks must come in
    written order; a wrong, missing or extra line fails where it stands."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise DatasetFormatError(f"{path}: not a {FORMAT_HEADER!r} file")

    def line(index):
        return lines[index] if index < len(lines) else ""

    def take_json(index, prefix, parse):
        if not line(index).startswith(prefix + " "):
            raise DatasetFormatError(f"{path}: expected '{prefix}' on line {index + 1}")
        try:
            return parse(json.loads(lines[index][len(prefix) + 1 :]))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise DatasetFormatError(
                f"{path}: line {index + 1}: bad {prefix} block ({getattr(exc, 'msg', exc)})"
            ) from exc

    spec = take_json(1, "spec", ModelSpec.from_dict)
    normalizer = take_json(2, "normalizer", lambda doc: Normalizer.from_dict(doc) if doc else None)
    seeds = take_json(3, "seeds", lambda doc: doc)

    params = ModelParams.from_flat(spec, np.zeros(count_params(spec)))
    cursor = 4
    for header, rows in _blocks(params):
        if line(cursor) != header:
            raise DatasetFormatError(f"{path}: line {cursor + 1}: expected '{header}'")
        _, idx, _, name = header.split()[:4]
        what = f"layer {idx} {name}"
        for row in rows:
            cursor += 1
            try:
                values = [float(v) for v in line(cursor).split()]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {cursor + 1}: bad value in {what}") from exc
            if len(values) != row.size:
                raise DatasetFormatError(
                    f"{path}: line {cursor + 1}: expected {row.size} values in {what}, got {len(values)}"
                )
            if not np.all(np.isfinite(values)):
                raise DatasetFormatError(f"{path}: line {cursor + 1}: non-finite value in {what}")
            row[:] = values
        cursor += 1
    if line(cursor) != "end":
        raise DatasetFormatError(f"{path}: line {cursor + 1}: expected 'end'")
    return Checkpoint(params=params, normalizer=normalizer, seeds=seeds)
