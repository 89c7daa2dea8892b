"""Command-line interface.

Subcommands: generate, split, train, grid, evaluate, predict, gradcheck.
Every subcommand accepts --seed, --out-dir, and --config <file>. Each
key=value line of a config file stands for the flag --key=value, placed
before the command line's own flags, so those win. A boolean line
(raw=true) is the bare flag when true and nothing when false; a line with an
empty value is nothing. Errors in a config value name the file. Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import grid as grid_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    apply_normalizer,
    fit_normalizer,
    load_manifest,
    pad_and_mask,
    parse_dataset,
    save_manifest,
    serialize_dataset,
    split_dataset,
)
from .errors import DatasetFormatError, NumericalError
from .grad import FD_STEP, FD_TOL, check_gradients, gradcheck_case
from .losses import LOSS_KINDS
from .nn import CELL_KINDS, OUTPUT_ACTIVATIONS, ModelSpec, model_forward, reference_model
from .simulate import SimRanges, TrajectoryConfig, generate_dataset
from .train import TrainConfig, evaluate, export_history, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or flag values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config_argv(path, subparser) -> list:
    """The flags a config file stands for, in the form --key=value.

    Blank and # lines are skipped, and a repeated key keeps its last value.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    options = {action.dest: action for action in subparser._actions
               if action.option_strings and action.dest not in ("help", "config")}
    unknown = set(values) - set(options)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    argv = []
    for key, value in values.items():
        if value == "":
            continue
        flag = options[key].option_strings[0]
        if options[key].nargs != 0:
            argv.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            argv.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise UsageError(f"{path}: config key {key}: not a boolean: {value!r}")
    return argv


def _seed(text: str) -> int:
    """A --seed value: the RNGs take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _common(parser, out_dir_default="."):
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (a non-negative integer)")
    parser.add_argument("--out-dir", default=out_dir_default, help="directory for output files")
    parser.add_argument("--config", help="key=value file; flags override it")


def _out_dir(args) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# generate


def _load_json(path, what: str, parse):
    """parse(doc) of a JSON file; any failure is a data error naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DatasetFormatError(f"{path}: bad {what} ({getattr(exc, 'msg', exc)})") from exc


def _parse_ranges(doc):
    """(SimRanges, TrajectoryConfig) from a ranges file: SimRanges fields and
    an optional trajectory block."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    trajectory = TrajectoryConfig.from_dict(doc.pop("trajectory", {}))
    return SimRanges.from_dict(doc), trajectory


def run_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError("--noise must be finite and >= 0")
    ranges, config = _load_json(args.ranges, "ranges", _parse_ranges) if args.ranges else _parse_ranges({})
    config = replace(config, noise_sigma=args.noise, seed=args.seed)
    records = generate_dataset(args.n, ranges, config)
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    serialize_dataset(records, out_path)
    gen_doc = {
        "n": args.n,
        "seed": args.seed,
        "ranges": ranges.to_dict(),
        "trajectory": {k: v for k, v in asdict(config).items() if k != "seed"},
    }
    with open(f"{out_path}.gen.json", "w") as handle:
        json.dump(gen_doc, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {len(records)} records to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# split


def run_split(args) -> int:
    records = parse_dataset(args.data)
    try:
        manifest = split_dataset(records, args.seed, args.train_frac, args.val_frac)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    normalizer = fit_normalizer([records[i] for i in manifest.train_ids])
    out_path = Path(args.out) if args.out else _out_dir(args) / "manifest.json"
    save_manifest(manifest, out_path, normalizer)
    sizes = manifest.sizes
    print(f"split {len(records)} records into train={sizes[0]} val={sizes[1]} test={sizes[2]} -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared data loading


def _records_for_ids(records, ids, what):
    n = len(records)
    bad = [i for i in ids if i < 0 or i >= n]
    if bad:
        raise DatasetFormatError(f"{what} references record ids {bad} but the dataset has {n} records")
    return [records[i] for i in ids]


def _split_batches(args):
    """(train_batch, val_batch, normalizer_in_use) from --data, --manifest,
    --raw and --max-len.

    The pad length defaults to the longest record of the whole dataset, so it
    does not depend on the split.
    """
    if args.max_len is not None and args.max_len < 1:
        raise UsageError("--max-len must be >= 1")
    records = parse_dataset(args.data)
    manifest, normalizer = load_manifest(args.manifest)
    max_len = max(r.length for r in records) if args.max_len is None else args.max_len
    train_records = _records_for_ids(records, manifest.train_ids, "train split")
    _records_for_ids(records, manifest.test_ids, "test split")  # ids checked; no batch is built
    batches = [pad_and_mask(train_records, max_len),
               pad_and_mask(_records_for_ids(records, manifest.val_ids, "val split"), max_len)]
    if args.raw:
        return (*batches, None)
    if normalizer is None:
        normalizer = fit_normalizer(train_records)
    return (*(apply_normalizer(normalizer, b) for b in batches), normalizer)


def _train_config_from_args(args) -> TrainConfig:
    try:
        return TrainConfig(
            loss=args.loss,
            lr=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
            patience=args.patience,
            clip_norm=args.clip,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model_spec_from_args(args) -> ModelSpec:
    if args.spec:
        return _load_json(args.spec, "model spec", ModelSpec.from_dict)
    # --cell and --activation are argparse choices, so reference_model accepts both.
    return reference_model(cell=args.cell, output_activation=args.activation)


def _write_run_manifest(args, path) -> None:
    """One key=value line per train flag, in the parser's order; the file
    replays the run through --config."""
    lines = []
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is None:
            text = ""
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_train(args) -> int:
    config = _train_config_from_args(args)
    spec = _model_spec_from_args(args)
    train_batch, val_batch, normalizer = _split_batches(args)
    if train_batch.features.shape[2] != spec.input_dim:
        raise DatasetFormatError(
            f"model expects {spec.input_dim} features, dataset provides {train_batch.features.shape[2]}"
        )
    params, history = train(spec, train_batch, val_batch, config)
    directory = _out_dir(args)
    ckpt_path = directory / "checkpoint.txt"
    save_checkpoint(ckpt_path, params, normalizer,
                    seeds={"init_seed": config.seed, "shuffle_seed": config.seed})
    export_history(history, directory / "history.txt")
    _write_run_manifest(args, directory / "run_manifest.txt")
    print(
        f"trained {history.epochs_run} epochs (best {history.best_epoch}): "
        f"train {history.train_loss[-1]:.6g}, val {history.val_loss[-1]:.6g}; "
        f"checkpoint -> {ckpt_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid


def run_grid(args) -> int:
    if not (math.isfinite(args.epoch_scale) and args.epoch_scale > 0):
        raise UsageError("--epoch-scale must be finite and > 0")
    base = _train_config_from_args(args)
    train_batch, val_batch, _ = _split_batches(args)
    combos = grid_mod.parse_gridspec(args.gridspec) if args.gridspec else list(grid_mod.DEFAULT_GRID)
    report = grid_mod.run_grid(train_batch, val_batch, combos, base, epoch_scale=args.epoch_scale)
    directory = _out_dir(args)
    report_path = directory / "grid_report.txt"
    grid_mod.write_report(report, report_path)
    for i, row in enumerate(report.rows, start=1):
        combo = row.combo
        if row.error is None:
            print(f"[{i}/{len(report.rows)}] {combo.cell}/{combo.loss}/{combo.activation}"
                  f" x{row.epochs_run}: train {row.train_loss:.6g}, val {row.val_loss:.6g}")
        else:
            print(f"[{i}/{len(report.rows)}] {combo.cell}/{combo.loss}/{combo.activation}: {row.error}")
    print(f"report -> {report_path}")
    if report.all_failed:
        raise NumericalError("every grid combo failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate / predict


def _checkpoint_batch(args, ckpt, records, ids):
    batch = pad_and_mask(_records_for_ids(records, ids, "id list"))
    if ckpt.normalizer is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
            batch = apply_normalizer(ckpt.normalizer, batch)
        if not (np.isfinite(batch.features).all() and np.isfinite(batch.targets).all()):
            raise DatasetFormatError(f"{args.checkpoint}: line 3: normalizer maps {args.data} to non-finite values")
    if batch.features.shape[2] != ckpt.params.spec.input_dim:
        raise DatasetFormatError(
            f"checkpoint expects {ckpt.params.spec.input_dim} features, "
            f"dataset provides {batch.features.shape[2]}"
        )
    return batch


def run_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = parse_dataset(args.data)
    if args.split:
        if not args.manifest:
            raise UsageError("--split needs --manifest")
        manifest, _ = load_manifest(args.manifest)
        ids = {"train": manifest.train_ids, "val": manifest.val_ids, "test": manifest.test_ids}[args.split]
    else:
        ids = list(range(len(records)))
    batch = _checkpoint_batch(args, ckpt, records, ids)
    result = evaluate(ckpt.params, batch, args.loss)
    out_path = Path(args.out) if args.out else _out_dir(args) / "metrics.txt"
    lines = [f"loss {args.loss} {result.loss:.17g}", "# id length value"]
    for record_id, length, value in zip(ids, batch.lengths, result.per_sequence):
        lines.append(f"{record_id} {int(length)} {value:.17g}")
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"{args.loss} loss over {len(ids)} sequences: {result.loss:.6g} -> {out_path}")
    return EXIT_OK


def _parse_ids(text: str) -> list:
    try:
        ids = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--ids must be comma-separated integers: {exc}") from exc
    if not ids:
        raise UsageError("--ids selected nothing")
    return ids


def run_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = parse_dataset(args.data)
    ids = _parse_ids(args.ids)
    batch = _checkpoint_batch(args, ckpt, records, ids)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite predictions raise below
        preds = model_forward(ckpt.params, batch, mode="eval")
        if ckpt.normalizer is not None:
            preds = ckpt.normalizer.invert_targets(preds)
    bad = ~np.isfinite(preds[..., 0]) & (batch.mask > 0)
    if bad.any():
        raise NumericalError(f"non-finite predictions for id {ids[int(np.argmax(bad.any(axis=1)))]}")
    directory = _out_dir(args)
    for row, record_id in enumerate(ids):
        record = records[record_id]
        path = directory / f"pred_{record_id}.txt"
        lines = ["# actual predicted"]
        for step in range(record.length):
            lines.append(f"{record.weight[step]:.10g} {preds[row, step, 0]:.10g}")
        path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(ids)} prediction files to {directory}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def run_gradcheck(args) -> int:
    if not all(math.isfinite(v) and v > 0 for v in (args.h, args.tol)):
        raise UsageError("--h and --tol must be finite and > 0")
    header = f"# h={args.h:g} tol={args.tol:g} seed={args.seed}"
    print(header)
    lines = [header]
    failures = []
    for cell in CELL_KINDS:
        params, batch, masks = gradcheck_case(cell, args.seed)
        results = check_gradients(params, batch, h=args.h, dropout_masks=masks)
        for loss, (worst_err, worst_coord) in results.items():
            passed = worst_err < args.tol  # False for a NaN error
            line = f"{cell} {loss}: max_rel_err={worst_err:.3e} (coord {worst_coord}) {'PASS' if passed else 'FAIL'}"
            lines.append(line)
            print(line)
            if not passed:
                failures.append(f"{cell}/{loss} coord {worst_coord} err {worst_err:.3e}")
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    if failures:
        raise NumericalError("gradient check failed: " + "; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser():
    parser = _Parser(prog="pournet",
                     description="Estimate a pouring cup's weight sequence from its rotation sequence.")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # subcommand name -> its parser

    p = sub.add_parser("generate", help="synthesize a pouring dataset")
    p.add_argument("--n", type=int, default=100, help="number of records")
    p.add_argument("--out", default="data.jsonl", help="output dataset path")
    p.add_argument("--ranges", help="JSON ranges file (optional trajectory block)")
    p.add_argument("--noise", type=float, default=0.0, help="weight sensor noise sigma, lbf (the only noise setting)")
    _common(p)

    p = sub.add_parser("split", help="write a train/val/test split manifest")
    p.add_argument("--data", help="dataset path")
    p.add_argument("--out", help="manifest path (default <out-dir>/manifest.json)")
    p.add_argument("--train-frac", type=float, default=0.8, help="training fraction")
    p.add_argument("--val-frac", type=float, default=0.7, help="validation fraction of the remainder")
    _common(p)

    def add_train_flags(p):
        p.add_argument("--data", help="dataset path")
        p.add_argument("--manifest", help="split manifest path")
        p.add_argument("--loss", choices=LOSS_KINDS, default="euclidean", help="training loss")
        p.add_argument("--lr", type=float, default=1e-4, help="Adam learning rate")
        p.add_argument("--epochs", type=int, default=2000, help="epoch budget")
        p.add_argument("--batch-size", type=int, default=32, help="mini-batch size")
        p.add_argument("--patience", type=int, help="early-stopping patience (off when unset)")
        p.add_argument("--clip", type=float, help="global gradient-norm clip (off when unset)")
        p.add_argument("--raw", action="store_true", help="skip feature/target normalization")
        p.add_argument("--max-len", type=int, help="pad length (default: longest record)")

    p = sub.add_parser("train", help="train one model")
    add_train_flags(p)
    p.add_argument("--cell", choices=CELL_KINDS, default="lstm", help="recurrent cell kind")
    p.add_argument("--activation", choices=OUTPUT_ACTIVATIONS, default="relu", help="dense layers' activation")
    p.add_argument("--spec", help="model spec JSON file (overrides --cell/--activation)")
    _common(p, out_dir_default="run")

    p = sub.add_parser("grid", help="train every combo of the experiment grid")
    add_train_flags(p)
    p.add_argument("--gridspec", help="JSONL combo file (default: the bundled 7-combo grid)")
    p.add_argument("--epoch-scale", type=float, default=1.0, help="multiply every combo's epochs (0.01: 2000 -> 20)")
    _common(p, out_dir_default="grid")

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--data", help="dataset path")
    p.add_argument("--manifest", help="split manifest (needed with --split)")
    p.add_argument("--split", choices=("train", "val", "test"), help="score one split only")
    p.add_argument("--loss", choices=LOSS_KINDS, default="euclidean", help="metric")
    p.add_argument("--out", help="metrics file (default <out-dir>/metrics.txt)")
    _common(p)

    p = sub.add_parser("predict", help="write actual/predicted series for chosen records")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--data", help="dataset path")
    p.add_argument("--ids", help="comma-separated record ids")
    _common(p)

    p = sub.add_parser("gradcheck", help="compare backprop against finite differences")
    p.add_argument("--h", type=float, default=FD_STEP, help="finite-difference step")
    p.add_argument("--tol", type=float, default=FD_TOL, help="max relative error allowed")
    p.add_argument("--out", help="also write the report here")
    _common(p)

    return parser


_RUNNERS = {
    "generate": run_generate,
    "split": run_split,
    "train": run_train,
    "grid": run_grid,
    "evaluate": run_evaluate,
    "predict": run_predict,
    "gradcheck": run_gradcheck,
}

_REQUIRED = {
    "split": ("data",),
    "train": ("data", "manifest"),
    "grid": ("data", "manifest"),
    "evaluate": ("checkpoint", "data"),
    "predict": ("checkpoint", "data", "ids"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        if args.config:
            at = argv.index(args.command) + 1
            config_argv = _config_argv(args.config, parser.commands[args.command])
            try:  # the command line's flags parsed on their own, so a config flag failed
                args = parser.parse_args(argv[:at] + config_argv + argv[at:])
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from exc
        for name in _REQUIRED.get(args.command, ()):
            if getattr(args, name) in (None, ""):
                raise UsageError(f"--{name.replace('_', '-')} is required")
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetFormatError, OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
