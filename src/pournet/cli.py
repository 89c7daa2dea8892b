"""Command-line interface.

Subcommands: generate, split, train, grid, evaluate, predict, gradcheck.
Every subcommand accepts --seed, --out-dir, and --config <file>. The config
file holds key=value lines matching the long flag names; explicit flags
override it. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

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
from .nn import ModelSpec, model_forward, reference_model
from .simulate import SimRanges, TrajectoryConfig, default_ranges, generate_dataset
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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read_config(path) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add(parser, registry, *flags, dest=None, type=str, default=None, choices=None, flag=False, help=""):
    """Register an option with its converter and builtin default.

    Arguments are parsed with default None so a later pass can layer
    CLI > config file > builtin.
    """
    name = dest or flags[0].lstrip("-").replace("-", "_")
    if flag:
        parser.add_argument(*flags, dest=name, action="store_const", const=True, default=None, help=help)
        registry[name] = (_parse_bool, default if default is not None else False)
    else:
        parser.add_argument(*flags, dest=name, type=type, default=None, choices=choices, help=help)
        conv = type
        if choices is not None:
            def conv(text, _type=type, _choices=choices):
                value = _type(text)
                if value not in _choices:
                    raise ValueError(f"must be one of {_choices}: {value!r}")
                return value
        registry[name] = (conv, default)
    return registry


def _resolve(args, registry):
    """Fill unset options from the config file, then from builtin defaults."""
    provided = {name for name in registry if getattr(args, name) is not None}
    file_values = _read_config(args.config) if args.config else {}
    unknown = set(file_values) - set(registry)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for name, (conv, default) in registry.items():
        if getattr(args, name) is not None:
            continue
        if name in file_values:
            raw = file_values[name]
            if raw == "":
                setattr(args, name, default)
                continue
            try:
                setattr(args, name, conv(raw))
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {name}: {exc}") from exc
            provided.add(name)
        else:
            setattr(args, name, default)
    args._provided = provided


def _common(parser, registry, out_dir_default="."):
    _add(parser, registry, "--seed", type=int, default=0, help="RNG seed")
    _add(parser, registry, "--out-dir", default=out_dir_default, help="directory for output files")
    parser.add_argument("--config", default=None, help="key=value file; flags override it")


def _out_dir(args) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# generate


def _load_ranges_file(path):
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DatasetFormatError(f"cannot read ranges file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: ranges file must be a JSON object")
    trajectory = doc.pop("trajectory", {})
    try:
        ranges = SimRanges.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad ranges ({exc})") from exc
    return ranges, trajectory


def run_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.noise < 0:
        raise UsageError("--noise must be >= 0")
    overrides = {}
    if args.ranges:
        ranges, overrides = _load_ranges_file(args.ranges)
    else:
        ranges = default_ranges()
    traj_kwargs = {"seed": args.seed, "noise_sigma": args.noise}
    for key in ("length", "final_tilt"):
        if key in overrides:
            traj_kwargs[key] = tuple(overrides[key])
    for key in ("ramp_frac", "jitter_deg"):
        if key in overrides:
            traj_kwargs[key] = float(overrides[key])
    if "noise_sigma" in overrides and "noise" not in args._provided:
        traj_kwargs["noise_sigma"] = float(overrides["noise_sigma"])
    try:
        config = TrajectoryConfig(**traj_kwargs)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad trajectory settings: {exc}") from exc
    records = generate_dataset(args.n, ranges, config)
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    serialize_dataset(records, out_path)
    gen_doc = {
        "n": args.n,
        "seed": args.seed,
        "ranges": ranges.to_dict(),
        "trajectory": {
            "length": list(config.length),
            "ramp_frac": config.ramp_frac,
            "final_tilt": list(config.final_tilt),
            "jitter_deg": config.jitter_deg,
            "noise_sigma": config.noise_sigma,
        },
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


def _split_batches(records, manifest, normalizer, normalize, max_len=None):
    """(train_batch, val_batch, test_batch, normalizer_in_use)."""
    if max_len is None:
        max_len = max(r.length for r in records)
    groups = []
    for ids, what in ((manifest.train_ids, "train split"),
                      (manifest.val_ids, "val split"),
                      (manifest.test_ids, "test split")):
        groups.append(pad_and_mask(_records_for_ids(records, ids, what), max_len))
    if not normalize:
        return (*groups, None)
    if normalizer is None:
        normalizer = fit_normalizer(_records_for_ids(records, manifest.train_ids, "train split"))
    return (*(apply_normalizer(normalizer, g) for g in groups), normalizer)


def _train_config_from_args(args) -> TrainConfig:
    config = TrainConfig(
        loss=args.loss,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        patience=args.patience,
        normalize=not args.raw,
        clip_norm=args.clip,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _model_spec_from_args(args) -> ModelSpec:
    if args.spec:
        try:
            doc = json.loads(Path(args.spec).read_text())
            return ModelSpec.from_dict(doc)
        except OSError as exc:
            raise DatasetFormatError(f"cannot read spec file {args.spec}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{args.spec}: bad model spec ({exc})") from exc
    try:
        return reference_model(cell=args.cell, output_activation=args.activation)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_TRAIN_MANIFEST_KEYS = ("data", "manifest", "spec", "cell", "loss", "activation", "lr",
                        "epochs", "batch_size", "patience", "clip", "raw", "max_len",
                        "seed", "out_dir")


def _write_run_manifest(args, path) -> None:
    lines = []
    for key in _TRAIN_MANIFEST_KEYS:
        value = getattr(args, key)
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
    records = parse_dataset(args.data)
    manifest, stored_norm = load_manifest(args.manifest)
    train_batch, val_batch, _, normalizer = _split_batches(
        records, manifest, stored_norm, config.normalize, args.max_len
    )
    if train_batch.features.shape[2] != spec.input_dim:
        raise DatasetFormatError(
            f"model expects {spec.input_dim} features, dataset provides {train_batch.features.shape[2]}"
        )
    params, history = train(spec, train_batch, val_batch, config)
    directory = _out_dir(args)
    ckpt_path = directory / "checkpoint.txt"
    save_checkpoint(ckpt_path, params, normalizer,
                    seeds={"init_seed": config.seed, "shuffle_seed": config.seed})
    history.checkpoint_path = str(ckpt_path)
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
    if args.epoch_scale <= 0:
        raise UsageError("--epoch-scale must be > 0")
    base = _train_config_from_args(args)
    records = parse_dataset(args.data)
    manifest, stored_norm = load_manifest(args.manifest)
    train_batch, val_batch, _, _ = _split_batches(
        records, manifest, stored_norm, base.normalize, args.max_len
    )
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


def _checkpoint_batch(ckpt, records, ids, max_len=None):
    chosen = _records_for_ids(records, ids, "id list")
    batch = pad_and_mask(chosen, max_len)
    if ckpt.normalizer is not None:
        batch = apply_normalizer(ckpt.normalizer, batch)
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
    batch = _checkpoint_batch(ckpt, records, ids)
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
    batch = _checkpoint_batch(ckpt, records, ids)
    preds = model_forward(ckpt.params, batch, mode="eval")
    if ckpt.normalizer is not None:
        preds = ckpt.normalizer.invert_targets(preds)
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
    if args.h <= 0 or args.tol <= 0:
        raise UsageError("--h and --tol must be > 0")
    header = f"# h={args.h:g} tol={args.tol:g} seed={args.seed}"
    print(header)
    lines = [header]
    failures = []
    for cell in ("lstm", "gru"):
        for loss in ("mse", "euclidean"):
            params, batch, masks = gradcheck_case(cell, args.seed)
            worst_err, worst_coord = check_gradients(params, batch, loss, h=args.h,
                                                     dropout_masks=masks)
            verdict = "PASS" if worst_err < args.tol else "FAIL"
            line = f"{cell} {loss}: max_rel_err={worst_err:.3e} (coord {worst_coord}) {verdict}"
            lines.append(line)
            print(line)
            if worst_err >= args.tol:
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
    registries = {}

    p = sub.add_parser("generate", help="synthesize a pouring dataset", add_help=True)
    r = registries["generate"] = {}
    _add(p, r, "--n", type=int, default=100, help="number of records")
    _add(p, r, "--out", default="data.jsonl", help="output dataset path")
    _add(p, r, "--ranges", default=None, help="JSON ranges file (optional trajectory block)")
    _add(p, r, "--noise", type=float, default=0.0, help="weight sensor noise sigma, lbf")
    _common(p, r)

    p = sub.add_parser("split", help="write a train/val/test split manifest")
    r = registries["split"] = {}
    _add(p, r, "--data", default=None, help="dataset path")
    _add(p, r, "--out", default=None, help="manifest path (default <out-dir>/manifest.json)")
    _add(p, r, "--train-frac", type=float, default=0.8, help="training fraction")
    _add(p, r, "--val-frac", type=float, default=0.7, help="validation fraction of the remainder")
    _common(p, r)

    def add_train_flags(p, r, epochs_default):
        _add(p, r, "--data", default=None, help="dataset path")
        _add(p, r, "--manifest", default=None, help="split manifest path")
        _add(p, r, "--loss", choices=("mse", "euclidean"), default="euclidean", help="training loss")
        _add(p, r, "--lr", type=float, default=1e-4, help="Adam learning rate")
        _add(p, r, "--epochs", type=int, default=epochs_default, help="epoch budget")
        _add(p, r, "--batch-size", type=int, default=32, help="mini-batch size")
        _add(p, r, "--patience", type=int, default=None, help="early-stopping patience (off when unset)")
        _add(p, r, "--clip", type=float, default=None, help="global gradient-norm clip (off when unset)")
        _add(p, r, "--raw", flag=True, help="skip feature/target normalization")
        _add(p, r, "--max-len", type=int, default=None, help="pad length (default: longest record)")

    p = sub.add_parser("train", help="train one model")
    r = registries["train"] = {}
    add_train_flags(p, r, epochs_default=2000)
    _add(p, r, "--cell", choices=("lstm", "gru"), default="lstm", help="recurrent cell kind")
    _add(p, r, "--activation", choices=("linear", "relu"), default="relu", help="dense layers' activation")
    _add(p, r, "--spec", default=None, help="model spec JSON file (overrides --cell/--activation)")
    _common(p, r, out_dir_default="run")

    p = sub.add_parser("grid", help="train every combo of the experiment grid")
    r = registries["grid"] = {}
    add_train_flags(p, r, epochs_default=2000)
    _add(p, r, "--gridspec", default=None, help="JSONL combo file (default: the bundled 7-combo grid)")
    _add(p, r, "--epoch-scale", type=float, default=1.0, help="multiply every combo's epochs (0.01: 2000 -> 20)")
    _common(p, r, out_dir_default="grid")

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    r = registries["evaluate"] = {}
    _add(p, r, "--checkpoint", default=None, help="checkpoint path")
    _add(p, r, "--data", default=None, help="dataset path")
    _add(p, r, "--manifest", default=None, help="split manifest (needed with --split)")
    _add(p, r, "--split", choices=("train", "val", "test"), default=None, help="score one split only")
    _add(p, r, "--loss", choices=("mse", "euclidean"), default="euclidean", help="metric")
    _add(p, r, "--out", default=None, help="metrics file (default <out-dir>/metrics.txt)")
    _common(p, r)

    p = sub.add_parser("predict", help="write actual/predicted series for chosen records")
    r = registries["predict"] = {}
    _add(p, r, "--checkpoint", default=None, help="checkpoint path")
    _add(p, r, "--data", default=None, help="dataset path")
    _add(p, r, "--ids", default=None, help="comma-separated record ids")
    _common(p, r)

    p = sub.add_parser("gradcheck", help="compare backprop against finite differences")
    r = registries["gradcheck"] = {}
    _add(p, r, "--h", type=float, default=FD_STEP, help="finite-difference step")
    _add(p, r, "--tol", type=float, default=FD_TOL, help="max relative error allowed")
    _add(p, r, "--out", default=None, help="also write the report here")
    _common(p, r)

    return parser, registries


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
    parser, registries = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        _resolve(args, registries[args.command])
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
