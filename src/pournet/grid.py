"""Experiment grid: train the preset across cell/loss/activation/epoch combos
on one fixed split and report the outcome table."""

import json
import time
from dataclasses import dataclass, replace

from .data import PaddedBatch
from .errors import DatasetFormatError
from .losses import LOSS_KINDS
from .nn import CELL_KINDS, OUTPUT_ACTIVATIONS, reference_model
from .train import TrainConfig, evaluate, train


@dataclass(frozen=True)
class GridCombo:
    cell: str
    loss: str
    activation: str
    epochs: int

    def __post_init__(self):
        if self.cell not in CELL_KINDS:
            raise ValueError(f"cell must be one of {CELL_KINDS} (got {self.cell!r})")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS} (got {self.loss!r})")
        if self.activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"activation must be one of {OUTPUT_ACTIVATIONS} (got {self.activation!r})")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1 (got {self.epochs!r})")


# The bundled grid: seven combinations covering both cells, both losses,
# both activations, and a spread of epoch budgets.
DEFAULT_GRID = (
    GridCombo("lstm", "mse", "linear", 500),
    GridCombo("lstm", "euclidean", "relu", 500),
    GridCombo("lstm", "mse", "relu", 1000),
    GridCombo("lstm", "euclidean", "linear", 1500),
    GridCombo("gru", "euclidean", "relu", 500),
    GridCombo("gru", "mse", "relu", 500),
    GridCombo("lstm", "euclidean", "relu", 2000),
)


@dataclass
class GridRow:
    combo: GridCombo
    epochs_run: int = 0
    train_loss: float | None = None
    val_loss: float | None = None
    seconds: float = 0.0
    error: str | None = None


@dataclass
class GridReport:
    rows: list

    @property
    def all_failed(self) -> bool:
        return all(row.error is not None for row in self.rows)


def scale_epochs(epochs: int, scale: float) -> int:
    """Scaled epoch budget, never below one epoch (0.01 turns 2000 into 20)."""
    if scale <= 0:
        raise ValueError(f"epoch scale must be > 0 (got {scale!r})")
    return max(1, round(epochs * scale))


def run_grid(train_batch: PaddedBatch, val_batch: PaddedBatch, combos,
             base_config: TrainConfig, epoch_scale: float = 1.0) -> GridReport:
    """Train every combo on the same batches with the same seed.

    A combo that raises is recorded in its row instead of aborting the grid.
    """
    rows = []
    for combo in combos:
        config = replace(base_config, loss=combo.loss,
                         epochs=scale_epochs(combo.epochs, epoch_scale))
        row = GridRow(combo=combo)
        tic = time.perf_counter()
        try:
            spec = reference_model(cell=combo.cell, output_activation=combo.activation)
            params, history = train(spec, train_batch, val_batch, config)
            row.epochs_run = history.epochs_run
            row.train_loss = history.train_loss[-1]
            row.val_loss = evaluate(params, val_batch, combo.loss).loss
        except Exception as exc:  # keep the grid going; the row records the failure
            row.error = f"{type(exc).__name__}: {exc}"
        row.seconds = time.perf_counter() - tic
        rows.append(row)
    return GridReport(rows=rows)


def parse_gridspec(path) -> list:
    """One JSON object per line: {"cell", "loss", "activation", "epochs"}."""
    combos = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                combos.append(GridCombo(cell=doc["cell"], loss=doc["loss"],
                                        activation=doc["activation"], epochs=int(doc["epochs"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: bad grid combo ({exc})") from exc
    if not combos:
        raise DatasetFormatError(f"{path}: gridspec is empty")
    return combos


def write_report(report: GridReport, path) -> None:
    """Columnar text, one row per combo: the combo, its losses, and epochs."""
    lines = ["# combo cell loss activation train_loss val_loss epochs_run seconds status"]
    for i, row in enumerate(report.rows, start=1):
        c = row.combo
        train_s = f"{row.train_loss:.17g}" if row.train_loss is not None else "-"
        val_s = f"{row.val_loss:.17g}" if row.val_loss is not None else "-"
        status = "ok" if row.error is None else "failed: " + row.error.replace("\n", " ")
        lines.append(
            f"{i} {c.cell} {c.loss} {c.activation} {train_s} {val_s} {row.epochs_run} {row.seconds:.3f} {status}"
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
