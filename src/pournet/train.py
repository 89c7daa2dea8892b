"""Mini-batch training loop, evaluation, and run history export."""

import time
from dataclasses import dataclass, field

import numpy as np

from .data import PaddedBatch
from .errors import NumericalError
from .grad import backward
from .losses import LOSS_KINDS, loss_value, per_sequence_metric
from .nn import ModelParams, ModelSpec, Workspace, build_model, model_forward
from .optim import AdamState, adam_step


@dataclass
class TrainConfig:
    """Knobs of one training run. Defaults mirror the reference recipe:
    Euclidean loss, lr 1e-4, 2000 epochs. Checked when built."""

    loss: str = "euclidean"
    lr: float = 1e-4
    epochs: int = 2000
    batch_size: int = 32
    seed: int = 0
    patience: int | None = None
    clip_norm: float | None = None

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS} (got {self.loss!r})")
        # lr 0 is allowed: it runs the full loop and provably changes nothing.
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be >= 0 (got {self.lr!r})")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1 (got {self.epochs!r})")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 (got {self.batch_size!r})")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 when set (got {self.patience!r})")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0 when set (got {self.clip_norm!r})")


@dataclass
class RunHistory:
    """Per-epoch record of a run. seconds is wall time and is therefore the
    one column that is not reproducible between runs."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


@dataclass(eq=False)
class EvalResult:
    loss: float
    per_sequence: np.ndarray


def evaluate(params: ModelParams, batch: PaddedBatch, loss_kind: str = "euclidean") -> EvalResult:
    """Eval-mode loss plus the per-sequence metric breakdown; a loss that is
    not finite raises NumericalError, and numpy's overflow warnings on the
    way to it are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        preds = model_forward(params, batch, mode="eval")
        loss = loss_value(loss_kind, preds, batch.targets, batch.mask)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite {loss_kind} loss ({loss})")
        return EvalResult(loss=loss, per_sequence=per_sequence_metric(loss_kind, preds, batch.targets, batch.mask))


def train(spec: ModelSpec, train_batch: PaddedBatch, val_batch: PaddedBatch, config: TrainConfig):
    """Seeded mini-batch Adam training; returns (ModelParams, RunHistory).

    config.seed seeds both the initial weights and the run RNG. Each epoch
    reshuffles with the run RNG, walks the batches, and then scores the
    validation batch in eval mode. The recorded training loss is
    the mean of the per-batch losses seen during the epoch. With patience
    set, training stops after that many epochs without a strictly better
    validation loss and the best-epoch parameters are restored. A
    NumericalError from a minibatch step is re-raised with its epoch and
    batch (both counted from 1) in front of the message, and one from
    validation as a non-finite validation loss of its epoch. One Workspace
    serves every minibatch's forward and backward arrays and is dropped on
    return.
    """
    n = train_batch.num_sequences
    if n < 1:
        raise ValueError("training batch is empty")
    if val_batch is None or val_batch.num_sequences < 1:
        raise ValueError("validation batch is empty")
    batch_size = min(config.batch_size, n)
    params = build_model(spec, config.seed)
    flat = params.flatten()
    state = AdamState.zeros(flat.size)
    rng = np.random.default_rng(config.seed)
    history = RunHistory()
    best_val = np.inf
    best_flat = flat.copy()
    stale = 0
    workspace = Workspace()
    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n)
        batch_losses = []
        for batch_no, start in enumerate(range(0, n, batch_size), start=1):
            sub = train_batch.take(order[start : start + batch_size])
            params = ModelParams.from_flat(spec, flat)
            try:
                loss, grads = backward(params, sub, config.loss, mode="train", rng=rng, workspace=workspace)
                if config.clip_norm is not None:
                    norm = float(np.linalg.norm(grads))
                    if norm > config.clip_norm:
                        grads = grads * (config.clip_norm / norm)
                flat, state = adam_step(flat, grads, state, config.lr)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            batch_losses.append(loss)
        params = ModelParams.from_flat(spec, flat)
        try:
            val_loss = evaluate(params, val_batch, config.loss).loss
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: non-finite validation loss") from exc
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.seconds.append(time.perf_counter() - tic)
        if val_loss < best_val:
            best_val = val_loss
            best_flat = flat.copy()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if config.patience is not None and stale >= config.patience:
                break
    if config.patience is not None:
        flat = best_flat
    return ModelParams.from_flat(spec, flat), history


def export_history(history: RunHistory, path) -> None:
    """Columnar text: epoch, train loss, val loss, wall seconds."""
    lines = ["# epoch train_loss val_loss seconds", f"# best_epoch {history.best_epoch}"]
    for i in range(history.epochs_run):
        lines.append(
            f"{i + 1} {history.train_loss[i]:.17g} {history.val_loss[i]:.17g} {history.seconds[i]:.3f}"
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
