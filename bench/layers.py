"""Per-layer metrics of a traced run: figures from the spans, plus a probe of
each reference-model layer on its own at the desk-scale shape 32 x 150."""

import statistics
import time

import numpy as np

from spans import Tracer

PROBE_REPS = 7


def _ms(tracer: Tracer, indices):
    return 1e3 * statistics.median(tracer.duration(i) for i in indices)


def layer_metrics(bench):
    t, s, w = bench.tracer, bench.samples, bench.w
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    kids = t.children()
    trains = t.find("train.train", within="stage.train")
    for name, span in (("nn.from_flat_ms", "nn.from_flat"), ("optim.adam_step_ms", "optim.adam_step"),
                       ("losses.loss_and_grad_ms", "losses.loss_and_grad"), ("data.take_ms", "data.take"),
                       ("grad.backward_ms", "grad.backward")):
        put(name, _ms(t, t.find(span, within="train.train")), "ms")
    put("train.epoch_ms", 1e3 * statistics.median(s.traced_epoch_s), "ms")
    put("train.validation_ms",
        _ms(t, [k for i in trains for k in kids[i] if t.spans[k][0] == "train.evaluate"]), "ms")
    put("train.self_ms", 1e3 * statistics.median(
        (t.duration(i) - sum(t.duration(k) for k in kids[i])) / w.epochs for i in trains), "ms")

    predict_obs = [o for o in t.forward_obs if t.under(o[0], "stage.predict")]
    put("nn.eval_cache_mb", statistics.median(o[3] for o in predict_obs) / 2**20, "MB")
    fed = [o for o in t.forward_obs if t.under(o[0], "stage.train") or t.under(o[0], "stage.predict")]
    put("data.valid_step_share", sum(o[1] for o in fed) / sum(o[2] for o in fed), "ratio")

    gens = t.find("stage.generate")
    volume_calls = t.find("simulate.retained_volume", within="stage.generate")
    ungula_calls = t.find("simulate.ungula_volume", within="stage.generate")
    put("simulate.ms_per_pour", _ms(t, gens) / w.corpus_pours, "ms")
    put("simulate.retained_volume_calls", len(volume_calls) / len(gens), "count")
    put("simulate.ungula_share", len(ungula_calls) / len(volume_calls), "ratio")
    put("simulate.quad_us", 1e3 * _ms(t, ungula_calls), "us")

    for name, span, within in (("data.serialize_ms", "data.serialize_dataset", "stage.serialize"),
                               ("data.parse_ms", "data.parse_dataset", "stage.load"),
                               ("data.pad_and_mask_ms", "data.pad_and_mask", "stage.load"),
                               ("data.apply_normalizer_ms", "data.apply_normalizer", "stage.load"),
                               ("data.fit_normalizer_ms", "data.fit_normalizer", None),
                               ("checkpoint.save_ms", "checkpoint.save", "stage.checkpoint"),
                               ("checkpoint.load_ms", "checkpoint.load", "stage.checkpoint"),
                               ("grad.check_gradients_ms", "grad.check_gradients", "stage.gradcheck")):
        put(name, _ms(t, t.find(span, within=within)), "ms")

    commands = t.find("cli.main", within="stage.gradcheck")
    put("grad.loss_evals", len(t.find("losses.loss_and_grad", within="grad.check_gradients")) / len(commands),
        "count")
    put("nn.forward_calls", len(t.find("nn.forward", within="stage.gradcheck")) / len(commands), "count")
    checked = {}
    for i in t.find("grad.check_gradients", within="stage.gradcheck"):
        command = next(a for a in t.ancestors(i) if t.spans[a][0] == "cli.main")
        checked[command] = checked.get(command, 0.0) + t.duration(i)
    put("cli.gradcheck_search_ms",
        1e3 * statistics.median(t.duration(c) - checked.get(c, 0.0) for c in commands), "ms")

    plain = [sec for traced, sec in s.round_s if not traced]
    traced = [sec for traced, sec in s.round_s if traced]
    put("trace.overhead_pct", 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    return out


def _timed(fn):
    times = []
    result = None
    for _ in range(PROBE_REPS):
        tic = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - tic)
    return 1e3 * statistics.median(times), result


def probe_layers(bench):
    """Forward and backward of each reference_model() layer as a one-layer
    ModelSpec at its own input width, through nn.forward and
    nn.backward_through_layers, on the mask of 32 desk-scale training pours."""
    nn = bench.nn
    rng = np.random.default_rng(bench.seed)
    mask = bench.train_batch.mask[:32]
    n, t_len = mask.shape
    spec = bench.spec
    widths = spec.widths()
    cases = [(f"L{i}_{layer.kind}", widths[i], layer) for i, layer in enumerate(spec.layers)]
    cases.append(("gru16", spec.input_dim,
                  nn.LayerSpec("gru", units=16, activation="tanh", recurrent_activation="hard_sigmoid")))
    out = {}
    for name, width, layer in cases:
        one = nn.ModelSpec(input_dim=width, layers=[layer])
        params = nn.build_model(one, 0)
        x = rng.standard_normal((n, t_len, width)) * mask[..., None]
        kept = [rng.random((n, t_len, width)) >= layer.rate] if layer.kind == "dropout" else None
        fwd_ms, (y, caches) = _timed(
            lambda: nn.forward(params, x, mask, mode="train", dropout_masks=kept))
        dy = rng.standard_normal(y.shape)
        bwd_ms, _ = _timed(lambda: nn.backward_through_layers(params, caches, dy))
        out[f"nn.forward_ms.{name}"] = (fwd_ms, "ms")
        out[f"nn.backward_ms.{name}"] = (bwd_ms, "ms")
    return out
