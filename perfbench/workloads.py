"""The three benchmark workloads: train, infer and curate.

Each workload has a set-up (``prepare``) that writes its inputs from the
seed, and a measured phase (``measure``) that drives spdp's public functions
over those inputs in a closed loop on one thread: the next step starts when
the previous one has returned. A measured phase runs until both its time
budget and its sample floor are met, and always covers at least one full
round (train), pass over the held-out set (infer) or pass over the WAV set
(curate), so its quality figures do not depend on the run length.

- train exercises the autodiff engine with gradients on: graph build,
  backward and AdamW, plus one checkpoint per epoch. No decode.
- infer mirrors ``spdp eval`` at batch 1 under ``no_grad``; about three
  quarters of its time is greedy decode, so it uses the same tensor and
  layer code very differently from train.
- curate runs the ``spdp filter`` pipeline, which never touches the tensor
  engine: an engine change must predict no change here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spdp import audio, checkpoint, corpus, optim, trainer
from spdp.config import RunConfig
from spdp.vocab import build_vocab

import stats
from spans import patched

# Models start from this RunConfig seed (init and shuffling) whatever the
# workload seed is; the workload seed picks the data. Across seeds the model
# is then the same and only the inputs differ, which keeps the figures of
# different seeds comparable (a model trained for seconds varies a lot with
# its init).
MODEL_SEED = 0
# train: 14 training utterances per class -> 112, i.e. 7 full batches of 16 per
# epoch; one round is a fresh model trained for 3 epochs = 21 optimizer steps.
TRAIN_N_PER_CLASS = 16
TRAIN_EPOCHS = 3
# infer: the set-up trains on the default desk corpus for 2 epochs; the
# held-out set is a corpus from the workload seed + 1 (never MODEL_SEED).
INFER_TRAIN_N_PER_CLASS = 64
INFER_TRAIN_EPOCHS = 2
INFER_HELDOUT_N_PER_CLASS = 32
INFER_REQUEST = 4          # utterances per evaluate() call; one call is one step
CURATE_FILES = 100
SUM_TOL = 1e-9
# Flags that mark an utterance as failed (besides NoLinguisticEvidence,
# which yields no record at all).
FAILURE_FLAGS = {"NoTermination", "ParallelOnlyFallback", "ZeroMassFallback"}

# Workloads whose items_per_s and step_ms_p50 come from each step position's
# fastest samples rather than from every sample (see stats.py). Curate's steps
# are ~10 ms of interpreter-bound work that load on the shared cores slows by up
# to 1.8x, and a run gives each of its 100 files about 25 samples. Train and
# infer get 5-12 rounds, too few for a position's fastest sample to be reliably
# unloaded; over every sample their run-to-run spread was lower.
FASTEST_BY_POSITION = {"train": False, "infer": False, "curate": True}

# The span that opens a new item in a traced run.
ITEM_START = {"train": "trainer.batch_losses", "infer": "fusion.predict",
              "curate": "audio.load_wav"}


@dataclass
class Measurement:
    """One measured phase: rounds of the same steps, back to back.

    ``attempted`` and ``failed`` count the first round (train: optimizer
    steps, infer: utterances, curate: files); later rounds repeat it exactly,
    which the "identical" gates check, so the failure share does not depend
    on the run length.
    """
    window_ns: tuple[int, int]   # perf_counter_ns at the start and end
    items: int               # utterances trained / evaluated, files curated
    attempted: int
    failed: int
    step_ms: list[float]     # per optimizer step / evaluate() call / file, in order
    round_steps: int         # steps in one round; step i is at position i % round_steps
    round_items: int         # items in one round
    quality: dict[str, float]
    gates: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.window_ns[1] - self.window_ns[0]) / 1e9


def train_config(out_dir: Path) -> RunConfig:
    return RunConfig(seed=MODEL_SEED, n_per_class=TRAIN_N_PER_CLASS, epochs=TRAIN_EPOCHS,
                     out_dir=str(out_dir))


def infer_config(out_dir: Path) -> RunConfig:
    return RunConfig(seed=MODEL_SEED, n_per_class=INFER_TRAIN_N_PER_CLASS,
                     epochs=INFER_TRAIN_EPOCHS, out_dir=str(out_dir))


def _corpus(cfg: RunConfig, seed: int, vocab) -> list:
    return corpus.generate_corpus(dataclasses.replace(cfg.corpus_config(), seed=seed), vocab)


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- set-up ----------------------------------------------------------------------


def prepare(workload: str, seed: int, dest: Path) -> str:
    """Write the workload's inputs under ``dest``; returns their digest."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        utts = _corpus(train_config(dest), seed, build_vocab())
        corpus.save_corpus(utts, dest / "manifest.jsonl", dest / "frames.bin")
    elif workload == "infer":
        cfg = infer_config(dest / "model")
        model = trainer.SpdpModel(cfg)
        utts = _corpus(cfg, MODEL_SEED, model.vocab)
        trainer.train(model, [u for u in utts if u.split == "train"], cfg.out_dir)
        held_cfg = dataclasses.replace(cfg, n_per_class=INFER_HELDOUT_N_PER_CLASS)
        held = _corpus(held_cfg, seed + 1, model.vocab)
        corpus.save_corpus(held, dest / "manifest.jsonl", dest / "frames.bin")
    elif workload == "curate":
        truth = audio.build_filter_fixture_set(dest / "wav", n=CURATE_FILES, seed=seed)
        (dest / "truth.json").write_text(json.dumps(truth, sort_keys=True),
                                         encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _digest(dest)


# -- measured phases -------------------------------------------------------------


def _done(t0: float, budget_s: float, rounds: int, round_steps: int,
          min_samples: int) -> bool:
    """Budget spent, and enough whole rounds to keep min_samples fastest samples."""
    return time.perf_counter() - t0 >= budget_s \
        and rounds >= stats.rounds_for(round_steps, min_samples)


def measure_train(inputs: Path, seed: int, budget_s: float, min_samples: int,
                  scratch: Path) -> Measurement:
    """Rounds of `spdp train`: load corpus, fresh model, 3 epochs of AdamW.

    Step boundaries come from one timestamp after each ``AdamW.step``, so a
    step's time includes batch assembly, logging and any epoch checkpoint.
    """
    cfg = train_config(scratch / "train-out")
    ends: list[float] = []
    orig_step = vars(optim.AdamW)["step"]

    def stamped_step(self):
        orig_step(self)
        ends.append(time.perf_counter())

    logs: list[list[dict]] = []
    round_lengths: list[int] = []
    step_ms: list[float] = []
    errors: list[str] = []
    items = 0
    t0_ns = time.perf_counter_ns()
    t0 = t0_ns / 1e9
    with patched([(optim.AdamW, "step", stamped_step)]):
        while not errors and not (logs and _done(t0, budget_s, len(logs), len(logs[0]),
                                                 min_samples)):
            utts = corpus.load_corpus(inputs / "manifest.jsonl", inputs / "frames.bin")
            train_utts = [u for u in utts if u.split == "train"]
            model = trainer.SpdpModel(cfg)
            mark = len(ends)
            start = time.perf_counter()
            try:
                logs.append(trainer.train(model, train_utts, cfg.out_dir).log)
            except (FloatingPointError, ValueError) as err:
                errors.append(f"{type(err).__name__}: {err}")
            stamps = [start] + ends[mark:]
            round_lengths.append(len(stamps) - 1)
            step_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
            items += _utterances_in_steps(len(train_utts), cfg.batch_size, len(stamps) - 1)
    window = (t0_ns, time.perf_counter_ns())
    first_steps = len(logs[0]) if logs else len(step_ms) + 1
    round_steps = round_lengths[0]
    m = Measurement(window_ns=window, items=items, attempted=first_steps,
                    failed=0 if logs else 1, step_ms=step_ms, round_steps=round_steps,
                    round_items=_utterances_in_steps(len(train_utts), cfg.batch_size,
                                                     round_steps),
                    quality={}, errors=errors)
    losses = [rec["L_total"] for rec in logs[0]] if logs else []
    finite = not errors and all(math.isfinite(v) for v in losses)
    m.gates["loss finite"] = finite
    if finite:
        per_epoch = math.ceil(len(train_utts) / cfg.batch_size)
        first = sum(losses[:per_epoch]) / per_epoch
        last = sum(losses[-per_epoch:]) / per_epoch
        m.quality["loss_final"] = last
        m.gates["last-epoch loss below first-epoch loss"] = last < first
    m.gates["rounds identical"] = all(log == logs[0] for log in logs) \
        and all(n == round_steps for n in round_lengths)
    return m


def _utterances_in_steps(n: int, batch: int, steps: int) -> int:
    """Utterances consumed by the first ``steps`` steps of epochs over n items."""
    per_epoch = math.ceil(n / batch)
    return sum(min(batch, n - (j % per_epoch) * batch) for j in range(steps))


def _load_for_eval(inputs: Path, cfg: RunConfig, ckpt: Path):
    """Held-out corpus in requests, and a model restored from the checkpoint."""
    utts = corpus.load_corpus(inputs / "manifest.jsonl", inputs / "frames.bin")
    model = trainer.SpdpModel(cfg)
    checkpoint.restore_params(model.params(), checkpoint.load_checkpoint(ckpt))
    return model, [utts[i:i + INFER_REQUEST] for i in range(0, len(utts), INFER_REQUEST)]


def _infer_checkpoint(inputs: Path) -> Path:
    return inputs / "model" / f"ckpt-epoch-{INFER_TRAIN_EPOCHS - 1}.spdp"


def warm_up(workload: str, inputs: Path, scratch: Path) -> None:
    """Untimed first request for infer, so lazy allocation stays out of the window."""
    if workload == "infer":
        model, requests = _load_for_eval(inputs, infer_config(scratch),
                                         _infer_checkpoint(inputs))
        trainer.evaluate(model, requests[0])


def measure_infer(inputs: Path, seed: int, budget_s: float, min_samples: int,
                  scratch: Path) -> Measurement:
    """`spdp eval`: load corpus, model, checkpoint, then evaluate() per request."""
    cfg = infer_config(scratch)
    ckpt = _infer_checkpoint(inputs)
    records = scratch / "predictions.jsonl"
    step_ms: list[float] = []
    first_pass: list[list[str]] = []
    items = attempted = failed = hits = 0
    complete = consistent = repeatable = True
    t0_ns = time.perf_counter_ns()
    t0 = t0_ns / 1e9
    model, requests = _load_for_eval(inputs, cfg, ckpt)
    while True:
        req = requests[len(step_ms) % len(requests)]
        s0 = time.perf_counter()
        report = trainer.evaluate(model, req, records_out=records)
        step_ms.append((time.perf_counter() - s0) * 1e3)
        lines = records.read_text(encoding="utf-8").splitlines()
        no_evidence = report.fallback_counts.get(trainer.NO_LINGUISTIC_EVIDENCE, 0)
        complete &= len(lines) + no_evidence == len(req)
        recs = [json.loads(line) for line in lines]
        consistent &= all(abs(sum(rec[k]) - 1.0) <= SUM_TOL
                          for rec in recs for k in ("p", "q", "final"))
        if len(first_pass) < len(requests):
            first_pass.append(lines)
            attempted += len(req)
            hits += round(report.fused_accuracy * report.n)
            failed += no_evidence + sum(1 for rec in recs if set(rec["flags"]) & FAILURE_FLAGS)
        else:
            repeatable &= lines == first_pass[(len(step_ms) - 1) % len(requests)]
        items += len(req)
        if _done(t0, budget_s, len(step_ms) // len(requests), len(requests), min_samples):
            break
    window = (t0_ns, time.perf_counter_ns())
    m = Measurement(window_ns=window, items=items, attempted=attempted, failed=failed,
                    step_ms=step_ms, round_steps=len(requests),
                    round_items=sum(len(req) for req in requests),
                    quality={"fused_accuracy": hits / attempted})
    m.gates["one result per utterance"] = complete
    m.gates[f"p, q and final each sum to 1 within {SUM_TOL:g}"] = consistent
    m.gates["passes identical"] = repeatable
    return m


def measure_curate(inputs: Path, seed: int, budget_s: float, min_samples: int,
                   scratch: Path) -> Measurement:
    """`spdp filter`: per file load_wav + extract_features5, then bins, filter, annotation."""
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    planted = {name for name, is_planted in truth.items() if is_planted}
    confusion = np.full((8, 8), 0.2 / 7.0) + np.eye(8) * (0.8 - 0.2 / 7.0)
    step_ms: list[float] = []
    outcomes = []
    items = 0
    t0_ns = time.perf_counter_ns()
    t0 = t0_ns / 1e9
    rule_holds = True
    while not outcomes or not _done(t0, budget_s, len(outcomes), outcomes[0][0],
                                    min_samples):
        features, names, skipped = [], [], 0
        for path in sorted((inputs / "wav").glob("*.wav")):
            s0 = time.perf_counter()
            try:
                wav, sr = audio.load_wav(path)
                features.append(audio.extract_features5(wav, sr))
                names.append(path.name)
            except (ValueError, EOFError, OSError):
                skipped += 1
            step_ms.append((time.perf_counter() - s0) * 1e3)
        items += len(names)
        bins = audio.compute_bins(features)
        kept = [name for name, fv in zip(names, features)
                if audio.filter_high_expressivity(fv, bins)]
        rule_holds &= kept == _all_five_high(names, features)
        rng = np.random.default_rng(seed)
        retained = []
        for name in kept:
            gold = hashlib.sha256(name.encode()).digest()[0] % 8
            label = audio.annotate_intersect(audio.sample_confused_label(gold, confusion, rng),
                                             audio.sample_confused_label(gold, confusion, rng))
            if label is not None:
                retained.append((name, label))
        outcomes.append((len(names) + skipped, skipped, kept, retained))
    window = (t0_ns, time.perf_counter_ns())
    attempted, failed, kept, _ = outcomes[0]
    recall = len(set(kept) & planted) / len(planted)
    m = Measurement(window_ns=window, items=items, attempted=attempted, failed=failed,
                    step_ms=step_ms, round_steps=attempted, round_items=attempted - failed,
                    quality={"planted_recall": recall})
    m.gates["every fixture file read"] = attempted == len(truth)
    m.gates["filter keeps exactly the files with all five features in the high tertile"] = \
        rule_holds
    m.gates["rounds identical"] = all(o == outcomes[0] for o in outcomes)
    return m


def _all_five_high(names: list[str], features: list) -> list[str]:
    """The expressivity rule recomputed from the features, apart from spdp's binning.

    A file is kept when each of its five features lies above the population
    mean plus TERTILE_CUT population standard deviations.
    """
    mat = np.array([[fv.speaking_rate, fv.energy_mean, fv.energy_std, fv.pitch_mean,
                     fv.pitch_std] for fv in features])
    high = mat.mean(axis=0) + audio.TERTILE_CUT * mat.std(axis=0)
    return [name for name, row in zip(names, mat) if all(row > high)]


MEASURE = {"train": measure_train, "infer": measure_infer, "curate": measure_curate}
