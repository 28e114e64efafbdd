"""Joint training and evaluation of the dual-path model.

One model bundle owns the serial path, the parallel path, and the
vocabulary. A training step encodes a batch, computes the teacher-forced
serial loss, feeds the exported acoustic/linguistic embeddings to the
parallel path, and optimizes the weighted sum of the two losses. Everything
is seeded: parameter init from the run seed, per-epoch shuffling and prompt
sampling from (seed, epoch), so runs are bit-reproducible and resumable at
epoch granularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, require_tensor, restore_params, save_checkpoint
from .config import RunConfig
from .corpus import Utterance
from .fusion import PARALLEL_ONLY_FALLBACK, predict, total_loss
from .layers import Module
from .optim import AdamW
from .parallel import ParallelPathModel
from .serial import SerialModel
from .tensor import Tensor
from .vocab import N_CLASSES, Vocab, build_vocab

NO_LINGUISTIC_EVIDENCE = "NoLinguisticEvidence"


class SpdpModel(Module):
    """Serial path + parallel path + vocabulary under one parameter registry."""

    def __init__(self, run_cfg: RunConfig, vocab: Vocab | None = None):
        self.run_cfg = run_cfg
        self.vocab = vocab if vocab is not None else build_vocab()
        rng = np.random.default_rng(run_cfg.seed)
        self.serial = SerialModel(run_cfg.serial_config(len(self.vocab)), rng)
        self.parallel = ParallelPathModel(run_cfg.parallel_config(), rng)

    def trainable_params(self) -> dict[str, Tensor]:
        return self.params()

    # -- one differentiable step over a prepared batch ----------------------------

    def batch_losses(self, frames: np.ndarray, labels: np.ndarray,
                     prompts: list[list[int]], targets: list[list[int]],
                     transcript_lens: list[int]) -> tuple[Tensor, Tensor]:
        enc_last, emb_a = self.serial.encode(frames)
        l_serial, emb_t = self.serial.teacher_forced_loss(
            self.serial.adapt(enc_last), prompts, targets, transcript_lens)
        log_probs = self.parallel.forward(emb_a, emb_t, transcript_lens)
        l_parallel = self.parallel.loss(log_probs, labels)
        return l_serial, l_parallel


@dataclass
class TrainResult:
    steps: int
    log: list[dict] = field(default_factory=list)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng((seed, epoch))


def train(model: SpdpModel, train_utts: list[Utterance], out_dir: str | Path,
          start_epoch: int = 0, optimizer: AdamW | None = None) -> TrainResult:
    """Optimize the weighted dual loss; logs, checkpoints, and resumes.

    Checkpoints land in out_dir as ckpt-epoch-N.spdp (parameters plus
    optimizer moments); the step log is JSON lines in train_log.jsonl.
    """
    cfg = model.run_cfg
    fusion_cfg = cfg.fusion_config()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_targets = [model.vocab.build_target(u.transcript, u.gold_style)
                   for u in train_utts]
    if model.serial.cfg.max_decode_len < max(map(len, all_targets)) + 4:
        raise ValueError("max_decode_len must be at least the longest target + 4")
    if optimizer is None:
        optimizer = AdamW(model.trainable_params(), lr=cfg.lr,
                          weight_decay=cfg.weight_decay)
    log_path = out_dir / "train_log.jsonl"
    log_mode = "a" if start_epoch > 0 else "w"
    result = TrainResult(steps=optimizer.step_count)
    pool = model.vocab.prompt_pool
    with open(log_path, log_mode, encoding="utf-8") as log_fh:
        for epoch in range(start_epoch, cfg.epochs):
            rng = _epoch_rng(cfg.seed, epoch)
            order = rng.permutation(len(train_utts))
            prompt_ids = rng.integers(0, len(pool), size=len(train_utts))
            for lo in range(0, len(order), cfg.batch_size):
                sel = order[lo:lo + cfg.batch_size]
                batch = [train_utts[i] for i in sel]
                frames = np.stack([u.frames for u in batch])
                labels = np.array([u.gold_style for u in batch])
                prompts = [pool[prompt_ids[i]] for i in sel]
                targets = [all_targets[i] for i in sel]
                t_lens = [len(u.transcript) for u in batch]
                l_s, l_p = model.batch_losses(frames, labels, prompts, targets, t_lens)
                l_total = total_loss(l_s, l_p, fusion_cfg)
                if not np.isfinite(l_total.data).all():
                    raise FloatingPointError(
                        "non-finite loss at step "
                        f"{optimizer.step_count + 1}; batch ids: "
                        + ",".join(u.id for u in batch))
                optimizer.zero_grad()
                l_total.backward()
                optimizer.step()
                rec = {"step": optimizer.step_count,
                       "L_serial": float(l_s.data), "L_parallel": float(l_p.data),
                       "L_total": float(l_total.data)}
                result.log.append(rec)
                log_fh.write(json.dumps(rec) + "\n")
                if cfg.max_steps and optimizer.step_count >= cfg.max_steps:
                    break
            _save_epoch_checkpoint(model, optimizer, epoch, out_dir)
            if cfg.max_steps and optimizer.step_count >= cfg.max_steps:
                break
    result.steps = optimizer.step_count
    return result


def _save_epoch_checkpoint(model: SpdpModel, optimizer: AdamW, epoch: int,
                           out_dir: Path) -> None:
    blobs: dict[str, Tensor] = dict(model.params())
    blobs.update(optimizer.state_tensors())
    blobs["meta.epoch"] = Tensor(np.array([float(epoch)]))
    save_checkpoint(out_dir / f"ckpt-epoch-{epoch}.spdp", blobs)


def resume_from(model: SpdpModel, path: str | Path) -> tuple[AdamW, int]:
    """Restore parameters and optimizer moments; returns (optimizer, next epoch)."""
    blobs = load_checkpoint(path)
    restore_params(model.params(), blobs)
    optimizer = AdamW(model.trainable_params(), lr=model.run_cfg.lr,
                      weight_decay=model.run_cfg.weight_decay)
    optimizer.load_state_tensors(blobs)
    return optimizer, int(require_tensor(blobs, "meta.epoch").reshape(-1)[0]) + 1


# -- evaluation ----------------------------------------------------------------------


@dataclass
class MetricsReport:
    n: int
    fused_accuracy: float
    serial_accuracy: float
    parallel_accuracy: float
    confusion: np.ndarray          # (N_CLASSES, N_CLASSES) rows gold, cols predicted (fused)
    fallback_counts: dict[str, int]

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "fused_accuracy": self.fused_accuracy,
            "serial_accuracy": self.serial_accuracy,
            "parallel_accuracy": self.parallel_accuracy,
            "confusion": self.confusion.astype(int).tolist(),
            "fallback_counts": self.fallback_counts,
        }, indent=2, sort_keys=True)


def evaluate(model: SpdpModel, utts: list[Utterance],
             records_out: Path | None = None) -> MetricsReport:
    """Run full inference and tally all three voting routes.

    Utterances go to ``predict`` in consecutive slices of ``batch_size``,
    all of one frame shape; records keep the utterance order. The
    serial route scores a hit only when a usable p exists; utterances whose
    generation yields no transcript at all fall back to class 0 with a flag
    and get no record, rather than aborting the whole evaluation.
    """
    if not utts:
        raise ValueError("evaluation split is empty")
    cfg = model.run_cfg.fusion_config()
    prompt = model.vocab.prompt_pool[0]
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    serial_hits = parallel_hits = fused_hits = 0
    fallbacks: dict[str, int] = {}
    lines: list[str] = []
    size = model.run_cfg.batch_size
    for chunk in (utts[lo:lo + size] for lo in range(0, len(utts), size)):
        recs = predict(np.stack([u.frames for u in chunk]), model.serial, model.parallel,
                       model.vocab, cfg, prompt)
        for u, rec in zip(chunk, recs):
            if rec is None:
                fallbacks[NO_LINGUISTIC_EVIDENCE] = fallbacks.get(NO_LINGUISTIC_EVIDENCE, 0) + 1
                confusion[u.gold_style, 0] += 1
                continue
            for flag in rec.flags:
                fallbacks[flag] = fallbacks.get(flag, 0) + 1
            serial_ok = PARALLEL_ONLY_FALLBACK not in rec.flags
            if serial_ok and int(np.argmax(rec.p)) == u.gold_style:
                serial_hits += 1
            if int(np.argmax(rec.q)) == u.gold_style:
                parallel_hits += 1
            if rec.cls == u.gold_style:
                fused_hits += 1
            confusion[u.gold_style, rec.cls] += 1
            if records_out is not None:
                lines.append(rec.to_json_line())
    if records_out is not None:
        records_out.write_text("\n".join(lines) + ("\n" if lines else ""),
                               encoding="utf-8")
    n = len(utts)
    return MetricsReport(
        n=n,
        fused_accuracy=fused_hits / n,
        serial_accuracy=serial_hits / n,
        parallel_accuracy=parallel_hits / n,
        confusion=confusion,
        fallback_counts=fallbacks,
    )


def write_confusion_csv(report: MetricsReport, path: str | Path) -> None:
    rows = ["gold\\pred," + ",".join(str(j) for j in range(N_CLASSES))]
    for i in range(N_CLASSES):
        rows.append(f"{i}," + ",".join(str(int(v)) for v in report.confusion[i]))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
