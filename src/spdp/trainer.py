"""Joint training and evaluation of the dual-path model.

One model bundle owns the serial path, the parallel path, and the
vocabulary. A training step encodes a batch, computes the teacher-forced
serial loss, feeds the exported acoustic/linguistic embeddings to the
parallel path, and optimizes the weighted sum of the two losses. Everything
is seeded: parameter init from the run seed, per-epoch shuffling and prompt
sampling from (seed, epoch), and the step count fixes the epoch and batch, so
runs are bit-reproducible and resume from any checkpoint to the same bytes.
"""

from __future__ import annotations

import ctypes
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, require_count, restore_params, save_checkpoint
from .config import RunConfig
from .corpus import Utterance
from .fusion import PARALLEL_ONLY_FALLBACK, predict, total_loss
from .layers import Module
from .optim import AdamW
from .parallel import ParallelPathModel
from .serial import SerialModel
from .tensor import Tensor
from .vocab import N_CLASSES, STYLE_CLOSE_ID, build_vocab

NO_LINGUISTIC_EVIDENCE = "NoLinguisticEvidence"


class SpdpModel(Module):
    """Serial path + parallel path + vocabulary under one parameter registry."""

    def __init__(self, run_cfg: RunConfig):
        self.run_cfg = run_cfg
        self.vocab = build_vocab()
        rng = np.random.default_rng(run_cfg.seed)
        self.serial = SerialModel(run_cfg.serial_config(), rng)
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
    steps: int                      # the optimizer's step count, resumed steps included
    log: list[dict] = field(default_factory=list)   # this run's steps only


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng((seed, epoch))


def make_out_dir(path: str | Path) -> Path:
    """Create the output directory ``path`` (and its parents) if needed."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValueError(f"output directory {out}: {err.strerror}") from err
    return out


def _log_prefix(path: Path, step: int) -> int:
    """Bytes of the log at ``path`` that hold its leading records with step <= ``step``.

    A record is a whole line; a last line with no newline is one cut short.
    """
    if not path.is_file():
        return 0
    keep = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not (isinstance(rec, dict) and type(rec.get("step")) is int):
                raise ValueError(f"{path}:{lineno}: expected a JSON object with an integer "
                                 f"'step', got {line.decode('utf-8', 'replace')[:60]!r}")
            if rec["step"] > step:
                break
            keep += len(line)
    return keep


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc mallopt parameters (malloc.h)


def _keep_freed_heap_mapped() -> None:
    """Keep the heap that a backward sweep frees mapped for the next forward.

    By default glibc serves blocks over a moving threshold with mmap and gives
    a freed heap top back to the OS, so every step would fault its activation
    pages in again. An mmap threshold fixed at 32 MiB and a trim threshold of
    1 GiB keep those pages in the process. Other C libraries are left as
    they are.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def train(model: SpdpModel, train_utts: list[Utterance], out_dir: str | Path) -> TrainResult:
    """Optimize the weighted dual loss; logs, checkpoints, and resumes.

    Before out_dir is made it refuses an empty ``train_utts`` and any
    transcript that is empty or holds an id that is not a word, so each
    target is ``transcript < label > <eos>``; then it checks the decode
    budget, restores ``run_cfg.resume`` and reads the log a resume keeps.
    out_dir gets vocab.tsv, train_log.jsonl (on resume, cut back to the
    checkpoint's step, then extended) and one ckpt-epoch-N.spdp per epoch,
    saved after the epoch's last batch or at the stop. The position is the
    optimizer's step count alone; ``max_steps`` caps it across resumes.
    """
    if not train_utts:
        raise ValueError("no training utterances in corpus")
    n_vocab = len(model.vocab)
    for u in train_utts:
        if not u.transcript:
            raise ValueError(f"utterance {u.id}: empty transcript")
        bad = [t for t in u.transcript if not STYLE_CLOSE_ID < t < n_vocab]
        if bad:
            raise ValueError(f"utterance {u.id}: token id {bad[0]} is not a word of the "
                             f"vocabulary ({STYLE_CLOSE_ID + 1}..{n_vocab - 1})")
    cfg = model.run_cfg
    fusion_cfg = cfg.fusion_config()
    all_targets = [model.vocab.build_target(u.transcript, u.gold_style)
                   for u in train_utts]
    if model.serial.cfg.max_decode_len < max(map(len, all_targets)) + 4:
        raise ValueError("max_decode_len must be at least the longest target + 4")
    _keep_freed_heap_mapped()
    optimizer = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    keep = 0                # bytes of an existing log that the run keeps
    if cfg.resume:
        blobs = load_checkpoint(cfg.resume)
        try:
            restore_params(model.params() | optimizer.state_tensors(), blobs)
            optimizer.step_count = require_count(blobs, "opt.step")
        except ValueError as err:
            raise ValueError(f"{cfg.resume}: {err}") from None
        keep = _log_prefix(Path(out_dir) / "train_log.jsonl", optimizer.step_count)
    out_dir = make_out_dir(out_dir)
    model.vocab.save(out_dir / "vocab.tsv")
    result = TrainResult(steps=optimizer.step_count)
    pool = model.vocab.prompt_pool
    per_epoch = math.ceil(len(train_utts) / cfg.batch_size)
    start = optimizer.step_count
    stop = min(cfg.epochs * per_epoch, cfg.max_steps or math.inf)
    with open(out_dir / "train_log.jsonl", "a", encoding="utf-8") as log_fh:
        log_fh.truncate(keep)
        for step in range(start, stop):
            epoch, b = divmod(step, per_epoch)
            if b == 0 or step == start:
                rng = _epoch_rng(cfg.seed, epoch)
                order = rng.permutation(len(train_utts))
                prompt_ids = rng.integers(0, len(pool), size=len(train_utts))
            sel = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
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
            if b == per_epoch - 1 or step + 1 == stop:
                log_fh.flush()      # the log on disk covers every checkpoint
                save_checkpoint(out_dir / f"ckpt-epoch-{epoch}.spdp", model.params()
                                | {"opt.step": Tensor(np.array([float(optimizer.step_count)]))}
                                | optimizer.state_tensors())
    result.steps = optimizer.step_count
    return result


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
