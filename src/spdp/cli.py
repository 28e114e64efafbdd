"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, filter, gradcheck. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import (annotate_intersect, build_filter_fixture_set, compute_bins,
                    extract_features5, filter_high_expressivity, load_wav,
                    sample_confused_label)
from .checkpoint import load_checkpoint, restore_params
from .config import PROFILES, RunConfig, make_run_config, parse_config_file
from .corpus import generate_corpus, load_corpus, save_corpus
from .fusion import total_loss
from .gradcheck import grad_check
from .trainer import (NO_LINGUISTIC_EVIDENCE, SpdpModel, evaluate, resume_from,
                      train, write_confusion_csv)
from .vocab import Vocab, build_vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdp",
                                     description="dual-path speaking-style recognizer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--profile", choices=tuple(PROFILES), default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--weights", default=None, metavar="a,b",
                       help="fusion weights, e.g. 0.3,0.7")
        p.add_argument("--loss-weights", default=None, metavar="alpha,beta",
                       help="loss weights, e.g. 1.0,0.5")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--wav-fixtures", type=int, default=0,
                   help="also synthesize N WAV files for the filter pipeline")

    p = sub.add_parser("train", help="train both paths jointly")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("predict", help="write per-utterance prediction records")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("filter", help="acoustic curation over a WAV directory")
    common(p)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--truth", default=None,
                   help="JSON {filename: planted} for recall reporting")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--coords", type=int, default=4,
                   help="sampled coordinates per parameter tensor")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one backward rule; run must then fail")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, object]:
    out: dict[str, object] = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.profile is not None:
        out["profile"] = args.profile
    if args.out is not None:
        out["out_dir"] = args.out
    if args.weights is not None:
        a, b = _parse_pair(args.weights, "--weights")
        out["fusion_a"], out["fusion_b"] = a, b
    if args.loss_weights is not None:
        alpha, beta = _parse_pair(args.loss_weights, "--loss-weights")
        out["loss_alpha"], out["loss_beta"] = alpha, beta
    if getattr(args, "resume", None):
        out["resume"] = args.resume
    return out


def _parse_pair(raw: str, flag: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects two comma-separated numbers")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as err:
        raise UsageError(f"{flag}: {err}") from err


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None and not Path(args.config).is_file():
        raise DataError(f"config file not found: {args.config}")
    try:
        pairs = parse_config_file(args.config) if args.config is not None else {}
        return make_run_config(pairs, _overrides_from_args(args))
    except (ValueError, TypeError) as err:
        raise UsageError(str(err)) from err


def _load_vocab(cfg: RunConfig) -> Vocab:
    if cfg.vocab_file:
        if not Path(cfg.vocab_file).is_file():
            raise DataError(f"vocab file not found: {cfg.vocab_file}")
        return Vocab.load(cfg.vocab_file)
    return build_vocab()


def _require_corpus(cfg: RunConfig):
    for label, path in (("manifest", cfg.manifest), ("frames", cfg.frames)):
        if not path:
            raise DataError(f"config must set '{label}' for this command")
        if not Path(path).is_file():
            raise DataError(f"{label} file not found: {path}")
    return load_corpus(cfg.manifest, cfg.frames)


# -- subcommands ------------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = build_vocab()
    utts = generate_corpus(cfg.corpus_config(), vocab)
    save_corpus(utts, out / "manifest.jsonl", out / "frames.bin")
    vocab.save(out / "vocab.tsv")
    n_train = sum(1 for u in utts if u.split == "train")
    print(f"wrote {len(utts)} utterances ({n_train} train, "
          f"{len(utts) - n_train} test) to {out}")
    if args.wav_fixtures:
        truth = build_filter_fixture_set(out / "wav", n=args.wav_fixtures,
                                         seed=cfg.seed)
        (out / "wav" / "truth.json").write_text(json.dumps(truth, indent=2),
                                                encoding="utf-8")
        print(f"wrote {args.wav_fixtures} WAV fixtures to {out / 'wav'}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    utts = _require_corpus(cfg)
    vocab = _load_vocab(cfg)
    model = SpdpModel(cfg, vocab)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.tsv")
    start_epoch, optimizer = 0, None
    if cfg.resume:
        if not Path(cfg.resume).is_file():
            raise DataError(f"resume checkpoint not found: {cfg.resume}")
        optimizer, start_epoch = resume_from(model, cfg.resume)
    train_utts = [u for u in utts if u.split == "train"]
    if not train_utts:
        raise DataError("no training utterances in corpus")
    result = train(model, train_utts, out, start_epoch=start_epoch,
                   optimizer=optimizer)
    print(f"trained {result.steps} steps over "
          f"{cfg.epochs - start_epoch} epoch(s); checkpoints in {out}")
    return EXIT_OK


def _restored_model(cfg: RunConfig, checkpoint: str) -> SpdpModel:
    if not Path(checkpoint).is_file():
        raise DataError(f"checkpoint not found: {checkpoint}")
    model = SpdpModel(cfg, _load_vocab(cfg))
    restore_params(model.params(), load_checkpoint(checkpoint))
    return model


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    utts = [u for u in _require_corpus(cfg) if u.split == args.split]
    if not utts:
        raise DataError(f"split {args.split!r} is empty")
    if not Path(args.checkpoint).is_file():
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    before = hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest()
    model = _restored_model(cfg, args.checkpoint)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = evaluate(model, utts, records_out=out / "predictions.jsonl")
    write_confusion_csv(report, out / "confusion.csv")
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    after = hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest()
    if before != after:
        raise DataError("checkpoint changed during evaluation")
    print(f"eval n={report.n} fused={report.fused_accuracy:.4f} "
          f"serial={report.serial_accuracy:.4f} "
          f"parallel={report.parallel_accuracy:.4f} "
          f"fallbacks={report.fallback_counts}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    utts = [u for u in _require_corpus(cfg) if u.split == args.split]
    if not utts:
        raise DataError(f"split {args.split!r} is empty")
    model = _restored_model(cfg, args.checkpoint)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = evaluate(model, utts, records_out=out / "predictions.jsonl")
    written = report.n - report.fallback_counts.get(NO_LINGUISTIC_EVIDENCE, 0)
    print(f"wrote {written} prediction records to {out / 'predictions.jsonl'}")
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    wav_dir = Path(args.wav_dir)
    if not wav_dir.is_dir():
        raise DataError(f"not a directory: {wav_dir}")
    paths = sorted(wav_dir.glob("*.wav"))
    if not paths:
        raise DataError(f"no WAV files in {wav_dir}")
    features, names, skipped = [], [], 0
    for path in paths:
        try:
            wav, sr = load_wav(path)
            features.append(extract_features5(wav, sr))
            names.append(path.name)
        except (ValueError, EOFError, OSError) as err:
            skipped += 1
            print(f"warning: skipping {path.name}: {err}", file=sys.stderr)
    if not features:
        raise DataError("no readable WAV files")
    bins = compute_bins(features)
    kept = [(name, fv) for name, fv in zip(names, features)
            if filter_high_expressivity(fv, bins)]
    rng = np.random.default_rng(cfg.seed)
    confusion = np.full((8, 8), 0.2 / 7.0) + np.eye(8) * (0.8 - 0.2 / 7.0)
    retained = []
    for name, _ in kept:
        gold = int(hashlib.sha256(name.encode()).digest()[0]) % 8
        a = sample_confused_label(gold, confusion, rng)
        b = sample_confused_label(gold, confusion, rng)
        label = annotate_intersect(a, b)
        if label is not None:
            retained.append({"file": name, "label": label})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts = {"total": len(paths), "readable": len(features),
              "filtered": len(kept), "retained": len(retained),
              "skipped": skipped}
    with open(out / "curated.jsonl", "w", encoding="utf-8") as fh:
        for rec in retained:
            fh.write(json.dumps(rec) + "\n")
    (out / "filter_counts.json").write_text(json.dumps(counts, indent=2),
                                            encoding="utf-8")
    line = (f"filter: {counts['total']} total -> {counts['readable']} readable -> "
            f"{counts['filtered']} high-expressivity -> {counts['retained']} retained")
    if args.truth:
        truth = json.loads(Path(args.truth).read_text(encoding="utf-8"))
        planted = {k for k, v in truth.items() if v}
        hits = sum(1 for name, _ in kept if name in planted)
        recall = hits / len(planted) if planted else 0.0
        counts["planted_recall"] = recall
        (out / "filter_counts.json").write_text(json.dumps(counts, indent=2),
                                                encoding="utf-8")
        line += f"; planted recall {recall:.3f}"
    print(line)
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    args.profile = "desk-dims"      # finite differences are affordable only here
    cfg = _load_run_config(args)
    model = SpdpModel(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    frames = rng.normal(size=(2, 12, cfg.feat_dim))
    labels = np.array([1, 5])
    pool = model.vocab.prompt_pool
    prompts = [pool[0], pool[1]]
    blocks = model.vocab.class_blocks
    targets = [model.vocab.build_target(list(blocks[1][:4]), 1),
               model.vocab.build_target(list(blocks[5][:3]), 5)]
    t_lens = [4, 3]
    fusion_cfg = cfg.fusion_config()

    def loss_fn():
        l_s, l_p = model.batch_losses(frames, labels, prompts, targets, t_lens)
        return total_loss(l_s, l_p, fusion_cfg)

    if args.inject_fault:
        T.set_backward_fault(True)
    try:
        report = grad_check(loss_fn, model.trainable_params(),
                            max_coords_per_param=args.coords,
                            rng=np.random.default_rng(cfg.seed + 2))
    finally:
        T.set_backward_fault(False)
    tol = 1e-4
    worst_name = max(report, key=report.get)
    for name in sorted(report):
        status = "ok" if report[name] < tol else "FAIL"
        print(f"{status}  {report[name]:.3e}  {name}")
    n_bad = sum(1 for v in report.values() if not (v < tol))
    print(f"gradcheck: {len(report)} parameters, worst {report[worst_name]:.3e} "
          f"({worst_name}), tolerance {tol:g}")
    if n_bad or not all(np.isfinite(list(report.values()))):
        print(f"gradcheck FAILED for {n_bad} parameter(s)")
        return EXIT_NUMERIC
    print("gradcheck passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
        "filter": cmd_filter,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
