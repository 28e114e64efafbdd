"""Command-line entry point.

Subcommands: gen-data, train, eval, filter. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .audio import (annotate_intersect, build_filter_fixture_set, compute_bins,
                    extract_features5, filter_high_expressivity, load_wav,
                    sample_confused_label)
from .checkpoint import load_checkpoint, restore_params
from .config import RunConfig, make_run_config, parse_config_file
from .corpus import generate_corpus, load_corpus, save_corpus
from .trainer import SpdpModel, evaluate, make_out_dir, train, write_confusion_csv
from .vocab import N_CLASSES, build_vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdp",
                                     description="dual-path speaking-style recognizer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--wav-fixtures", type=int, default=0,
                   help="also synthesize N WAV files for the filter pipeline")

    p = sub.add_parser("train", help="train both paths jointly")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("filter", help="acoustic curation over a WAV directory")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--truth", default=None,
                   help="JSON {filename: planted} for recall reporting")

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, object]:
    flags = {"seed": "seed", "out": "out_dir", "resume": "resume"}
    return {key: getattr(args, flag) for flag, key in flags.items()
            if getattr(args, flag, None) is not None}


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    config = getattr(args, "config", None)
    if config is not None and not Path(config).is_file():
        raise ValueError(f"config file not found: {config}")
    try:
        pairs = parse_config_file(config) if config is not None else {}
        return make_run_config(pairs, _overrides_from_args(args))
    except (ValueError, TypeError) as err:
        raise UsageError(str(err)) from err


def _require_corpus(cfg: RunConfig):
    for label, path in (("manifest", cfg.manifest), ("frames", cfg.frames)):
        if not path:
            raise ValueError(f"config must set '{label}' for this command")
        if not Path(path).is_file():
            raise ValueError(f"{label} file not found: {path}")
    utts = load_corpus(cfg.manifest, cfg.frames)
    if utts and utts[0].frames.shape[1] != cfg.feat_dim:
        raise ValueError(f"frames file {cfg.frames} holds {utts[0].frames.shape[1]}-wide "
                         f"frames, but the config sets feat_dim = {cfg.feat_dim}")
    return utts


# -- subcommands ------------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.wav_fixtures < 0:
        raise UsageError(f"--wav-fixtures must be >= 0, got {args.wav_fixtures}")
    cfg = _load_run_config(args)
    vocab = build_vocab()
    utts = generate_corpus(cfg.corpus_config(), vocab)
    n_train = sum(1 for u in utts if u.split == "train")
    if n_train in (0, len(utts)):
        raise UsageError(f"n_per_class = {cfg.n_per_class} and train_fraction = "
                         f"{cfg.train_fraction} leave the {'test' if n_train else 'train'} "
                         "split empty")
    out = make_out_dir(cfg.out_dir)
    save_corpus(utts, out / "manifest.jsonl", out / "frames.bin")
    vocab.save(out / "vocab.tsv")
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
    train_utts = [u for u in _require_corpus(cfg) if u.split == "train"]
    if cfg.resume and not Path(cfg.resume).is_file():
        raise ValueError(f"resume checkpoint not found: {cfg.resume}")
    result = train(SpdpModel(cfg), train_utts, cfg.out_dir)
    print(f"trained {len(result.log)} steps; checkpoints in {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate ``--checkpoint`` on ``--split``, writing predictions.jsonl,
    confusion.csv and report.json under --out.

    Each file is written beside its target, and the three replace their
    targets only once all are written and the checkpoint is known unchanged,
    so a refused run leaves --out as it found it.
    """
    cfg = _load_run_config(args)
    utts = [u for u in _require_corpus(cfg) if u.split == args.split]
    if not utts:
        raise ValueError(f"split {args.split!r} is empty")
    checkpoint = Path(args.checkpoint)
    if not checkpoint.is_file():
        raise ValueError(f"checkpoint not found: {args.checkpoint}")
    before = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
    model = SpdpModel(cfg)
    blobs = load_checkpoint(checkpoint)
    try:
        restore_params(model.params(), blobs)
    except ValueError as err:
        raise ValueError(f"{checkpoint}: {err}") from None
    out = make_out_dir(cfg.out_dir)
    targets = [out / name for name in ("predictions.jsonl", "confusion.csv", "report.json")]
    for target in targets:          # os.replace onto a directory fails only at the rename
        if target.is_dir():
            raise ValueError(f"{target}: Is a directory")
    records, confusion, report_json = tmps = [t.with_name(t.name + ".tmp") for t in targets]
    try:
        report = evaluate(model, utts, records_out=records)
        write_confusion_csv(report, confusion)
        report_json.write_text(report.to_json() + "\n", encoding="utf-8")
        if hashlib.sha256(checkpoint.read_bytes()).hexdigest() != before:
            raise ValueError("checkpoint changed during evaluation")
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
    print(f"eval n={report.n} fused={report.fused_accuracy:.4f} "
          f"serial={report.serial_accuracy:.4f} "
          f"parallel={report.parallel_accuracy:.4f} "
          f"fallbacks={report.fallback_counts}")
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    wav_dir = Path(args.wav_dir)
    if not wav_dir.is_dir():
        raise ValueError(f"not a directory: {wav_dir}")
    planted = None
    if args.truth:
        if not Path(args.truth).is_file():
            raise ValueError(f"truth file not found: {args.truth}")
        try:
            truth = json.loads(Path(args.truth).read_text(encoding="utf-8"))
        except ValueError as err:
            raise ValueError(f"--truth {args.truth}: not valid JSON: {err}") from err
        if not isinstance(truth, dict):
            raise ValueError(f"--truth {args.truth}: expected a JSON object of "
                             "filename: planted")
        for name, value in truth.items():   # gen-data writes only true/false
            if not isinstance(value, bool):
                raise ValueError(f"--truth {args.truth}: {name!r} must be true or false, "
                                 f"got {json.dumps(value)}")
        planted = {k for k, v in truth.items() if v}
        if not planted:
            raise ValueError(f"--truth {args.truth}: plants no file, so recall is undefined")
    paths = sorted(wav_dir.glob("*.wav"))
    if not paths:
        raise ValueError(f"no WAV files in {wav_dir}")
    if planted is not None:     # a stale key would read as a missed plant
        unknown = sorted(set(truth) - {path.name for path in paths})
        if unknown:
            raise ValueError(f"--truth {args.truth}: {unknown[0]!r} names no .wav file "
                             f"in {wav_dir} ({len(unknown)} such key(s))")
    features, names, skipped = [], [], 0
    for path in paths:
        try:
            wav, sr = load_wav(path)
            features.append(extract_features5(wav, sr))
            names.append(path.name)
        except (ValueError, OSError) as err:
            skipped += 1
            print(f"warning: skipping {path.name}: {err}", file=sys.stderr)
    if not features:
        raise ValueError("no readable WAV files")
    bins = compute_bins(features)
    kept = [(name, fv) for name, fv in zip(names, features)
            if filter_high_expressivity(fv, bins)]
    rng = np.random.default_rng(cfg.seed)
    off = 0.2 / (N_CLASSES - 1)
    confusion = np.full((N_CLASSES, N_CLASSES), off) + np.eye(N_CLASSES) * (0.8 - off)
    retained = []
    for name, _ in kept:
        gold = int(hashlib.sha256(name.encode()).digest()[0]) % N_CLASSES
        a = sample_confused_label(gold, confusion, rng)
        b = sample_confused_label(gold, confusion, rng)
        label = annotate_intersect(a, b)
        if label is not None:
            retained.append({"file": name, "label": label})
    out = make_out_dir(cfg.out_dir)
    counts = {"total": len(paths), "readable": len(features),
              "filtered": len(kept), "retained": len(retained),
              "skipped": skipped}
    line = (f"filter: {counts['total']} total -> {counts['readable']} readable -> "
            f"{counts['filtered']} high-expressivity -> {counts['retained']} retained")
    if planted is not None:
        hits = sum(1 for name, _ in kept if name in planted)
        counts["planted_recall"] = hits / len(planted)
        line += f"; planted recall {counts['planted_recall']:.3f}"
    with open(out / "curated.jsonl", "w", encoding="utf-8") as fh:
        for rec in retained:
            fh.write(json.dumps(rec) + "\n")
    (out / "filter_counts.json").write_text(json.dumps(counts, indent=2),
                                            encoding="utf-8")
    print(line)
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
        "filter": cmd_filter,
    }
    try:
        return handlers[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:          # e.g. an output file that cannot be written
        where = f"{err.filename}: " if err.filename is not None else ""
        print(f"data error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
