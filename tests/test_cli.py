"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import hashlib
import io
import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdp.checkpoint import load_checkpoint, save_checkpoint
from spdp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

BASE_KEYS = """
n_per_class = 4
train_fraction = 0.75
frames_per_utt = 12
feat_dim = 8
enc_dim = 16
dec_dim = 24
d_shared = 16
n_subspaces = 4
ref_dim = 12
batch_size = 8
lr = 0.003
max_decode_len = 24
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus plus one finished 2-epoch training run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    cfg = root / "run.cfg"
    cfg.write_text(BASE_KEYS + f"""
epochs = 2
manifest = {data}/manifest.jsonl
frames = {data}/frames.bin
vocab_file = {data}/vocab.tsv
""", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(data),
                 "--wav-fixtures", "20"]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    return {"root": root, "data": data, "run": run, "cfg": cfg}


# -- argument handling ---------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "gen-data" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate_typo = 0.1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "learning_rate_typo" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "transcript_len_min", "transcript_len_max", "enc_layers", "tap_layers", "enc_heads",
    "conv_downsample", "adaptor_downsample", "adaptor_layers", "dec_layers", "dec_heads",
    "ffn_mult", "classifier_heads", "classifier_ffn_mult", "use_positions",
    "detach_parallel_inputs",
])
def test_removed_config_key_is_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 4\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_malformed_weights_flag_is_usage_error(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--weights", "0.3"]) == EXIT_USAGE
    capsys.readouterr()


def test_config_line_without_equals_is_usage_error_naming_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_per_class = 4\nseed 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting, message", [
    ("train", "--loss-weights=-1,0.5", "loss weights must be nonnegative"),
    ("eval", "--weights=-1,2", "fusion weights must be nonnegative with a + b > 0"),
    ("train", "batch_size = 0", "batch_size must be >= 1, got 0"),
    ("train", "epochs = -1", "epochs must be >= 1, got -1"),
    ("train", "max_steps = -3", "max_steps must be >= 0, got -3"),
    ("train", "lr = -0.001", "lr must be > 0, got -0.001"),
    ("train", "enc_dim = 30", "enc_dim must be a positive multiple of the 4 attention heads"),
    ("eval", "dec_dim = 46", "dec_dim must be a positive multiple of the 4 attention heads"),
    ("eval", "max_decode_len = -2", "max_decode_len must be >= 1, got -2"),
    ("gen-data", "frames_per_utt = 0", "frames_per_utt must be >= 1, got 0"),
    ("gen-data", "feat_dim = 0", "feat_dim must be >= 1, got 0"),
], ids=["negative-loss-weight", "negative-fusion-weight", "batch-size-0", "epochs-negative",
        "max-steps-negative", "lr-negative", "enc-dim-30", "dec-dim-46", "max-decode-len-negative",
        "frames-per-utt-0", "feat-dim-0"])
def test_config_value_out_of_range_is_usage_error_before_any_output(workspace, tmp_path,
                                                                   capsys, command,
                                                                   setting, message):
    cfg = tmp_path / "run.cfg"
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if setting.startswith("--"):
        cfg.write_text(workspace["cfg"].read_text(), encoding="utf-8")
        argv.append(setting)
    else:   # a later line overrides an earlier one
        cfg.write_text(workspace["cfg"].read_text() + setting + "\n", encoding="utf-8")
    if command == "eval":
        argv += ["--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_data_error(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == EXIT_DATA
    capsys.readouterr()


def test_gradcheck_missing_config_file_is_data_error(tmp_path, capsys):
    assert main(["gradcheck", "--coords", "1",
                 "--config", str(tmp_path / "nope.cfg")]) == EXIT_DATA
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["", "."])
def test_config_path_that_is_not_a_file_is_data_error(tmp_path, capsys, path):
    assert main(["gen-data", "--config", path, "--out", str(tmp_path)]) == EXIT_DATA
    assert "config file not found" in capsys.readouterr().err


# -- gen-data -------------------------------------------------------------------------


def test_gen_data_outputs(workspace):
    data = workspace["data"]
    for name in ("manifest.jsonl", "frames.bin", "vocab.tsv"):
        assert (data / name).exists(), name
    lines = (data / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 32                       # 8 classes x 4
    splits = [json.loads(l)["split"] for l in lines]
    assert splits.count("train") == 24 and splits.count("test") == 8
    truth = json.loads((data / "wav" / "truth.json").read_text())
    assert len(truth) == 20
    assert len(list((data / "wav").glob("*.wav"))) == 20


# -- train ------------------------------------------------------------------------------


def test_train_writes_checkpoints_and_log(workspace):
    run = workspace["run"]
    assert (run / "ckpt-epoch-0.spdp").exists()
    assert (run / "ckpt-epoch-1.spdp").exists()
    records = [json.loads(l) for l in (run / "train_log.jsonl").read_text().splitlines()]
    assert len(records) == 6                       # 24 items / batch 8 x 2 epochs
    steps = [r["step"] for r in records]
    assert steps == list(range(1, 7))
    for r in records:
        assert set(r) == {"step", "L_serial", "L_parallel", "L_total"}
        assert np.isfinite([r["L_serial"], r["L_parallel"], r["L_total"]]).all()
        assert r["L_total"] == pytest.approx(r["L_serial"] + 0.5 * r["L_parallel"])


def test_train_resume_matches_uninterrupted_run(workspace, tmp_path):
    data, root = workspace["data"], workspace["root"]
    paths = f"""
manifest = {data}/manifest.jsonl
frames = {data}/frames.bin
vocab_file = {data}/vocab.tsv
"""
    cfg1 = tmp_path / "one.cfg"
    cfg1.write_text(BASE_KEYS + "epochs = 1\n" + paths, encoding="utf-8")
    cfg2 = tmp_path / "two.cfg"
    cfg2.write_text(BASE_KEYS + "epochs = 2\n" + paths, encoding="utf-8")
    run_b = tmp_path / "runB"
    assert main(["train", "--config", str(cfg1), "--out", str(run_b)]) == EXIT_OK
    assert main(["train", "--config", str(cfg2), "--out", str(run_b),
                 "--resume", str(run_b / "ckpt-epoch-0.spdp")]) == EXIT_OK
    resumed = (run_b / "ckpt-epoch-1.spdp").read_bytes()
    straight = (workspace["run"] / "ckpt-epoch-1.spdp").read_bytes()
    assert resumed == straight


def test_beta_zero_removes_parallel_term_from_total(workspace, tmp_path):
    data = workspace["data"]
    cfg = tmp_path / "serial_only.cfg"
    cfg.write_text(BASE_KEYS + f"""
epochs = 1
max_steps = 2
manifest = {data}/manifest.jsonl
frames = {data}/frames.bin
vocab_file = {data}/vocab.tsv
""", encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run),
                 "--loss-weights", "1,0"]) == EXIT_OK
    records = [json.loads(l) for l in (run / "train_log.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for r in records:
        assert r["L_parallel"] > 0.0               # still computed and reported
        assert r["L_total"] == pytest.approx(r["L_serial"])


# -- eval and predict ----------------------------------------------------------------------


def test_eval_outputs_are_internally_consistent(workspace, capsys):
    run, cfg = workspace["run"], workspace["cfg"]
    ckpt = run / "ckpt-epoch-1.spdp"
    before = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    out = workspace["root"] / "eval"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == EXIT_OK
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == before
    capsys.readouterr()

    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 8
    rows = (out / "confusion.csv").read_text().splitlines()
    assert rows[0].startswith("gold\\pred")
    matrix = np.array([[int(v) for v in row.split(",")[1:]] for row in rows[1:]])
    assert matrix.shape == (8, 8)
    assert matrix.sum() == report["n"]
    # one test utterance per class in this corpus
    assert (matrix.sum(axis=1) == 1).all()
    assert report["fused_accuracy"] == pytest.approx(np.trace(matrix) / matrix.sum())
    assert json.loads((out / "report.json").read_text())["confusion"] == matrix.tolist()
    assert (out / "predictions.jsonl").exists()


def test_predict_records_are_normalized(workspace, capsys):
    run, cfg = workspace["run"], workspace["cfg"]
    out = workspace["root"] / "pred"
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(run / "ckpt-epoch-1.spdp")]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        rec = json.loads(line)
        assert len(rec["p"]) == len(rec["q"]) == len(rec["final"]) == 8
        assert sum(rec["final"]) == pytest.approx(1.0, abs=1e-9)
        assert rec["class"] == int(np.argmax(rec["final"]))


def test_predict_counts_only_the_records_written(workspace, monkeypatch, capsys):
    import spdp.trainer
    real = spdp.trainer.predict

    def second_row_without_evidence(*args):
        recs = real(*args)
        if len(recs) > 1:
            recs[1] = None
        return recs

    monkeypatch.setattr(spdp.trainer, "predict", second_row_without_evidence)
    out = workspace["root"] / "pred-none"
    assert main(["predict", "--config", str(workspace["cfg"]), "--out", str(out),
                 "--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]) == EXIT_OK
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 7
    assert "wrote 7 prediction records" in capsys.readouterr().out


def test_eval_weights_flag_reaches_the_fusion(workspace, tmp_path, capsys):
    out = tmp_path / "e"
    assert main(["eval", "--config", str(workspace["cfg"]), "--out", str(out),
                 "--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp"),
                 "--weights", "0,1"]) == EXIT_OK
    capsys.readouterr()
    recs = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert recs and any(rec["p"] != rec["q"] for rec in recs)
    assert all(rec["final"] == rec["q"] for rec in recs)


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "predict", "filter"])
def test_out_that_is_a_file_is_data_error(workspace, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("keep", encoding="utf-8")
    argv = [command, "--out", str(out)]
    if command != "gen-data":
        argv += ["--config", str(workspace["cfg"])]
    if command in ("eval", "predict"):
        argv += ["--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]
    if command == "filter":
        argv += ["--wav-dir", str(workspace["data"] / "wav")]
    assert main(argv) == EXIT_DATA
    assert f"output directory {out}: " in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "keep"


def test_eval_missing_checkpoint_is_data_error(workspace, capsys):
    cfg = workspace["cfg"]
    assert main(["eval", "--config", str(cfg), "--out", str(workspace["root"] / "x"),
                 "--checkpoint", str(workspace["root"] / "missing.spdp")]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_changed_during_evaluation_is_data_error(workspace, tmp_path, monkeypatch,
                                                            capsys, command):
    import spdp.cli
    ckpt = tmp_path / "ckpt.spdp"
    shutil.copy(workspace["run"] / "ckpt-epoch-1.spdp", ckpt)
    real = spdp.cli.evaluate

    def evaluate_then_touch(*args, **kwargs):
        report = real(*args, **kwargs)
        with open(ckpt, "ab") as fh:
            fh.write(b"\0")
        return report

    out = tmp_path / "o"
    argv = [command, "--config", str(workspace["cfg"]), "--out", str(out),
            "--checkpoint", str(ckpt)]
    assert main(argv + ["--split", "train"]) == EXIT_OK     # other records than the test split's
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "predictions.jsonl" in earlier
    monkeypatch.setattr(spdp.cli, "evaluate", evaluate_then_touch)
    assert main(argv) == EXIT_DATA
    assert "checkpoint changed during evaluation" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


@pytest.mark.parametrize("command, key, message", [
    ("train", "manifest", "manifest file not found"),
    ("eval", "frames", "frames file not found"),
    ("train", "vocab_file", "vocab file not found"),
    ("train", "--resume", "resume checkpoint not found"),
    ("eval", "--checkpoint", "checkpoint not found"),
    ("predict", "--checkpoint", "checkpoint not found"),
])
def test_path_that_is_a_directory_is_data_error(workspace, tmp_path, capsys,
                                                command, key, message):
    lines = workspace["cfg"].read_text().splitlines()
    argv = [command, "--out", str(tmp_path / "out")]
    if key.startswith("--"):
        argv += [key, str(tmp_path)]
    else:
        lines = [line for line in lines if not line.startswith(f"{key} =")]
        lines.append(f"{key} = {tmp_path}")
    if command != "train" and key != "--checkpoint":
        argv += ["--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]
    cfg = tmp_path / "dir.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == EXIT_DATA
    assert f"{message}: {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    ("drop_tensor", "checkpoint missing tensor 'parallel.sub_a.w'"),
    ("version_1", "unsupported checkpoint version 1"),
])
def test_eval_refuses_damaged_checkpoint_as_data_error(workspace, tmp_path, capsys,
                                                       damage, message):
    src = workspace["run"] / "ckpt-epoch-1.spdp"
    bad = tmp_path / "bad.spdp"
    if damage == "drop_tensor":
        blobs = load_checkpoint(src)
        del blobs["parallel.sub_a.w"]
        save_checkpoint(bad, blobs)
    else:
        raw = bytearray(src.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        bad.write_bytes(bytes(raw))
    assert main(["eval", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(bad)]) == EXIT_DATA
    assert message in capsys.readouterr().err


def test_eval_on_a_truncated_checkpoint_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "cut.spdp"
    bad.write_bytes((workspace["run"] / "ckpt-epoch-1.spdp").read_bytes()[:51])
    assert main(["eval", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "cut.spdp: checkpoint is cut short in the header of tensor" in err


def test_eval_on_a_truncated_frames_sidecar_is_data_error(workspace, tmp_path, capsys):
    frames = tmp_path / "frames.bin"
    frames.write_bytes((workspace["data"] / "frames.bin").read_bytes()[:10])
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"frames = {workspace['data']}/frames.bin", f"frames = {frames}"), encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]) == EXIT_DATA
    assert "frames.bin: frames sidecar is cut short" in capsys.readouterr().err


def test_eval_on_a_frames_sidecar_cut_inside_a_frame_block_is_data_error(workspace, tmp_path,
                                                                        capsys):
    raw = (workspace["data"] / "frames.bin").read_bytes()
    _, t0, feat_dim = struct.unpack_from("<3Q", raw)
    frames = tmp_path / "frames.bin"
    frames.write_bytes(raw[:24 + 2 * 8 * t0 * feat_dim + 5])   # inside the third block
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"frames = {workspace['data']}/frames.bin", f"frames = {frames}"), encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]) == EXIT_DATA
    assert (f"{frames}: frames sidecar is cut short in the frames of utterance 'utt-0-00002'"
            in capsys.readouterr().err)


def test_eval_with_other_dims_than_the_checkpoint_is_data_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(workspace["cfg"].read_text() + "enc_dim = 64\n", encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(workspace["run"] / "ckpt-epoch-1.spdp")]) == EXIT_DATA
    assert "shape mismatch for 'serial.enc_conv1.weight'" in capsys.readouterr().err


@pytest.mark.parametrize("n_dropped, missing", [
    (1, "meta.epoch"),
    (3, "opt.m.parallel.head.b"),
])
def test_resume_from_a_checkpoint_cut_at_a_record_boundary_is_data_error(
        workspace, tmp_path, capsys, n_dropped, missing):
    src = workspace["run"] / "ckpt-epoch-0.spdp"
    cut = tmp_path / "cut.spdp"
    save_checkpoint(cut, dict(list(load_checkpoint(src).items())[:-n_dropped]))
    assert src.read_bytes().startswith(cut.read_bytes())
    assert main(["train", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "r"),
                 "--resume", str(cut)]) == EXIT_DATA
    assert f"checkpoint missing tensor {missing!r}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_train_nan_loss_is_numeric_failure(workspace, tmp_path, capsys):
    blobs = load_checkpoint(workspace["run"] / "ckpt-epoch-0.spdp")
    blobs["serial.enc_conv1.weight"].data[...] = np.inf
    poisoned = tmp_path / "poisoned.spdp"
    save_checkpoint(poisoned, blobs)
    assert main(["train", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "r"),
                 "--resume", str(poisoned)]) == EXIT_NUMERIC
    assert "loss is NaN" in capsys.readouterr().err


MANIFEST_KEYS = ["id", "style", "transcript", "split", "frames_offset"]


@pytest.mark.parametrize("key, value", [(key, None) for key in MANIFEST_KEYS]
                         + [("transcript", 5), ("style", 8)])
def test_train_on_a_malformed_manifest_record_is_data_error(workspace, tmp_path, capsys,
                                                            key, value):
    def edit(rec):
        if value is None:
            del rec[key]
        else:
            rec[key] = value

    cfg = _config_with_edited_record(workspace, tmp_path, 2, edit)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest.jsonl line 3: " in err and repr(key) in err


@pytest.mark.parametrize("transcript, bad_id", [([9999], 9999), ([-1, 5], -1)])
def test_train_on_a_token_id_outside_the_vocabulary_is_data_error(workspace, tmp_path, capsys,
                                                                  transcript, bad_id):
    def edit(rec):
        assert rec["id"] == "utt-0-00000"
        rec["transcript"] = transcript

    cfg = _config_with_edited_record(workspace, tmp_path, 0, edit)
    out = tmp_path / "r"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"utterance utt-0-00000: token id {bad_id} is outside the vocabulary 0..120" in err
    assert not (out / "vocab.tsv").exists()


def test_train_on_an_empty_train_transcript_is_data_error(workspace, tmp_path, capsys):
    def edit(rec):
        assert rec["id"] == "utt-0-00000" and rec["split"] == "train"
        rec["transcript"] = []

    cfg = _config_with_edited_record(workspace, tmp_path, 0, edit)
    out = tmp_path / "r"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
    assert "utterance utt-0-00000: empty transcript" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_a_manifest_one_record_short_names_both_files_and_counts(workspace, tmp_path,
                                                                         capsys):
    lines = (workspace["data"] / "manifest.jsonl").read_text().splitlines(keepends=True)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(lines[:-1]), encoding="utf-8")
    cfg = tmp_path / "short.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"manifest = {workspace['data']}/manifest.jsonl", f"manifest = {manifest}"),
        encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"manifest {manifest} ({len(lines) - 1} records) and frames sidecar "
            f"{workspace['data']}/frames.bin (header count {len(lines)}) disagree") in err


def test_train_on_a_bad_frames_offset_names_the_manifest_line(workspace, tmp_path, capsys):
    def edit(rec):
        rec["frames_offset"] += 8

    cfg = _config_with_edited_record(workspace, tmp_path, 4, edit)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{tmp_path / 'manifest.jsonl'} line 5: utterance " in err
    assert "frames_offset" in err


def _config_with_edited_record(workspace, tmp_path, index, edit):
    """A copy of the workspace config whose manifest has record ``index`` edited."""
    lines = (workspace["data"] / "manifest.jsonl").read_text().splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"manifest = {workspace['data']}/manifest.jsonl", f"manifest = {manifest}"),
        encoding="utf-8")
    return cfg


def test_train_on_a_vocab_file_cut_at_a_line_boundary_is_data_error(workspace, tmp_path,
                                                                    capsys):
    vocab = tmp_path / "vocab.tsv"
    lines = (workspace["data"] / "vocab.tsv").read_text().splitlines(keepends=True)
    vocab.write_text("".join(lines[:10]), encoding="utf-8")
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"vocab_file = {workspace['data']}/vocab.tsv", f"vocab_file = {vocab}"),
        encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DATA
    assert "vocabulary has no token 'fairy'" in capsys.readouterr().err


@pytest.mark.parametrize("row, why", [("1\tdup", "id 1 is repeated"),
                                      ("4\tgap", "expected id 3, found 4")],
                         ids=["duplicated", "missing"])
def test_train_on_a_vocab_file_with_a_duplicated_or_missing_id_names_file_and_id(
        workspace, tmp_path, capsys, row, why):
    vocab = tmp_path / "vocab.tsv"
    lines = (workspace["data"] / "vocab.tsv").read_text().splitlines(keepends=True)
    vocab.write_text("".join(lines[:3]) + row + "\n", encoding="utf-8")
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace(
        f"vocab_file = {workspace['data']}/vocab.tsv", f"vocab_file = {vocab}"),
        encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{vocab}: vocabulary ids must be contiguous from 0; {why}" in err


# -- filter -----------------------------------------------------------------------------------


def test_filter_pipeline_counts(workspace, capsys):
    wav_dir = workspace["data"] / "wav"
    out = workspace["root"] / "filtered"
    assert main(["filter", "--wav-dir", str(wav_dir), "--out", str(out),
                 "--truth", str(wav_dir / "truth.json")]) == EXIT_OK
    capsys.readouterr()
    counts = json.loads((out / "filter_counts.json").read_text())
    assert counts["total"] >= counts["readable"] >= counts["filtered"] >= counts["retained"]
    assert counts["total"] == 20
    assert "planted_recall" in counts
    curated = (out / "curated.jsonl").read_text().splitlines()
    assert len(curated) == counts["retained"]
    for line in curated:
        rec = json.loads(line)
        assert set(rec) == {"file", "label"} and 0 <= rec["label"] < 8


def test_filter_skips_a_wav_file_that_is_not_riff(workspace, tmp_path, capsys):
    wav_dir = tmp_path / "wav"
    shutil.copytree(workspace["data"] / "wav", wav_dir)
    (wav_dir / "bogus.wav").write_text("not a wav", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--wav-dir", str(wav_dir), "--out", str(out)]) == EXIT_OK
    assert "warning: skipping bogus.wav: " in capsys.readouterr().err
    counts = json.loads((out / "filter_counts.json").read_text())
    assert counts["skipped"] == 1 and counts["total"] == 21 and counts["readable"] == 20


def test_filter_skip_warning_says_why_a_cut_header_is_unreadable(workspace, tmp_path, capsys):
    wav_dir = tmp_path / "wav"
    shutil.copytree(workspace["data"] / "wav", wav_dir)
    (wav_dir / "cut.wav").write_bytes((wav_dir / "planted-0000.wav").read_bytes()[:30])
    assert main(["filter", "--wav-dir", str(wav_dir), "--out", str(tmp_path / "out")]) == EXIT_OK
    err = capsys.readouterr().err
    assert f"warning: skipping cut.wav: {wav_dir / 'cut.wav'}: not a WAV file: " \
        "the header is cut short" in err


# Header patches: bytes 24-31 hold the sample rate and the byte rate; bytes
# 16-19 the fmt chunk size, which 0x80 at byte 17 takes past the RIFF chunk.
@pytest.mark.parametrize("offset, patch, reason", [
    (24, struct.pack("<II", 0, 0), "sample rate 0 Hz is too low"),
    (24, struct.pack("<II", 1, 2), "sample rate 1 Hz is too low"),
    (24, struct.pack("<II", 50, 100), "sample rate 50 Hz is too low"),
    (17, b"\x80", "a chunk size runs past the end of the RIFF chunk"),
], ids=["rate-0", "rate-1", "rate-50", "fmt-size"])
def test_filter_skips_a_wav_file_with_a_damaged_header(workspace, tmp_path, capsys, offset,
                                                       patch, reason):
    wav_dir = tmp_path / "wav"
    shutil.copytree(workspace["data"] / "wav", wav_dir)
    raw = bytearray((wav_dir / "planted-0000.wav").read_bytes())
    raw[offset:offset + len(patch)] = patch
    (wav_dir / "damaged.wav").write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert main(["filter", "--wav-dir", str(wav_dir), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: skipping damaged.wav: " in err and reason in err
    counts = json.loads((out / "filter_counts.json").read_text())
    assert counts["skipped"] == 1 and counts["total"] == 21 and counts["readable"] == 20


@pytest.fixture(scope="module")
def damaged_wav_dir(workspace, tmp_path_factory):
    """The fixture WAV directory, copied once; each example rewrites damaged.wav."""
    wav_dir = tmp_path_factory.mktemp("damaged") / "wav"
    shutil.copytree(workspace["data"] / "wav", wav_dir)
    return wav_dir


@settings(max_examples=40, deadline=None)  # a fixture WAV (2 s at 16 kHz) has 64,044 bytes
@given(pos=st.integers(0, 63) | st.integers(0, 64043), byte=st.none() | st.integers(0, 255))
@example(pos=17, byte=0x80)
def test_filter_reads_or_skips_a_truncated_or_overwritten_wav_file(damaged_wav_dir, pos, byte):
    raw = bytearray((damaged_wav_dir / "planted-0000.wav").read_bytes())
    if byte is None:
        del raw[pos:]
    else:
        raw[pos] = byte
    (damaged_wav_dir / "damaged.wav").write_bytes(bytes(raw))
    out = damaged_wav_dir.parent / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["filter", "--wav-dir", str(damaged_wav_dir), "--out", str(out)])
    assert code == EXIT_OK, err.getvalue()
    counts = json.loads((out / "filter_counts.json").read_text())
    lines = err.getvalue().splitlines()
    if counts["skipped"]:
        assert counts["readable"] == 20 and len(lines) == 1
        assert lines[0].startswith("warning: skipping damaged.wav: ")
    else:
        assert counts["readable"] == 21 and lines == []


@pytest.mark.parametrize("truth", ["missing.json", "."])
def test_filter_truth_that_is_not_a_file_is_data_error(workspace, tmp_path, capsys, truth):
    out = tmp_path / "out"
    truth = tmp_path / truth
    assert main(["filter", "--wav-dir", str(workspace["data"] / "wav"), "--out", str(out),
                 "--truth", str(truth)]) == EXIT_DATA
    assert f"truth file not found: {truth}" in capsys.readouterr().err
    assert not (out / "curated.jsonl").exists()


@pytest.mark.parametrize("content", ["{bad", "[1, 2]"])
def test_filter_truth_that_is_not_a_json_object_is_data_error(workspace, tmp_path, capsys,
                                                              content):
    truth = tmp_path / "truth.json"
    truth.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--wav-dir", str(workspace["data"] / "wav"), "--out", str(out),
                 "--truth", str(truth)]) == EXIT_DATA
    assert f"--truth {truth}: " in capsys.readouterr().err
    assert not (out / "curated.jsonl").exists()


def test_filter_empty_directory_is_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["filter", "--wav-dir", str(tmp_path / "empty"),
                 "--out", str(tmp_path)]) == EXIT_DATA
    capsys.readouterr()


# -- gradcheck ----------------------------------------------------------------------------------


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--coords", "1", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gradcheck passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("coords", ["0", "-1"])
def test_gradcheck_coords_below_one_is_usage_error(capsys, coords):
    assert main(["gradcheck", "--coords", coords, "--inject-fault"]) == EXIT_USAGE
    assert f"--coords must be >= 1, got {coords}" in capsys.readouterr().err


def test_gradcheck_detects_injected_fault(capsys):
    assert main(["gradcheck", "--coords", "1", "--seed", "0",
                 "--inject-fault"]) == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "FAIL" in out
