"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json
import struct

import numpy as np
import pytest

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


def test_eval_missing_checkpoint_is_data_error(workspace, capsys):
    cfg = workspace["cfg"]
    assert main(["eval", "--config", str(cfg), "--out", str(workspace["root"] / "x"),
                 "--checkpoint", str(workspace["root"] / "missing.spdp")]) == EXIT_DATA
    capsys.readouterr()


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


def test_train_nan_loss_is_numeric_failure(workspace, tmp_path, capsys):
    blobs = load_checkpoint(workspace["run"] / "ckpt-epoch-0.spdp")
    blobs["serial.enc_conv1.weight"].data[...] = np.inf
    poisoned = tmp_path / "poisoned.spdp"
    save_checkpoint(poisoned, blobs)
    assert main(["train", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "r"),
                 "--resume", str(poisoned)]) == EXIT_NUMERIC
    assert "loss is NaN" in capsys.readouterr().err


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


def test_gradcheck_detects_injected_fault(capsys):
    assert main(["gradcheck", "--coords", "1", "--seed", "0",
                 "--inject-fault"]) == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "FAIL" in out
