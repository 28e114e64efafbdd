"""Run-config surface: defaults, profiles, derived module configs, documentation."""

import argparse
import dataclasses
import math
import re
from pathlib import Path

import pytest

from spdp import config
from spdp.cli import EXIT_USAGE, _build_parser, main
from spdp.config import RunConfig, make_run_config
from spdp.corpus import CorpusConfig
from spdp.fusion import FusionConfig
from spdp.parallel import ParallelPathConfig
from spdp.serial import SerialConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_desk_dims_profile_is_the_defaults():
    assert make_run_config({}, {"profile": "desk-dims"}) == RunConfig()


def test_profile_is_not_a_stored_field():
    """A stored label that applied no keys would build desk dims under a paper-dims name."""
    with pytest.raises(TypeError):
        RunConfig(profile="paper-dims")


PAPER = config.PROFILES["paper-dims"]


@pytest.mark.parametrize("file_text, overrides, want", [
    ("profile = paper-dims\n", {}, PAPER),
    ("enc_dim = 64\nprofile = paper-dims\n", {}, {**PAPER, "enc_dim": 64}),
    ("profile = paper-dims\n", {"profile": "desk-dims"}, {}),
    ("lr = 0.01\n", {"profile": "paper-dims"}, {**PAPER, "lr": 0.01}),
    ("profile = paper-dims\nenc_dim = 64\n", {"enc_dim": 16}, {**PAPER, "enc_dim": 16}),
], ids=["file-profile", "file-key-beats-profile", "override-profile-beats-file",
        "override-profile-under-file-key", "override-key-beats-all"])
def test_profile_applies_before_file_keys_and_overrides(tmp_path, file_text, overrides, want):
    path = tmp_path / "run.cfg"
    path.write_text(file_text, encoding="utf-8")
    assert make_run_config(config.parse_config_file(path), overrides) == RunConfig(**want)


def test_unknown_profile_in_a_config_file_is_usage_error_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile = nope\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert "usage error: unknown profile 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_d_shared_below_2_is_refused_when_the_config_is_built(tmp_path, capsys):
    """A LayerNorm over one feature outputs its bias: a blind path with NaN gradients."""
    with pytest.raises(ValueError, match="d_shared must be >= 2, got 1"):
        RunConfig(d_shared=1)
    RunConfig(d_shared=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_shared = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: d_shared must be >= 2, got 1" in captured.err
    assert not out.exists()


def test_module_configs_take_the_run_config_dims():
    cfg = RunConfig()
    assert cfg.serial_config() == SerialConfig(
        feat_dim=cfg.feat_dim, enc_dim=cfg.enc_dim, dec_dim=cfg.dec_dim,
        max_decode_len=cfg.max_decode_len)
    assert cfg.parallel_config() == ParallelPathConfig(
        emb_a_dim=3 * cfg.enc_dim, emb_t_dim=cfg.dec_dim, d_shared=cfg.d_shared,
        n_subspaces=cfg.n_subspaces, ref_dim=cfg.ref_dim)


@pytest.mark.parametrize("cls", [SerialConfig, ParallelPathConfig])
def test_serial_and_parallel_configs_state_no_defaults(cls):
    """Their values come from RunConfig alone, so a default here could only drift from it."""
    assert [f.name for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING] == []


def test_corpus_and_fusion_defaults_are_the_run_config_defaults():
    """Tests build these two from partial arguments, so their defaults stay; pin them."""
    assert CorpusConfig() == RunConfig().corpus_config()
    assert FusionConfig() == RunConfig().fusion_config()


@pytest.mark.parametrize("method, args, cls", [
    ("corpus_config", (), config.CorpusConfig),
    ("serial_config", (), config.SerialConfig),
    ("parallel_config", (), config.ParallelPathConfig),
])
def test_module_config_fields_are_exactly_what_run_config_sets(monkeypatch, method, args, cls):
    """A module-config field that no RunConfig key reaches is a fixed value: a constant."""
    passed: dict[str, object] = {}
    monkeypatch.setattr(config, cls.__name__, lambda **kwargs: passed.update(kwargs))
    getattr(RunConfig(), method)(*args)
    assert sorted(passed) == sorted(f.name for f in dataclasses.fields(cls))


def _readme_key_table() -> list[str]:
    """Backticked names in the first column of the README's key table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys: list[str] = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys += re.findall(r"`([a-z_0-9]+)`", line.split("|")[1])
    return keys


def test_readme_key_table_lists_exactly_the_run_config_fields():
    keys = _readme_key_table()
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(RunConfig)}


def test_readme_names_exactly_the_cli_subcommands():
    """The commands the README's code blocks run, and the count its prose gives."""
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    commands = set(subparsers.choices)
    text = README.read_text(encoding="utf-8")
    blocks = "\n".join(text.split("```")[1::2])
    assert set(re.findall(r"\bspdp ([a-z][a-z-]*)", blocks)) == commands
    numbers = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight"]
    [count] = re.findall(r"exposes (\w+) subcommands", text)
    assert numbers.index(count) == len(commands)


FLOAT_KEYS = [(cls, f.name) for cls in (RunConfig, CorpusConfig, FusionConfig)
              for f in dataclasses.fields(cls) if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, key", FLOAT_KEYS,
                         ids=[f"{cls.__name__}.{key}" for cls, key in FLOAT_KEYS])
def test_every_float_config_key_refuses_a_non_finite_value(cls, key, value):
    """Built from the dataclass fields, so a float key added later needs a check too."""
    with pytest.raises(ValueError) as err:
        cls(**{key: value})
    if cls is RunConfig:
        assert f"{key} must be finite, got {value}" in str(err.value)
