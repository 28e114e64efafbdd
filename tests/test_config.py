"""Run-config surface: defaults, profiles, derived module configs, documentation."""

import dataclasses
import re
from pathlib import Path

from spdp.config import RunConfig, make_run_config
from spdp.parallel import ParallelPathConfig
from spdp.serial import SerialConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_desk_dims_profile_is_the_defaults():
    assert make_run_config({}, {"profile": "desk-dims"}) == RunConfig()


def test_module_configs_take_remaining_dims_and_module_defaults():
    cfg = RunConfig()
    assert cfg.serial_config(40) == SerialConfig(
        feat_dim=cfg.feat_dim, vocab_size=40, enc_dim=cfg.enc_dim, dec_dim=cfg.dec_dim,
        max_decode_len=cfg.max_decode_len)
    assert cfg.parallel_config() == ParallelPathConfig(
        emb_a_dim=3 * cfg.enc_dim, emb_t_dim=cfg.dec_dim, d_shared=cfg.d_shared,
        n_subspaces=cfg.n_subspaces, ref_dim=cfg.ref_dim)


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
