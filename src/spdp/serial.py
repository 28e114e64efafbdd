"""Serial path: acoustic encoder, adaptor, and autoregressive decoder.

The decoder is trained on targets of the form

    transcript words ++ "<" ++ style label words ++ ">" ++ EOS

so at inference it transcribes first, then brackets a style label. The
encoder additionally exports the concatenated hidden states of three tapped
layers (the acoustic embedding for the parallel path), and the decoder
exports its last-layer hidden states over transcript positions (the
linguistic embedding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import (Conv1d, Embedding, LayerNorm, Linear, TransformerLayer,
                     causal_mask, key_padding_mask, sinusoidal_positions)
from .tensor import Tensor
from .vocab import EOS_ID, PAD_ID, STYLE_OPEN_ID


@dataclass
class SerialConfig:
    feat_dim: int
    vocab_size: int
    enc_dim: int = 32
    enc_layers: int = 3
    tap_layers: tuple[int, ...] = (1, 2, 3)
    enc_heads: int = 4
    conv_downsample: int = 2
    adaptor_downsample: int = 2
    adaptor_layers: int = 4
    dec_dim: int = 48
    dec_layers: int = 2
    dec_heads: int = 4
    ffn_mult: int = 4
    max_decode_len: int = 48

    @property
    def emb_a_dim(self) -> int:
        return 3 * self.enc_dim

    def validate(self) -> None:
        if len(self.tap_layers) != 3:
            raise ValueError("exactly three tap layers are required")
        if list(self.tap_layers) != sorted(set(self.tap_layers)):
            raise ValueError("tap layers must be strictly increasing")
        if self.tap_layers[0] < 1 or self.tap_layers[-1] > self.enc_layers:
            raise ValueError("tap layers must lie within 1..enc_layers")


@dataclass
class GenerationResult:
    tokens: list[int]
    p_nt: np.ndarray | None          # next-token distribution after "<"
    transcript: list[int]            # generated tokens before the first "<"
    emb_t: Tensor | None             # (1, K, dec_dim) over transcript positions
    flags: list[str] = field(default_factory=list)


class SerialModel:
    def __init__(self, cfg: SerialConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.enc_conv1 = Conv1d(rng, cfg.feat_dim, cfg.enc_dim, stride=1)
        self.enc_conv2 = Conv1d(rng, cfg.enc_dim, cfg.enc_dim, stride=cfg.conv_downsample)
        self.enc_layers = [TransformerLayer(rng, cfg.enc_dim, cfg.enc_heads, cfg.ffn_mult)
                           for _ in range(cfg.enc_layers)]
        self.ad_conv1 = Conv1d(rng, cfg.enc_dim, cfg.dec_dim, stride=1)
        self.ad_conv2 = Conv1d(rng, cfg.dec_dim, cfg.dec_dim, stride=1)
        self.ad_conv3 = Conv1d(rng, cfg.dec_dim, cfg.dec_dim, stride=cfg.adaptor_downsample)
        self.ad_layers = [TransformerLayer(rng, cfg.dec_dim, cfg.dec_heads, cfg.ffn_mult)
                          for _ in range(cfg.adaptor_layers)]
        self.embed = Embedding(rng, cfg.vocab_size, cfg.dec_dim)
        self.dec_layers = [TransformerLayer(rng, cfg.dec_dim, cfg.dec_heads, cfg.ffn_mult)
                           for _ in range(cfg.dec_layers)]
        self.dec_norm = LayerNorm(cfg.dec_dim)
        self.head = Linear(rng, cfg.dec_dim, cfg.vocab_size)

    # -- encoder ------------------------------------------------------------------

    def encode(self, frames, frame_mask: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray]:
        """Returns (enc_last, emb_a, downsampled mask).

        Masked frames are zeroed on entry so padding content can never leak
        into valid positions through the conv receptive field.
        """
        frames = T.as_tensor(frames)
        if frames.shape[1] == 0:
            raise ValueError("encoder requires at least one frame")
        frame_mask = np.asarray(frame_mask, dtype=bool)
        x = T.mul(frames, frame_mask.astype(np.float64)[:, :, None])
        x = T.gelu(self.enc_conv1(x))
        x = T.gelu(self.enc_conv2(x))
        ds_mask = frame_mask[:, ::self.cfg.conv_downsample]
        attn_mask = key_padding_mask(ds_mask)
        taps: list[Tensor] = []
        for depth, layer in enumerate(self.enc_layers, start=1):
            x = layer(x, mask=attn_mask)
            if depth in self.cfg.tap_layers:
                taps.append(x)
        emb_a = T.concat(taps, axis=-1)
        return x, emb_a, ds_mask

    # -- adaptor ------------------------------------------------------------------

    def adapt(self, enc_last: Tensor, mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
        x = T.gelu(self.ad_conv1(enc_last))
        x = T.gelu(self.ad_conv2(x))
        x = T.gelu(self.ad_conv3(x))
        ds_mask = np.asarray(mask, dtype=bool)[:, ::self.cfg.adaptor_downsample]
        attn_mask = key_padding_mask(ds_mask)
        for layer in self.ad_layers:
            x = layer(x, mask=attn_mask)
        return x, ds_mask

    # -- decoder ------------------------------------------------------------------

    def decode_hidden(self, audio_prefix: Tensor, audio_mask: np.ndarray,
                      text_ids: np.ndarray, text_valid: np.ndarray) -> Tensor:
        """Last-layer hidden states over the text span of [audio | text].

        Attention is causal over the concatenated sequence; since the audio
        prefix precedes all text, every text position sees the full prefix
        while text remains causal among itself. Padded keys are removed.
        """
        batch, a_len = audio_mask.shape
        t_len = text_ids.shape[1]
        total = a_len + t_len
        tok = self.embed(text_ids)
        x = T.concat([audio_prefix, tok], axis=1)
        x = T.add(x, sinusoidal_positions(total, self.cfg.dec_dim))
        valid = np.concatenate([audio_mask.astype(bool), text_valid.astype(bool)], axis=1)
        mask = causal_mask(total) + key_padding_mask(valid)
        for layer in self.dec_layers:
            x = layer(x, mask=mask)
        x = self.dec_norm(x)
        return T.take(x, (slice(None), slice(a_len, total)))

    def teacher_forced_loss(self, audio_prefix: Tensor, audio_mask: np.ndarray,
                            prompts: list[list[int]], targets: list[list[int]],
                            transcript_lens: list[int]
                            ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Token cross-entropy plus the linguistic embedding for the parallel path.

        Decoder text input is prompt ++ target[:-1]; the label at the input
        position of token t is the next target token, so loss covers exactly
        the target span. Returns (loss, emb_t (B, S, dec_dim), emb_t mask).
        """
        batch = len(prompts)
        for tgt in targets:
            if tgt.count(STYLE_OPEN_ID) != 1:
                raise ValueError("target must contain exactly one style-open token")
        text_rows = [list(p) + list(t[:-1]) for p, t in zip(prompts, targets)]
        t_len = max(len(row) for row in text_rows)
        text_ids = np.full((batch, t_len), PAD_ID, dtype=np.int64)
        text_valid = np.zeros((batch, t_len), dtype=bool)
        labels = np.zeros((batch, t_len), dtype=np.int64)
        loss_mask = np.zeros((batch, t_len), dtype=bool)
        for i, (p, tgt, row) in enumerate(zip(prompts, targets, text_rows)):
            text_ids[i, :len(row)] = row
            text_valid[i, :len(row)] = True
            start = len(p) - 1
            labels[i, start:start + len(tgt)] = tgt
            loss_mask[i, start:start + len(tgt)] = True
        hidden = self.decode_hidden(audio_prefix, audio_mask, text_ids, text_valid)
        loss = T.token_cross_entropy(self.head(hidden), labels, loss_mask)
        emb_t, emb_t_mask = _gather_transcript(hidden, prompts, transcript_lens)
        return loss, emb_t, emb_t_mask

    def generate_greedy(self, audio_prefix: Tensor, audio_mask: np.ndarray,
                        prompt: list[int]) -> GenerationResult:
        """Deterministic greedy decoding for a single utterance.

        Captures the full next-token distribution at the step immediately
        after "<" is emitted; recomputes the forward pass each step.
        """
        if audio_prefix.shape[0] != 1:
            raise ValueError("greedy generation runs one utterance at a time")
        generated: list[int] = []
        p_nt: np.ndarray | None = None
        with T.no_grad():
            for _ in range(self.cfg.max_decode_len):
                row = list(prompt) + generated
                text_ids = np.asarray([row], dtype=np.int64)
                text_valid = np.ones((1, len(row)), dtype=bool)
                hidden = self.decode_hidden(audio_prefix, audio_mask, text_ids, text_valid)
                logits = self.head(T.take(hidden, (slice(None), slice(len(row) - 1, len(row)))))
                dist = T.softmax(logits, axis=-1).data[0, 0]
                if generated and generated[-1] == STYLE_OPEN_ID and p_nt is None:
                    p_nt = dist.copy()
                nxt = int(np.argmax(dist))
                generated.append(nxt)
                if nxt == EOS_ID:
                    break
            flags: list[str] = []
            if STYLE_OPEN_ID in generated:
                transcript = generated[:generated.index(STYLE_OPEN_ID)]
            else:
                flags.append("NoTermination")
                p_nt = None
                transcript = [t for t in generated if t != EOS_ID]
            emb_t = None
            if transcript:
                row = list(prompt) + generated
                text_ids = np.asarray([row], dtype=np.int64)
                text_valid = np.ones((1, len(row)), dtype=bool)
                hidden = self.decode_hidden(audio_prefix, audio_mask, text_ids, text_valid)
                emb_t, _ = _gather_transcript(hidden, [prompt], [len(transcript)])
        return GenerationResult(tokens=generated, p_nt=p_nt,
                                transcript=transcript, emb_t=emb_t, flags=flags)

    # -- parameter registry ----------------------------------------------------------

    def encoder_params(self, prefix: str = "serial") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.enc_conv1.params(f"{prefix}.enc_conv1"))
        out.update(self.enc_conv2.params(f"{prefix}.enc_conv2"))
        for i, layer in enumerate(self.enc_layers):
            out.update(layer.params(f"{prefix}.enc.{i}"))
        return out

    def params(self, prefix: str = "serial") -> dict[str, Tensor]:
        out = self.encoder_params(prefix)
        out.update(self.ad_conv1.params(f"{prefix}.ad_conv1"))
        out.update(self.ad_conv2.params(f"{prefix}.ad_conv2"))
        out.update(self.ad_conv3.params(f"{prefix}.ad_conv3"))
        for i, layer in enumerate(self.ad_layers):
            out.update(layer.params(f"{prefix}.ad.{i}"))
        out.update(self.embed.params(f"{prefix}.embed"))
        for i, layer in enumerate(self.dec_layers):
            out.update(layer.params(f"{prefix}.dec.{i}"))
        out.update(self.dec_norm.params(f"{prefix}.dec_norm"))
        out.update(self.head.params(f"{prefix}.head"))
        return out


def _gather_transcript(hidden: Tensor, prompts: list[list[int]],
                       transcript_lens: list[int]) -> tuple[Tensor, np.ndarray]:
    """Pick hidden rows at each item's transcript-token input positions.

    Rows beyond an item's transcript length point at position 0 and are
    marked invalid in the returned mask; alignment masking keeps them out of
    every downstream computation.
    """
    batch = len(prompts)
    s_max = max(transcript_lens)
    if s_max < 1:
        raise ValueError("empty transcript")
    pos = np.zeros((batch, s_max), dtype=np.int64)
    mask = np.zeros((batch, s_max), dtype=bool)
    for i, (p, k) in enumerate(zip(prompts, transcript_lens)):
        pos[i, :k] = len(p) + np.arange(k)
        mask[i, :k] = True
    bidx = np.repeat(np.arange(batch)[:, None], s_max, axis=1)
    return T.take(hidden, (bidx, pos)), mask
