"""Serial path: acoustic encoder, adaptor, and autoregressive decoder.

The decoder is trained on targets of the form

    transcript words ++ "<" ++ style label words ++ ">" ++ EOS

so at inference it transcribes first, then brackets a style label. The
encoder additionally exports the concatenated hidden states of all its
layers (the acoustic embedding for the parallel path), and the decoder
exports its last-layer hidden states over transcript positions (the
linguistic embedding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (N_HEADS, Conv1d, Embedding, KVCache, LayerNorm, Linear, Module,
                     TransformerLayer, causal_mask, sinusoidal_positions)
from .tensor import Tensor
from .vocab import EOS_ID, PAD_ID, STYLE_OPEN_ID, build_vocab

ENC_LAYERS = 3       # encoder layers, every one tapped for the acoustic embedding
ADAPTOR_LAYERS = 4
DEC_LAYERS = 2
DOWNSAMPLE = 2       # stride of the last encoder conv and of the last adaptor conv

NO_TERMINATION = "NoTermination"    # flag of a row whose decode never emitted "<"


@dataclass
class SerialConfig:
    feat_dim: int
    enc_dim: int
    dec_dim: int
    max_decode_len: int

    def __post_init__(self) -> None:
        for field in ("enc_dim", "dec_dim"):
            dim = getattr(self, field)
            if dim < 1 or dim % N_HEADS != 0:
                raise ValueError(f"{field} must be a positive multiple of the "
                                 f"{N_HEADS} attention heads, got {dim}")
        if self.max_decode_len < 1:
            raise ValueError(f"max_decode_len must be >= 1, got {self.max_decode_len}")


@dataclass
class GenerationResult:
    """Greedy decodes of B rows; each list holds one entry per row."""
    tokens: list[list[int]]          # with stop_at_vote, a voted row may end before
                                     # EOS, at or after the label's first token
    p_nt: list[np.ndarray | None]    # next-token distribution after the first "<"
    transcript: list[list[int]]      # generated tokens before the first "<"
    flags: list[list[str]]
    emb_t: np.ndarray                # (B, S, dec_dim) over transcript positions, S the
                                     # longest transcript; zero past len(transcript[i])


@dataclass
class DecoderCache:
    """What a cached decode keeps between ``decode_hidden`` calls (no_grad only)."""
    layers: list[KVCache]            # one per decoder layer
    positions: np.ndarray            # position table covering the whole decode


class SerialModel(Module):
    def __init__(self, cfg: SerialConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.enc_conv1 = Conv1d(rng, cfg.feat_dim, cfg.enc_dim, stride=1)
        self.enc_conv2 = Conv1d(rng, cfg.enc_dim, cfg.enc_dim, stride=DOWNSAMPLE)
        self.enc = [TransformerLayer(rng, cfg.enc_dim) for _ in range(ENC_LAYERS)]
        self.ad_conv1 = Conv1d(rng, cfg.enc_dim, cfg.dec_dim, stride=1)
        self.ad_conv2 = Conv1d(rng, cfg.dec_dim, cfg.dec_dim, stride=1)
        self.ad_conv3 = Conv1d(rng, cfg.dec_dim, cfg.dec_dim, stride=DOWNSAMPLE)
        self.ad = [TransformerLayer(rng, cfg.dec_dim) for _ in range(ADAPTOR_LAYERS)]
        n_vocab = len(build_vocab())
        self.embed = Embedding(rng, n_vocab, cfg.dec_dim)
        self.dec = [TransformerLayer(rng, cfg.dec_dim) for _ in range(DEC_LAYERS)]
        self.dec_norm = LayerNorm(cfg.dec_dim)
        self.head = Linear(rng, cfg.dec_dim, n_vocab)

    # -- encoder ------------------------------------------------------------------

    def encode(self, frames) -> tuple[Tensor, Tensor]:
        """Returns (enc_last, emb_a) for a (B, T, F) batch of equal-length rows."""
        frames = T.as_tensor(frames)
        if frames.shape[1] == 0:
            raise ValueError("encoder requires at least one frame")
        x = T.gelu(self.enc_conv1(frames))
        x = T.gelu(self.enc_conv2(x))
        taps: list[Tensor] = []
        for layer in self.enc:
            x = layer(x)
            taps.append(x)
        return x, T.concat(taps, axis=-1)

    # -- adaptor ------------------------------------------------------------------

    def adapt(self, enc_last: Tensor) -> Tensor:
        """The audio prefix the decoder reads."""
        x = T.gelu(self.ad_conv1(enc_last))
        x = T.gelu(self.ad_conv2(x))
        x = T.gelu(self.ad_conv3(x))
        for layer in self.ad:
            x = layer(x)
        return x

    # -- decoder ------------------------------------------------------------------

    def decode_hidden(self, audio_prefix: Tensor | None, text_ids: np.ndarray,
                      cache: DecoderCache | None = None) -> Tensor:
        """Last-layer hidden states over the text span of [audio | text].

        Attention is causal over the concatenated sequence; since the audio
        prefix precedes all text, every text position sees the full prefix
        while text remains causal among itself.

        With a cache, every layer also keeps its keys and values. The first
        call on an empty cache runs [audio | text]; each later call passes
        ``audio_prefix=None`` and only the next text positions, which attend
        to everything cached before them.
        """
        past = 0 if cache is None else cache.layers[0].length
        if (audio_prefix is None) != (past > 0):
            raise ValueError("the audio prefix goes into the first decoder call only")
        x = self.embed(text_ids)
        a_len = 0
        if audio_prefix is not None:
            a_len = audio_prefix.shape[1]
            x = T.concat([audio_prefix, x], axis=1)
        total = past + x.shape[1]
        layer_caches = [None] * len(self.dec)
        if cache is None:
            table = sinusoidal_positions(total, self.cfg.dec_dim)
        else:
            table, layer_caches = cache.positions, cache.layers
        x = T.add(x, table[past:total])
        # Text padding ends every row, so causality keeps it from every real
        # position. A single query may see every key, so it needs no mask.
        mask = causal_mask(x.shape[1], past) if x.shape[1] > 1 else None
        for layer, kv in zip(self.dec, layer_caches):
            x = layer(x, mask=mask, cache=kv)
        x = self.dec_norm(x)
        return T.take(x, (slice(None), slice(a_len, total)))

    def teacher_forced_loss(self, audio_prefix: Tensor,
                            prompts: list[list[int]], targets: list[list[int]],
                            transcript_lens: list[int]) -> tuple[Tensor, Tensor]:
        """Token cross-entropy plus the linguistic embedding for the parallel path.

        Decoder text input is prompt ++ target[:-1]; the label at the input
        position of token t is the next target token, so loss covers exactly
        the target span. Returns (loss, emb_t (B, S, dec_dim)); emb_t rows past
        an item's transcript length are padding that the parallel path masks.
        """
        batch = len(prompts)
        text_rows = [list(p) + list(t[:-1]) for p, t in zip(prompts, targets)]
        t_len = max(len(row) for row in text_rows)
        text_ids = np.full((batch, t_len), PAD_ID, dtype=np.int64)
        labels = np.zeros((batch, t_len), dtype=np.int64)
        loss_mask = np.zeros((batch, t_len), dtype=bool)
        for i, (p, tgt, row) in enumerate(zip(prompts, targets, text_rows)):
            text_ids[i, :len(row)] = row
            start = len(p) - 1
            labels[i, start:start + len(tgt)] = tgt
            loss_mask[i, start:start + len(tgt)] = True
        hidden = self.decode_hidden(audio_prefix, text_ids)
        loss = T.token_cross_entropy(self.head(hidden), labels, loss_mask)
        return loss, _gather_transcript(hidden, prompts, transcript_lens)

    def generate_greedy(self, audio_prefix: Tensor, prompt: list[int],
                        stop_at_vote: bool = False) -> GenerationResult:
        """Deterministic greedy decoding of B rows together, with a K/V cache.

        One cached pass over [audio | prompt], then one cached step per
        token. A row stops at EOS; decoding stops when every row has, or
        after ``max_decode_len`` tokens. Per row, ``p_nt`` is the next-token
        distribution at the step right after the first "<". ``emb_t`` comes
        from the hidden states of the fed tokens, so a row still running at
        the end feeds its last token once more.

        With ``stop_at_vote``, decoding also stops once every running row
        has its ``p_nt``. A voted row stays in the batch until then, so
        every row's transcript, ``p_nt``, ``emb_t`` and flags are those of
        the full decode; only the tokens after the label's first token may
        be missing.
        """
        batch, a_len = audio_prefix.shape[:2]
        max_len = self.cfg.max_decode_len
        tokens: list[list[int]] = [[] for _ in range(batch)]
        p_nt: list[np.ndarray | None] = [None] * batch
        states = np.zeros((batch, max_len, self.cfg.dec_dim))
        running = np.ones(batch, dtype=bool)
        total = a_len + len(prompt) + max_len
        with T.no_grad():
            cache = DecoderCache([KVCache(total) for _ in self.dec],
                                 sinusoidal_positions(total, self.cfg.dec_dim))
            ids = np.tile(np.asarray(prompt, dtype=np.int64), (batch, 1))
            last = self.decode_hidden(audio_prefix, ids, cache).data[:, -1:]
            for step in range(max_len):
                dist = T.softmax(self.head(last), axis=-1).data[:, 0]
                nxt = dist.argmax(axis=-1)
                for i in np.flatnonzero(running):
                    if tokens[i] and tokens[i][-1] == STYLE_OPEN_ID and p_nt[i] is None:
                        p_nt[i] = dist[i].copy()
                    tokens[i].append(int(nxt[i]))
                running &= nxt != EOS_ID
                waiting = running & [p is None for p in p_nt] if stop_at_vote else running
                if not waiting.any():
                    break
                last = self.decode_hidden(None, nxt[:, None], cache).data
                states[:, step] = last[:, 0]
        transcripts: list[list[int]] = []
        flags: list[list[str]] = []
        for row in tokens:
            if STYLE_OPEN_ID in row:
                transcripts.append(row[:row.index(STYLE_OPEN_ID)])
                flags.append([])
            else:
                transcripts.append([t for t in row if t != EOS_ID])
                flags.append([NO_TERMINATION])
        lens = np.array([len(t) for t in transcripts])
        valid = np.arange(lens.max()) < lens[:, None]
        emb_t = np.where(valid[:, :, None], states[:, :lens.max()], 0.0)
        return GenerationResult(tokens=tokens, p_nt=p_nt, transcript=transcripts,
                                flags=flags, emb_t=emb_t)


def _gather_transcript(hidden: Tensor, prompts: list[list[int]],
                       transcript_lens: list[int]) -> Tensor:
    """Pick hidden rows at each item's transcript-token input positions.

    Rows beyond an item's transcript length point at position 0; the
    parallel path's alignment, given the same lengths, masks them out of
    every downstream computation.
    """
    batch = len(prompts)
    s_max = max(transcript_lens)
    pos = np.zeros((batch, s_max), dtype=np.int64)
    for i, (p, k) in enumerate(zip(prompts, transcript_lens)):
        pos[i, :k] = len(p) + np.arange(k)
    bidx = np.repeat(np.arange(batch)[:, None], s_max, axis=1)
    return T.take(hidden, (bidx, pos))
