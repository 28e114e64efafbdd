"""Token vocabulary for the serial path and the synthetic corpora.

Four reserved ids head the table: PAD, EOS, the style-bracket openers "<"
and ">". The eight style labels are word-tokenized and their first words
are pairwise distinct, which is what lets inference read a style
distribution off a single next-token distribution. Transcript words are
grouped into one block per style so corpus generation can couple linguistic
evidence to the gold class. These constants are the whole vocabulary:
``vocab.tsv`` is written so stored token ids can be read, never read back.
"""

from __future__ import annotations

from pathlib import Path

PAD_ID = 0
EOS_ID = 1
STYLE_OPEN_ID = 2
STYLE_CLOSE_ID = 3

PAD_TOKEN = "<pad>"
EOS_TOKEN = "<eos>"
STYLE_OPEN_TOKEN = "<"
STYLE_CLOSE_TOKEN = ">"

STYLE_LABELS = (
    "news and science reporting",
    "horror stories",
    "fairy tales",
    "customer service",
    "poetry and prose",
    "audiobooks",
    "spontaneous conversation",
    "others",
)
N_CLASSES = len(STYLE_LABELS)

PROMPT_TEXTS = (
    "identify the speaking style of this audio",
    "what style is this clip",
    "classify the voice genre now",
    "please label this recording style",
    "describe how the speaker talks",
)

CLASS_WORD_BLOCKS = (
    ("bulletin", "headline", "anchor", "despatch", "press",
     "coverage", "correspondent", "briefing", "newsroom", "dateline"),
    ("shadow", "dread", "haunted", "creak", "phantom",
     "chill", "darkness", "scream", "crypt", "lurking"),
    ("kingdom", "dragon", "wand", "castle", "enchanted",
     "princess", "wish", "gnome", "charm", "magic"),
    ("refund", "order", "account", "helpdesk", "ticket",
     "billing", "agent", "inquiry", "warranty", "support"),
    ("verse", "stanza", "meter", "rhyme", "sonnet",
     "lyric", "meadow", "dusk", "ember", "solace"),
    ("chapter", "narrator", "paragraph", "preface", "bookmark",
     "epilogue", "fiction", "shelf", "margin", "binding"),
    ("um", "uh", "like", "actually", "anyway",
     "basically", "gonna", "kinda", "sorta", "huh"),
    ("misc", "general", "assorted", "various", "blended",
     "neutral", "plain", "common", "everyday", "ordinary"),
)


class Vocab:
    def __init__(self, id_to_token: list[str]):
        self.id_to_token = list(id_to_token)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        self.label_token_ids = [self.encode(lbl.split()) for lbl in STYLE_LABELS]
        self.first_token_ids = [ids[0] for ids in self.label_token_ids]
        self.prompt_pool = [self.encode(p.split()) for p in PROMPT_TEXTS]
        self.class_blocks = [self.encode(block) for block in CLASS_WORD_BLOCKS]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, words) -> list[int]:
        return [self.token_to_id[w] for w in words]

    # -- serial-target construction -------------------------------------------

    def build_target(self, transcript_ids: list[int], style_idx: int) -> list[int]:
        """transcript ++ "<" ++ label words ++ ">" ++ EOS; ``train`` checks the transcript."""
        return list(transcript_ids) + [STYLE_OPEN_ID] + self.label_token_ids[style_idx] \
            + [STYLE_CLOSE_ID, EOS_ID]

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, tok in enumerate(self.id_to_token):
                fh.write(f"{i}\t{tok}\n")


def build_vocab() -> Vocab:
    """The canonical vocabulary: reserved ids, label words, prompts, blocks."""
    words = [w for text in STYLE_LABELS + PROMPT_TEXTS for w in text.split()]
    words += [w for block in CLASS_WORD_BLOCKS for w in block]
    reserved = [PAD_TOKEN, EOS_TOKEN, STYLE_OPEN_TOKEN, STYLE_CLOSE_TOKEN]
    return Vocab(list(dict.fromkeys(reserved + words)))     # first occurrence keeps its place
