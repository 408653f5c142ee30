"""Seeded workload inputs for the hcms benchmark, written as CONLL text.

The program under test only ever sees the files written here. Nothing is
imported from hcms, so a change to the package cannot change the inputs.
cue_corpus draws code-mixed tweets whose label follows two planted cue
tokens (the shape of hcms.synthetic.make_mini_corpus), with fillers drawn
from a Zipf vocabulary and lengths on both sides of max_len.
"""

import numpy as np

LABELS = ("positive", "negative", "neutral")

CUES = {
    "positive": [("accha", "Hin"), ("badhiya", "Hin"), ("love", "Eng"),
                 ("amazing", "Eng"), ("mast", "Hin"), ("😍", "EMT")],
    "negative": [("bura", "Hin"), ("bekaar", "Hin"), ("hate", "Eng"),
                 ("terrible", "Eng"), ("worst", "Eng"), ("😭", "EMT")],
    "neutral": [("theek", "Hin"), ("okay", "Eng"), ("normal", "Eng"),
                ("news", "Eng"), ("report", "Eng"), ("aam", "Hin")],
}

# Filler types that exercise each cleaning step: emoji replacement,
# contraction expansion, repeat collapsing, and link/user/hashtag strips.
_SPECIAL = [("😂", "EMT"), ("🙂", "EMT"), ("😀", "EMT"), ("can't", "Eng"),
            ("don't", "Eng"), ("didn't", "Eng"), ("sooo", "Eng"),
            ("yaaaar", "Hin"), ("https://t.co/x1", "O"), ("www.example.in", "O")]
_SYLLABLES = ["ka", "ra", "ma", "na", "ta", "pa", "ya", "la", "ha", "sa",
              "de", "ne", "ti", "ri", "ko", "lo", "bhi", "cha", "ji", "vo",
              "gu", "dh", "th", "sh", "ze", "qu", "mo", "fi", "wa", "be"]

FILLER_TYPES = 40_000   # Zipf support; ~6.5k types are realised in 1.2k tweets
ZIPF_EXPONENT = 1.1
MEAN_TOKENS = 30        # tweet length ~ Gamma(4, MEAN_TOKENS / 4), clipped
CUE_WINDOW = 40         # cues sit inside the first 40 tokens, below max_len


def _filler(rank):
    """Deterministic token for a Zipf rank (0 = most frequent)."""
    if rank < len(_SPECIAL):
        return _SPECIAL[rank]
    i = rank - len(_SPECIAL)
    word = []
    while True:
        i, r = divmod(i, len(_SYLLABLES))
        word.append(_SYLLABLES[r])
        if i == 0:
            break
        i -= 1
    word = "".join(word)
    if rank % 17 == 0:
        return "#" + word, "O"
    if rank % 29 == 0:
        return "@" + word, "O"
    return word, ("Hin" if rank % 2 else "Eng")


_ZIPF_CDF = np.cumsum(np.arange(1, FILLER_TYPES + 1, dtype=np.float64) ** -ZIPF_EXPONENT)
_ZIPF_CDF /= _ZIPF_CDF[-1]


def cue_corpus(n, seed):
    """n tweets as (tokens_with_tags, label); labels are drawn uniformly."""
    rng = np.random.default_rng(seed)
    tweets = []
    for _ in range(n):
        label = LABELS[rng.integers(len(LABELS))]
        length = int(np.clip(round(rng.gamma(4.0, MEAN_TOKENS / 4.0)), 6, 96))
        ranks = np.searchsorted(_ZIPF_CDF, rng.random(length - 2), side="right")
        pairs = [_filler(int(r)) for r in ranks]
        cues = CUES[label]
        for _ in range(2):
            pos = int(rng.integers(min(len(pairs), CUE_WINDOW) + 1))
            pairs.insert(pos, cues[rng.integers(len(cues))])
        tweets.append((pairs, label))
    return tweets


def to_conll(tweets, labeled=True):
    """CONLL text with ids 1..n; labels are left out when labeled is false."""
    out = []
    for i, (pairs, label) in enumerate(tweets, 1):
        out.append(f"meta\t{i}\t{label}" if labeled else f"meta\t{i}")
        out.extend(f"{tok}\t{tag}" for tok, tag in pairs)
        out.append("")
    return "\n".join(out) + "\n"
