"""Synthetic corpora in the CONLL dialect.

The bundled 60-tweet corpus (data/synthetic_corpus.conll) was frozen from
make_mini_corpus(seed=7); the SentiMix data itself is not redistributable.
make_long_range_corpus builds a task where the label is the XOR of two
cue tokens separated by more than a convolution window, so no purely
local feature is linearly sufficient.
"""

from importlib import resources

import numpy as np

from hcms.corpus import TweetRecord, parse_conll

_POSITIVE = [("accha", "HIN"), ("badhiya", "HIN"), ("love", "ENG"),
             ("amazing", "ENG"), ("mast", "HIN"), ("😍", "EMT")]
_NEGATIVE = [("bura", "HIN"), ("bekaar", "HIN"), ("hate", "ENG"),
             ("terrible", "ENG"), ("worst", "ENG"), ("😭", "EMT")]
_NEUTRAL = [("theek", "HIN"), ("okay", "ENG"), ("normal", "ENG"),
            ("news", "ENG"), ("report", "ENG"), ("aam", "HIN")]
_FILLERS = [("yaar", "HIN"), ("film", "ENG"), ("the", "ENG"), ("hai", "HIN"),
            ("bahut", "HIN"), ("aaj", "HIN"), ("dekha", "HIN"), ("movie", "ENG"),
            ("@friend", "O"), ("#bollywood", "O"), (":)", "EMT"), ("kya", "HIN"),
            ("scene", "ENG"), ("sooo", "ENG"), ("can't", "ENG"), ("bhi", "HIN")]

_CUES = {"positive": _POSITIVE, "negative": _NEGATIVE, "neutral": _NEUTRAL}


def make_mini_corpus(n_per_class=20, seed=7):
    """Small three-class corpus whose label follows two planted cue tokens."""
    rng = np.random.default_rng(seed)
    records = []
    idx = 0
    for label in ("positive", "negative", "neutral"):
        cues = _CUES[label]
        for _ in range(n_per_class):
            pairs = [cues[rng.integers(len(cues))] for _ in range(2)]
            n_fill = int(rng.integers(4, 9))
            pairs += [_FILLERS[rng.integers(len(_FILLERS))] for _ in range(n_fill)]
            rng.shuffle(pairs)
            records.append(TweetRecord(
                id=str(idx + 1),
                tokens=[t for t, _ in pairs],
                lang_tags=[g for _, g in pairs],
                label=label))
            idx += 1
    perm = rng.permutation(len(records))
    return [records[i] for i in perm]


def load_mini_corpus():
    """The frozen 60-tweet corpus shipped with the package."""
    text = resources.files("hcms.data").joinpath("synthetic_corpus.conll") \
        .read_text(encoding="utf-8")
    records, skipped = parse_conll(text, strict=True)
    assert not skipped
    return records


def make_long_range_corpus(n, seed, separation=4, filler_types=2):
    """XOR of a leading and a trailing cue, more than a kernel apart.

    Label is positive when the opener/closer cues agree in polarity
    (accha..really or bura..nahin) and negative otherwise, so the answer
    requires combining the two distant positions multiplicatively. Few
    filler types keep the task about the long-range interaction rather
    than memorizing filler noise.
    """
    rng = np.random.default_rng(seed)
    fillers = [("hai", "HIN"), ("to", "HIN"), ("bhi", "HIN"),
               ("kya", "HIN")][:filler_types]
    records = []
    for i in range(n):
        opener = ("accha", "HIN") if rng.integers(2) else ("bura", "HIN")
        closer = ("really", "ENG") if rng.integers(2) else ("nahin", "HIN")
        agree = (opener[0] == "accha") == (closer[0] == "really")
        mid = [fillers[rng.integers(len(fillers))] for _ in range(separation)]
        pairs = [opener] + mid + [closer]
        records.append(TweetRecord(
            id=str(i + 1),
            tokens=[t for t, _ in pairs],
            lang_tags=[g for _, g in pairs],
            label="positive" if agree else "negative"))
    return records
