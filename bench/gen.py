"""Seeded synthetic inputs for the benchmark: a judged parallel corpus.

Source and target words are drawn from Zipfian vocabularies (rank r has
weight 1/r).  Each source word has one or two fixed translations, so the
Dice lexicon has something to find.  Every pair is given a latent quality
level that sets how much of its translation is damaged: target words are
dropped or replaced by garbage words that occur nowhere else (fresh random
strings in placeholder brackets, so they are out of vocabulary for the
target language model and add punctuation tokens).
The ten judgment parameters are then scored from the damage the pair
really shows, plus noise, so the grades follow what the features can see.

Only the written files reach ``mtqe``; the same seed always writes the same
bytes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

VOCAB = 20_000
# Damage rate per latent level (Poor..Excellent) and the level shares.  A
# judgment scores 1 - 2.5 * (damaged share), which puts each level's mean
# damage in the middle of its grade band.
DAMAGE = (0.35, 0.25, 0.15, 0.05)
LEVEL_SHARES = (0.2, 0.3, 0.3, 0.2)
JUDGMENT_SLOPE = 2.5
JUDGMENT_NOISE = 1.0
SWAP_RATE = 0.2
COMMA_RATE = 0.05

_LATIN_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]
_DEVANAGARI_SYLLABLES = [
    c + v
    for c in "कखगघचछजझटठडढतथदधनपफबभमयरलवशसह"
    for v in ("", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ")
]
_GARBAGE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _spell(index: int, syllables: list[str], minimum: int) -> str:
    parts = []
    base = len(syllables)
    while index or len(parts) < minimum:
        index, digit = divmod(index, base)
        parts.append(syllables[digit])
    return "".join(parts)


SOURCE_WORDS = [_spell(i, _LATIN_SYLLABLES, 2) for i in range(VOCAB)]
TARGET_WORDS = [_spell(i, _DEVANAGARI_SYLLABLES, 2) for i in range(VOCAB)]
_ZIPF_CUM = list(itertools.accumulate(1.0 / rank for rank in range(1, VOCAB + 1)))


@dataclass(frozen=True)
class Corpus:
    """Line-aligned source and target text plus one judgment row per pair."""

    source: list[str]
    target: list[str]
    judgments: list[tuple[int, ...]]

    @property
    def pairs(self) -> int:
        return len(self.source)

    def write(self, stem: str) -> dict[str, str]:
        """Write ``<stem>.src``, ``<stem>.tgt`` and ``<stem>.judgments.tsv``."""
        paths = {
            "src": f"{stem}.src",
            "tgt": f"{stem}.tgt",
            "judgments": f"{stem}.judgments.tsv",
        }
        _write_lines(paths["src"], self.source)
        _write_lines(paths["tgt"], self.target)
        header = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])
        rows = ["\t".join(str(v) for v in (i, *params)) for i, params in enumerate(self.judgments)]
        _write_lines(paths["judgments"], [header] + rows)
        return paths

    def head(self, n: int) -> "Corpus":
        return Corpus(self.source[:n], self.target[:n], self.judgments[:n])


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _translation_table(rng: random.Random) -> list[tuple[int, ...]]:
    # Word ranks stay close across languages, so frequent words translate to
    # frequent words; one source word in five has two translations.
    table = []
    for rank in range(VOCAB):
        partner = min(VOCAB - 1, max(0, rank + rng.randint(-3, 3)))
        if rng.random() < 0.2:
            other = min(VOCAB - 1, partner + 1 + rng.randrange(50))
            table.append((partner, other))
        else:
            table.append((partner,))
    return table


def generate(seed: int, stream: str, pairs: int, min_len: int, max_len: int) -> Corpus:
    """``pairs`` judged sentence pairs with source lengths in min_len..max_len.

    The translation table depends on ``seed`` alone, so corpora drawn with
    one seed and different ``stream`` names come from one language pair.
    """
    rng = random.Random(f"{seed}-{stream}")
    table = _translation_table(random.Random(f"{seed}-table"))
    source_lines: list[str] = []
    target_lines: list[str] = []
    judgments: list[tuple[int, ...]] = []
    for _ in range(pairs):
        length = rng.randint(min_len, max_len)
        ranks = rng.choices(range(VOCAB), cum_weights=_ZIPF_CUM, k=length)
        level = rng.choices(range(4), weights=LEVEL_SHARES)[0]
        damage_rate = DAMAGE[level]
        words = [SOURCE_WORDS[r] for r in ranks]
        for i in range(len(words) - 1):
            if rng.random() < COMMA_RATE:
                words[i] += ","
        source_lines.append(" ".join(words) + " .")

        target: list[str] = []
        damaged = 0
        for rank in ranks:
            if rng.random() < damage_rate:
                damaged += 1
                if rng.random() < 0.5:
                    continue  # dropped
                # A garbage word: an unseen string in placeholder brackets,
                # the way untranslated markup leaks into MT output.
                target.append("[" + "".join(rng.choices(_GARBAGE_LETTERS, k=rng.randint(4, 8))) + "]")
            else:
                target.append(TARGET_WORDS[rng.choice(table[rank])])
        for i in range(len(target) - 1):
            if rng.random() < SWAP_RATE:
                target[i], target[i + 1] = target[i + 1], target[i]
        target_lines.append(" ".join(target + ["।"]))

        score = max(0.0, 1.0 - JUDGMENT_SLOPE * damaged / length)
        judgments.append(
            tuple(
                min(4, max(0, round(4 * score + rng.gauss(0.0, JUDGMENT_NOISE))))
                for _ in range(10)
            )
        )
    return Corpus(source_lines, target_lines, judgments)
