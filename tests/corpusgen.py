"""Seeded generators for synthetic test corpora with diacritics-rich words."""

from __future__ import annotations

import random

from gecxform.corpus import CorruptionConfig, SentencePair, corrupt_corpus
from gecxform.textnorm import strip_diacritics

ONSETS = ["k", "p", "r", "z", "c", "s", "m", "v", "t", "d", "b", "l", "n", "ř", "č", "š", "ž"]
VOWELS = ["a", "e", "i", "o", "u", "y", "á", "é", "í", "ů", "ě"]
SUFFIXES = ["a", "y", "e", "u", "ou", "ami", "ech"]

# Czech, German and Russian letters, both cases; "ß".upper() is "SS"
ALPHABETS = [
    letters + letters.upper()
    for letters in (
        "aábcčdďeéěfghiíjklmnňoópqrřsštťuúůvwxyýzž",
        "aäbcdefghijklmnoöpqrsßtuüvwxyz",
        "абвгдеёжзийклмнопрстуфхцчшщъыьэюя",
    )
]


def random_stem(rng: random.Random, min_syllables: int = 1, max_syllables: int = 3) -> str:
    n = rng.randint(min_syllables, max_syllables)
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(n))


def random_gold_word(rng: random.Random) -> str:
    return random_stem(rng) + rng.choice(SUFFIXES)


def random_gold_sentence(
    rng: random.Random,
    min_words: int = 3,
    max_words: int = 6,
    period_p: float = 0.3,
) -> str:
    words = [random_gold_word(rng) for _ in range(rng.randint(min_words, max_words))]
    words[0] = words[0].capitalize()
    sentence = " ".join(words)
    if rng.random() < period_p:
        sentence += "."
    return sentence


def gold_corpus(n: int, seed: int, **kwargs) -> list[str]:
    rng = random.Random(seed)
    return [random_gold_sentence(rng, **kwargs) for _ in range(n)]


def corpusgen_vocab() -> set[str]:
    """Every syllable and suffix, inner, word-initial and capitalized word-initial."""
    bodies = [o + v for o in ONSETS for v in VOWELS] + SUFFIXES
    return {p for b in bodies for p in (b, " " + b, " " + b.capitalize())}


def corrupted_corpus(n: int, seed: int, config: CorruptionConfig) -> list[SentencePair]:
    return corrupt_corpus(gold_corpus(n, seed), config)


def uncased_noise_config(seed: int) -> CorruptionConfig:
    return CorruptionConfig(
        substitute_char=0.03,
        insert_char=0.02,
        delete_char=0.02,
        swap_adjacent_chars=0.02,
        strip_word_diacritics=0.3,
        toggle_word_casing=0.15,
        swap_adjacent_words=0.0,
        seed=seed,
    )


def cased_noise_config(seed: int) -> CorruptionConfig:
    # No case toggles in either direction. Only a toggle that capitalizes a
    # source word needs the in-place downcase that a character program cannot
    # express, but CorruptionConfig cannot toggle one direction alone; so
    # cased-mode corpora stay within the encodable set.
    return CorruptionConfig(
        substitute_char=0.03,
        insert_char=0.02,
        delete_char=0.02,
        swap_adjacent_chars=0.02,
        strip_word_diacritics=0.3,
        toggle_word_casing=0.0,
        swap_adjacent_words=0.0,
        seed=seed,
    )


def suffix_error_pairs(n: int, seed: int) -> list[SentencePair]:
    """Word-local diacritics, casing and inflection-suffix errors.

    Each source word differs from its gold word by at most suffix choice,
    stripped diacritics and a lowercased initial, so every hypothesis edit is
    confined to one token.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        gold_words = []
        source_words = []
        for wi in range(rng.randint(3, 6)):
            stem = random_stem(rng)
            suffix = rng.choice(SUFFIXES)
            gold = stem + suffix
            source = gold
            if rng.random() < 0.45:
                wrong = rng.choice([s for s in SUFFIXES if s != suffix])
                source = stem + wrong
            if rng.random() < 0.5:
                source = strip_diacritics(source)
            if wi == 0:
                gold = gold.capitalize()
                if rng.random() < 0.4:
                    source = source[0].lower() + source[1:]
                else:
                    source = source.capitalize()
            gold_words.append(gold)
            source_words.append(source)
        pairs.append(SentencePair(" ".join(source_words), " ".join(gold_words)))
    return pairs
