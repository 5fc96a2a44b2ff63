"""The 16 per-sentence-pair features that feed the classifier."""

from __future__ import annotations

from .corpus import SentencePair, is_punctuation_token
# bench/layers.py imports read_features and write_features from this module.
from .feature_csv import FeatureVector, read_features, write_features
from .lexicon import TranslationCounts
from .ngram import NgramModel


def _low_high_pct(windows: int, low: int, high: int) -> tuple[float, float]:
    if windows <= 0:
        return 0.0, 0.0
    low_pct = 100.0 * low / windows
    if low + high == windows:
        # Complement keeps low + high from creeping past 100 in float.
        return low_pct, 100.0 - low_pct
    return low_pct, 100.0 * high / windows


def extract_features(
    pair: SentencePair,
    src_lm: NgramModel,
    tgt_lm: NgramModel,
    lexicon: TranslationCounts,
) -> FeatureVector:
    """Compute the full feature vector for one sentence pair.

    Both language models must have order >= 3 so the bigram and trigram
    frequency bands are defined.  Degenerate inputs follow the documented
    zero conventions (a sentence shorter than n scores 0 on the length-n
    percentage features, empty sides zero out their averages).
    """
    if src_lm.order < 3 or tgt_lm.order < 3:
        raise ValueError("language models must have order >= 3")
    _, source, target, src_punct, tgt_punct = pair
    # A pair built by hand carries no counts; the token rule gives the tokenizer's.
    if src_punct is None:
        src_punct = sum(map(is_punctuation_token, source))
    if tgt_punct is None:
        tgt_punct = sum(map(is_punctuation_token, target))
    src_count = len(source)
    tgt_count = len(target)
    (uni, bi, tri), seen = src_lm.bands(source, 3)
    low_uni, high_uni = _low_high_pct(src_count, *uni)
    low_bi, high_bi = _low_high_pct(src_count - 1, *bi)
    low_tri, high_tri = _low_high_pct(src_count - 2, *tri)
    return FeatureVector(
        src_token_count=src_count,
        tgt_token_count=tgt_count,
        avg_src_token_len=(sum(map(len, source)) / src_count) if src_count else 0.0,
        src_lm_logprob=src_lm.sentence_log_prob(source),
        tgt_lm_logprob=tgt_lm.sentence_log_prob(target),
        tgt_tokens_per_type=(tgt_count / len(set(target))) if tgt_count else 0.0,
        avg_translations_per_src_word=lexicon.translations_per_word(source),
        pct_low_freq_unigrams=low_uni,
        pct_high_freq_unigrams=high_uni,
        pct_low_freq_bigrams=low_bi,
        pct_high_freq_bigrams=high_bi,
        pct_high_freq_trigrams=high_tri,
        pct_low_freq_trigrams=low_tri,
        pct_unigrams_seen=100.0 * (seen / src_count) if src_count else 0.0,
        src_punct_count=src_punct,
        tgt_punct_count=tgt_punct,
    )
