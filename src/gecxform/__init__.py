"""gecxform: correction transformations induced from parallel GEC corpora.

Aligns input subwords to spans of the corrected sentence, induces character-
or string-level rewrite rules at subword or word granularity, encodes gold
corrections as per-unit labels, decodes them back, and computes oracle
upper-bound F0.5 analyses.
"""

__version__ = "0.1.0"

from .align import Alignment, align_bruteforce, levenshtein_similarity, span_cost
from .corpus import (
    CorruptionConfig,
    GoldEdit,
    SentencePair,
    corrupt,
    corrupt_corpus,
    parse_m2,
    parse_tsv,
    serialize_m2,
    serialize_tsv,
)
from .editscript import (
    KEEP,
    UNCORRECTABLE,
    CharEdit,
    CharTransformation,
    StringTransformation,
    Transformation,
    UnreachableSpanError,
    apply_char_transformation,
    apply_string_transformation,
    apply_transformation,
    build_char_transformation,
    build_string_transformation,
    minimal_edit_script,
    parse_transformation,
    serialize_transformation,
)
from .errors import FormatError
from .evaluate import (
    Classifier,
    EvalCounts,
    MostFrequentClassifier,
    OracleAnalysisRow,
    OracleClassifier,
    analyze,
    extract_edits,
    f_beta,
    iterate_correct,
    oracle_upper_bound,
    score,
)
from .textnorm import (
    CasingMode,
    NormalizedView,
    alignment_normalize,
    case_diff,
    strip_diacritics,
)
from .tokenizer import (
    Subword,
    SubwordSequence,
    TokenizerMode,
    detokenize,
    group_words,
    load_vocab,
    tokenize,
)
from .transform import (
    GranularityMode,
    LabeledSentence,
    TransformationDictionary,
    apply_labels,
    encode,
    induce,
    load_dictionary,
    save_dictionary,
)
