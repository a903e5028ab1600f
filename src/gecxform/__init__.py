"""gecxform: correction transformations induced from parallel GEC corpora.

Aligns input subwords to spans of the corrected sentence, induces character-
or string-level rewrite rules at subword or word granularity, encodes gold
corrections as per-unit labels, decodes them back, and computes oracle
upper-bound F0.5 analyses.
"""

__version__ = "0.1.0"
