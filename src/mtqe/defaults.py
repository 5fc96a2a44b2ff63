"""The choices and defaults every stage's parser shows.

``mtqe --help`` and each subcommand's usage name them before any stage
runs, so they live apart from the modules that use them: a stage then
imports only the modules it runs (see :mod:`mtqe.cli`).
"""

# The tokenization sides (see mtqe.corpus.tokenize).
SOURCE = "source"
TARGET = "target"
SIDES = (SOURCE, TARGET)

# The Dice association a lexicon entry must reach (see mtqe.lexicon).
DEFAULT_THRESHOLD = 0.2

# The absolute variance floor of the Gaussian Naive Bayes grader (see mtqe.bayes).
ABSOLUTE_VARIANCE_FLOOR = 1e-12
