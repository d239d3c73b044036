"""Cycle-consistent adversarial topic modeling (ToMCAT / sToMCAT).

A generator maps topic distributions drawn from a symmetric Dirichlet prior
to word distributions; an encoder maps TF-IDF document rows back to topic
distributions. Both are trained with WGAN critics (weight clipping) and L1
cycle-consistency losses; an optional classifier on the encoder output adds
a supervised objective.

The package exports what the commands are built from; the per-step
training internals live in tomcat.training, tomcat.networks and
tomcat.evaluation.
"""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError,
    CsrRows,
    DocumentFile,
    TfidfMatrix,
    Vocabulary,
    build_vocabulary,
    count_documents,
    load_documents,
    tfidf,
    tfidf_transform,
)
from .evaluation import (
    SyntheticSpec,
    build_cooc,
    classify_accuracy,
    make_synthetic,
    model_coherence,
    topic_word_ids,
)
from .networks import topic_word_distributions
from .training import ConfigError, NonFiniteLossError, TrainConfig, train

__version__ = "0.1.0"
