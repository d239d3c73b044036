"""Cycle-consistent adversarial topic modeling (ToMCAT / sToMCAT).

A generator maps topic distributions drawn from a symmetric Dirichlet prior
to word distributions; an encoder maps TF-IDF document rows back to topic
distributions. Both are trained with WGAN critics (weight clipping) and L1
cycle-consistency losses; an optional classifier on the encoder output adds
a supervised objective.
"""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError,
    CsrRows,
    Documents,
    TfidfMatrix,
    Vocabulary,
    build_vocabulary,
    count_documents,
    load_documents,
    tfidf,
    tfidf_transform,
)
from .evaluation import (
    CoocStats,
    SyntheticSpec,
    TopicReport,
    build_cooc,
    classify_accuracy,
    greedy_topic_matches,
    make_synthetic,
    model_coherence,
    npmi_pair,
    topic_npmi,
    topic_recovery_score,
    topic_word_ids,
)
from .networks import (
    DirichletPrior,
    Network,
    build_networks,
    network_table,
    sample_prior,
    top_words,
    topic_word_distributions,
)
from .training import (
    ConfigError,
    LossRecord,
    NonFiniteLossError,
    TrainConfig,
    TrainState,
    balance,
    critic_phase,
    init_state,
    mapper_phase,
    train,
)

__version__ = "0.1.0"
