"""seqot: transport-based semantic matching for token sequences, n-gram
reference metrics, and self-imitation policy-gradient training on toy
autoregressive generators."""

from .embeddings import (
    PAD_TOKEN,
    CostMatrix,
    EmbeddingTable,
    OovPolicy,
    build_cost_matrix,
    cosine_cost,
    load_embeddings,
    resolve,
)
from .nested import NestedResult, nested_wasserstein
from .ot_core import (
    DEFAULT_IPOT,
    IpotConfig,
    TransportPlan,
    exact_ot_oracle,
    ipot_solve,
    marginal_violation,
)
from .seq_match import PairScore, score_pair
from .text_metrics import BleuReport, corpus_bleu, f1_bleu, naive_semantic_score, self_bleu

__version__ = "0.1.0"

__all__ = [
    "BleuReport",
    "CostMatrix",
    "DEFAULT_IPOT",
    "EmbeddingTable",
    "IpotConfig",
    "NestedResult",
    "OovPolicy",
    "PAD_TOKEN",
    "PairScore",
    "TransportPlan",
    "build_cost_matrix",
    "corpus_bleu",
    "cosine_cost",
    "exact_ot_oracle",
    "f1_bleu",
    "ipot_solve",
    "load_embeddings",
    "marginal_violation",
    "naive_semantic_score",
    "nested_wasserstein",
    "resolve",
    "score_pair",
    "self_bleu",
]
