"""Cross-attention re-ranking for strip-structured gait embeddings.

Pipeline: strip feature maps are ranked globally by a strip-averaged
Euclidean distance, then each probe's short list is re-ordered by the
distance between cross-attended probe/candidate representations.
"""

from .baseline import (
    BaselineConfig,
    BaselineWeights,
    baseline_rerank,
    baseline_scores,
    init_baseline,
    load_baseline,
    save_baseline,
    train_baseline,
)
from .errors import (
    ArtifactError,
    DataError,
    DuplicateIdError,
    FormatError,
    MissingIdError,
    NonFiniteError,
    ShapeError,
)
from .feature_store import (
    FeatureMap,
    FeatureSet,
    load_feature_set,
    save_feature_set,
)
from .inference import rerank, rerank_all
from .metrics import (
    MetricsReport,
    evaluate_lists,
    mean_average_precision,
    oracle_rank1_ceiling,
    rank_k_accuracy,
    strip_cosine_matrix,
    tpr_at_fpr,
)
from .ranking import (
    RankedList,
    rank_all,
    rank_gallery,
    read_ranked_lists,
    strip_distance,
    strip_mean_distance,
    write_ranked_lists,
)
from .reranker import (
    RerankerConfig,
    RerankerWeights,
    TripletBatch,
    attended_pair,
    batch_loss,
    forward_backward,
    init_weights,
    load_checkpoint,
    rerank_distance,
    save_checkpoint,
)
from .synth import SynthSummary, describe, generate
from .training import (
    TrainConfig,
    TrainingEntry,
    TrainingSet,
    TrainResult,
    Triplet,
    adamw_step,
    build_training_set,
    ranking_loss,
    read_training_set,
    sample_triplets,
    split_train_val,
    train,
    write_training_set,
)

__version__ = "0.1.0"
