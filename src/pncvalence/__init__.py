"""Quantify the evaluative shift of German personal name compounds.

The package measures how compounding a modifier onto a person's name
("Willkommens-Merkel") shifts the valence of the surrounding contexts
relative to the bare full name, via affective lexicon lookups and via
sentiment label distributions, and models what explains the shift.
"""

__version__ = "0.1.0"

from .corpus import (ContextMatch, Document, TargetSpec, VariantSet,
                     dedupe_documents, frequency_filter, generate_variants,
                     match_contexts)
from .errors import (ClassificationError, ConvergenceError, ParseError,
                     PncValenceError, RankDeficiencyError,
                     UndefinedCorrelationError, ValidationError)
from .lexicon import (CONTENT_POS_TAGS, TaggedContext, TaggedToken,
                      ValenceLexicon, load_lexicon, read_tagged_contexts)
from .regression import (DesignMatrix, ElasticNetFit, FeatureRow, OlsFit,
                         cv_random_search, elastic_net_fit, encode_features,
                         ols_fit, univariate_scan, multivariate_suite)
from .sentiment import (LabelHistogram, LabelRecord, build_histograms,
                        compare_approaches, eq2_valence, pairwise_iaa)
from .stats import CorrelationResult, fisher_f_sf, pearson, spearman, student_t_sf
from .valence import (DeltaRecord, ScoreRecord, compute_deltas, delta_sign,
                      domain_summary, sign_breakdown, target_valence,
                      target_valence_from_contexts)

__all__ = [
    "__version__",
    "ClassificationError", "ConvergenceError", "ParseError", "PncValenceError",
    "RankDeficiencyError", "UndefinedCorrelationError", "ValidationError",
    "ContextMatch", "Document", "TargetSpec", "VariantSet",
    "dedupe_documents", "frequency_filter", "generate_variants", "match_contexts",
    "CONTENT_POS_TAGS", "TaggedContext", "TaggedToken", "ValenceLexicon",
    "load_lexicon", "read_tagged_contexts",
    "DesignMatrix", "ElasticNetFit", "FeatureRow", "OlsFit",
    "cv_random_search", "elastic_net_fit", "encode_features", "ols_fit",
    "univariate_scan", "multivariate_suite",
    "LabelHistogram", "LabelRecord", "build_histograms", "compare_approaches",
    "eq2_valence", "pairwise_iaa",
    "CorrelationResult", "fisher_f_sf", "pearson", "spearman", "student_t_sf",
    "DeltaRecord", "ScoreRecord", "compute_deltas", "delta_sign", "domain_summary",
    "sign_breakdown", "target_valence", "target_valence_from_contexts",
]
