"""Hybrid XML retrieval: article ranking, element matching, coherent
retrieval elements, and an evaluation harness for graded assessments."""

from .assessments import (
    AssessmentSet,
    categorize_topic,
    derive_view,
    load_assessments,
    parse_assessment_file,
)
from .corpus import (
    Corpus,
    ingest_corpus,
    tokenize,
)
from .cre import (
    COMBO_CODES,
    identify_cres,
    rank_cres,
)
from .evaluation import (
    build_size_map,
    inex_eval_ng,
    inex_eval_strict,
    mean_average_precision,
    quantize,
)
from .matcher import collection_match
from .paths import ElementPath
from .pipeline import (
    RunEntry,
    RunRecord,
    RunResult,
    SystemConfig,
    Topic,
    execute,
    parse_topics,
    read_run_file,
    translate_topic,
    write_run_file,
)
from .ranker import (
    InvertedIndex,
    RankParams,
    build_index,
    rank_articles,
)

__version__ = "0.1.0"
