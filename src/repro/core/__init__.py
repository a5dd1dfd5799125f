"""Clara: automated SmartNIC offloading insights (the paper's system).

The package mirrors the paper's structure:

* :mod:`repro.core.prepare` — program preparation (Section 3.1);
* :mod:`repro.core.predictor` — cross-platform instruction/memory
  prediction with the LSTM+FC model, data synthesis, and reverse-ported
  API profiles (Sections 3.2-3.3);
* :mod:`repro.core.algorithms` — accelerator algorithm identification
  with SPE features + SVM (Section 4.1);
* :mod:`repro.core.scaleout` — multicore scale-out factor analysis
  with a GBDT cost model (Section 4.2);
* :mod:`repro.core.placement` — NF state placement via ILP
  (Section 4.3);
* :mod:`repro.core.coalescing` — memory access coalescing via K-means
  over access vectors (Section 4.4);
* :mod:`repro.core.colocation` — pairwise colocation ranking with
  LambdaMART (Section 4.5);
* :mod:`repro.core.pipeline` — the end-to-end ``Clara`` facade that
  produces an :class:`~repro.core.insights.InsightReport` and a
  :class:`~repro.nic.port.PortConfig` for an unported element.

Two infrastructure modules support the learning phases:

* :mod:`repro.core.parallel` — deterministic multiprocessing fan-out
  for dataset synthesis (parallel == serial, per-program seeding);
* :mod:`repro.core.artifacts` — :class:`TrainConfig` plus the
  content-addressed on-disk cache of fitted advisor state, so repeated
  ``Clara.train()`` calls load in sub-second time.
"""

from repro.errors import (
    ArtifactCacheMiss,
    ArtifactError,
    ClaraError,
    InvalidWorkloadError,
    NotTrainedError,
    UnknownElementError,
)
from repro.core.artifacts import (
    ArtifactCache,
    TrainConfig,
    train_cache_key,
)
from repro.core.insights import (
    INSIGHT_REPORT_SCHEMA,
    Insight,
    InsightReport,
)
from repro.core.parallel import parallel_map
from repro.core.prepare import PreparedNF, prepare_element, prepare_module
from repro.core.predictor import InstructionPredictor, PredictorDataset
from repro.core.algorithms import AlgorithmIdentifier, build_algorithm_corpus
from repro.core.scaleout import ScaleoutAdvisor
from repro.core.placement import PlacementAdvisor, PlacementProblem
from repro.core.coalescing import CoalescingAdvisor
from repro.core.colocation import ColocationAdvisor, ranking_to_dict
from repro.core.partition import Partition, PartitionAdvisor
from repro.core.explain import (
    gbdt_feature_importance,
    render_explanations,
    svm_top_patterns,
)
from repro.core.pipeline import AnalysisResult, Clara

__all__ = [
    "AnalysisResult",
    "ArtifactCache",
    "ArtifactCacheMiss",
    "ArtifactError",
    "ClaraError",
    "InvalidWorkloadError",
    "NotTrainedError",
    "UnknownElementError",
    "TrainConfig",
    "train_cache_key",
    "parallel_map",
    "INSIGHT_REPORT_SCHEMA",
    "Insight",
    "InsightReport",
    "ranking_to_dict",
    "PreparedNF",
    "prepare_element",
    "prepare_module",
    "InstructionPredictor",
    "PredictorDataset",
    "AlgorithmIdentifier",
    "build_algorithm_corpus",
    "ScaleoutAdvisor",
    "PlacementAdvisor",
    "PlacementProblem",
    "CoalescingAdvisor",
    "ColocationAdvisor",
    "Partition",
    "PartitionAdvisor",
    "gbdt_feature_importance",
    "render_explanations",
    "svm_top_patterns",
    "Clara",
]
