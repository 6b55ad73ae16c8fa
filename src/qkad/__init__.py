"""Quantum-kernel one-class SVM anomaly detection benchmark.

State-vector simulation of data-encoding circuits, three quantum kernel
strategies (exact overlap, inversion test, randomized measurements with
purity mitigation) plus a classical RBF baseline, a nu-one-class-SVM dual
solver for precomputed kernels, variable-subsampling ensembles with optional
rotated feature bagging, and a seeded benchmark harness with JSON-lines
output.
"""

__version__ = "0.1.0"

from .statevec import (  # noqa: F401
    FeatureMapConfig,
    encode_iqp,
    sample_haar_settings,
)
from .kernel import (  # noqa: F401
    DegenerateSignatureError,
    GramMatrix,
    KernelConfig,
    SignatureCache,
    TrainingSet,
    build_gram_cross,
    build_gram_train,
)
from .ocsvm import OCSVMModel, decision_scores, fit  # noqa: F401
from .ensemble import (  # noqa: F401
    Component,
    EnsembleModel,
    VSConfig,
    fit_vs,
    random_rotation,
    rotation_dim,
    sample_sizes,
    score_vs,
)
from .pipeline import (  # noqa: F401
    PCAParams,
    PreprocessParams,
    ScalerParams,
    apply_pca,
    apply_preprocess,
    apply_scaler,
    fit_pca,
    fit_preprocess,
    fit_scaler,
)
from .data import Dataset, SplitSpec, generate_synthetic, load_fraud_csv, make_split  # noqa: F401
from .metrics import average_precision, confusion, f1  # noqa: F401
