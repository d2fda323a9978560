"""Hardware-assisted intrusion detection: profiler, features, classifiers.

This ``__init__`` resolves its re-exports lazily (PEP 562), like
:mod:`repro.core`.  numpy is imported only by the modules that build a
dataset, a scaler, a classifier, a detector or metrics; the profiler,
the feature sets and the sample containers (:mod:`repro.hid.samples`)
are numpy-free, so simulation-only commands never load it.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "CLASSIFIER_FACTORIES": "repro.hid.classifiers",
    "DeepNnClassifier": "repro.hid.classifiers",
    "LinearSvmClassifier": "repro.hid.classifiers",
    "LogisticRegressionClassifier": "repro.hid.classifiers",
    "MlpClassifier": "repro.hid.classifiers",
    "make_classifier": "repro.hid.classifiers",
    "ATTACK": "repro.hid.samples",
    "BENIGN": "repro.hid.samples",
    "Sample": "repro.hid.samples",
    "Dataset": "repro.hid.dataset",
    "samples_to_dataset": "repro.hid.dataset",
    "HidDetector": "repro.hid.detector",
    "OnlineHidDetector": "repro.hid.detector",
    "average_accuracy": "repro.hid.detector",
    "make_detector": "repro.hid.detector",
    "DEFAULT_FEATURES": "repro.hid.features",
    "ELIGIBLE_EVENTS": "repro.hid.features",
    "FEATURE_SIZES": "repro.hid.features",
    "RANKED_FEATURES": "repro.hid.features",
    "feature_set": "repro.hid.features",
    "DetectionMetrics": "repro.hid.metrics",
    "compute_metrics": "repro.hid.metrics",
    "Profiler": "repro.hid.profiler",
    "StandardScaler": "repro.hid.scaler",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY_EXPORTS)
