"""DOALL loop classification (§5.1, Tables 5.1–5.3).

Builds a dataset of (feature vector, label) pairs from discovery results
over a corpus of programs, trains the AdaBoost ensemble, and reports
feature importances and held-out classification scores — separated, like
Table 5.3, into loops that carry ground-truth annotations ("loops with
pragmas", i.e. loops the reference parallel implementation parallelizes)
and loops without.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.apps.features import LOOP_FEATURES, loop_feature_vector
from repro.apps.ml import AdaBoost, classification_scores, train_test_split
from repro.discovery.loops import LoopInfo
from repro.engine import DiscoveryResult


@dataclass
class LoopSample:
    program: str
    loop: LoopInfo
    features: np.ndarray
    label: int  # +1 parallelizable, -1 not
    has_pragma: bool  # ground-truth annotation exists (reference version)


def build_dataset(
    corpus: Iterable[tuple[str, DiscoveryResult, dict[int, bool]]],
) -> list[LoopSample]:
    """``corpus`` items: (program_name, discovery_result, ground_truth)
    where ground_truth maps loop header lines to "is parallel in the
    reference implementation".  Loops without a ground-truth entry are
    labelled by the detector (self-training labels) and marked
    ``has_pragma=False``."""
    samples: list[LoopSample] = []
    for name, result, truth in corpus:
        for info in result.loops:
            vec = loop_feature_vector(result, info)
            if info.start_line in truth:
                label = 1 if truth[info.start_line] else -1
                has_pragma = True
            else:
                label = 1 if info.is_parallelizable else -1
                has_pragma = False
            samples.append(LoopSample(name, info, vec, label, has_pragma))
    return samples


@dataclass
class DoallClassifier:
    """Trained classifier + evaluation artefacts."""

    model: AdaBoost = field(default_factory=lambda: AdaBoost(n_estimators=60))
    feature_names: tuple = LOOP_FEATURES

    def fit(self, samples: list[LoopSample], seed: int = 0) -> dict:
        """Train/evaluate; returns the Table 5.2 + 5.3 style report."""
        if not samples:
            raise ValueError("empty corpus")
        X = np.stack([s.features for s in samples])
        y = np.array([s.label for s in samples], dtype=np.float64)
        pragma = np.array([s.has_pragma for s in samples])
        # normalise features to comparable scales for stump thresholds
        scale = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-9)
        Xn = (X - X.min(axis=0)) / scale

        idx = np.arange(len(y))
        X_tr, y_tr, X_te, y_te = train_test_split(Xn, y, 0.3, seed)
        idx_tr_arr, _, idx_te_arr, _ = train_test_split(
            idx.reshape(-1, 1), y, 0.3, seed
        )
        self.model.fit(X_tr, y_tr)

        pred_te = self.model.predict(X_te)
        report = {
            "importances": dict(
                zip(self.feature_names, self.model.feature_importances())
            ),
            "overall": classification_scores(y_te, pred_te),
        }
        te_rows = idx_te_arr.reshape(-1).astype(int)
        mask_pragma = pragma[te_rows]
        if mask_pragma.any():
            report["with_pragmas"] = classification_scores(
                y_te[mask_pragma], pred_te[mask_pragma]
            )
        if (~mask_pragma).any():
            report["without_pragmas"] = classification_scores(
                y_te[~mask_pragma], pred_te[~mask_pragma]
            )
        return report
