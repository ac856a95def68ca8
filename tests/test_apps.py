"""Tests for Chapter 5 applications: ML, STM, communication patterns."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.commpattern import communication_matrix
from repro.apps.doall_classifier import DoallClassifier, build_dataset
from repro.apps.features import LOOP_FEATURES, loop_feature_vector
from repro.apps.ml import (
    AdaBoost,
    DecisionStump,
    classification_scores,
    train_test_split,
)
from repro.apps.stm import analyze_transactions
from repro.engine import DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.interpreter import VM
from repro.workloads import get_workload


class TestML:
    def test_stump_separates_threshold(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        stump, err = DecisionStump.fit_weighted(
            X, y, np.full(4, 0.25)
        )
        assert err < 0.01
        assert (stump.predict(X) == y).all()

    def test_stump_inverted_polarity(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        stump, err = DecisionStump.fit_weighted(X, y, np.full(4, 0.25))
        assert err < 0.01

    def test_adaboost_xorish(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        model = AdaBoost(n_estimators=150).fit(X, y)
        acc = (model.predict(X) == y).mean()
        assert acc > 0.8  # stumps boost into the XOR structure

    def test_feature_importances_normalised(self):
        X = np.array([[0, 5], [1, 5], [2, 5], [3, 5]], dtype=float)
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = AdaBoost(n_estimators=10).fit(X, y)
        imp = model.feature_importances()
        assert abs(imp.sum() - 1.0) < 1e-9
        assert imp[0] > imp[1]  # feature 1 is constant, carries nothing

    def test_classification_scores(self):
        y_true = np.array([1, 1, -1, -1], dtype=float)
        y_pred = np.array([1, -1, -1, -1], dtype=float)
        scores = classification_scores(y_true, y_pred)
        assert scores["accuracy"] == 0.75
        assert scores["precision"] == 1.0
        assert scores["recall"] == 0.5

    def test_train_test_split_deterministic(self):
        X = np.arange(20).reshape(-1, 1).astype(float)
        y = np.ones(20)
        a = train_test_split(X, y, 0.3, seed=1)
        b = train_test_split(X, y, 0.3, seed=1)
        assert (a[0] == b[0]).all() and (a[2] == b[2]).all()

    @given(st.integers(10, 60), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_adaboost_perfect_on_separable(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = np.where(X[:, 1] > 0.1, 1.0, -1.0)
        model = AdaBoost(n_estimators=20).fit(X, y)
        assert (model.predict(X) == y).mean() >= 0.95


class TestDoallClassifier:
    def _corpus(self):
        names = ["matmul", "histogram", "dotprod", "rgbyuv", "CG", "LU"]
        corpus = []
        for name in names:
            w = get_workload(name)
            res = DiscoveryEngine.from_source(w.source(1)).run()
            corpus.append((name, res, w.ground_truth(1)))
        return corpus

    def test_feature_vectors_shape(self):
        w = get_workload("matmul")
        res = DiscoveryEngine.from_source(w.source(1)).run()
        for info in res.loops:
            vec = loop_feature_vector(res, info)
            assert vec.shape == (len(LOOP_FEATURES),)
            assert np.isfinite(vec).all()

    def test_dataset_labels(self):
        corpus = self._corpus()
        samples = build_dataset(corpus)
        assert samples
        assert {s.label for s in samples} <= {-1, 1}
        assert any(s.has_pragma for s in samples)

    def test_classifier_trains_and_reports(self):
        samples = build_dataset(self._corpus())
        report = DoallClassifier().fit(samples, seed=1)
        assert set(report["importances"]) == set(LOOP_FEATURES)
        assert 0.0 <= report["overall"]["accuracy"] <= 1.0


class TestSTM:
    def test_transactions_found_for_shared_state(self):
        res = DiscoveryEngine.from_source("""int hist[16];
int data[200];
int main() {
  for (int i = 0; i < 200; i++) { data[i] = (i * 7) % 16; }
  for (int i = 0; i < 200; i++) {
    hist[data[i]] += 1;
  }
  return hist[3];
}
""").run()
        analysis = analyze_transactions(res, "histo")
        assert analysis.total_transactions >= 1
        assert analysis.max_write_set() >= 1

    def test_clean_doall_needs_no_transactions(self):
        res = DiscoveryEngine.from_source("""int a[100];
int main() {
  for (int i = 0; i < 100; i++) { a[i] = i; }
  return a[0];
}
""").run()
        analysis = analyze_transactions(res, "clean")
        assert analysis.total_transactions == 0

    def test_nas_analysis_runs(self):
        w = get_workload("CG")
        res = DiscoveryEngine.from_source(w.source(1)).run()
        analysis = analyze_transactions(res, "CG")
        assert analysis.total_transactions >= 0  # smoke: runs to completion


class TestCommPatterns:
    def _profile_threaded(self, name):
        w = get_workload(name)
        module = w.compile(1)
        prof = SerialProfiler(PerfectShadow())
        vm = VM(module, prof, quantum=16)
        vm.run()
        return prof

    def test_matrix_shape_and_counts(self):
        prof = self._profile_threaded("splash2x-fft")
        matrix = communication_matrix(prof.store)
        assert matrix.matrix.shape[0] == matrix.n_threads >= 5
        assert matrix.matrix.sum() > 0

    def test_alltoall_classified(self):
        prof = self._profile_threaded("splash2x-fft")
        matrix = communication_matrix(prof.store)
        m = matrix.matrix.copy()
        # workers are threads 1..4; every worker reads every other's data
        workers = m[1:5, 1:5]
        off_diag = workers.copy()
        np.fill_diagonal(off_diag, 0)
        assert (off_diag > 0).sum() >= 10  # dense cross-thread flow

    def test_master_worker_flow_through_queue_head(self):
        prof = self._profile_threaded("splash2x-radiosity")
        matrix = communication_matrix(prof.store)
        assert matrix.matrix.sum() > 0
        assert matrix.heatmap()  # renders

    def test_ring_neighbour_flow(self):
        prof = self._profile_threaded("splash2x-ocean")
        matrix = communication_matrix(prof.store)
        m = matrix.matrix.copy()
        workers = m[1:5, 1:5].astype(float)
        np.fill_diagonal(workers, 0.0)
        total = workers.sum()
        assert total > 0
        ring = sum(
            workers[i, j]
            for i in range(4)
            for j in range(4)
            if abs(i - j) in (1, 3)
        )
        assert ring / total > 0.9  # halo exchange goes to neighbours

    def test_classify_labels(self):
        prof = self._profile_threaded("splash2x-fft")
        matrix = communication_matrix(prof.store)
        assert matrix.classify() in (
            "all-to-all", "neighbour", "master-worker", "irregular", "none",
        )
