"""The forest's stacked node table against the per-tree oracle.

``RandomForestClassifier.predict_proba`` walks one node table for all
trees.  The oracle is the per-tree definition: each tree's public
``DecisionTreeClassifier.predict_proba``, scattered into the forest's
class space, summed from zeros in tree order inside each
``_TREE_BLOCK`` block, the block partials summed in block order, and
divided by the tree count.  Every comparison is exact.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QoEFramework
from repro.ml.forest import _ROW_CHUNK, _TREE_BLOCK, RandomForestClassifier
from repro.ml.parallel import block_ranges
from repro.ml.tree import DecisionTreeClassifier
from repro.obs.tracing import Tracer, set_tracer
from repro.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_framework,
    save_framework,
)


def oracle_proba(forest, X):
    proba = np.zeros((X.shape[0], forest.classes_.size))
    for a, b in block_ranges(len(forest.estimators_), _TREE_BLOCK):
        partial = np.zeros_like(proba)
        for tree in forest.estimators_[a:b]:
            partial[:, tree.classes_.astype(int)] += tree.predict_proba(X)
        proba += partial
    return proba / len(forest.estimators_)


def _dataset(n=200, n_features=5, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], np.linspace(-1, 1, classes - 1))
    return X, y


_SPECIALS = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def forest_cases(draw):
    n_classes = draw(st.integers(2, 4))
    n_features = draw(st.integers(1, 4))
    n_train = draw(st.integers(n_classes, 30))
    y = np.arange(n_train) % n_classes
    # Shuffle and skew the labels so bootstraps often miss a class.
    y = np.array(draw(st.permutations(y.tolist())))
    y[: draw(st.integers(0, n_train - n_classes))] = 0
    if draw(st.booleans()):
        y = np.array(["class-%d" % label for label in y])
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, n_features))
    n_rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    rows = rng.normal(size=(n_rows, n_features)) * 2
    for matrix in (X, rows):
        if matrix.size and draw(st.booleans()):
            for _ in range(draw(st.integers(1, 4))):
                i = draw(st.integers(0, matrix.shape[0] - 1))
                j = draw(st.integers(0, n_features - 1))
                matrix[i, j] = draw(_SPECIALS)
    forest = RandomForestClassifier(
        n_estimators=draw(st.integers(1, 2 * _TREE_BLOCK + 3)),
        max_depth=draw(st.sampled_from([0, 1, 3, None])),
        bootstrap=draw(st.booleans()),
        random_state=seed,
    ).fit(X, y)
    if draw(st.booleans()):
        tree = forest.estimators_[
            draw(st.integers(0, len(forest.estimators_) - 1))
        ]
        leaves = np.flatnonzero(tree._feature == -1)
        tree._value[leaves[draw(st.integers(0, leaves.size - 1))]] = 0.0
    return forest, rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(forest_cases())
def test_table_matches_per_tree_oracle(case):
    forest, X = case
    batch = forest.predict_proba(X)
    assert np.array_equal(batch, oracle_proba(forest, X))
    for i in range(X.shape[0]):
        assert np.array_equal(forest.predict_proba(X[i:i + 1]), batch[i:i + 1])


class TestOracleEdges:
    def test_bootstrap_missing_a_class(self):
        X, y = _dataset(n=12, classes=3, seed=1)
        y[:] = 0
        y[0], y[1] = 1, 2    # two singleton classes most bootstraps miss
        forest = RandomForestClassifier(n_estimators=20, random_state=3).fit(
            X, y
        )
        assert any(t.classes_.size < 3 for t in forest.estimators_)
        rows, _ = _dataset(n=50, classes=3, seed=2)
        assert np.array_equal(
            forest.predict_proba(rows), oracle_proba(forest, rows)
        )

    def test_zeroed_leaf_gives_uniform_fallback(self):
        X, y = _dataset(n=40, classes=4, seed=3)
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=0, bootstrap=False, random_state=0
        ).fit(X, y)
        for tree in forest.estimators_:
            tree._value[0] = 0.0
        proba = forest.predict_proba(X[:5])
        assert np.array_equal(proba, np.full((5, 4), 0.25))
        assert np.array_equal(proba, oracle_proba(forest, X[:5]))

    def test_rows_across_chunks(self):
        X, y = _dataset(seed=4)
        forest = RandomForestClassifier(n_estimators=13, random_state=0).fit(
            X, y
        )
        rows, _ = _dataset(n=2 * _ROW_CHUNK + 7, seed=5)
        batch = forest.predict_proba(rows)
        assert np.array_equal(batch, oracle_proba(forest, rows))
        for i in (0, _ROW_CHUNK - 1, _ROW_CHUNK, rows.shape[0] - 1):
            assert np.array_equal(
                forest.predict_proba(rows[i:i + 1]), batch[i:i + 1]
            )

    def test_strided_input(self):
        X, y = _dataset(seed=6)
        forest = RandomForestClassifier(n_estimators=9, random_state=0).fit(
            X, y
        )
        view = np.asfortranarray(X)[::3]
        assert np.array_equal(
            forest.predict_proba(view), oracle_proba(forest, np.array(view))
        )


class TestLifecycle:
    def test_refit_invalidates_table(self):
        X1, y1 = _dataset(seed=7)
        X2, y2 = _dataset(classes=2, seed=8)
        forest = RandomForestClassifier(n_estimators=10, random_state=0)
        first = forest.fit(X1, y1).predict_proba(X1)
        second = forest.fit(X2, y2).predict_proba(X1)
        fresh = RandomForestClassifier(n_estimators=10, random_state=0).fit(
            X2, y2
        )
        assert second.shape == (X1.shape[0], 2) != first.shape
        assert np.array_equal(second, fresh.predict_proba(X1))
        assert np.array_equal(second, oracle_proba(forest, X1))

    @pytest.mark.parametrize("labels", ["int", "str"])
    def test_forest_from_dict_bit_identical(self, labels):
        X, y = _dataset(seed=9)
        if labels == "str":
            y = np.array(["q%d" % label for label in y])
        forest = RandomForestClassifier(n_estimators=11, random_state=0).fit(
            X, y
        )
        expected = forest.predict_proba(X)
        clone = forest_from_dict(forest_to_dict(forest))
        assert np.array_equal(clone.predict_proba(X), expected)

    def test_pickle_after_table_built(self):
        X, y = _dataset(seed=10)
        forest = RandomForestClassifier(n_estimators=12, random_state=0).fit(
            X, y
        )
        expected = forest.predict_proba(X)
        clone = pickle.loads(pickle.dumps(forest))
        assert np.array_equal(clone.predict_proba(X), expected)
        assert np.array_equal(clone.predict_proba(X), oracle_proba(clone, X))

    def test_concurrent_first_predictions(self):
        X, y = _dataset(seed=11)
        fitted = RandomForestClassifier(n_estimators=16, random_state=0).fit(
            X, y
        )
        expected = oracle_proba(fitted, X)
        forest = forest_from_dict(forest_to_dict(fitted))
        n_threads = 4
        barrier = threading.Barrier(n_threads, timeout=30)
        results = [None] * n_threads

        def work(slot):
            barrier.wait()
            results[slot] = forest.predict_proba(X)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert np.array_equal(result, expected)


@pytest.fixture(scope="module")
def framework(stall_records, adaptive_records):
    return QoEFramework(random_state=0, n_estimators=10).fit(
        stall_records, adaptive_records
    )


def test_load_framework_bit_identical(framework, adaptive_records, tmp_path):
    path = tmp_path / "model.json"
    save_framework(framework, path)
    clone = load_framework(path)
    for name in ("stall", "representation"):
        X = getattr(framework, name)._features_of(adaptive_records)
        assert np.array_equal(
            getattr(clone, name)._model.predict_proba(X),
            getattr(framework, name)._model.predict_proba(X),
        )


def test_per_session_diagnose_equals_batch(framework, adaptive_records):
    records = adaptive_records[:25]
    batch = framework.diagnose(records)
    single = [framework.diagnose([record])[0] for record in records]
    assert single == batch
    for name in ("stall", "representation"):
        detector = getattr(framework, name)
        X = detector._features_of(records)
        assert np.array_equal(
            detector._model.predict_proba(X),
            oracle_proba(detector._model, X),
        )


def test_one_row_makes_no_tree_apply_calls(monkeypatch):
    X, y = _dataset(seed=12)
    forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
    calls = []
    apply = DecisionTreeClassifier.apply

    def counted(self, rows):
        calls.append(1)
        return apply(self, rows)

    monkeypatch.setattr(DecisionTreeClassifier, "apply", counted)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        forest.predict_proba(X[:1])
    finally:
        set_tracer(previous)
    assert calls == []
    roots = {root.name: root for root in tracer.roots()}
    assert roots["ml.forest_predict"].count == 1
