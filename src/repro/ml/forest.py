"""Random Forest classifier built on :mod:`repro.ml.tree`.

The paper's detection models (stall severity, average representation)
are Weka Random Forests.  This implementation follows Breiman's
algorithm: bootstrap-sampled training sets, per-node random feature
subsets of size sqrt(n_features), and aggregation by averaging the
trees' leaf class distributions (soft voting), which is also what Weka
does by default.

Trees are independent once seeded, so :meth:`fit` fans out over an
``n_jobs`` worker pool (:mod:`repro.ml.parallel`).  Each tree draws its
RNG from its own ``np.random.SeedSequence.spawn`` child — never from a
generator shared across trees — and floating-point partials are
combined per fixed-size tree block in block order, so a fitted forest
is bit-identical for any ``n_jobs`` given the same ``random_state``.

:meth:`predict_proba` runs in the calling thread.  On first use it
stacks the fitted trees into one node table (:class:`_NodeTable`) and
walks rows × trees together in a single depth loop.  The votes are
summed in the same order as the per-tree path (trees in order inside
each ``_TREE_BLOCK``, then the block partials in block order), so the
result is bit-identical to averaging
:meth:`DecisionTreeClassifier.predict_proba`, which stays the oracle.
No row's output depends on the other rows of its batch.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.obs import get_registry, trace

from .parallel import block_ranges, run_tasks
from .tree import _LEAF, DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]

_REG = get_registry()
_FITS = _REG.counter(
    "repro_ml_forest_fits_total", "Random-Forest ensembles fitted."
)
_PREDICTIONS = _REG.counter(
    "repro_ml_forest_predictions_total",
    "Rows scored through RandomForestClassifier.predict_proba.",
)

#: Trees per dispatched pool task.  Fixed (independent of ``n_jobs``)
#: because float partials are summed per block in block order — the
#: determinism anchor that makes serial and parallel runs bit-identical.
#: Prediction sums its votes in the same blocks.
_TREE_BLOCK = 8

#: Rows walked through the node table at a time.  Bounds the
#: (rows × trees) working set for large batches; rows are independent,
#: so the chunking never changes a value.
_ROW_CHUNK = 256


def _tree_seed_sequences(random_state, n: int) -> List[np.random.SeedSequence]:
    """One independent SeedSequence per tree.

    Spawned children have disjoint, order-independent streams: tree i
    gets the same stream whether fitted first, last, or in another
    process.  (Handing one shared Generator to every tree — the old
    scheme — made each tree's stream depend on how much entropy the
    previous trees consumed, which is inherently serial.)
    """
    if isinstance(random_state, np.random.SeedSequence):
        base = random_state
    elif isinstance(random_state, np.random.Generator):
        base = np.random.SeedSequence(int(random_state.integers(2**63)))
    else:
        base = np.random.SeedSequence(random_state)
    return base.spawn(n)


def _fit_tree_block(payload):
    """Fit one block of trees; returns (trees, oob_votes_or_None).

    Module-level so it pickles into process workers.  The OOB partial is
    accumulated in tree order within the block; the caller sums block
    partials in block order.
    """
    X, y_enc, n_classes, params, seeds, bootstrap, want_oob = payload
    n = X.shape[0]
    trees: List[DecisionTreeClassifier] = []
    oob_votes = np.zeros((n, n_classes)) if (want_oob and bootstrap) else None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tree = DecisionTreeClassifier(random_state=rng, **params)
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            tree.fit(X[sample], y_enc[sample])
            if oob_votes is not None:
                mask = np.ones(n, dtype=bool)
                mask[sample] = False
                if mask.any():
                    # A bootstrap sample can miss classes; align the
                    # tree's columns into the forest's class space.
                    rows = np.nonzero(mask)[0]
                    cols = tree.classes_.astype(int)
                    oob_votes[np.ix_(rows, cols)] += tree.predict_proba(X[rows])
        else:
            tree.fit(X, y_enc)
        trees.append(tree)
    return trees, oob_votes


class _NodeTable(NamedTuple):
    """A fitted forest's trees stacked into one set of node arrays.

    Node ids are global: tree ``t``'s nodes start at ``roots[t]``.
    Leaves point to themselves (feature 0, threshold ``+inf``), so a
    row that has reached its leaf stays there whatever it is compared
    with.  ``proba`` holds every node's class distribution, computed by
    the tree's own :meth:`DecisionTreeClassifier._leaf_distribution`
    and scattered into the forest's class space (a bootstrap sample
    may miss classes; their columns stay 0.0, which adds nothing).
    """

    feature: np.ndarray    # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray       # (n_nodes,) int64
    right: np.ndarray      # (n_nodes,) int64
    internal: np.ndarray   # (n_nodes,) bool, False at leaves
    roots: np.ndarray      # (n_trees,) int64
    proba: np.ndarray      # (n_nodes, n_classes) float


def _build_node_table(
    trees: List[DecisionTreeClassifier], n_classes: int
) -> _NodeTable:
    sizes = np.array([tree._feature.size for tree in trees], dtype=np.int64)
    roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    feature = np.concatenate([tree._feature for tree in trees])
    threshold = np.concatenate([tree._threshold for tree in trees])
    left = np.concatenate(
        [tree._left + root for tree, root in zip(trees, roots)]
    )
    right = np.concatenate(
        [tree._right + root for tree, root in zip(trees, roots)]
    )
    internal = feature != _LEAF
    leaves = np.flatnonzero(~internal)
    feature[leaves] = 0
    threshold[leaves] = np.inf
    left[leaves] = leaves
    right[leaves] = leaves
    proba = np.zeros((feature.size, n_classes))
    for tree, root, size in zip(trees, roots, sizes):
        cols = tree.classes_.astype(int)
        proba[root:root + size, cols] = tree._leaf_distribution(tree._value)
    return _NodeTable(feature, threshold, left, right, internal, roots, proba)


def _table_leaves(table: _NodeTable, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by every (row, tree) pair of ``X``; (rows, trees).

    One depth loop for all pairs.  Pairs still inside their tree form
    the active set; it is compacted once at least half of it has
    reached a leaf, and until then finished pairs idle on their
    self-looping leaves.
    """
    n_rows, n_features = X.shape
    n_trees = table.roots.size
    flat_x = X.ravel()
    nodes = np.tile(table.roots, n_rows)
    pos = np.flatnonzero(table.internal[nodes])
    cur = nodes[pos]
    offset = pos // n_trees * n_features
    while pos.size:
        # NaN compares False and goes right, as in DecisionTreeClassifier.apply.
        go_left = flat_x[offset + table.feature[cur]] <= table.threshold[cur]
        cur = np.where(go_left, table.left[cur], table.right[cur])
        live = table.internal[cur]
        n_live = np.count_nonzero(live)
        if 2 * n_live <= pos.size:
            nodes[pos] = cur
            pos, cur, offset = pos[live], cur[live], offset[live]
    return nodes.reshape(n_rows, n_trees)


def _table_proba(table: _NodeTable, X: np.ndarray) -> np.ndarray:
    """Summed class votes of every tree over ``X``, in per-tree order.

    ``add.accumulate`` adds strictly left to right, so the last entry
    of each block's accumulation is the block partial the per-tree path
    builds from zeros one tree at a time; the partials are then added
    in block order.  (``np.sum`` would pick its own order.)
    """
    votes = table.proba[_table_leaves(table, X)]
    proba = np.zeros((X.shape[0], table.proba.shape[1]))
    for a, b in block_ranges(table.roots.size, _TREE_BLOCK):
        proba += np.add.accumulate(votes[:, a:b], axis=1)[:, -1]
    return proba


class RandomForestClassifier:
    """Bagged ensemble of CART trees with random feature subsets.

    Parameters
    ----------
    n_estimators:
        Number of trees (Weka's default is 100; the experiments here use
        smaller forests where runtime matters, without changing results
        qualitatively).
    criterion, max_depth, min_samples_split, min_samples_leaf:
        Passed to each :class:`DecisionTreeClassifier`.
    max_features:
        Per-node feature-subset size; defaults to ``"sqrt"``.
    bootstrap:
        Draw each tree's training set with replacement (size n).  When
        False every tree sees the full training set and only feature
        subsampling decorrelates them.
    oob_score:
        When True (and bootstrap), compute the out-of-bag accuracy after
        fitting and expose it as ``oob_score_``.
    random_state:
        Seed for reproducible resampling and feature subsampling.
    n_jobs:
        Worker processes for fitting.  ``None``/1 runs serially; ``-1``
        uses all cores.  Results are bit-identical for any value.
        Prediction always runs in the calling thread.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(self, X: np.ndarray, y: np.ndarray):
        """Fit the ensemble on ``X`` (n_samples, n_features), labels ``y``."""
        with trace("ml.forest_fit") as span:
            self._fit(X, y)
            span.add("trees", self.n_estimators)
            span.add("rows", int(np.asarray(X).shape[0]))
        _FITS.inc()
        return self

    def _tree_params(self) -> dict:
        return {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def _fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        n = X.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]

        seeds = _tree_seed_sequences(self.random_state, self.n_estimators)
        params = self._tree_params()
        want_oob = self.oob_score and self.bootstrap
        payloads = [
            (X, y_enc, self.classes_.size, params, seeds[a:b],
             self.bootstrap, want_oob)
            for a, b in block_ranges(self.n_estimators, _TREE_BLOCK)
        ]
        results = run_tasks(
            _fit_tree_block, payloads, n_jobs=self.n_jobs, task="forest_fit"
        )

        self.estimators_ = []
        oob_votes = np.zeros((n, self.classes_.size)) if want_oob else None
        for trees, oob_partial in results:
            self.estimators_.extend(trees)
            if oob_votes is not None and oob_partial is not None:
                oob_votes += oob_partial

        if oob_votes is not None:
            seen = oob_votes.sum(axis=1) > 0
            if seen.any():
                pred = np.argmax(oob_votes[seen], axis=1)
                self.oob_score_ = float(np.mean(pred == y_enc[seen]))
            else:
                self.oob_score_ = float("nan")
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "estimators_"):
            raise RuntimeError("forest is not fitted; call fit() first")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of the trees' leaf class distributions."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(
                f"X must be 2-dimensional, got ndim={X.ndim}; reshape a "
                "single sample to (1, n_features)"
            )
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the forest was fitted "
                f"with {self.n_features_}"
            )
        X = np.ascontiguousarray(X)
        with trace("ml.forest_predict") as span:
            table = self._node_table()
            proba = np.zeros((X.shape[0], self.classes_.size))
            for start in range(0, X.shape[0], _ROW_CHUNK):
                stop = start + _ROW_CHUNK
                proba[start:stop] = _table_proba(table, X[start:stop])
            span.add("rows", X.shape[0])
        _PREDICTIONS.inc(X.shape[0])
        return proba / len(self.estimators_)

    def _node_table(self) -> _NodeTable:
        """The stacked node table, built on first use and cached.

        The cache is keyed on the identity of ``estimators_``: ``fit``
        and ``persistence.forest_from_dict`` assign a new list, which
        invalidates it.  (Editing a fitted tree's arrays in place does
        not; assign a new list afterwards.)  It is published with one
        attribute assignment, so concurrent first predictions at worst
        build it twice.  Plain arrays only: the forest stays picklable,
        and the pickle keeps the key's identity.
        """
        cached = getattr(self, "_table_cache", None)
        if cached is not None and cached[0] is self.estimators_:
            return cached[1]
        table = _build_node_table(self.estimators_, self.classes_.size)
        self._table_cache = (self.estimators_, table)
        return table

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority (soft) vote of the ensemble."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def feature_importances(self) -> np.ndarray:
        """Mean impurity-decrease importances across trees."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)
        for tree in self.estimators_:
            importances += tree.feature_importances()
        importances /= len(self.estimators_)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances
