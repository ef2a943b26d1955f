"""Decision trees: histogram-based CART for classification & regression.

scikit-learn is unavailable in this environment, so the paper's tree
family (DT itself, and the base learners of Random Forest and Extreme
Gradient Boosting) is implemented from scratch on numpy.

The builder uses the histogram method (as in LightGBM/XGBoost's
``hist`` mode): features are quantile-binned once per ``fit`` into at
most ``max_bins`` codes, and a node's split search reduces to a
histogram of its rows' codes per candidate feature plus a scan over
bins.  Split thresholds are therefore restricted to bin edges — with
64+ bins this is statistically indistinguishable from exact CART on
data of this size.

One builder, :class:`_LockstepBuilder`, grows every tree of the
package: a lone decision tree, each boosting round's regression tree,
and all bootstrap trees of a random forest at once.  The forest's
trees grow in lockstep — each step takes the next node of many trees
and builds all their histograms, scores and row partitions in a few
batched numpy passes — which is what makes the paper's 70-tree forest
affordable in pure Python.  Every tree is bit-identical to growing it
alone, one node at a time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .base import check_X, check_X_y, require_fitted


def quantile_bin(
    X: np.ndarray, max_bins: int = 64
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile-bin each feature column.

    Returns:
        codes: (n, d) int16 bin codes per sample/feature.
        edges: per-feature ascending cut values; a sample with value v
            gets code ``searchsorted(edges, v, side='left')``, i.e.
            code <= b  ⟺  v <= edges[b] for b < len(edges).

    Raises:
        ValueError: if ``max_bins`` is outside [2, 32768], the range
            whose codes fit int16.
    """
    if not 2 <= max_bins <= 32768:
        raise ValueError(f"max_bins must be in [2, 32768], got {max_bins}")
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.int16)
    edges: list[np.ndarray] = []
    quantiles = np.linspace(0, 1, max_bins + 1)[1:-1]
    for f in range(d):
        column = X[:, f]
        cuts = np.unique(np.quantile(column, quantiles))
        # Drop cut points equal to the max: nothing can fall right of them.
        cuts = cuts[cuts < column.max()] if cuts.size else cuts
        edges.append(cuts)
        codes[:, f] = np.searchsorted(cuts, column, side="left")
    return codes, edges


@dataclass
class _FlatTree:
    """Array-encoded binary tree.

    ``feature[i] == -1`` marks a leaf.  Internal node i sends a sample
    left iff ``x[feature[i]] <= threshold[i]``.  ``value[i]`` is the
    leaf prediction: P(class 1) for classification, mean target for
    regression.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == -1))

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (root = depth 0)."""
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for i in range(self.n_nodes):
            if self.feature[i] != -1:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max(initial=0))

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Vectorized leaf-node index for every row of X."""
        n = X.shape[0]
        current = np.zeros(n, dtype=np.int64)
        while True:
            node_feature = self.feature[current]
            active = node_feature != -1
            if not np.any(active):
                break
            rows = np.nonzero(active)[0]
            f = node_feature[rows]
            go_left = X[rows, f] <= self.threshold[current[rows]]
            nxt = np.where(
                go_left, self.left[current[rows]], self.right[current[rows]]
            )
            current[rows] = nxt
        return current

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Vectorized leaf-value lookup for every row of X."""
        return self.value[self.leaf_indices(X)]


#: Most feature codes (node rows x candidate features) one lockstep
#: step gathers.  It bounds the step's temporaries, a few tens of
#: bytes per code, while leaving room for dozens of small nodes per
#: step; a node larger than the cap runs in a step of its own.
_STEP_CODES = 1 << 17
#: Most histogram cells (nodes x candidate features x bins) per step;
#: binds only at very large ``max_bins``.
_STEP_CELLS = 1 << 18


class _Growth:
    """One tree's growth state: its RNG, depth-first stack and nodes.

    A stacked node is ``(rows, weights, n, total, sq_total, depth,
    slot)``: its rows (and their multiplicities under gini) in the
    tree's compact ``dtype``, its row count, target sum and squared
    target sum.
    """

    def __init__(self, rng: np.random.Generator, dtype: np.dtype) -> None:
        self.rng = rng
        self.dtype = dtype
        self.stack: list[tuple] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def finish(self, renumber: bool) -> _FlatTree:
        """The grown tree as arrays.

        ``renumber`` restores the numbering of a lone depth-first build
        for a tree whose nodes were split in another order: that build
        numbers both children when it splits their parent, and pops
        the right child first.
        """
        feature = np.array(self.feature, dtype=np.int64)
        threshold = np.array(self.threshold, dtype=np.float64)
        left = np.array(self.left, dtype=np.int64)
        right = np.array(self.right, dtype=np.int64)
        value = np.array(self.value, dtype=np.float64)
        if renumber:
            new = [0] * len(self.feature)
            count = 1
            stack = [0]
            while stack:
                v = stack.pop()
                if self.feature[v] >= 0:
                    new[self.left[v]] = count
                    new[self.right[v]] = count + 1
                    count += 2
                    stack += (self.left[v], self.right[v])
            number = np.array(new)
            old = np.argsort(number)
            feature, threshold = feature[old], threshold[old]
            value = value[old]
            left = np.where(feature >= 0, number[left[old]], -1)
            right = np.where(feature >= 0, number[right[old]], -1)
        return _FlatTree(feature, threshold, left, right, value)


class _LockstepBuilder:
    """Grows many trees on pre-binned features, all in lockstep.

    Every tree grows depth first, as a lone tree would: it pops its
    nodes in the same order, numbers them the same way and draws each
    node's candidate features from its own RNG in the same order.  At
    each step, every growing tree whose next node fits in the step
    (at most ``_STEP_CODES`` gathered codes) hands that node in, and
    the step builds all their histograms, split scores and row
    partitions in a few batched numpy passes instead of one pass per
    node.  A tree that searches every feature draws nothing, so it
    may hand in several stacked nodes and is renumbered when it
    finishes.  Trees start growing only as steps need more nodes, and
    a stacked node keeps compact copies of its rows, so memory stays
    near that of one tree at a time.

    Fitted trees are bit-identical to growing each tree alone:

    * gini: a root's repeated rows fold into one row with a
      multiplicity, and every count and label sum is an exact integer
      in float64, so neither folding nor row order can move a bit;
    * mse: rows keep their given order with weight 1, ``bincount``
      accumulates each bin in that order, and node totals come from
      a per-node ``sum`` over the node's own targets.
    """

    def __init__(
        self,
        codes: np.ndarray,
        edges: list[np.ndarray],
        y: np.ndarray,
        criterion: str,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
    ) -> None:
        if criterion not in ("gini", "mse"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.codes = np.ascontiguousarray(codes)
        self.edges = edges
        self.y = np.asarray(y, dtype=np.float64)
        self.gini = criterion == "gini"
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        d = self.codes.shape[1]
        #: Draw a candidate subset per node, or search every feature.
        self.subset = max_features is not None and max_features < d
        self.n_candidates = max_features if self.subset else d
        self.n_bins = max((len(e) for e in edges), default=0) + 1
        #: Histogram slots per node and candidate (see ``_step``).
        self.width = 2 * self.n_bins if self.gini else self.n_bins
        if self.gini:
            self.label_bins = self.y.astype(np.intp) * self.n_bins
        if not self.subset:
            #: Every candidate is every feature: each code's slot offset
            #: within its node, computed once instead of per step, in
            #: the narrowest type that holds it (int16 at 64 bins).
            small = np.promote_types(
                self.codes.dtype, np.min_scalar_type(-d * self.width)
            )
            offsets = (np.arange(d) * self.width).astype(small)
            self.column_slots = self.codes.astype(small, copy=False) + offsets
        self.step_rows = max(1, _STEP_CODES // self.n_candidates)
        self.max_nodes = max(
            1, _STEP_CELLS // (self.n_candidates * self.n_bins)
        )

    def grow(
        self, roots: Iterable[tuple[np.ndarray, np.random.Generator]]
    ) -> list[_FlatTree]:
        """One tree per ``(row indices, rng)`` root, in root order.

        Roots are consumed lazily: the next tree is planted only when
        the growing trees' next nodes no longer fill a step.
        """
        pending = enumerate(roots)
        done: dict[int, _FlatTree] = {}
        growing: list[tuple[int, _Growth]] = []
        while True:
            waiting = sum(len(tree.stack[-1][0]) for __, tree in growing)
            while waiting < self.step_rows:
                root = next(pending, None)
                if root is None:
                    break
                i, (indices, rng) = root
                tree = self._plant(indices, rng)
                if tree.stack:
                    growing.append((i, tree))
                    waiting += len(tree.stack[-1][0])
                else:
                    done[i] = tree.finish(not self.subset)
            if not growing:
                return [done[i] for i in range(len(done))]
            self._step(self._admit([tree for __, tree in growing]))
            # A finished tree drops its node lists right away.
            for i, tree in growing:
                if not tree.stack:
                    done[i] = tree.finish(not self.subset)
            growing = [(i, tree) for i, tree in growing if tree.stack]

    def _plant(
        self, indices: np.ndarray, rng: np.random.Generator
    ) -> _Growth:
        indices = np.asarray(indices)
        n = len(self.y)
        # Holds every row index (< n) and multiplicity (<= len(indices)).
        tree = _Growth(rng, np.min_scalar_type(max(n, len(indices))))
        if self.gini:
            mult = np.bincount(indices, minlength=n)
            rows = np.flatnonzero(mult)
            weights = mult[rows]
            total = float(weights @ self.y[rows])
            self._add_node(tree, 0, rows, weights, len(indices), total)
        else:
            self._add_node(tree, 0, indices)
        return tree

    def _add_node(
        self,
        tree: _Growth,
        depth: int,
        rows: np.ndarray,
        weights: np.ndarray | None = None,
        n: float = 0.0,
        total: float = 0.0,
    ) -> int:
        """Append a node and stack it for a split search unless it is
        a leaf; returns its slot.

        Under gini ``n`` and ``total`` are the node's weighted row count
        and label sum; under mse they are ignored and computed here from
        the node's own targets, in row order.  A stacked node holds its
        own compact copies of ``rows`` and ``weights``, never views that
        would pin a whole step's arrays.
        """
        if not self.gini:
            y_node = self.y[rows]
            total = float(y_node.sum())
            n = float(len(rows))
        value = total / n
        slot = len(tree.value)
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(value)
        # With every feature constant (one bin) no node can split.
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or self.n_bins == 1
        ):
            return slot
        sq_total = 0.0
        if self.gini:
            pure = value == 0.0 or value == 1.0
        else:
            pure = bool(np.all(y_node == y_node[0]))
            sq_total = float((y_node * y_node).sum())
        if not pure:
            tree.stack.append(
                (
                    rows.astype(tree.dtype),
                    None if weights is None else weights.astype(tree.dtype),
                    n,
                    total,
                    sq_total,
                    depth,
                    slot,
                )
            )
        return slot

    def _admit(self, growing: list[_Growth]) -> list[tuple[_Growth, tuple]]:
        """Pop the nodes of each growing tree that fit the step.

        A tree that draws candidates hands in its next node.  A tree
        that searches every feature draws nothing, so its node order
        is free: it hands in stacked nodes while they fit, and
        ``finish`` renumbers it.  The first tree joins whatever the
        cap: its stacked nodes hold disjoint rows of one root, so the
        step is no larger than that root's own split search.
        """
        batch: list[tuple[_Growth, tuple]] = []
        n_rows = 0
        for tree in growing:
            while tree.stack and len(batch) < self.max_nodes:
                size = len(tree.stack[-1][0])
                first = not batch or batch[0][0] is tree
                if not first and n_rows + size > self.step_rows:
                    break
                batch.append((tree, tree.stack.pop()))
                n_rows += size
                if self.subset:
                    break
        return batch

    def _step(self, batch: list[tuple[_Growth, tuple]]) -> None:
        """Search and apply the best split of every node in ``batch``."""
        k_nodes = len(batch)
        m = self.n_candidates
        width = self.width
        d = self.codes.shape[1]
        nodes = [node for __, node in batch]
        sizes = [len(node[0]) for node in nodes]
        rows = np.concatenate([node[0] for node in nodes], dtype=np.intp)
        owner = np.repeat(np.arange(k_nodes), sizes)
        # Bin b of candidate j of node k accumulates at slot
        # (k*m + j)*width + b, plus n_bins for a spam label under gini:
        # the 0/1 label joins the slot, so one weighted bincount yields
        # both row counts and label sums.  Each slot sums its node's
        # rows in the node's row order.  Raveled row-major, consecutive
        # updates hit different candidates: on skewed features a run of
        # equal codes would otherwise chain every add onto the last.
        per_row = owner * (m * width)
        if self.gini:
            per_row += self.label_bins[rows]
        if self.subset:
            candidates = np.array(
                [
                    tree.rng.choice(d, size=m, replace=False)
                    for tree, __ in batch
                ]
            )
            slots = np.repeat(candidates, sizes, axis=0)
            slots += (rows * d)[:, None]
            sub = self.codes.ravel().take(slots)
            np.add(sub, per_row[:, None], out=slots)
            slots += np.arange(m) * width
        else:
            slots = np.add(
                self.column_slots[rows], per_row[:, None], dtype=np.intp
            )
        slots = slots.ravel()
        n_cells = k_nodes * m * width
        shape = (k_nodes, m, self.n_bins)
        if self.gini:
            weights = np.concatenate(
                [node[1] for node in nodes], dtype=np.float64
            )
            hist = np.bincount(
                slots, weights=np.repeat(weights, m), minlength=n_cells
            ).reshape(k_nodes, m, 2, self.n_bins)
            sums = hist[:, :, 1]
            counts = hist[:, :, 0] + sums
        else:
            y_rows = self.y[rows]
            counts = np.bincount(slots, minlength=n_cells).reshape(shape)
            sums = np.bincount(
                slots, weights=np.repeat(y_rows, m), minlength=n_cells
            ).reshape(shape)
        n = np.array([node[2] for node in nodes])[:, None, None]
        total = np.array([node[3] for node in nodes])[:, None, None]
        msl = self.min_samples_leaf
        left_n = counts.cumsum(axis=2, dtype=np.float64)[:, :, :-1]
        right_n = n - left_n
        valid = (left_n >= msl) & (right_n >= msl)
        left_sum = sums.cumsum(axis=2)[:, :, :-1]
        right_sum = total - left_sum
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.gini:
                p_left = left_sum / left_n
                p_right = right_sum / right_n
                score = (
                    left_n * 2 * p_left * (1 - p_left)
                    + right_n * 2 * p_right * (1 - p_right)
                ) / n
            else:
                sq = np.bincount(
                    slots,
                    weights=np.repeat(y_rows * y_rows, m),
                    minlength=n_cells,
                ).reshape(shape)
                sq_total = np.array([node[4] for node in nodes])
                left_sq = sq.cumsum(axis=2)[:, :, :-1]
                right_sq = sq_total[:, None, None] - left_sq
                score = (
                    left_sq
                    - left_sum * left_sum / left_n
                    + right_sq
                    - right_sum * right_sum / right_n
                )
        score = np.where(valid, score, np.inf)
        # Per-candidate argmin keeps first-minimum tie-breaking over
        # bins; the argmin over candidates then picks the first
        # candidate (in draw order) attaining the node's minimum.
        at = np.arange(k_nodes)
        b_of = score.argmin(axis=2)
        mins = score.min(axis=2)
        j = mins.argmin(axis=1)
        b = b_of[at, j]
        n_left = left_n[at, j, b]
        # A split needs a finite score and rows on both sides.
        splits = np.isfinite(mins[at, j]) & (n_left > 0)
        splits &= n_left < n[:, 0, 0]
        features = candidates[at, j] if self.subset else j
        code_at = rows * d
        code_at += features[owner]
        go_left = self.codes.ravel().take(code_at) <= b[owner]
        go_right = ~go_left
        left_rows, right_rows = rows[go_left], rows[go_right]
        # Node k's children are rows [at[k], at[k + 1]) of each side
        # (a node that does not split is skipped below).
        n_go_left = np.bincount(owner[go_left], minlength=k_nodes).tolist()
        n_go_right = [size - c for size, c in zip(sizes, n_go_left)]
        left_at = [0, *accumulate(n_go_left)]
        right_at = [0, *accumulate(n_go_right)]
        if self.gini:
            left_w, right_w = weights[go_left], weights[go_right]
        else:
            left_w = right_w = None
        features = features.tolist()
        bins = b.tolist()
        n_left = n_left.tolist()
        sum_left = left_sum[at, j, b].tolist()
        for k, split in enumerate(splits.tolist()):
            if not split:
                continue
            tree, node = batch[k]
            l0, l1 = left_at[k], left_at[k + 1]
            r0, r1 = right_at[k], right_at[k + 1]
            __, __, n_node, total_node, __, depth, slot = node
            f = features[k]
            tree.feature[slot] = f
            tree.threshold[slot] = float(self.edges[f][bins[k]])
            tree.left[slot] = self._add_node(
                tree,
                depth + 1,
                left_rows[l0:l1],
                None if left_w is None else left_w[l0:l1],
                n_left[k],
                sum_left[k],
            )
            tree.right[slot] = self._add_node(
                tree,
                depth + 1,
                right_rows[r0:r1],
                None if right_w is None else right_w[r0:r1],
                n_node - n_left[k],
                total_node - sum_left[k],
            )


def resolve_max_features(
    max_features: int | str | None, d: int
) -> int | None:
    """Candidate features per split for ``d`` features.

    ``None`` searches every feature, ``'sqrt'`` uses
    ``max(1, floor(sqrt(d)))``, and a positive int is capped at ``d``.

    Raises:
        ValueError: on anything else, including bools.
    """
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    if (
        isinstance(max_features, int)
        and not isinstance(max_features, bool)
        and max_features > 0
    ):
        return min(max_features, d)
    raise ValueError(f"bad max_features {max_features!r}")


class DecisionTreeClassifier:
    """Binary CART classifier (criterion: gini) on binned features.

    Args:
        max_depth: maximum tree depth (paper's RF uses 700, i.e.
            effectively unbounded; the default mirrors that).
        min_samples_split: minimum node size eligible for splitting.
        min_samples_leaf: minimum samples per child.
        max_features: candidate features per split — an int, 'sqrt',
            or None for all features.
        max_bins: histogram resolution for split finding.
        seed: RNG seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 700,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_bins: int = 64,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.seed = seed
        self.tree_: _FlatTree | None = None
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y); returns self."""
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        codes, edges = quantile_bin(X, self.max_bins)
        builder = _LockstepBuilder(
            codes,
            edges,
            y,
            criterion="gini",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=resolve_max_features(self.max_features, X.shape[1]),
        )
        root = (np.arange(X.shape[0]), np.random.default_rng(self.seed))
        self.tree_ = builder.grow([root])[0]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class probabilities [P(ham), P(spam)]."""
        require_fitted(self, "tree_")
        X = check_X(X, self.n_features_)
        p1 = self.tree_.predict_value(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary labels at the 0.5 probability threshold."""
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


class DecisionTreeRegressor:
    """CART regression tree (criterion: mse); base learner for boosting."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_bins: int = 64,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.seed = seed
        self.tree_: _FlatTree | None = None
        self.n_features_: int | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        precomputed: tuple[np.ndarray, list[np.ndarray]] | None = None,
    ) -> "DecisionTreeRegressor":
        """Fit to continuous targets.

        Args:
            precomputed: optional (codes, edges) so an ensemble can bin
                the feature matrix once instead of per-tree.

        Raises:
            ValueError: on misaligned or empty input, or a NaN or
                infinite value in X or y.
        """
        X = check_X(X)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty and aligned")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains NaN or infinite values")
        self.n_features_ = X.shape[1]
        codes, edges = (
            precomputed
            if precomputed is not None
            else quantile_bin(X, self.max_bins)
        )
        builder = _LockstepBuilder(
            codes,
            edges,
            y,
            criterion="mse",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=resolve_max_features(self.max_features, X.shape[1]),
        )
        root = (np.arange(X.shape[0]), np.random.default_rng(self.seed))
        self.tree_ = builder.grow([root])[0]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted continuous values."""
        require_fitted(self, "tree_")
        X = check_X(X, self.n_features_)
        return self.tree_.predict_value(X)
