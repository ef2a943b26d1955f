"""Table IV — classifier comparison by 10-fold cross-validation.

Paper (precision / FPR): DT 0.801/0.249, kNN 0.813/0.193,
SVM 0.877/0.026, EGB 0.952/0.033, RF 0.974/0.002; RF wins and becomes
the deployed detector.  Shape to reproduce: the ensemble tree methods
(RF, EGB) lead, RF's false-positive rate is the (near-)lowest, and DT
and kNN trail.
"""

import pytest
from conftest import save_result

from repro.analysis.tables import render_table
from repro.ml import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LinearSVC,
    RandomForestClassifier,
    cross_validate,
)

CLASSIFIERS = {
    "DT": lambda: DecisionTreeClassifier(max_depth=25, seed=0),
    "kNN": lambda: KNeighborsClassifier(n_neighbors=7),
    "SVM": lambda: LinearSVC(n_epochs=12, seed=0),
    "EGB": lambda: GradientBoostingClassifier(
        n_estimators=60, max_depth=4, seed=0
    ),
    "RF": lambda: RandomForestClassifier(
        n_estimators=70, max_depth=700, seed=0
    ),
}

_results: dict[str, tuple[float, float, float, float]] = {}


@pytest.mark.parametrize("name", list(CLASSIFIERS))
def test_table4_classifier_cv(benchmark, session, name):
    X, y = session.training_matrix
    n_splits = 10 if min((y == 0).sum(), (y == 1).sum()) >= 10 else 5

    def run_cv():
        return cross_validate(
            CLASSIFIERS[name], X, y, n_splits=n_splits, seed=0
        )

    result = benchmark.pedantic(run_cv, rounds=1, iterations=1)
    _results[name] = result.mean.as_row()
    accuracy, precision, recall, fpr = result.mean.as_row()
    # Every classifier must clearly beat chance on this task, and flag
    # some spam: an all-negative model passes the first two bars alone.
    assert accuracy > 0.8
    assert fpr < 0.3
    assert recall > 0


def test_table4_render_and_shape(benchmark, session, results_dir):
    assert set(_results) == set(CLASSIFIERS), "run the CV benches first"
    rows = [
        (name, acc, prec, rec, fpr)
        for name, (acc, prec, rec, fpr) in _results.items()
    ]
    table = benchmark.pedantic(
        lambda: render_table(
            ["Method", "Accuracy", "Precision", "Recall", "False Positive"],
            rows,
            title="Table IV (reproduction) — 10-fold CV on the ground truth",
        ),
        rounds=1,
        iterations=1,
    )
    save_result(results_dir, "table4_classifiers.txt", table)

    precision = {name: row[1] for name, row in _results.items()}
    fpr = {name: row[3] for name, row in _results.items()}
    # RF and EGB lead in precision, as in the paper.
    ensemble_best = max(precision["RF"], precision["EGB"])
    assert ensemble_best >= max(precision["DT"], precision["kNN"]) - 0.02
    # RF's FPR is at or near the minimum.
    assert fpr["RF"] <= min(fpr.values()) + 0.02
