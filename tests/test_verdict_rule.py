"""One verdict rule for every condition report: a report carries two
numbers, its witness and its bound, and holds iff witness <= bound. pt's
lambda of condition (iv) travels as the number detail.norm_bound."""

import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.matio import save_matrix
from opeq.sweep import suite_pt_necessity

OPERANDS = {
    "eye": np.eye(2),
    "diag41": np.diag([4.0, 1.0]),
    "diag12": np.diag([1.0, 2.0]),
    "e1": np.diag([1.0, 0.0]),
    "e2": np.diag([0.0, 1.0]),
    "indef": np.diag([1.0, -1.0]),
}

# each solve family and check battery on an instance whose conditions hold
# and on one where one fails (riccati has no conditions)
CALLS = [
    ("solve", "douglas", "--A", "eye", "--B", "diag41"),
    ("solve", "douglas", "--A", "e1", "--B", "e2"),
    ("solve", "axb", "--A", "eye", "--B", "diag12", "--C", "diag41"),
    ("solve", "axb", "--A", "e1", "--B", "eye", "--C", "e2"),
    ("solve", "congruence", "--A", "eye", "--C", "diag12"),
    ("solve", "congruence", "--A", "eye", "--C", "indef"),
    ("solve", "pt", "--H", "eye", "--K", "diag41"),
    ("solve", "pt", "--H", "e1", "--K", "eye"),
    ("solve", "riccati", "--A", "eye", "--B", "diag41"),
    ("check", "range", "--A", "eye", "--B", "e2"),
    ("check", "range", "--A", "e1", "--B", "e2"),
    ("check", "douglas", "--A", "diag12", "--B", "diag41"),
    ("check", "douglas", "--A", "e1", "--B", "e2"),
    ("check", "pt-conditions", "--H", "eye", "--K", "diag41"),
    ("check", "pt-conditions", "--H", "e1", "--K", "eye"),
]


def test_every_report_condition_holds_iff_witness_within_bound(capsys, tmp_path):
    paths = {}
    for name, m in OPERANDS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(paths[name], m.astype(complex))
    verdicts = set()
    for call in CALLS:
        argv = [paths.get(arg, arg) for arg in call]
        code = main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1), call
        for c in doc["conditions"]:
            assert list(c) == ["name", "holds", "witness", "bound", "detail"], call
            assert c["holds"] == (c["witness"] <= c["bound"]), (call, c)
            verdicts.add(c["holds"])
        if call[1] in ("pt", "pt-conditions"):
            assert [(c["witness"], c["bound"]) for c in doc["conditions"]] == [(0.0, 0.0)] * 4
            assert doc["detail"]["norm_bound"] > 0.0
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pt_necessity_lambda_gap_is_at_rounding_level(seed):
    # norm_bound is read as a number, not parsed back from printed digits,
    # so its gap to the reduced-equation reference is rounding alone
    doc = suite_pt_necessity(np.random.default_rng(seed), 50, 6).to_doc()
    assert doc["failures"] == 0
    assert doc["worst_margins"]["lambda_gap"] <= 1e-12
