import json

import numpy as np
import pytest

from opeq.cli import main
from opeq.linalg import InputError, pinv, svd
from opeq.matio import save_matrix
from opeq.solvers import douglas_reduced_solve


def test_svd_rank_cutoff_is_constant():
    assert svd(np.diag([1.0, 1e-6])).rank == 2
    # a 2x2 or 3x3 input cuts at max(rows, cols) * 2**-50 * sigma_max, which
    # for 2x2 is c = 2**-49; a 3x3 cuts at 1.5c
    c = 2.0**-49
    assert svd(np.diag([1.0, 1.5 * c])).rank == 2
    assert svd(np.diag([1.0, c])).rank == 1
    assert svd(np.diag([1.0, 0.5 * c])).rank == 1
    assert svd(np.diag([1.0, 1.5 * c, 0.0])).rank == 1


def test_pinv_refuses_overflow(tmp_path, capsys):
    # subnormal but finite and full rank: sigma is right, 1/sigma overflows
    a = np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e-310
    assert svd(a).rank == 2
    with pytest.raises(InputError, match="pseudoinverse overflows"):
        pinv(a)
    # the solver inverts A scaled into range, so what overflows is
    # X = A^{-1} itself, about 1e310
    with pytest.raises(InputError, match="solution overflows"):
        douglas_reduced_solve(a, np.eye(2))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(str(pa), a.astype(complex))
    save_matrix(str(pb), np.eye(2, dtype=complex))
    assert main(["solve", "douglas", "--A", str(pa), "--B", str(pb)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "solution overflows" in json.dumps(doc)
