"""Every command at extreme scales, through cli.main.

(a) A grid: each solve family and check battery on 2x2 operands drawn from
P, I, U and diag(1, 0) at scales from 1e-300 to 1.2e308. Every file is
finite, so every command must print one JSON report and exit 0, 1 or 2
with no RuntimeWarning, and no refusal may call its input non-finite. The
grid pins no other verdict.
(b) Exact probes against closed forms at the edges of the range.
(c) Every solve douglas, axb and congruence command of the grid whose exact
X is solvable and normal is solved, within 1e-12 of that X.
"""

import itertools
import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from opeq import cli
from opeq.matio import save_matrix

MATRICES = {
    "P": np.array([[2.0, 1.0], [1.0, 3.0]]) / 3.0,
    "I": np.eye(2),
    "U": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "D": np.diag([1.0, 0.0]),
}
SCALES = (1e-300, 1e-160, 1.0, 1e160, 1e300, 1.2e308)
COMMANDS = [("solve", family, flags) for family, flags in cli.SOLVE_FLAGS.items()]
COMMANDS += [("check", battery, flags) for battery, flags in cli.CHECK_FLAGS.items()]


def _name(scale, label):
    return f"{scale:g}*{label}"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """_name(scale, label) -> path of that scaled operand's file."""
    root = tmp_path_factory.mktemp("extreme")
    paths = {}
    for (label, m), s in itertools.product(MATRICES.items(), SCALES):
        name = _name(s, label)
        paths[name] = str(root / f"{name}.json")
        save_matrix(paths[name], (s * m).astype(complex))
    return paths


def _run(capsys, argv):
    """(exit code, report) of one command, RuntimeWarnings raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command, name, flags", COMMANDS, ids=[f"{c} {n}" for c, n, _ in COMMANDS])
def test_grid_gives_one_report_and_no_false_refusal(capsys, files, command, name, flags):
    # one matrix for all operands, each operand at its own scale
    faults = []
    for label in MATRICES:
        for scales in itertools.product(SCALES, repeat=len(flags)):
            argv = [command, name]
            for flag, s in zip(flags, scales):
                argv += [f"--{flag}", files[_name(s, label)]]
            try:
                code, doc = _run(capsys, argv)
            except Exception as exc:  # a warning or an uncaught error
                faults.append((argv, repr(exc)))
                continue
            outcome = {0: "solved", 1: "unsolvable", 2: "error"}.get(code)
            message = doc["detail"]["message"] if code == 2 else ""
            if doc["outcome"] != outcome or "must be finite" in message:
                faults.append((argv, code, doc["outcome"], message))
    assert faults == []


def _solution(doc):
    return np.array(doc["solution"]["data"]).view(complex).reshape(2, 2)


@pytest.mark.parametrize("family, flags, expected", [
    # X (h I) X = k I: X = sqrt(k / h) I
    ("pt", ("H", "K"), 1.0 / math.sqrt(1.2e308)),
    # (a I) # (b I) = sqrt(a b) I
    ("riccati", ("A", "B"), math.sqrt(1.2e308)),
    # I X I* = C: X = C
    ("congruence", ("C", "A"), 1.2e308),
])
def test_solve_at_the_top_of_the_range_matches_the_closed_form(capsys, files, family, flags, expected):
    big, one = flags
    code, doc = _run(capsys, ["solve", family, f"--{big}", files[_name(1.2e308, "I")],
                              f"--{one}", files[_name(1.0, "I")]])
    assert code == 0 and doc["outcome"] == "solved"
    x = _solution(doc)
    assert np.max(np.abs(x - expected * np.eye(2))) <= 1e-15 * expected


def test_check_pt_conditions_at_the_top_of_the_range(capsys, files):
    code, doc = _run(capsys, ["check", "pt-conditions", "--H", files[_name(1.2e308, "I")],
                              "--K", files[_name(1.0, "I")]])
    assert code == 0 and doc["outcome"] == "solved"
    assert doc["detail"]["h_nonsingular"] is True
    assert doc["detail"]["norm_bound"] == pytest.approx(1.0 / math.sqrt(1.2e308), rel=1e-15)


def _douglas(capsys, files, a, b):
    return _run(capsys, ["check", "douglas", "--A", files[_name(*a)], "--B", files[_name(*b)]])


def test_check_douglas_finds_lambda_at_extreme_scales(capsys, files):
    # A A* underflows: lambda = 1e280 ||U||_2^2, ||U||_2^2 = (9 + sqrt(17)) / 8
    code, doc = _douglas(capsys, files, (1e-300, "I"), (1e-160, "U"))
    assert code == 0 and doc["outcome"] == "solved"
    assert doc["detail"]["lambda"] == pytest.approx(1e280 * (9.0 + math.sqrt(17.0)) / 8.0, rel=1e-14)
    # lambda = 1e-320 is subnormal
    code, doc = _douglas(capsys, files, (1.0, "P"), (1e-160, "P"))
    assert code == 0 and doc["outcome"] == "solved"
    assert abs(doc["detail"]["lambda"] - 1e-320) <= 2 * math.ulp(0.0)
    # B B* and A A* overflow
    code, doc = _douglas(capsys, files, (1e160, "P"), (1e160, "P"))
    assert code == 0 and doc["outcome"] == "solved"
    assert doc["detail"]["lambda"] == pytest.approx(1.0, rel=1e-14)


def test_check_douglas_refuses_a_lambda_out_of_range(capsys, files):
    # lambda = 1e600
    code, doc = _douglas(capsys, files, (1e-300, "P"), (1.0, "P"))
    assert code == 2 and doc["outcome"] == "error"
    assert doc["detail"]["message"] == "majorization constant overflows the floating-point range"


# For operands s_i M, each family's X is prod(s_i ** p_i) times a form in M
# and M^+: the powers follow the flags of cli.SOLVE_FLAGS.
CLOSED_FORMS = {
    # X = (s_B / s_A) M^+ M
    "douglas": ((-1, 1), lambda m, mp: mp @ m),
    # X = s_C / (s_A s_B) M^+ M M^+ = s_C / (s_A s_B) M^+
    "axb": ((-1, -1, 1), lambda m, mp: mp),
    # X = s_C / s_A^2 M^+ M M^+*, for Hermitian PSD M only
    "congruence": ((-2, 1), lambda m, mp: mp @ m @ mp.conj().T),
}


def _closed_form(family, label, scales):
    """The exact X of the grid command, its scale an exact power of ten
    times a mantissa, or None when that X is not solvable or not normal:
    not finite, or its largest entry below the normal range."""
    m = MATRICES[label]
    if family == "congruence" and not np.array_equal(m, m.T):
        return None
    powers, form = CLOSED_FORMS[family]
    factor = math.prod(Decimal(repr(s)) ** p for s, p in zip(scales, powers))
    ref = np.array([[float(Decimal(float(v)) * factor) for v in row]
                    for row in form(m, np.linalg.pinv(m))])
    if not np.isfinite(ref).all() or np.abs(ref).max() < np.finfo(float).tiny:
        return None
    return ref


def test_every_normal_solvable_answer_of_the_grid_is_solved(capsys, files, tmp_path):
    faults = []
    for family in CLOSED_FORMS:
        flags = cli.SOLVE_FLAGS[family]
        for label in MATRICES:
            for scales in itertools.product(SCALES, repeat=len(flags)):
                ref = _closed_form(family, label, scales)
                if ref is None:
                    continue
                argv = ["solve", family]
                for flag, s in zip(flags, scales):
                    argv += [f"--{flag}", files[_name(s, label)]]
                code, doc = _run(capsys, argv)
                if code != 0:
                    faults.append((argv, code, doc["detail"].get("message")))
                    continue
                err = np.max(np.abs(_solution(doc) - ref)) / np.max(np.abs(ref))
                if not err <= 1e-12:
                    faults.append((argv, err))
    # A = B = 1e-310 P, subnormal: A^+ overflows, X = I does not
    path = str(tmp_path / "subnormal-P.json")
    save_matrix(path, (1e-310 * MATRICES["P"]).astype(complex))
    code, doc = _run(capsys, ["solve", "douglas", "--A", path, "--B", path])
    if code != 0 or np.max(np.abs(_solution(doc) - np.eye(2))) > 1e-12:
        faults.append(("1e-310 P", code, doc["detail"]))
    assert faults == []
