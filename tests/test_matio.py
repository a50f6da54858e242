import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opeq import matio
from opeq.conditions import ConditionReport
from opeq.matio import (
    MatrixFileError,
    RunReport,
    digest_text,
    emit_json,
    emit_matrix,
    load_matrix,
    matrix_to_doc,
    parse_matrix_doc,
    parse_matrix_text,
    save_matrix,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_frozen_documents():
    m = parse_matrix_text('{"rows":1,"cols":1,"data":[[1.0,0.0]]}')
    assert m.shape == (1, 1) and m[0, 0] == 1.0
    m = parse_matrix_text('{"rows":2,"cols":1,"data":[[0,1],[0,-1]]}')
    assert m[0, 0] == 1j and m[1, 0] == -1j


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
@settings(max_examples=200)
def test_roundtrip_is_bit_exact(entries):
    a = np.array([complex(re, im) for re, im in entries]).reshape(len(entries), 1)
    b = parse_matrix_text(emit_matrix(a))
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


def test_roundtrip_extreme_values():
    a = np.array(
        [[0.0, -0.0], [5e-324, 1.7976931348623157e308], [1e-308, -1e300]], dtype=complex
    )
    b = parse_matrix_text(emit_matrix(a))
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


SIGNED_ZEROS = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0)],
                         [complex(-0.0, -0.0), complex(0.0, 0.0)]])


def test_signed_zero_roundtrips_bit_for_bit():
    b = parse_matrix_text(emit_matrix(SIGNED_ZEROS))
    assert b.view(np.float64).tobytes() == SIGNED_ZEROS.view(np.float64).tobytes()


def test_signed_zero_file_roundtrips_bit_for_bit(tmp_path):
    path = tmp_path / "z.json"
    save_matrix(str(path), SIGNED_ZEROS)
    b, _ = load_matrix(str(path))
    assert b.view(np.float64).tobytes() == SIGNED_ZEROS.view(np.float64).tobytes()


def test_emitted_integral_float_reads_back_as_float():
    assert type(json.loads(emit_json(2.0))) is float


def test_parse_error_loci():
    cases = {
        '{"rows":2,"cols":2,"data":[[1,0]]}': "data",
        '{"rows":1,"cols":1,"data":[[1]]}': "data[0]",
        '{"rows":1,"cols":1}': "missing field",
        '{"rows":0,"cols":1,"data":[]}': "rows",
        '{"rows":1,"cols":1,"data":[[true,0]]}': "data[0][0]",
        '{"rows":1,"cols":1,"data":[[Infinity,0]]}': "finite",
        "[1,2,3]": "expected a JSON object",
        "garbage": "not valid JSON",
    }
    for text, needle in cases.items():
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_text(text)
        assert needle in str(err.value)


def test_emit_refuses_non_finite():
    with pytest.raises(MatrixFileError):
        emit_matrix(np.array([[np.inf]], dtype=complex))


def test_file_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    a = np.array([[1.5, -2.25], [0.1, 1e-12]], dtype=complex)
    save_matrix(str(path), a)
    b, _ = load_matrix(str(path))
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


def test_load_missing_file_names_path(tmp_path):
    with pytest.raises(MatrixFileError) as err:
        load_matrix(str(tmp_path / "nope.json"))
    assert "nope.json" in str(err.value)


def test_load_non_utf8_file_names_path(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"rows": 1}'.encode("utf-16-le"))
    with pytest.raises(MatrixFileError) as err:
        load_matrix(str(path))
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


def test_load_matrix_digests_the_file_text(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(str(path), np.eye(2))
    _, digest = load_matrix(str(path))
    assert digest == digest_text(path.read_text(encoding="utf-8"))


def test_emit_json_is_valid_json_and_deterministic():
    doc = {"a": [1.0, 2.5, -0.0], "b": {"c": True, "d": None}, "e": "text"}
    t1 = emit_json(doc)
    t2 = emit_json(doc)
    assert t1 == t2
    assert json.loads(t1) == json.loads(json.dumps(doc))


def test_report_document_shape():
    rep = RunReport(
        command="check range",
        outcome="unsolvable",
        inputs={"A": "sha256:00", "B": "sha256:01"},
        residuals={"witness": 1.0},
        conditions=[ConditionReport(name="range_inclusion", witness=1.0, bound=0.5)],
    )
    doc = json.loads(rep.emit())
    assert doc["outcome"] == "unsolvable"
    assert doc["conditions"][0]["holds"] is False
    assert list(doc["conditions"][0]) == ["name", "holds", "witness", "bound", "detail"]
    assert doc["conditions"][0]["bound"] == 0.5
    assert doc["solution"] is None


def test_report_outcome_validation():
    with pytest.raises(Exception):
        RunReport(command="solve pt", outcome="maybe")
    with pytest.raises(Exception):
        RunReport(command="solve pt", outcome="solved", solution=None)
    # non-solve commands carry no solution matrix even when they pass
    RunReport(command="demo ex1", outcome="solved")


def test_matrix_doc_rejects_non_2d():
    with pytest.raises(MatrixFileError):
        matrix_to_doc(np.zeros(3))
    with pytest.raises(MatrixFileError):
        parse_matrix_doc({"rows": 1, "cols": 2, "data": [[1, 0], "x"]})


def test_huge_integer_literals_are_matrix_file_errors():
    # float() of a 400-digit integer overflows; json.loads refuses to convert
    # a 5000-digit one where the interpreter limits integer digits
    text = '{"rows":1,"cols":1,"data":[[1%s,0]]}'
    with pytest.raises(MatrixFileError, match=r"data\[0\]\[0\]: value overflows"):
        parse_matrix_text(text % ("0" * 400))
    with pytest.raises(MatrixFileError, match=r"data\[0\]\[1\]: value overflows"):
        parse_matrix_doc({"rows": 1, "cols": 1, "data": [[0, -(10**400)]]})
    with pytest.raises(MatrixFileError):
        parse_matrix_text(text % ("0" * 5000))


def test_deep_nesting_is_a_matrix_file_error():
    with pytest.raises(MatrixFileError, match="nested too deeply"):
        parse_matrix_text("[" * 100000 + "]" * 100000)


def test_matrix_doc_data_matches_the_entrywise_reference():
    # the entrywise loop the array view replaced, kept as the reference:
    # the same floats in the same order give the same bytes
    rng = np.random.default_rng(31)
    for i in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        m = (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) * 10.0 ** rng.uniform(-320, 300)
        m[rng.random((rows, cols)) < 0.2] = complex(-0.0, -0.0)
        m = m.T if i % 2 else m
        m = m.real if i % 3 == 0 else m
        a = np.asarray(m, dtype=np.complex128)
        reference = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
        doc = matrix_to_doc(m)
        assert emit_json(doc["data"]) == emit_json(reference)
        assert (doc["rows"], doc["cols"]) == a.shape


def _entrywise(doc):
    # the per-entry loop parse_matrix_doc falls back to, as the reference
    entries = [matio._entry(pair, k) for k, pair in enumerate(doc["data"])]
    return np.array(entries, dtype=np.complex128).reshape(doc["rows"], doc["cols"])


# -0.0, subnormals, the edge of the double range, and integers that a
# double rounds: 2^53 + 1 and 2^63 + 1 numpy reads as float64 (past int64),
# 2^70 + 12345 it keeps as an object, which the entrywise loop then reads
SPECIAL_ENTRIES = [
    -0.0, 0.0, 5e-324, -2.5e-310, 1e-308, 1e308, -1e308, 1.7976931348623157e308,
    0, -7, 2**53 + 1, -(2**53 + 1), 2**63 + 1, 2**70 + 12345,
]


def test_parsed_data_matches_the_entrywise_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    fast = 0
    for _ in range(120):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        scale = 10.0 ** rng.integers(-300, 300, size=(rows * cols, 2))
        data = (rng.normal(size=(rows * cols, 2)) * scale).tolist()
        for _ in range(int(rng.integers(0, 6))):
            k, part = int(rng.integers(rows * cols)), int(rng.integers(2))
            data[k][part] = SPECIAL_ENTRIES[int(rng.integers(len(SPECIAL_ENTRIES)))]
        doc = {"rows": rows, "cols": cols, "data": data}
        want = _entrywise(doc).tobytes()
        assert parse_matrix_doc(doc).tobytes() == want
        pairs = matio._finite_pairs(data, rows * cols)
        if pairs is not None:
            fast += 1
            assert pairs.tobytes() == want
        # the written file reads back to the same bits
        assert parse_matrix_text(json.dumps(doc)).tobytes() == want
    assert fast >= 60


# Each refused second entry and the message of the entrywise loop, which the
# numpy path hands every document it does not accept.
REFUSALS = [
    pytest.param("[true,0.5]", "data[1][0]: expected a number", id="bool-re"),
    pytest.param("[0.5,false]", "data[1][1]: expected a number", id="bool-im"),
    pytest.param('["1.5",0.5]', "data[1][0]: expected a number", id="string"),
    pytest.param("[null,0.5]", "data[1][0]: expected a number", id="null"),
    pytest.param("[0.5]", "data[1]: expected a [re, im] pair", id="short-pair"),
    pytest.param("[0.5,1.5,2.5]", "data[1]: expected a [re, im] pair", id="long-pair"),
    pytest.param("[0.5,[1.5]]", "data[1][1]: expected a number", id="nested-im"),
    pytest.param("[[0.5],1.5]", "data[1][0]: expected a number", id="nested-re"),
    pytest.param("null", "data[1]: expected a [re, im] pair", id="null-pair"),
    pytest.param("[Infinity,0.5]", "data[1][0]: value must be finite", id="Infinity"),
    pytest.param("[0.5,-Infinity]", "data[1][1]: value must be finite", id="-Infinity"),
    pytest.param("[NaN,0.5]", "data[1][0]: value must be finite", id="NaN"),
    pytest.param("[1e999,0.5]", "data[1][0]: value must be finite", id="1e999"),
    pytest.param(
        "[0.5,1%s]" % ("0" * 400), "data[1][1]: value overflows the floating-point range", id="integer-past-double"
    ),
]


@pytest.mark.parametrize("entry, message", REFUSALS)
def test_refusal_messages_are_the_entrywise_loops(entry, message):
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_text('{"rows":2,"cols":1,"data":[[0.5,1.5],%s]}' % entry)
    assert str(err.value) == message


def test_missing_field_message():
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_text('{"rows":2,"cols":1}')
    assert str(err.value) == "document: missing field 'data'"


def test_matrix_file_is_one_line():
    text = emit_matrix(SIGNED_ZEROS)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(matrix_to_doc(SIGNED_ZEROS)) + "\n"


def test_report_with_a_solution_reads_back_as_its_document():
    solution = np.array([[complex(-0.0, 5e-324), 1e308], [2.0, complex(0.1, -2.5e-310)]])
    rep = RunReport(
        command="solve pt",
        outcome="solved",
        inputs={"H": "sha256:00", "K": "sha256:01"},
        residuals={"solve": 0.0},
        conditions=[ConditionReport(name="iv", witness=1.0, bound=2.0, detail="fixed rule text")],
        solution=solution,
        detail={"h_nonsingular": True, "norm_bound": 2.0},
    )
    text = rep.emit()
    assert json.loads(text) == rep.to_doc()
    # the envelope keeps its indent and the data is one line of it
    lines = text.splitlines()
    data_lines = [line for line in lines if '"data"' in line]
    assert data_lines == ['    "data": ' + json.dumps(matrix_to_doc(solution)["data"])]
    assert lines[1] == '  "command": "solve pt",'
    got = parse_matrix_doc(json.loads(text)["solution"])
    assert got.tobytes() == solution.tobytes()


def test_report_solution_refuses_non_finite_with_the_indented_message():
    rep = RunReport(command="solve pt", outcome="solved", solution=np.array([[np.inf]]))
    with pytest.raises(MatrixFileError) as err:
        rep.emit()
    with pytest.raises(MatrixFileError) as indented:
        emit_json(rep.to_doc())
    assert str(err.value) == str(indented.value)
