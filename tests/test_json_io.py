"""The state-file reader (cli._load_json), the shared [re, im] conversion and the writer."""

import json
import math
import os
import time
import tracemalloc
from array import array

import numpy as np
import pytest

import frameness as fr
from frameness import cli
from channel_oracle import kraus_channel_from_json
from frameness.states import complex_matrix_from_json, complex_matrix_to_json

DUMP_STYLES = [{}, {"indent": 2}, {"separators": (",", ":")}]
ARRAY_KEYS = ("matrix", "amplitudes", "unitaries")


def write_text(path, text):
    path.write_text(text)
    return str(path)


def pairs(a):
    """[re, im] nested lists, as the writer before the shared helper built them."""
    return [[float(z.real), float(z.imag)] for z in a] if a.ndim == 1 else [pairs(r) for r in a]


def awkward_pairs(a, rng):
    """pairs(a) with some entries as integer literals, exponent forms and signed zeros."""
    out = pairs(a)
    flat = [entry for row in out for entry in row] if a.ndim == 2 else out
    for entry in flat:
        kind = rng.integers(6)
        if kind == 0:
            entry[0] = int(rng.integers(-3, 4))
        elif kind == 1:
            entry[1] = float(rng.choice([1e-300, -2.5e-12, 6.02e23, 1e308, 5e-324]))
        elif kind == 2:
            entry[0] = -0.0
    return out


def assert_same_as_json_load(path):
    """_load_json agrees with json.load: arrays bitwise, every other top-level key equal."""
    with open(path) as fh:
        ref = json.load(fh)
    got = cli._load_json(path)
    assert set(got) == set(ref)
    for key, value in ref.items():
        if key in ARRAY_KEYS and isinstance(value, list):
            want = np.asarray(value, dtype=float)
            assert got[key].dtype == np.float64 and got[key].shape == want.shape
            assert got[key].tobytes() == want.tobytes()
        else:
            assert got[key] == value


@pytest.mark.parametrize("style", DUMP_STYLES)
def test_reader_matches_json_load_bitwise(tmp_path, style):
    rng = np.random.default_rng(7)
    for trial in range(3):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        v = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, 6)
        rep = fr.quaternion_rep()
        docs = {
            "density": {"dim": 5, "matrix": awkward_pairs(m, rng)},
            "pure": {"amplitudes": awkward_pairs(v.astype(complex), rng), "dim": 6},
            "rep": fr.finite_rep_to_json(rep),
            "envelope": {
                "note": 'brackets ] [ [[ and "quotes" and a key: "matrix": [[1]]',
                "meta": {"matrix": [[1, 2], [3]], "deep": [{"amplitudes": "x"}]},
                "matrix": pairs(m),
                "tags": ["[", "]", ","],
                "été": [[0.5, 1], []],
            },
        }
        for name, doc in docs.items():
            path = tmp_path / f"{name}{trial}.json"
            path.write_text(json.dumps(doc, **style))
            assert_same_as_json_load(str(path))


def test_reader_accepts_hand_written_number_forms(tmp_path):
    text = ('{"dim" : 2 ,\n "matrix" :\t[ [ [1, 0] , [ 0.0,-0 ]],[[-0.0, 2E-1],'
            '[1e+0 ,  -12.5e-3 ]] ] ,"x":null }')
    assert_same_as_json_load(write_text(tmp_path / "forms.json", text))
    text = '{"amplitudes": [[1e400, -1e400]], "dim": 1}'  # overflow reads as +-inf, as in json
    assert_same_as_json_load(write_text(tmp_path / "overflow.json", text))


@pytest.mark.parametrize("chunk_bytes", [1, 5, 1 << 20])
def test_reader_rejects_what_json_rejects_and_only_shape_errors_besides(
        tmp_path, monkeypatch, chunk_bytes):
    """Mutate small documents a character or two at a time.

    A document json.loads rejects must be rejected.  One it accepts must be
    read the same, unless one of its numeric arrays is not a non-empty
    rectangular array of numbers, which the reader may reject.  Small chunks
    put a chunk edge next to nearly every comma.
    """
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(11)
    m = np.array([[0.5, 0.25 - 0.125j], [0.25 + 0.125j, 0.5]])
    bases = [json.dumps({"dim": 2, "matrix": pairs(m)}, **style) for style in DUMP_STYLES]
    bases.append(json.dumps({"amplitudes": [[1, 0], [0, -0.0]], "note": "[,]"}))
    alphabet = list('[]{},:" 019.eE+-') + ["\n", "NaN", "true"]
    path = tmp_path / "m.json"
    for _ in range(1500):
        text = bases[rng.integers(len(bases))]
        for _ in range(rng.integers(1, 3)):
            i = int(rng.integers(len(text)))
            op = rng.integers(4)
            ch = alphabet[rng.integers(len(alphabet))]
            if op == 0:
                text = text[:i] + ch + text[i:]
            elif op == 1:
                text = text[:i] + text[i + 1:]
            elif op == 2:
                text = text[:i] + ch + text[i + 1:]
            else:  # move one character a few places
                j = min(max(i + int(rng.integers(-4, 5)), 0), len(text) - 1)
                rest = text[:i] + text[i + 1:]
                text = rest[:j] + text[i] + rest[j:]
        path.write_text(text)
        try:
            ref = json.loads(text)
        except ValueError:
            with pytest.raises(ValueError):
                cli._load_json(str(path))
            continue
        try:
            got = cli._load_json(str(path))
        except ValueError:
            if isinstance(ref, dict):  # rejected json-valid input must hold a non-plain array
                arrays = [ref[k] for k in ARRAY_KEYS if isinstance(ref.get(k), list)]
                assert not all(map(_plain_rectangular, arrays)), text
            continue
        for key, value in ref.items():
            if key in ARRAY_KEYS and isinstance(value, list):
                assert got[key].tobytes() == np.asarray(value, dtype=float).tobytes(), text
            else:
                assert got[key] == value or value != value, text  # NaN != NaN


def _plain_rectangular(value) -> bool:
    """A non-empty rectangular nested list whose leaves are int or float, not bool."""
    if not isinstance(value, list) or not value:
        return False
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return True
    if not all(_plain_rectangular(v) for v in value):
        return False
    return len({np.asarray(v, dtype=float).shape for v in value}) == 1


REJECTED = {
    "ragged rows": '{"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}',
    "truncated": '{"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, ',
    "unbalanced": '{"dim": 1, "matrix": [[[1, 0]]]]}',
    "unopened": '{"dim": 1, "matrix": [[1, 0]]]}',
    "trailing garbage": '{"dim": 1, "matrix": [[[1, 0]]]} x',
    "number after bracket": '{"dim": 1, "matrix": [[[1, ]0]]}',
    "number before bracket": '{"dim": 2, "matrix": [[[1, 0], 0[0, 0]], [[0, 0], [0, 0]]]}',
    "number before its bracket": '{"dim": 2, "matrix": [[[1, 0], 0[, 0]], [[0, 0], [0, 0]]]}',
    "merged across brackets": '{"dim": 1, "matrix": [[[1, 0]]]5}',
    "trailing comma": '{"dim": 1, "matrix": [[[1, 0],]]}',
    "NaN": '{"dim": 1, "matrix": [[[NaN, 0]]]}',
    "Infinity": '{"dim": 1, "matrix": [[[1, -Infinity]]]}',
    "true": '{"dim": 1, "matrix": [[[true, 0]]]}',
    "string": '{"dim": 1, "matrix": [[["1", 0]]]}',
    "null": '{"dim": 1, "matrix": [[[1, null]]]}',
    "empty matrix": '{"dim": 0, "matrix": []}',
    "empty rows": '{"dim": 2, "matrix": [[], []]}',
    "leading zero": '{"dim": 1, "matrix": [[[01, 0]]]}',
    "not an object": '[[[1, 0]]]',
    "duplicate key": '{"dim": 1, "matrix": [[[1, 0]]], "matrix": 1}',
    "byte order mark": '\ufeff{"dim": 1, "matrix": [[[1, 0]]]}',
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_documents_exit_2_without_traceback(tmp_path, capsys, case):
    path = write_text(tmp_path / "bad.json", REJECTED[case])
    with pytest.raises(ValueError):
        cli._load_json(path)
    assert cli.run(["asymmetry", "--group", "u1", "--state", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_reader_names_the_fault(tmp_path):
    def message(text):
        with pytest.raises(ValueError) as exc:
            cli._load_json(write_text(tmp_path / "f.json", text))
        return str(exc.value)

    assert "rectangular" in message(REJECTED["ragged rows"])
    assert "(2, 2, 2)" in message(REJECTED["ragged rows"])  # the shape its first entries have
    assert "NaN" in message(REJECTED["NaN"])
    assert "outside its brackets" in message(REJECTED["number after bracket"])
    assert "empty" in message(REJECTED["empty matrix"])


MALFORMED_ENTRIES = {
    "one number": [[[1.0], [0.0]], [[0.0], [0.0]]],
    "bare numbers": [[1.0, 0.0], [0.0, 0.0]],
    "three numbers": [[[1.0, 0.0, 9.0], [0.0, 0.0, 9.0]], [[0.0, 0.0, 9.0], [0.0, 0.0, 9.0]]],
    "mixed": [[[1.0, 0.0], 0.0], [[0.0, 0.0], [0.0, 0.0]]],
    "one short": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_entries_exit_2_naming_the_shape(tmp_path, capsys, case):
    entries = MALFORMED_ENTRIES[case]
    density = write_text(tmp_path / "rho.json", json.dumps({"dim": 2, "matrix": entries}))
    pure = write_text(tmp_path / "psi.json", json.dumps({"dim": 2, "amplitudes": entries[0]}))
    rep = fr.finite_rep_to_json(fr.z2_phase_flip_rep())
    rep["unitaries"][1] = entries
    rep_file = write_text(tmp_path / "rep.json", json.dumps(rep))
    plus = fr.PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    good = write_text(tmp_path / "plus.json", json.dumps(fr.pure_state_to_json(plus)))
    for argv in (["asymmetry", "--group", "u1", "--state", density],
                 ["asymmetry", "--group", "u1", "--state", pure],
                 ["asymmetry", "--group", "finite", "--rep", rep_file, "--state", good]):
        assert cli.run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "shape" in err or "rectangular" in err, err


def test_shared_conversion_names_the_expected_shape():
    with pytest.raises(ValueError, match=r"\(rows, cols, 2\)"):
        fr.density_from_json({"matrix": [[[1.0, 0.0, 5.0]]]})
    with pytest.raises(ValueError, match=r"\(rows, cols, 2\)"):
        fr.density_from_json({"matrix": [[[1.0, 0.0]], [[1.0]]]})  # ragged
    with pytest.raises(ValueError, match=r"\(dim, 2\)"):
        fr.pure_state_from_json({"amplitudes": [1.0, 0.0]})
    with pytest.raises(ValueError, match=r"\(rows, cols, 2\)"):
        fr.finite_rep_from_json({"table": [[0]], "unitaries": [[[1.0]]]})
    # a float array and the nested lists it came from convert alike
    m = np.arange(8.0).reshape(2, 2, 2)
    a = complex_matrix_from_json(m)
    assert np.array_equal(a, complex_matrix_from_json(m.tolist()))
    assert np.array_equal(a, m[..., 0] + 1j * m[..., 1])


def test_non_finite_entries_exit_2(tmp_path, capsys):
    rho = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    for literal in ("1e400", "-1e400"):  # overflow: json reads them as +-inf
        text = json.dumps({"dim": 2, "matrix": rho}).replace("0.5", literal, 1)
        path = write_text(tmp_path / "inf.json", text)
        assert cli.run(["asymmetry", "--group", "u1", "--state", path]) == 2
        assert "non-finite" in capsys.readouterr().err
    text = json.dumps({"dim": 2, "matrix": rho}).replace("0.5", "NaN", 1)
    path = write_text(tmp_path / "nan.json", text)
    assert cli.run(["asymmetry", "--group", "u1", "--state", path]) == 2
    path = write_text(tmp_path / "psi.json", '{"dim": 2, "amplitudes": [[1e400, 0], [0, 0]]}')
    assert cli.run(["asymmetry", "--group", "u1", "--state", path]) == 2
    assert "non-finite" in capsys.readouterr().err
    for p in ("nan", "inf", "-inf"):
        assert cli.run(["scaling", "--p", p, "--copies", "5"]) == 2


@pytest.mark.parametrize("value", [[2], "2", None, 2.5, True, {"n": 2}, float("nan")])
def test_envelope_integers_of_another_json_type_exit_2_naming_the_key(tmp_path, capsys, value):
    rho = {"dim": value, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    psi = {"dim": value, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    rep = fr.finite_rep_to_json(fr.z2_phase_flip_rep())
    rep["order"] = value
    charges = {"dim": value, "charges": [0, 1]}
    good = write_text(tmp_path / "good.json", json.dumps({"matrix": rho["matrix"]}))
    density, pure, rep_file, charges_file = (
        write_text(tmp_path / f"{name}.json", json.dumps(doc))
        for name, doc in (("rho", rho), ("psi", psi), ("rep", rep), ("charges", charges)))
    for options, key in ((["--group", "u1", "--state", density], "dim"),
                         (["--group", "u1", "--state", pure], "dim"),
                         (["--group", "finite", "--rep", rep_file, "--state", good], "order"),
                         (["--group", "u1", "--charges", charges_file, "--state", good], "dim")):
        assert cli.run(["asymmetry"] + options) == 2, options
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"'{key}' must be an integer" in err, err
    with pytest.raises(fr.ShapeMismatchError, match="'dim' must be an integer"):
        kraus_channel_from_json({"dim": value, "kraus": [complex_matrix_to_json(np.eye(2))]})


def test_envelope_integers_may_be_written_as_floats():
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert fr.density_from_json({"dim": 2.0, "matrix": matrix}).dim == 2
    with pytest.raises(fr.InvalidStateError, match="declared dim 3"):
        fr.pure_state_from_json({"dim": 3.0, "amplitudes": [[1.0, 0.0]]})


@pytest.mark.parametrize("charges", [[0, 1.5], [0, True], [False, 1], [0, "1"], [0, None]])
def test_charges_that_are_not_integers_exit_2(tmp_path, capsys, charges):
    # [0, 1.5] must not read as [0, 1], nor true as 1
    rho = write_text(tmp_path / "rho.json", json.dumps(fr.density_to_json(
        fr.DensityOperator(np.diag([0.5, 0.5])))))
    path = write_text(tmp_path / "c.json", json.dumps({"dim": 2, "charges": charges}))
    assert cli.run(["asymmetry", "--group", "u1", "--state", rho, "--charges", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "charges must be integers" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [0.9, 1.5, True, "1", None])
def test_table_entries_that_are_not_integers_exit_2(tmp_path, capsys, entry):
    # a Z2 table entry 0.9 must not read as 0 and pass validation
    rep = fr.finite_rep_to_json(fr.z2_phase_flip_rep())
    rep["table"][1][1] = entry
    rho = write_text(tmp_path / "rho.json", json.dumps(fr.density_to_json(
        fr.DensityOperator(np.diag([0.5, 0.5])))))
    path = write_text(tmp_path / "rep.json", json.dumps(rep))
    for command in (["asymmetry"], ["bounds", "--copies", "2"]):
        assert cli.run(command + ["--group", "finite", "--rep", path, "--state", rho]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "table entries must be integers" in err, err
        assert "Traceback" not in err


def test_integer_fields_may_be_written_as_floats(tmp_path):
    rho = write_text(tmp_path / "rho.json", json.dumps(fr.density_to_json(
        fr.DensityOperator(np.diag([0.25, 0.75])))))
    outputs = []
    for k, (charges, table) in enumerate((([0, 1], [[0, 1], [1, 0]]),
                                         ([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]))):
        rep = fr.finite_rep_to_json(fr.z2_phase_flip_rep())
        rep["table"] = table
        rep_file = write_text(tmp_path / f"rep{k}.json", json.dumps(rep))
        charges_file = write_text(tmp_path / f"c{k}.json", json.dumps({"dim": 2, "charges": charges}))
        runs = []
        for options in (["--group", "u1", "--charges", charges_file],
                        ["--group", "finite", "--rep", rep_file]):
            out = tmp_path / "out.json"
            assert cli.run(["asymmetry", "--state", rho, "--out", str(out)] + options) == 0
            runs.append(json.loads(out.read_text())["result"])
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert fr.ChargeGrading([0.0, 2.0]).charges.tolist() == [0, 2]


def test_writer_matches_the_per_entry_comprehension():
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 5e-324, -2.2e-310, 1e308, -1e308, 0.0, 1.0])
    for shape in [(4, 4), (1, 1), (7, 3)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = min(m.size, special.size)
        m.real.flat[:k] = special[:k]
        m.imag.flat[-k:] = special[-k:]
        old = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert json.dumps(complex_matrix_to_json(m)) == json.dumps(old)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    tiny = [complex(-0.0, 5e-324), complex(2.2e-310, -0.0)]
    psi = fr.PureState(np.concatenate([v / np.linalg.norm(v), tiny]))
    old = {"dim": psi.dim, "amplitudes": [[float(z.real), float(z.imag)] for z in psi.amplitudes]}
    assert json.dumps(fr.pure_state_to_json(psi)) == json.dumps(old)
    real = np.array([[1.0, -0.0], [5e-324, 2.0]])  # a real matrix gains +0.0 imaginary parts
    assert json.dumps(complex_matrix_to_json(real)) == json.dumps(pairs(real.astype(complex)))


def test_reader_memory_stays_near_the_file_size(tmp_path):
    rng = np.random.default_rng(5)
    d = 512
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    path = tmp_path / "big.json"
    with open(path, "w") as fh:
        json.dump({"dim": d, "matrix": np.stack([m.real, m.imag], -1).tolist()}, fh)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = cli._load_json(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got["matrix"].shape == (d, d, 2)
    assert peak <= 2.5 * size, f"peak {peak / size:.2f} x the {size} B file"


# The parallel path: an array's chunks split into parts, all but the first
# scanned by forked children.


@pytest.fixture
def parallel(monkeypatch):
    """Split every array of more than one chunk into up to three parts; no child may outlive a test."""
    monkeypatch.setattr(cli, "_MIN_PART_BYTES", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    yield
    with pytest.raises(ChildProcessError):  # none left, running or zombie
        os.waitpid(-1, os.WNOHANG)


def outcome(path):
    """_load_json's result, or the message it raised."""
    try:
        return cli._load_json(path)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert set(got) == set(want)
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[key].shape == value.shape and got[key].tobytes() == value.tobytes()
            else:
                assert got[key] == value


@pytest.mark.parametrize("style", DUMP_STYLES)
def test_parallel_reader_matches_json_load_bitwise(tmp_path, monkeypatch, parallel, style):
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 64)
    rng = np.random.default_rng(16)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    path = tmp_path / "rho16.json"
    path.write_text(json.dumps({"dim": 16, "matrix": awkward_pairs(m, rng)}, **style))
    assert len(cli._chunks(path.read_bytes(), 0, path.stat().st_size)) >= 3
    assert_same_as_json_load(str(path))
    test_reader_matches_json_load_bitwise(tmp_path, style)


def test_parallel_reader_rejects_what_json_rejects(tmp_path, monkeypatch, parallel):
    # 1-byte chunks: a chunk edge at every comma, a part edge at two of them.  Every document is
    # split into parts; one fork in seven starts a real child (alternating between a document's
    # two later parts), and the rest fail as a fork can, so the parent scans that part itself
    real_fork, forks = os.fork, []

    def sampled_fork():
        forks.append(len(forks) % 7 == 0)
        if not forks[-1]:
            raise OSError("no child for this part")
        return real_fork()

    monkeypatch.setattr(os, "fork", sampled_fork)
    test_reader_rejects_what_json_rejects_and_only_shape_errors_besides(tmp_path, monkeypatch, 1)
    assert 300 < sum(forks) < len(forks) / 5


def test_parallel_reader_rejects_and_names_the_same_faults(tmp_path, capsys, monkeypatch, parallel):
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 5)
    for case in sorted(REJECTED):
        test_rejected_documents_exit_2_without_traceback(tmp_path, capsys, case)
    test_reader_names_the_fault(tmp_path)


def _serial_and_parallel_outcomes(tmp_path, monkeypatch, texts):
    """(serial, parallel) outcome of each text, read with 5-byte chunks."""
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 5)
    outcomes = []
    for k, text in enumerate(texts):
        path = write_text(tmp_path / f"doc{k}.json", text)
        with monkeypatch.context() as serial:
            serial.setattr(cli, "_MIN_PART_BYTES", 1 << 40)
            want = outcome(path)
        outcomes.append((want, outcome(path)))
    return outcomes


def _scan_in_parent(monkeypatch, in_child):
    """Replace cli._scan: a child runs ``in_child`` on the real scan; returns the parent's scans."""
    parent, scan, seen = os.getpid(), cli._scan, []

    def patched(data, key, start, end, chunks):
        if os.getpid() != parent:
            return in_child(scan(data, key, start, end, chunks))
        seen.append(chunks[0][0] > start)  # True: a later part, scanned again here
        return scan(data, key, start, end, chunks)

    monkeypatch.setattr(cli, "_scan", patched)
    return seen


def _documents():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    texts = [json.dumps({"dim": 3, "matrix": awkward_pairs(m, rng)}, **style)
             for style in DUMP_STYLES]
    texts.append('{"amplitudes": [[1, 0], [0, 1e999999]], "dim": 2, "note": "a"}')
    texts.append('{"amplitudes": [[1, 0], [0, 1' + "0" * 5000 + ']], "dim": 2}')  # digit limit
    return texts + [REJECTED[case] for case in sorted(REJECTED)]


def test_a_failing_child_changes_no_result_and_no_error(tmp_path, monkeypatch, parallel):
    seen = _scan_in_parent(monkeypatch, lambda result: os._exit(3))
    for want, got in _serial_and_parallel_outcomes(tmp_path, monkeypatch, _documents()):
        assert_same_outcome(got, want)
    assert any(seen)


class _ShortArray(array):
    """An array("d") that claims one value more than it holds."""

    def __len__(self):
        return super().__len__() + 1


def _short_message(result):
    skeleton, misplaced, values, fault = result
    return skeleton, misplaced, _ShortArray("d", values), fault


def _wrong_values_then_exit_5(result):
    skeleton, misplaced, values, fault = result
    exit_now = os._exit
    os._exit = lambda code: exit_now(5)  # this process is the child: it exits 5 after sending
    return skeleton, misplaced, array("d", bytes(8 * len(values))), fault


@pytest.mark.parametrize("in_child", [_short_message, _wrong_values_then_exit_5],
                         ids=["short message", "nonzero exit"])
def test_a_part_is_scanned_again_unless_its_message_is_whole_and_its_exit_0(
        tmp_path, monkeypatch, parallel, in_child):
    seen = _scan_in_parent(monkeypatch, in_child)
    for want, got in _serial_and_parallel_outcomes(tmp_path, monkeypatch, _documents()[:3]):
        assert_same_outcome(got, want)
    assert any(seen)


class _GivenUp(Exception):
    pass


def test_children_are_killed_and_reaped_when_the_parent_raises(tmp_path, monkeypatch, parallel):
    parent = os.getpid()

    def scan(data, key, start, end, chunks):
        if os.getpid() != parent:
            time.sleep(30)  # still scanning when the parent gives up
        raise _GivenUp

    monkeypatch.setattr(cli, "_scan", scan)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 5)
    path = write_text(tmp_path / "rho.json", json.dumps({"dim": 2, "matrix": pairs(np.eye(2) / 2)}))
    t0 = time.perf_counter()
    with pytest.raises(_GivenUp):
        cli._load_json(path)
    assert time.perf_counter() - t0 < 10  # the children were killed, not waited for


def test_parallel_and_serial_outcomes_agree_under_mutation(tmp_path, monkeypatch, parallel):
    rng = np.random.default_rng(12)
    bases = _documents()[:3]
    texts = []
    for _ in range(300):
        text = bases[rng.integers(len(bases))]
        i = int(rng.integers(len(text)))
        texts.append(text[:i] + '[],0 "e'[rng.integers(7)] + text[i + 1:])
    for want, got in _serial_and_parallel_outcomes(tmp_path, monkeypatch, texts):
        assert_same_outcome(got, want)


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, _fork_fails], ids=["no fork", "fork fails"])
def test_without_a_child_the_reader_scans_serially(tmp_path, monkeypatch, parallel, fork):
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 5)
    test_reader_matches_json_load_bitwise(tmp_path, {})
    for want, got in _serial_and_parallel_outcomes(tmp_path, monkeypatch, _documents()):
        assert_same_outcome(got, want)
