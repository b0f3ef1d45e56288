import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import frameness as fr
from frameness import cli, scaling


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def uniform4_state(tmp_path):
    psi = fr.PureState(np.full(4, 0.5))
    return write_json(tmp_path / "uniform4.json", fr.pure_state_to_json(psi))


@pytest.fixture
def charges4(tmp_path):
    return write_json(tmp_path / "charges4.json",
                      fr.charge_grading_to_json(fr.ChargeGrading([0, 1, 2, 3])))


@pytest.fixture
def plus_state_file(tmp_path):
    psi = fr.PureState(np.array([1, 1]) / math.sqrt(2))
    return write_json(tmp_path / "plus.json", fr.pure_state_to_json(psi))


@pytest.fixture
def z2_rep_file(tmp_path):
    return write_json(tmp_path / "z2.json", fr.finite_rep_to_json(fr.z2_phase_flip_rep()))


def run_json(tmp_path, args):
    out = tmp_path / "out.json"
    code = cli.run(args + ["--out", str(out)])
    assert code == 0, f"exit code {code} for {args}"
    return json.loads(out.read_text())


def test_usage_and_unknown_command(capsys):
    assert cli.run([]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0].splitlines()]
    assert listed == list(cli.COMMANDS)
    # each command's line is the first sentence of its --help description
    assert "  scaling     N-copy asymmetry against the Gaussian-entropy model\n" in out
    assert "  bounds      finite-group / Lie-group bound reports\n" in out
    assert cli.run(["frobnicate"]) == 64
    assert "unknown command" in capsys.readouterr().err


def test_subcommand_help_exits_zero(capsys):
    assert cli.run(["asymmetry", "--help"]) == 0


def test_asymmetry_u1(tmp_path, uniform4_state, charges4):
    payload = run_json(tmp_path, ["asymmetry", "--group", "u1",
                                  "--state", uniform4_state, "--charges", charges4])
    assert payload["result"]["asymmetry"] == pytest.approx(2.0, abs=1e-9)
    meta = payload["meta"]
    assert meta["version"] == fr.__version__
    assert meta["seed"] == 0
    assert meta["config"]["group"] == "u1"


def test_asymmetry_invariant_state_is_zero(tmp_path, z2_rep_file):
    state = write_json(tmp_path / "invariant.json",
                       fr.density_to_json(fr.DensityOperator(np.diag([0.3, 0.7]))))
    payload = run_json(tmp_path, ["asymmetry", "--group", "finite",
                                  "--state", state, "--rep", z2_rep_file])
    assert payload["result"]["asymmetry"] == pytest.approx(0.0, abs=1e-9)

    # u1 without --charges defaults to one charge per level
    payload = run_json(tmp_path, ["asymmetry", "--group", "u1", "--state", state])
    assert payload["result"]["asymmetry"] == pytest.approx(0.0, abs=1e-9)


def test_zero_entropies_are_written_as_positive_zero(tmp_path):
    state = write_json(tmp_path / "basis.json",
                       fr.density_to_json(fr.DensityOperator(np.diag([1.0, 0.0]))))
    charges = write_json(tmp_path / "c.json", {"dim": 2, "charges": [0, 1]})
    out = tmp_path / "out.json"
    assert cli.run(["asymmetry", "--group", "u1", "--state", state, "--charges", charges,
                    "--out", str(out)]) == 0
    assert "-0.0" not in out.read_text()
    result = json.loads(out.read_text())["result"]
    for key in ("entropy_in", "entropy_out", "asymmetry"):
        assert math.copysign(1.0, result[key]) == 1.0, key


def test_twirl_dumps_state(tmp_path, plus_state_file, z2_rep_file):
    payload = run_json(tmp_path, ["twirl", "--group", "finite",
                                  "--state", plus_state_file, "--rep", z2_rep_file])
    out = fr.density_from_json(payload["result"]["state"])
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-10


def test_twirl_csv_rows(tmp_path, uniform4_state, charges4):
    out = tmp_path / "twirl.csv"
    assert cli.run(["twirl", "--group", "u1", "--state", uniform4_state, "--charges", charges4,
                    "--format", "csv", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "row,col,re,im"
    entries = {(int(r), int(c)): float(re) for r, c, re, _ in
               (ln.split(",") for ln in lines[1:])}
    assert len(entries) == 16
    assert all(entries[i, j] == pytest.approx(0.25 if i == j else 0.0, abs=1e-12)
               for i in range(4) for j in range(4))


def test_extremal(tmp_path):
    payload = run_json(tmp_path, ["extremal", "--group", "su2", "--qubits", "2"])
    assert payload["result"]["asymmetry"] == pytest.approx(2.0, abs=1e-8)
    assert payload["result"]["closed_form"] == pytest.approx(2.0)

    payload = run_json(tmp_path, ["extremal", "--group", "u1", "--n-max", "3"])
    assert payload["result"]["asymmetry"] == pytest.approx(2.0, abs=1e-9)


def test_scaling_csv_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scaling", "--p", "0.5", "--copies", "100", "--format", "csv", "--seed", "7"]
    assert cli.run(args + ["--out", str(out1)]) == 0
    assert cli.run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("# toolkit=frameness")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "N,A_bits,model_bits,gap_bits,A_over_N"
    last = lines[-1].split(",")
    assert int(last[0]) == 100
    assert float(last[4]) <= 0.05


def test_scaling_from_state_file(tmp_path, uniform4_state, charges4):
    payload = run_json(tmp_path, ["scaling", "--state", uniform4_state,
                                  "--charges", charges4, "--copies", "10"])
    rows = payload["result"]["rows"]
    assert rows[0]["N"] == 1
    assert rows[0]["A_bits"] == pytest.approx(2.0, abs=1e-9)
    assert "p" not in payload["meta"]["config"]  # the Bernoulli weight plays no part


def test_scaling_refuses_p_with_a_state(tmp_path, capsys, uniform4_state, charges4):
    # --p would be dropped: the state's charge law replaces the Bernoulli law
    out = tmp_path / "out.json"
    args = ["scaling", "--state", uniform4_state, "--charges", charges4, "--p", "0.3", "--out", str(out)]
    assert cli.run(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "frameness scaling: error: --p sets the Bernoulli law, which --state replaces\n"
    assert captured.out == "" and not out.exists()
    # without --p the Bernoulli law's weight is recorded as 0.5
    assert run_json(tmp_path, ["scaling", "--copies", "2"])["meta"]["config"]["p"] == 0.5



def test_scaling_on_widely_spread_charges(tmp_path):
    # charges 0, 1 and 10^5: the N-fold law sits on the compositions of N draws, 15 at N = 4
    psi = fr.PureState(np.full(3, 1 / math.sqrt(3)))
    state = write_json(tmp_path / "psi3.json", fr.pure_state_to_json(psi))
    charges = write_json(tmp_path / "wide.json", {"dim": 3, "charges": [0, 1, 100000]})
    start = time.perf_counter()
    rows = run_json(tmp_path, ["scaling", "--state", state, "--charges", charges,
                               "--n-list", "1,4"])["result"]["rows"]
    assert time.perf_counter() - start < 10.0
    counts = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
    probs = [math.factorial(4) / math.prod(map(math.factorial, c)) / 81 for c in counts]
    assert [r["N"] for r in rows] == [1, 4]
    assert rows[0]["A_bits"] == pytest.approx(math.log2(3), abs=1e-13)
    assert rows[1]["A_bits"] == pytest.approx(-sum(q * math.log2(q) for q in probs), abs=1e-13)


def test_scaling_at_the_support_cap(tmp_path):
    # 2^22 - 1 copies of a two-level law: the largest support the cap allows
    payload = run_json(tmp_path, ["scaling", "--p", "0.3", "--n-list", "4194303"])
    row = payload["result"]["rows"][0]
    assert row["N"] == 4194303
    assert row["A_bits"] == pytest.approx(row["model_bits"], abs=1e-6)


@pytest.mark.parametrize("levels, n", [(2, 4194304), (3, 2097152)])
def test_scaling_beyond_the_support_cap_exits_3(tmp_path, capsys, levels, n):
    # one copy past the cap: either law powers to a support of 2^22 + 1
    if levels == 2:
        args = ["--p", "0.3"]
    else:
        psi = fr.PureState(np.full(3, 1 / math.sqrt(3)))
        args = ["--state", write_json(tmp_path / "psi3.json", fr.pure_state_to_json(psi)),
                "--charges", write_json(tmp_path / "c3.json", {"dim": 3, "charges": [0, 1, 2]})]
    out = tmp_path / "out.json"
    assert cli.run(["scaling", *args, "--n-list", str(n), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "resource limit: convolved support 4194305 exceeds 4194304\n"


def test_scaling_ladder_past_the_support_cap_exits_3(tmp_path, capsys, monkeypatch):
    # the default ladder runs 1..1000 and then 2^22 copies, whose support is 2^22 + 1:
    # it fails before any row is powered
    powered = []
    power_rows = scaling._power_rows
    monkeypatch.setattr(scaling, "_power_rows", lambda *a: powered.append(a) or power_rows(*a))
    out = tmp_path / "out.json"
    assert cli.run(["scaling", "--p", "0.3", "--copies", "4194304", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "resource limit: convolved support 4194305 exceeds 4194304\n"
    assert powered == []


def test_bounds_finite_and_su2(tmp_path, plus_state_file, z2_rep_file):
    payload = run_json(tmp_path, ["bounds", "--group", "finite", "--rep", z2_rep_file,
                                  "--state", plus_state_file, "--copies", "3"])
    assert payload["result"]["ok"] is True
    assert payload["result"]["rows"][0]["A_bits"] == pytest.approx(1.0, abs=1e-9)

    payload = run_json(tmp_path, ["bounds", "--group", "su2", "--qubits", "4"])
    res = payload["result"]
    assert res["measured_bits"] == pytest.approx(math.log2(15), abs=1e-8)
    assert res["exact_bits"] == pytest.approx(2 * math.log2(5))
    assert res["ok"] is True


def test_scaling_refuses_a_mixed_state(tmp_path, capsys):
    # the table is the entropy of the N-fold charge law: the asymmetry of N copies only for a
    # pure copy (this seeded qubit's diagonal law would read 0.988 bits at N = 1)
    rho = fr.random_density_operator(2, np.random.default_rng(7))
    second = float(np.sort(np.linalg.eigvalsh(rho.matrix))[-2])
    charges = write_json(tmp_path / "c2.json", {"dim": 2, "charges": [0, 1]})
    out = tmp_path / "out.json"
    args = ["scaling", "--state", write_json(tmp_path / "mixed.json", fr.density_to_json(rho)),
            "--charges", charges, "--out", str(out)]
    assert cli.run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: --state must be a pure state: its density matrix has "
                            f"second-largest eigenvalue {second:.6g} > 1e-10\n")
    # a pure copy given as a density matrix reads as its amplitudes do
    psi = fr.PureState([0.6, 0.8])
    rows = [run_json(tmp_path, ["scaling", "--state", write_json(tmp_path / name, doc), "--charges", charges,
                                "--copies", "20"])["result"]["rows"]
            for name, doc in (("psi.json", fr.pure_state_to_json(psi)),
                              ("rho.json", fr.density_to_json(psi.projector())))]
    assert [r["N"] for r in rows[0]] == [r["N"] for r in rows[1]]
    assert all(abs(a["A_bits"] - b["A_bits"]) <= 1e-12 for a, b in zip(*rows))


@pytest.mark.parametrize("copies", ["0", "-2"])
def test_bounds_finite_needs_a_copy(capsys, copies):
    # an empty table must not print "ok": true; the usage error names the option
    assert cli.run(["bounds", "--group", "finite", "--copies", copies]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("frameness bounds: error: argument --copies: "
                            f"must be a positive copy count, got '{copies}'\n")


def test_bounds_su2_refuses_copies(tmp_path, capsys):
    # --copies sets N for --group finite only; an su2 artifact records no copy count
    out = tmp_path / "out.json"
    assert cli.run(["bounds", "--group", "su2", "--qubits", "4", "--copies", "7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("frameness bounds: error: --copies sets N for --group finite; "
                            "--group su2 reads no copy count\n")
    assert "copies" not in run_json(tmp_path, ["bounds", "--group", "su2", "--qubits", "4"])["meta"]["config"]
    assert run_json(tmp_path, ["bounds", "--group", "finite"])["meta"]["config"]["copies"] == 3


def test_extremal_n_max_is_a_nonnegative_count(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.run(["extremal", "--group", "u1", "--n-max", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "frameness extremal: error: argument --n-max: must be a nonnegative count, got -1\n"
    assert captured.out == "" and not out.exists()


def test_scaling_rejects_a_state_and_grading_of_different_dimensions(tmp_path, capsys):
    # the last weight is 0, so only the dimensions tell that three levels meet two charges
    rho = write_json(tmp_path / "rho3.json",
                     fr.density_to_json(fr.DensityOperator(np.diag([0.5, 0.5, 0.0]))))
    charges = write_json(tmp_path / "c2.json", {"dim": 2, "charges": [0, 1]})
    assert cli.run(["scaling", "--state", rho, "--charges", charges, "--copies", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state dim 3 does not match grading dim 2\n"


def test_ree_family(tmp_path):
    payload = run_json(tmp_path, ["ree", "--family", "bell-diagonal", "--p", "0.75"])
    res = payload["result"]
    target = 1.0 - fr.binary_entropy(0.75)
    assert res["upper"] == pytest.approx(target, abs=1e-4)
    assert res["lower"] == pytest.approx(target, abs=1e-4)
    assert res["tight"] is True
    assert "theta" in res and "gamma" in res


def test_ree_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.run(["ree", "--sweep", "0.5,0.75",
                    "--format", "csv", "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "p,upper,lower,theta,gamma,tight"
    assert len(rows) == 3


def test_ree_state_file(tmp_path):
    bip = fr.bell_diagonal_state(0.9)
    state = write_json(tmp_path / "bell.json", fr.density_to_json(bip.state))
    payload = run_json(tmp_path, ["ree", "--state", state, "--dims", "2,2"])
    assert payload["result"]["upper"] == pytest.approx(1 - fr.binary_entropy(0.9), abs=1e-4)


def test_scaling_charges_without_a_state_is_an_error(tmp_path, capsys):
    # mirror of "--state also needs --charges": the grading is not silently dropped
    charges = write_json(tmp_path / "c2.json", {"dim": 2, "charges": [0, 1]})
    out = tmp_path / "out.json"
    assert cli.run(["scaling", "--charges", charges, "--copies", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --charges also needs --state, the per-copy state the grading applies to\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--subgroup", "4"], "--charges and --subgroup M go together"),
    (["--charges", "CHARGES"], "--charges and --subgroup M go together"),
    (["--charges", "CHARGES", "--subgroup", "0"], "--charges and --subgroup M go together"),
    (["--rep", "REP", "--charges", "CHARGES", "--subgroup", "3"], "--rep cannot be combined with --charges"),
    (["--rep", "REP", "--subgroup", "3"], "--rep cannot be combined with --charges or --subgroup"),
    (["--rep", "REP", "--charges", "CHARGES"], "--rep cannot be combined with --charges or --subgroup"),
    (["--subgroup", "-3"], "argument --subgroup: must be a nonnegative count, got -3"),
])
def test_estimate_options_that_would_be_dropped_are_usage_errors(tmp_path, capsys, args, message):
    qutrit = write_json(tmp_path / "q3.json", fr.pure_state_to_json(fr.PureState(np.ones(3) / math.sqrt(3))))
    files = {"CHARGES": write_json(tmp_path / "c3.json", {"dim": 3, "charges": [0, 1, 2]}),
             "REP": write_json(tmp_path / "q8.json", fr.finite_rep_to_json(fr.quaternion_rep()))}
    out = tmp_path / "out.json"
    argv = ["estimate", "--state", qutrit, *(files.get(a, a) for a in args), "--out", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("frameness estimate: error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


def test_estimate(tmp_path, plus_state_file):
    payload = run_json(tmp_path, ["estimate", "--state", plus_state_file, "--povms", "2"])
    res = payload["result"]
    assert res["A_G"] == pytest.approx(1.0, abs=1e-9)
    assert res["best_info"] == pytest.approx(1.0, abs=1e-9)
    assert res["ok"] is True
    assert res["povm"] == "srm"


def test_estimate_on_q8_reads_the_orbit_stack_bit_for_bit(tmp_path):
    # the SRM and every mutual information read the stack orbit_ensemble built; the orbit
    # states stacked anew for each POVM give the same bits
    rep = fr.quaternion_rep()
    rho = fr.random_density_operator(2, np.random.default_rng(4))
    rep_file = write_json(tmp_path / "q8.json", fr.finite_rep_to_json(rep))
    state_file = write_json(tmp_path / "rho.json", fr.density_to_json(rho))
    tried = run_json(tmp_path, ["estimate", "--rep", rep_file, "--state", state_file,
                                "--povms", "6", "--seed", "3"])["result"]["tried"]
    ens = fr.orbit_ensemble(cli._load_finite_rep(rep_file), cli._load_state(state_file))
    assert all(s.matrix.base is ens.matrices for s in ens.states)
    restacked = fr.OrbitEnsemble(ens.states)
    assert restacked.matrices is not ens.matrices
    rng = np.random.default_rng(3)
    povms = [fr.square_root_measurement(restacked)] + [fr.random_povm(2, 8, rng) for _ in range(6)]
    assert [t["info"] for t in tried] == [fr.mutual_information(restacked, m) for m in povms]


@pytest.mark.parametrize("argv, err", [
    (["extremal", "--group", "u1", "--n-max", "1000000000"],
     "the u1 state on 1000000001 levels: estimated 1.1e+12 bytes exceed the 4.29e+09-byte workspace budget"),
    (["extremal", "--group", "su2", "--qubits", "14"],
     "a 14-qubit register: estimated 3.44e+10 bytes exceed the 4.29e+09-byte workspace budget"),
    (["estimate", "--charges", "CHARGES", "--subgroup", "10000000", "--state", "STATE"],
     "group order 10000000 exceeds cap 64"),
    (["extremal", "--group", "u1", "--n-max", "9" * 400],
     f"the u1 state on 1{'0' * 400} levels: estimated inf bytes exceed the 4.29e+09-byte workspace budget"),
], ids=["u1-levels", "su2-qubits", "subgroup-order", "u1-levels-past-float-range"])
def test_an_oversize_request_is_refused_from_its_estimate(tmp_path, capsys, argv, err):
    charges = write_json(tmp_path / "c3.json", fr.charge_grading_to_json(fr.ChargeGrading([0, 1, 2])))
    state = write_json(tmp_path / "q3.json", fr.density_to_json(fr.DensityOperator(np.eye(3) / 3)))
    argv = [{"CHARGES": charges, "STATE": state}.get(a, a) for a in argv]
    cli.run(argv[:1] + ["--help"])  # warm lazy imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err == f"resource limit: {err}\n"
    assert peak < 2**20


def test_estimate_u1_subgroup(tmp_path, uniform4_state, charges4):
    payload = run_json(tmp_path, ["estimate", "--state", uniform4_state,
                                  "--charges", charges4, "--subgroup", "4"])
    res = payload["result"]
    assert res["A_G"] == pytest.approx(2.0, abs=1e-9)
    assert res["best_info"] <= res["A_G"] + 1e-8


def test_verify_passes_and_prints(capsys):
    assert cli.run(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # every check but the witness (two monotonicity flags) prints its threshold
    lines = out.splitlines()
    assert len(lines) == 10
    assert sum(any(k in line for k in ("(tol ", "(floor ", "(slack ")) for line in lines) == 9


def test_exit_codes(tmp_path):
    assert cli.run(["asymmetry", "--group", "u1", "--state", "/nonexistent.json",
                    "--charges", "/nonexistent.json"]) == 2
    bad = write_json(tmp_path / "bad.json",
                     {"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]})  # trace 2
    charges = write_json(tmp_path / "c.json", {"dim": 2, "charges": [0, 1]})
    assert cli.run(["asymmetry", "--group", "u1", "--state", bad, "--charges", charges]) == 2
    assert cli.run(["extremal", "--group", "su2", "--qubits", "14"]) == 3


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_ree_rejects_an_empty_grid(capsys, grid):
    # the scan's resolution is fixed: --grid is an unknown option, not a bad value
    assert cli.run(["ree", "--p", "0.8", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err == f"frameness ree: error: unrecognized arguments: --grid {grid}\n"


@pytest.mark.parametrize("args, message", [
    (["--p", "0.8", "--random-trials", "3"], "--random-trials searches bases of larger pairs"),
    (["--state", "RHO4", "--dims", "2,2", "--random-trials", "1"], "--random-trials searches bases of larger pairs"),
    (["--sweep", "0.5,0.7", "--random-trials", "2"], "--random-trials searches bases of larger pairs"),
    (["--sweep", "0.5,0.7", "--p", "0.8"], "--sweep runs the bell-diagonal family at its own weights"),
    (["--sweep", "0.5", "--state", "RHO4"], "--sweep runs the bell-diagonal family at its own weights"),
])
def test_ree_options_that_would_be_dropped_are_usage_errors(tmp_path, capsys, args, message):
    rho4 = write_json(tmp_path / "rho4.json", fr.density_to_json(fr.DensityOperator(np.eye(4) / 4)))
    out = tmp_path / "out.json"
    assert cli.run(["ree", *(rho4 if a == "RHO4" else a for a in args), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("frameness ree: error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize("args, option", [
    (["ree", "--dims", "2,3", "--random-trials", "-5"], "--random-trials"),
    (["ree", "--p", "0.8", "--random-trials", "-1"], "--random-trials"),
    (["estimate", "--povms", "-3"], "--povms"),
])
def test_negative_counts_are_usage_errors(tmp_path, capsys, args, option):
    rho = fr.DensityOperator(np.diag([0.3, 0.1, 0.2, 0.1, 0.2, 0.1]))
    state = write_json(tmp_path / "rho.json", fr.density_to_json(rho))
    out = tmp_path / "out.json"
    assert cli.run(args + ["--state", state, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be a nonnegative count, got -" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["2,2,2", "a,b", "0,4", "2"])
def test_ree_dims_must_be_two_positive_integers(tmp_path, capsys, dims):
    state = write_json(tmp_path / "rho.json", fr.density_to_json(fr.DensityOperator(np.eye(4) / 4)))
    out = tmp_path / "out.json"
    assert cli.run(["ree", "--state", state, "--dims", dims, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument --dims: must be two positive integers dA,dB, got '{dims}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sweep, entry", [("0.5,abc", "entry 2 of '0.5,abc' is 'abc'"),
                                          ("0.5,1.5", "entry 2 of '0.5,1.5' is '1.5'"),
                                          ("-0.1", "entry 1 of '-0.1' is '-0.1'"),
                                          ("0.5,,0.6", "entry 2 of '0.5,,0.6' is ''"),
                                          ("nan", "entry 1 of 'nan' is 'nan'")])
def test_ree_sweep_entries_must_be_weights(tmp_path, capsys, sweep, entry):
    out = tmp_path / "out.json"
    assert cli.run(["ree", "--sweep", sweep, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument --sweep: {entry}, not a weight in [0, 1]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--n-list", "10,abc"], "argument --n-list: entry 2 of '10,abc' is 'abc', not a positive copy count"),
    (["--n-list", "10,0"], "argument --n-list: entry 2 of '10,0' is '0', not a positive copy count"),
    (["--n-list", "2.5"], "argument --n-list: entry 1 of '2.5' is '2.5', not a positive copy count"),
    (["--p", "1.5"], "argument --p: must be a weight in [0, 1], got '1.5'"),
    (["--p", "nan"], "argument --p: must be a weight in [0, 1], got 'nan'"),
    (["--p", "abc"], "argument --p: must be a weight in [0, 1], got 'abc'"),
    (["--copies", "-3"], "argument --copies: must be a positive copy count, got '-3'"),
    (["--copies", "0"], "argument --copies: must be a positive copy count, got '0'"),
    (["--copies", "abc"], "argument --copies: must be a positive copy count, got 'abc'"),
])
def test_scaling_bad_values_are_one_line_usage_errors(tmp_path, capsys, args, message):
    out = tmp_path / "out.json"
    assert cli.run(["scaling", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"frameness scaling: error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_scaling_records_its_values_as_written(tmp_path):
    payload = run_json(tmp_path, ["scaling", "--p", "0.30", "--copies", "07", "--n-list", "10,020"])
    assert payload["meta"]["config"] == {"constant": "bits", "copies": 7, "n_list": "10,020",
                                         "p": 0.3, "seed": 0}
    assert [row["N"] for row in payload["result"]["rows"]] == [10, 20]


def test_ree_records_the_sweep_as_written(tmp_path):
    payload = run_json(tmp_path, ["ree", "--sweep", "0.50,1e-0"])
    assert payload["meta"]["config"]["sweep"] == "0.50,1e-0"
    assert [row["p"] for row in payload["result"]] == [0.5, 1.0]


def test_ree_records_dims_as_written(tmp_path):
    rho = fr.DensityOperator(np.diag([0.3, 0.1, 0.2, 0.1, 0.2, 0.1]))
    state = write_json(tmp_path / "rho.json", fr.density_to_json(rho))
    payload = run_json(tmp_path, ["ree", "--state", state, "--dims", "2,3"])
    assert payload["meta"]["config"]["dims"] == "2,3"
    assert payload["result"]["upper"] == pytest.approx(
        fr.dephasing_upper_bound(fr.BipartiteState(2, 3, rho), np.eye(3)), abs=1e-12)


def test_bounds_su2_design_bound_holds_only_for_small_registers(tmp_path):
    # 2 log2(N+1) bounds N-copy states; the maximal-asymmetry state is not
    # one, and from 8 qubits on its asymmetry exceeds the bound
    small = run_json(tmp_path, ["bounds", "--group", "su2", "--qubits", "4"])["result"]
    assert small["ok"] is True
    assert small["measured_bits"] == pytest.approx(math.log2(15), abs=1e-8)
    large = run_json(tmp_path, ["bounds", "--group", "su2", "--qubits", "10"])["result"]
    assert large["ok"] is False
    assert large["measured_bits"] == pytest.approx(fr.max_su2_asymmetry_value(5), abs=1e-8)
    assert large["exact_bits"] == pytest.approx(2 * math.log2(11))


_SCIPY_PROBE = """
import json, sys
import frameness, frameness.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
for argv in json.loads(sys.argv[1]):
    assert frameness.cli.run(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_bounds_finite_refuses_an_oversize_qubit_workspace_before_allocating(capsys):
    rep = fr.quaternion_rep()
    cli.run(["bounds", "--group", "finite", "--copies", "2", "--out", os.devnull])  # warm lazy imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.run(["bounds", "--group", "finite", "--copies", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    work = rep.order * 100000**4  # |G| N^4 > 2^35
    assert captured.err == (f"resource limit: work |G| N^4 = {work:.3g} for N <= 100000 exceeds 2^35 "
                            "(Q8 to N = 256, about 4 s)\n")
    assert peak < 2**20  # the Schur-Weyl workspace alone would be |G| (N + 1)^2 complex entries


@pytest.mark.parametrize("dim, copies", [(4, 7), (128, 2)])
def test_bounds_finite_refuses_an_oversize_qudit_mean_before_allocating(tmp_path, capsys, monkeypatch,
                                                                        dim, copies):
    rep = write_json(tmp_path / "rep.json", fr.finite_rep_to_json(fr.cyclic_phase_rep(np.arange(dim) % 2, 2)))
    state = write_json(tmp_path / "rho.json", fr.density_to_json(fr.DensityOperator(np.eye(dim) / dim)))

    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the estimate")

    monkeypatch.setattr(np, "zeros", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    assert cli.run(["bounds", "--group", "finite", "--rep", rep, "--state", state,
                    "--copies", str(copies)]) == 3
    top = dim**copies  # 16384: the mean and one power are 2 x 4.3 GB
    assert capsys.readouterr().err == (f"resource limit: {copies} copies of a d = {dim} state: estimated "
                                       f"{16 * (2 * top**2 + (top // dim)**2):.3g} bytes exceed the "
                                       "4.29e+09-byte workspace budget\n")


def test_bounds_finite_caps_the_qubit_work_before_any_block(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a block was formed before the work cap")

    monkeypatch.setattr(scaling, "_qubit_block_gaps", forbidden)
    assert cli.run(["bounds", "--group", "finite", "--copies", "257"]) == 3  # Q8: 8 * 257^4 > 2^35
    assert capsys.readouterr().err == ("resource limit: work |G| N^4 = 3.49e+10 for N <= 257 exceeds "
                                       "2^35 (Q8 to N = 256, about 4 s)\n")


def test_bounds_finite_reports_the_conjugation_ceiling(tmp_path, plus_state_file, z2_rep_file):
    res = run_json(tmp_path, ["bounds", "--group", "finite", "--copies", "20"])["result"]
    assert res["group_order"] == 8 and res["conjugation_bits"] == 2.0 and res["ok"] is True
    assert [row["N"] for row in res["rows"]] == list(range(1, 21))
    assert all(row["A_bits"] <= 2.0 + 1e-12 and row["bound_bits"] == 3.0 for row in res["rows"])
    res = run_json(tmp_path, ["bounds", "--group", "finite", "--rep", z2_rep_file,
                              "--state", plus_state_file, "--copies", "2"])["result"]
    assert res["conjugation_bits"] == 1.0


def test_no_subcommand_loads_scipy(tmp_path, plus_state_file, z2_rep_file):
    psi = fr.PureState(np.full(16, 0.25))
    state16 = write_json(tmp_path / "psi16.json", fr.pure_state_to_json(psi))
    bip23 = write_json(tmp_path / "bip23.json", fr.density_to_json(
        fr.random_density_operator(6, np.random.default_rng(0))))
    out = ["--out", str(tmp_path / "out.json")]
    runs = [["scaling"] + out,
            ["asymmetry", "--group", "su2", "--qubits", "4", "--state", state16] + out,
            ["twirl", "--group", "finite", "--rep", z2_rep_file, "--state", plus_state_file] + out,
            ["extremal", "--group", "su2", "--qubits", "4"] + out,
            ["bounds", "--group", "finite"] + out,
            ["estimate", "--state", plus_state_file] + out,
            ["ree", "--p", "0.75"] + out,
            ["ree", "--sweep", "0.6,0.9"] + out,
            ["ree", "--state", bip23, "--dims", "2,3", "--random-trials", "3"] + out,
            ["verify", "--seed", "0"] + out]
    assert {argv[0] for argv in runs} == set(cli.COMMANDS)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fr.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p", ["0.75", "0.95"])
def test_ree_reports_the_gamma_free_optimum_as_zero_angles(tmp_path, p):
    texts = []
    for k in range(2):
        out = tmp_path / f"ree{k}.json"
        assert cli.run(["ree", "--p", p, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    res = json.loads(texts[0])["result"]
    assert (res["theta"], res["gamma"]) == (0.0, 0.0)
    assert res["tight"] is True


_FRESH_RUNS = """
import json, sys
import frameness.cli
for argv in json.loads(sys.argv[1]):
    assert frameness.cli.run(argv) == 0, argv
"""


def _run_in_fresh_interpreter(argvs):
    """Run each argv in one new interpreter, where each is the first call of its subcommand."""
    assert len({argv[0] for argv in argvs}) == len(argvs)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fr.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUNS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_reused_parsers_leak_no_state(tmp_path, capsys, uniform4_state, charges4,
                                      plus_state_file, z2_rep_file):
    # each second run drops --seed and --format and changes --out and a command option
    # the first run set, so a value left over on a reused parser would show in its artifact
    z2, plus = ["--rep", z2_rep_file], ["--state", plus_state_file]
    pairs = {
        "asymmetry": (["--group", "u1", "--charges", charges4, "--state", uniform4_state],
                      ["--group", "finite", *z2, *plus]),
        "twirl": (["--group", "finite", *z2, *plus], ["--group", "u1", "--state", uniform4_state]),
        "extremal": (["--group", "u1", "--n-max", "3"], ["--group", "su2", "--qubits", "2"]),
        "scaling": (["--p", "0.3", "--copies", "30"], ["--copies", "20"]),
        "bounds": (["--group", "finite", *z2, *plus, "--copies", "2"], ["--group", "finite"]),
        "ree": (["--p", "0.75"], ["--sweep", "0.6,0.9"]),
        "estimate": ([*plus, "--povms", "2"], plus),
        "verify": ([], []),
    }
    assert set(pairs) == set(cli.COMMANDS)
    runs = [[[name, *first, "--seed", "3", "--format", "csv", "--out", str(tmp_path / f"{name}-1.csv")]
             for name, (first, _) in pairs.items()],
            [[name, *second, "--out", str(tmp_path / f"{name}-2.json")]
             for name, (_, second) in pairs.items()]]
    fresh = {}
    for argvs in runs:
        _run_in_fresh_interpreter(argvs)
        fresh.update({argv[-1]: open(argv[-1], "rb").read() for argv in argvs})
    for first, second in zip(*runs):
        for argv in (first, second, first, second):
            assert cli.run(argv) == 0, argv
            assert open(argv[-1], "rb").read() == fresh[argv[-1]], argv
    capsys.readouterr()
    scaling_second = runs[1][list(pairs).index("scaling")]
    assert cli.run(["scaling", "--help"]) == 0
    assert "--n-list" in capsys.readouterr().out
    assert cli.run(["scaling", "--p", "1.5"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert cli.run(scaling_second) == 0
    assert open(scaling_second[-1], "rb").read() == fresh[scaling_second[-1]]


_PARSER_COUNT = """
import argparse, os
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs["prog"])
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import frameness.cli
assert built == [], ("import", built)
for seed in ("0", "1", "2"):
    assert frameness.cli.run(["scaling", "--copies", "5", "--seed", seed, "--out", os.devnull]) == 0
assert frameness.cli.run(["scaling", "--help"]) == 0
assert built == ["frameness scaling"], built
"""


def test_import_builds_no_parser_and_a_command_builds_one():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fr.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PARSER_COUNT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_out_is_overwritten_in_place_without_a_stale_tail(tmp_path, capsys):
    argv = ["scaling", "--p", "0.3", "--copies", "50"]
    assert cli.run(argv) == 0
    text = capsys.readouterr().out
    want = tmp_path / "want.json"
    with open(want, "w") as fh:
        fh.write(text)
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * (3 * len(text)))
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert cli.run(argv + ["--out", os.devnull]) == 0


@pytest.mark.parametrize("text", ["a\nb\n", "# config={\"state\": \"café.json\"}\r\nN\n1\n", ""])
def test_out_bytes_equal_a_text_mode_write(tmp_path, text):
    want, out = tmp_path / "want.txt", tmp_path / "out.txt"
    with open(want, "w") as fh:
        fh.write(text)
    out.write_bytes(b"stale " * 20)
    cli._write(text, str(out))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_a_new_out_file_gets_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        cli._write("x\n", str(tmp_path / "new.txt"))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o666 & ~umask
