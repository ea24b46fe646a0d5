"""The validation drivers' front ends, run in-process through main()."""

import hashlib
import json

import pytest

import fpr_seed_grid
import search_tail
import space_sweep


def run(capsys, script, *argv):
    code = script.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


FPR_ONE_SEED = ("-n", "200", "-m", "50", "-e", "0.0625", "-T", "2000",
                "--seed", "4", "--seeds", "1", "--workers", "1")


def test_fpr_grid_json(capsys):
    code, out, _ = run(capsys, fpr_seed_grid, *FPR_ONE_SEED)
    assert code == 0
    rep, summary = (json.loads(line) for line in out.splitlines())
    assert rep["schema"] == "slidingbloom.fpr/1"
    assert (rep["seed"], rep["trials"], rep["m"]) == (4, 2000, 50)
    assert rep["stream_len"] == 200 + 50 + 200  # n + finite(m) + max(10, n)
    assert rep["passed"] is True
    assert summary["schema"] == "slidingbloom.fpr-grid/1"
    assert summary["failed_seeds"] == []
    assert summary["worst_estimate"] == rep["estimate"]


def test_fpr_grid_explicit_zero_stream_len_exits_2(capsys):
    # an explicit 0 is refused, not replaced by the default length
    code, out, err = run(capsys, fpr_seed_grid, *FPR_ONE_SEED, "--stream-len", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: stream_len must be >=")


def test_fpr_grid_underpowered_exit_4(capsys):
    code, out, err = run(capsys, fpr_seed_grid, "-n", "100", "-m", "10",
                         "-e", "0.0009765625", "--seed", "4", "-T", "1000",
                         "--seeds", "1", "--workers", "1")
    assert code == 4
    assert json.loads(out.splitlines()[0])["underpowered"] is True
    assert "underpowered" in err


def test_space_sweep_ratio(capsys):
    code, out, _ = run(capsys, space_sweep, "--n", "65536", "--eps-pow", "10")
    assert code == 0
    header, row = out.splitlines()
    assert header.split("\t") == ["n", "epsilon", "measured_bits", "bound_bits",
                                  "ratio", "bits_per_element"]
    n, eps, measured, bound, ratio, _ = row.split("\t")
    assert (n, eps) == ("65536", "2^-10")
    assert float(ratio) == pytest.approx(int(measured) / float(bound), abs=1e-3)
    rep = space_sweep.space_report(65536, 65536, 2**-10, seed=0)
    assert rep["measured_bits"] == int(measured)
    assert rep["ratio"] == rep["measured_bits"] / rep["bound_bits"]


def test_space_sweep_invalid_parameters_exit_2(capsys):
    code, out, err = run(capsys, space_sweep, "--n", "0", "--eps-pow", "6")
    assert code == 2
    assert out == ""
    assert err == "error: window size n must be a positive integer, got 0\n"


def test_fpr_grid_parses_slack_as_dedup(capsys):
    code, out, _ = run(capsys, fpr_seed_grid, "-n", "200", "-m", " Infinity", "-e", "0.0625",
                       "-T", "2000", "--seeds", "1", "--workers", "1")
    assert code == 0
    rep = json.loads(out.splitlines()[0])
    assert (rep["m"], rep["seed"], rep["stream_len"]) == ("inf", 0, 400)


@pytest.mark.parametrize("argv, message", [
    (("-e", "1.5", "--seeds", "1"), "error: epsilon must be"),
    (("-e", "0.0625", "--seeds", "0"), "error: --seeds must be >= 1"),
    (("-e", "0.0625", "-T", "5"), "error: trials must be >= 10"),
])
def test_fpr_grid_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, fpr_seed_grid, "-n", "200", "--workers", "1", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_search_tail_pins_search_sizes(capsys):
    # the search sizes of two seeds at the design load and at the four
    # MIN_DICT_ELEMENTS floor geometries, pinned by the whole output
    code, out, err = run(capsys, search_tail, "0", "1")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()]
    assert [row[-2:] for row in rows[1:]] == [["36", "0"], ["2", "0"], ["4", "0"],
                                              ["11", "0"], ["20", "0"]]
    assert len(out.encode()) == 390
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca2c6827e4325ff721a32f46d8d2d88939725f30ea2465dccb69d83e9780ccfa")
