"""Tests of the benchmark itself, on small configurations of its workloads.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench import workloads as wl
from slidingbloom import cli, prng
from slidingbloom.dictionary import Dictionary
from slidingbloom.filter import SlidingFilter

from .conftest import ROOT

# the full workloads with a window small enough to finish in seconds
SMOKE = {
    "steady-distinct": {"n": 2000},
    "dedup-text-zipf": {"n": 500, "m": 500},
    "dedup-binary-tiny-eps": {"n": 500},
}
SECONDS = 0.5


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, filter_cls=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return bench.run(workload, 3, SECONDS, trace, tmp_path, filter_cls=filter_cls,
                     overrides=SMOKE[workload])


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, workload):
    originals = {(owner, name): vars(owner)[name] for owner, name in
                 [(SlidingFilter, "insert"), (SlidingFilter, "query"),
                  (Dictionary, "insert_or_update"), (Dictionary, "member"),
                  (Dictionary, "scan_step"), (cli, "fnv1a64")]}
    report, result = _run(tmp_path, workload, trace=True)
    spec = _benchmark_json()

    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec["end_to_end"]:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
        value = report["metrics"][m["name"]]["value"]
        # a filter this small can grow inside memory the process already holds
        assert value >= 0 if m["name"] == "peak_rss_mib" else value > 0
    assert report["span_accounting"]["span_nesting_violations"] == 0
    assert report["span_accounting"]["insert_time_accounted"] == pytest.approx(1.0)
    # every patched attribute is back in place
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original
    assert cli.fnv1a64 is prng.fnv1a64


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    _, result = _run(tmp_path, "dedup-text-zipf", trace=False)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_counts_repeat_for_a_seed(tmp_path):
    first, _ = _run(tmp_path / "a", "steady-distinct", trace=True)
    second, _ = _run(tmp_path / "b", "steady-distinct", trace=True)
    assert first["input_digests"] == second["input_digests"]
    for name in ("dictionary.insert_cells_p50", "dictionary.insert_cells_p99",
                 "dictionary.insert_cells_p999", "dictionary.insert_cells_max",
                 "dictionary.kicked_insert_share", "filter.rebuilds", "false_positive_rate"):
        assert first["metrics"][name] == second["metrics"][name]


class AnswersNo(SlidingFilter):
    def query(self, x):
        return False


class AnswersYes(SlidingFilter):
    def query(self, x):
        return True


@pytest.mark.parametrize("stub, problem", [
    (AnswersNo, "in-window elements answered No"),
    (AnswersYes, "answered Yes without a fingerprint collision"),
    (AnswersYes, "above eps + 3 sigma"),
])
def test_stub_filter_trips_the_answer_checks(tmp_path, monkeypatch, stub, problem):
    monkeypatch.setattr(cli, "SlidingFilter", stub)
    report, result = _run(tmp_path, "steady-distinct", trace=False, filter_cls=stub)
    assert not result["correct"]
    assert result["metrics"] == {}
    assert any(problem in p for p in report["problems"])
    assert "query" in vars(stub) and "insert" not in vars(stub)


def test_dedup_flagged_bounds():
    tally = wl.Tally()
    classes = bytes([wl.WINDOW, wl.WINDOW, wl.SLACK, wl.COLLIDES, wl.OUT])
    for flagged in (2, 3, 4):
        tally.flagged("ok", flagged, classes)
    assert tally.problems == []
    tally.flagged("low", 1, classes)
    tally.flagged("high", 5, classes)
    assert len(tally.problems) == 2


def test_fp_allowance_matches_three_sigma_for_large_samples():
    k, eps = 200_000, 2.0 ** -10
    three_sigma = eps * k + 3 * (eps * (1 - eps) * k) ** 0.5
    assert abs(wl.fp_allowance(k, eps) - three_sigma) <= 3
    # below one expected false positive the exact tail still allows some
    assert wl.fp_allowance(180_000, 2.0 ** -20) == 2


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steady-distinct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
