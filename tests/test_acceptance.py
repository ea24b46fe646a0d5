"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Heavy criteria parallelize
across processes; every run is reproducible from fixed seeds.
"""

import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from slidingbloom import INFINITE, InsertOverflow, SlidingFilter, derive, load_filter, save_filter
from slidingbloom.prng import SplitMix64

from checked_filter import CheckedFilter
from fpr_seed_grid import measure_fpr
from reference_model import CRITERION_6_CONFIGS, sweep_mismatches
from space_sweep import bound_bits, space_report
from stream_patterns import all_same, burst_edges, random_pool, round_robin
from validation_drivers import (
    CRITERION_6_STRESS_CONFIGS,
    census_false_positives,
    stress_label_safety,
)
from window_oracle import WindowOracle

WORKERS = min(2, os.cpu_count() or 1)

GRID_N = (100, 1000, 10_000)
GRID_EPS_NFN = (2**-4, 2**-10)
GRID_EPS_FPR = (2**-4, 2**-6)


def _m_values(n, eps):
    level = math.log2(1 / eps)
    return (1, max(1, round(n / level)), n, INFINITE)


def _announce(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {state} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1: no false negatives anywhere on the grid --------------------

def _nfn_stream(kind, length, n, seed):
    if kind == 0:
        return random_pool(length, max(4, (3 * n) // 4), seed)  # duplicate-heavy
    if kind == 1:
        return round_robin(length, n + 1)
    if kind == 2:
        return burst_edges(length, n, seed)
    return random_pool(length, 4 * n, seed, base=10**9)  # sparser mix


def _nfn_run(args):
    n, m, eps, kind, length, seed = args
    filt = SlidingFilter.create(n, m, eps, seed=seed)
    oracle = WindowOracle(n, m)
    stream = _nfn_stream(kind, length, n, seed)
    step = max(1, length // 10)
    violations = 0
    checks = 0
    for t, x in enumerate(stream):
        filt.insert(x)
        oracle.push(x)
        if t % step == step - 1 or t == length - 1:
            for w in oracle.window_distinct():
                checks += 1
                if not filt.query(w):
                    violations += 1
    return violations, checks, len(stream)


def test_criterion_1_no_false_negatives():
    t0 = time.perf_counter()
    tasks = []
    stream_no = 0
    for n in GRID_N:
        for eps in GRID_EPS_NFN:
            for m in _m_values(n, eps):
                for k in range(4):
                    length = int(n * (2.2 + 0.2 * k))
                    tasks.append((n, m, eps, (stream_no + k) % 4, length, 1000 + stream_no + k))
                stream_no += 4
    # reach 100 streams, including one at the top of the length range
    tasks.append((1000, 1000, 2**-4, 0, 1_000_000, 4242))
    tasks.append((100, INFINITE, 2**-4, 1, 5000, 77))
    tasks.append((100, 1, 2**-10, 3, 5000, 78))
    tasks.append((100, 100, 2**-4, 2, 5000, 79))
    assert len(tasks) == 100

    violations = 0
    checks = 0
    inserted = 0
    with ProcessPoolExecutor(WORKERS) as pool:
        for v, c, ln in pool.map(_nfn_run, tasks, chunksize=4):
            violations += v
            checks += c
            inserted += ln
    dt = time.perf_counter() - t0
    _announce(1, "no false negatives", violations == 0,
              f"- {len(tasks)} streams, {inserted} inserts, {checks} window checks, "
              f"{violations} violations, {dt:.0f}s")


# -- criterion 2: false-positive rate within eps + 3 sigma -------------------

def _fpr_task(args):
    n, m, eps, seed = args
    m_fin = 0 if m == INFINITE else m
    stream_len = n + m_fin + max(10, n)
    rep = measure_fpr(n, m, eps, stream_len=stream_len, trials=100_000, seed=seed)
    return (n, str(m), eps), rep["passed"], rep["estimate"]


def test_criterion_2_fpr_bound():
    t0 = time.perf_counter()
    tasks = []
    for n in GRID_N:
        for eps in GRID_EPS_FPR:
            for m in _m_values(n, eps):
                for seed in range(30):
                    tasks.append((n, m, eps, seed))
    failures = {}
    worst = 0.0
    with ProcessPoolExecutor(WORKERS) as pool:
        for key, passed, estimate in pool.map(_fpr_task, tasks, chunksize=10):
            failures.setdefault(key, 0)
            if not passed:
                failures[key] += 1
            worst = max(worst, estimate - key[2])
    bad = {k: v for k, v in failures.items() if v > 1}
    dt = time.perf_counter() - t0
    _announce(2, "fpr within eps + 3 sigma", not bad,
              f"- {len(tasks)} runs over {len(failures)} configs, "
              f"seed failures per config <= 1 required, offenders {bad}, {dt:.0f}s")


# -- criterion 3: absolute false-positive census ------------------------------

def test_criterion_3_census_absolute():
    t0 = time.perf_counter()
    configs = [
        (100, 100, 0.1, 10007),
        (500, 100, 0.05, 100_003),
        (1000, 1000, 0.05, 1_000_003),
    ]
    all_ok = True
    details = []
    for n, m, eps, u in configs:
        for seed in range(3):
            rep = census_false_positives(n, m, eps, seed=seed, u=u)
            all_ok &= rep.passed
            details.append(f"u={rep.u}: {rep.max_false_positives}/{rep.bound:.0f}")
    dt = time.perf_counter() - t0
    _announce(3, "absolute census bound", all_ok,
              f"- worst counts vs bounds {details[::3]}, {dt:.0f}s")


# -- criterion 4: constant work per operation ---------------------------------

def _churn_task(args):
    seed, inserts = args
    filt = SlidingFilter.create(10_000, 10_000, 2**-8, seed=seed)
    base = seed * 10**12
    try:
        for x in range(base, base + inserts):
            filt.insert(x)
    except InsertOverflow:
        # the filter refuses every use after an overflow
        return 1, 0, 0, 0
    rng = SplitMix64(seed + 5000)
    for _ in range(2000):
        filt.query(rng.below(2**63))
    cost = filt.step_cost_stats()
    return 0, cost.max_kick_chain, cost.query_cells_max, cost.insert_cells_max_no_kicks


def test_criterion_4_constant_work():
    t0 = time.perf_counter()
    params = derive(10_000, 10_000, 2**-8, 2**64)
    filt_probe = SlidingFilter(params, 0)
    active_load = params.dict_capacity / filt_probe.dictionary.capacity_cells
    assert active_load <= 0.9

    per_seed = -(-10_000_000 // 30)
    tasks = [(seed, per_seed) for seed in range(30)]
    overflows = 0
    max_chain = 0
    q_max = 0
    ins_max = 0
    with ProcessPoolExecutor(WORKERS) as pool:
        for ov, chain, qm, im in pool.map(_churn_task, tasks, chunksize=3):
            overflows += ov
            max_chain = max(max_chain, chain)
            q_max = max(q_max, qm)
            ins_max = max(ins_max, im)
    ok = overflows == 0 and max_chain < 500 and q_max <= 8 and ins_max <= 10
    dt = time.perf_counter() - t0
    _announce(4, "constant work", ok,
              f"- {30 * per_seed} inserts over 30 seeds at load {active_load:.3f}: "
              f"query cells <= {q_max}, kick-free insert cells <= {ins_max}, "
              f"max kick chain {max_chain}, overflows {overflows}, {dt:.0f}s")


# -- criterion 5: space ratio --------------------------------------------------

def test_criterion_5_space_ratio():
    r10 = space_report(2**16, 2**16, 2**-10, seed=0)
    r6 = space_report(2**16, 2**16, 2**-6, seed=0)
    ok = 1.0 <= r10["ratio"] <= 2.5 and 1.0 <= r6["ratio"] <= 3.0
    # the leading-term formula stays exact as a pure function
    ok &= bound_bits(1024, INFINITE, 2**-8) == 11264
    ok &= bound_bits(2048, 2, 2**-4) == 28672
    ok &= r10["counters_and_hash_bits"] / r10["measured_bits"] <= 0.01
    _announce(5, "space ratio", ok,
              f"- eps=2^-10 ratio {r10['ratio']:.3f} (<= 2.5), "
              f"eps=2^-6 ratio {r6['ratio']:.3f} (<= 3.0)")


# -- criterion 6: label safety and reference-model agreement -----------------

def _stress_task(cfg):
    n, m, eps = cfg
    rep = stress_label_safety(n, m, eps, steps=1_000_000, seed=97)
    return rep.passed, rep.label_violations, rep.fn_failures


def test_criterion_6_label_safety_and_reference_model_agreement():
    t0 = time.perf_counter()
    ok = True
    with ProcessPoolExecutor(WORKERS) as pool:
        for passed, viol, fn in pool.map(_stress_task, CRITERION_6_STRESS_CONFIGS):
            ok &= passed and viol == 0 and fn == 0

    mismatches = 0
    for n, m, eps, u, steps in CRITERION_6_CONFIGS:
        f = CheckedFilter.create(n, m, eps, u=u, seed=6)
        mismatches += sweep_mismatches(f, u, steps, stream_seed=u * 3 + n)
    ok &= mismatches == 0
    dt = time.perf_counter() - t0
    _announce(6, "label safety and reference-model agreement", ok,
              f"- 3x1e6 checked steps clean, exhaustive model sweeps "
              f"mismatches {mismatches}, {dt:.0f}s")


# -- criterion 7: hash family properties ---------------------------------------

def test_criterion_7_hash_family():
    t0 = time.perf_counter()
    ok = True

    # exhaustive pairwise universality at the top of the small-prime range
    for p, range_size in [(97, 4), (499, 16), (997, 4), (997, 64)]:
        counts = np.zeros((p, p), dtype=np.int32)
        xs = np.arange(p, dtype=np.int64)
        for a in range(1, p):
            h = (a * xs) % p % range_size
            counts += h[:, None] == h[None, :]
        off = counts[~np.eye(p, dtype=bool)]
        ok &= off.max() <= 2 * (p - 1) / range_size

    # exact bin balance at u = p for every multiplier, p just under 1e4
    p = 9973
    xs = np.arange(p, dtype=np.int64)
    for range_size in (64, 1000):
        lo, hi = p // range_size, -(-p // range_size)
        for a in range(1, p):
            sizes = np.bincount((a * xs) % p % range_size, minlength=range_size)
            if not (sizes.min() >= lo and sizes.max() <= hi):
                ok = False
                break
    dt = time.perf_counter() - t0
    _announce(7, "hash family properties", ok,
              f"- universality <= 2/R exhaustive to p=997, "
              f"bin balance exact for all {p - 1} multipliers at p={p}, {dt:.0f}s")


# -- criterion 8: determinism and serialization --------------------------------

def _drive(seed, snapshot_at=None):
    filt = SlidingFilter.create(500, 125, 2**-6, seed=seed)
    stream = random_pool(4000, 800, seed=31)
    answers = []
    blob = None
    for t, x in enumerate(stream):
        answers.append(filt.query(x))
        filt.insert(x)
        if snapshot_at is not None and t == snapshot_at:
            buf = io.BytesIO()
            save_filter(filt, buf)
            blob = buf.getvalue()
    rep = measure_fpr(500, 125, 2**-6, stream_len=1200, trials=20_000, seed=seed)
    return answers, blob, rep


def test_criterion_8_determinism_and_serialization():
    a1, blob1, rep1 = _drive(3, snapshot_at=2000)
    a2, blob2, rep2 = _drive(3, snapshot_at=2000)
    ok = a1 == a2 and blob1 == blob2 and rep1 == rep2

    restored = load_filter(blob1)
    buf = io.BytesIO()
    save_filter(restored, buf)
    ok &= buf.getvalue() == blob1

    # restored filter must continue the stream identically
    original = SlidingFilter.create(500, 125, 2**-6, seed=3)
    stream = random_pool(4000, 800, seed=31)
    for x in stream[:2001]:
        original.insert(x)
    tail = stream[2001:]
    for x in tail:
        original.insert(x)
        restored.insert(x)
    probes = random_pool(3000, 800, seed=99)
    ok &= all(original.query(x) == restored.query(x) for x in probes)
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    save_filter(original, buf1)
    save_filter(restored, buf2)
    ok &= buf1.getvalue() == buf2.getvalue()
    _announce(8, "determinism and serialization", ok)
