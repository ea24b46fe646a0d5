"""Workloads, inputs, timed rounds and correctness checks of the benchmark.

Every workload is a closed loop with one caller: the library is
single-writer and synchronous, so no queue can build up, and throughput
is work per second at the workload's configuration. Latency is the
duration of each public call (``SlidingFilter.insert`` and ``query``),
timed with ``perf_counter_ns`` by a wrapper around it. GC stays on.

steady-distinct
    Library calls with n=100000, m=inf, eps=2^-10 on distinct seeded
    64-bit elements. An untimed warm-up of one full label cycle,
    (2c+3)*g inserts, lets the scanner lap the table and warms the
    placement cache. Each round then times a block of inserts, a block
    of queries (half in-window elements, half never inserted) and a
    save/load of the steady-state filter. The cuckoo eviction walk and
    the scanner do most of the work; tokenizing and CLI I/O do none.
    Its dedup figure comes from a short binary CLI run over distinct
    words while a fresh filter fills, because every workload reports
    every end-to-end metric.
dedup-text-zipf
    ``slidingbloom.cli.main(["dedup", ...])`` in-process on a text file
    of Zipf(1.2) tokens over a 50k-word vocabulary, n=m=10000,
    eps=2^-10. Most items repeat, so inserts take the bucket-match
    update path and queries hit; the eviction walk is nearly idle while
    the CLI loop and the pure-Python FNV-1a token hash carry a large
    share.
dedup-binary-tiny-eps
    The same entry point with ``--format binary`` on seeded LE64 words,
    10% of them repeats of a word from the last 20k positions, n=10000,
    m=inf, eps=2^-20. Quotients are 22 bits wide, so the placement mix
    cache grows with every new quotient class and resident memory
    dwarfs ``bits_used()``.

The dedup workloads take insert and query latency from the calls the
CLI makes. A run is ROUNDS rounds, each doing a slice of every timed
measurement, and each slice is bracketed by a calibration loop that
measures how fast the machine runs at that moment (see calibrate).
Inputs are a pure function of (workload, seed) and are generated before
any filter is built; the amount of work is a pure function of
(workload, --seconds), so counts repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zlib
from array import array
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from slidingbloom import cli
from slidingbloom.dictionary import BUCKET_SIZE, Dictionary
from slidingbloom.filter import DEFAULT_UNIVERSE, SlidingFilter
from slidingbloom.params import INFINITE, FilterParams, derive
from slidingbloom.prng import fnv1a64
from slidingbloom.snapshot import load_filter, save_filter

from .spans import Tracer

MASK64 = (1 << 64) - 1

ROUNDS = 24
SETUP_REPS = 3         # derive plus construction, per round

# nominal steady-state library rates on a 2-core x86 VM under Python
# 3.11; with the shares in make_plan they make a run's timed work last
# about --seconds
INSERT_RATE = 70_000
QUERY_RATE = 300_000

# calibration loop: its iterations, and its time on the quiet reference
# machine; see calibrate
CAL_ITERATIONS = 40_000
CAL_NOMINAL_NS = 4_700_000
_CAL_TABLE = [0] * 65536

# one-sided tail of a 3-sigma normal bound; see fp_allowance
FP_ALPHA = 0.00135

VOCAB = 50_000

# classes of a question, from the exact window: an in-window element
# (must be answered Yes), one in the slack (either answer), one out of
# scope whose fingerprint equals that of another element the filter may
# still hold (either answer, counted as a false positive), and any other
# out-of-scope element (must be answered No)
WINDOW, SLACK, COLLIDES, OUT = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int | float
    eps: float
    cli_format: str        # "binary" (LE64 words) or "text" (whitespace tokens)
    cli_rate: float        # nominal dedup items/s; sizes the dedup input
    cli_share: float       # share of a round spent in its dedup run
    snapshot_reps: int     # save/load round trips per round
    library: bool = False  # timed library insert and query blocks
    # dedup items out of scope are independent random words, so their
    # false positives are independent trials and the eps + 3 sigma rate
    # check applies; structured words (FNV-1a of text tokens) share
    # fingerprint differences, and the linear hash collides such pairs
    # together, which makes one seed's rate overdispersed
    random_words: bool = True


WORKLOADS = {w.name: w for w in (
    Workload("steady-distinct", 100_000, INFINITE, 2.0 ** -10, "binary",
             55_000, 0.15, 1, library=True),
    Workload("dedup-text-zipf", 10_000, 10_000, 2.0 ** -10, "text",
             100_000, 0.8, 8, random_words=False),
    Workload("dedup-binary-tiny-eps", 10_000, INFINITE, 2.0 ** -20, "binary",
             60_000, 0.8, 8),
)}


@dataclass(frozen=True)
class Plan:
    rounds: int
    warmup: int         # untimed library inserts, one full label cycle
    inserts: int        # timed library inserts per round
    queries: int        # timed library queries per round, half in-window
    cli_items: int      # items in the dedup input, run once per round
    snapshot_reps: int  # per round
    horizon: int        # positions after its insert the filter may still hold an element


def make_plan(w: Workload, params: FilterParams, seconds: float) -> Plan:
    per_round = seconds / ROUNDS
    return Plan(
        rounds=ROUNDS,
        warmup=params.gen_modulus * params.g if w.library else 0,
        inserts=round(per_round * 0.45 * INSERT_RATE) if w.library else 0,
        queries=2 * round(per_round * 0.08 * QUERY_RATE) if w.library else 0,
        cli_items=max(1, round(per_round * w.cli_share * w.cli_rate)),
        snapshot_reps=w.snapshot_reps,
        # a tag stays active for c+1 generations of g positions; one
        # more generation covers the insert's position inside the first
        horizon=(params.c + 2) * params.g,
    )


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    digests: dict[str, str]
    cli_path: Path
    arrays: dict[str, np.ndarray]   # every generated array, kept alive for the run
    words: list[str] | None         # text vocabulary, indexed by rank
    stream: list[int] = field(default_factory=list)   # library inserts, warm-up first
    probes: list[int] = field(default_factory=list)   # library queries, round after round

    @property
    def cli_keys(self) -> np.ndarray:
        """Per dedup item: its vocabulary rank (text) or the word itself (binary)."""
        return self.arrays["cli_keys"]

    @property
    def cli_classes(self) -> np.ndarray:
        """Per dedup item: WINDOW, SLACK, COLLIDES or OUT."""
        return self.arrays["cli_classes"]

    @property
    def probe_classes(self) -> np.ndarray:
        """Per library probe: WINDOW, COLLIDES or OUT."""
        return self.arrays["probe_classes"]

    def token(self, key) -> str:
        """The token the CLI prints for a dedup item."""
        return self.words[key] if self.words is not None else str(key)

    def value(self, key) -> int:
        """The element the CLI inserts for a dedup item."""
        return fnv1a64(self.words[key].encode("utf-8")) if self.words is not None else int(key)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed & MASK64, zlib.crc32(name.encode())])


def _distinct(start: int, count: int, key: int) -> np.ndarray:
    """Elements for indices start.. under a bijection of 64-bit words.

    Distinct indices give distinct elements, so disjoint index ranges
    give disjoint element sets.
    """
    x = np.arange(start, start + count, dtype=np.uint64)
    x += np.uint64(key)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(29)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(32)
    return x


def _word(rank: int) -> str:
    """Bijective base-26 spelling, so ranks map to distinct words."""
    letters = []
    k = rank + 1
    while k:
        k, r = divmod(k - 1, 26)
        letters.append(chr(97 + r))
    return "".join(reversed(letters))


def dedup_classes(values, fingerprints, n: int, m, horizon: int) -> np.ndarray:
    """The class of each dedup item's question.

    Dedup queries before it inserts, so item i is in the window when its
    previous occurrence is at most n positions back, and in the slack
    when at most n+m back. An out-of-scope item COLLIDES when another
    element with its fingerprint was inserted at most ``horizon`` back.
    """
    last: dict = {}
    holders: dict = {}   # fingerprint -> {element: last position}
    out = np.empty(len(values), dtype=np.uint8)
    for i, (x, f) in enumerate(zip(values, fingerprints)):
        j = last.get(x)
        if j is not None and i - j <= n:
            out[i] = WINDOW
        elif j is not None and i - j <= n + m:
            out[i] = SLACK
        elif any(y != x and i - p <= horizon for y, p in holders.get(f, {}).items()):
            out[i] = COLLIDES
        else:
            out[i] = OUT
        last[x] = i
        holders.setdefault(f, {})[x] = i
    return out


def _library_inputs(w, plan, rng, fingerprint) -> dict[str, np.ndarray]:
    """Distinct inserts, and per round probes: half from the window, half never inserted."""
    lib_key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    stream = _distinct(0, plan.warmup + plan.rounds * plan.inserts, lib_key)
    stream_fps = [fingerprint(x) for x in stream.tolist()]
    half = plan.queries // 2
    probes = np.empty(plan.rounds * 2 * half, dtype=np.uint64)
    classes = np.empty(len(probes), dtype=np.uint8)
    for r in range(plan.rounds):
        inserted = plan.warmup + (r + 1) * plan.inserts
        c = np.full(2 * half, OUT, dtype=np.uint8)
        c[:half] = WINDOW
        rng.shuffle(c)
        p = np.empty(2 * half, dtype=np.uint64)
        p[c == WINDOW] = stream[rng.integers(inserted - w.n, inserted, half)]
        p[c == OUT] = _distinct((1 << 62) + r * half, half, lib_key)
        held = set(stream_fps[max(0, inserted - plan.horizon):inserted])
        for i in np.flatnonzero(c == OUT).tolist():
            if fingerprint(int(p[i])) in held:
                c[i] = COLLIDES
        probes[r * 2 * half:(r + 1) * 2 * half] = p
        classes[r * 2 * half:(r + 1) * 2 * half] = c
    return {"stream": stream, "probes": probes, "probe_classes": classes}


def _dedup_path(w: Workload, workdir: Path) -> Path:
    return workdir / f"{w.name}.{'txt' if w.cli_format == 'text' else 'le64'}"


def write_inputs(w: Workload, seed: int, plan: Plan, workdir: Path) -> dict[str, str]:
    """Generate the workload's inputs into workdir; returns their SHA-256 digests.

    Runs in a child process (see make_inputs), so nothing it allocates
    raises the resident high-water mark of the process that measures.
    """
    rng = _rng(seed, w.name)
    params = derive(w.n, w.m, w.eps, DEFAULT_UNIVERSE)
    fingerprint = SlidingFilter(params, seed & MASK64).hash.eval
    arrays = _library_inputs(w, plan, rng, fingerprint) if w.library else {}
    if w.name == "dedup-text-zipf":
        cdf = np.cumsum(np.arange(1, VOCAB + 1, dtype=np.float64) ** -1.2)
        keys = np.searchsorted(cdf / cdf[-1], rng.random(plan.cli_items), side="right")
        np.minimum(keys, VOCAB - 1, out=keys)
        words = [_word(r) for r in range(VOCAB)]
        word_values = [fnv1a64(word.encode("utf-8")) for word in words]
        values = [word_values[r] for r in keys.tolist()]
        tokens = [words[r] for r in keys.tolist()]
        data = "".join(" ".join(tokens[j:j + 16]) + "\n"
                       for j in range(0, len(tokens), 16)).encode()
    else:
        if w.name == "steady-distinct":
            key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            keys = _distinct(1 << 61, plan.cli_items, key)
        elif w.name == "dedup-binary-tiny-eps":
            keys = rng.integers(0, 1 << 64, plan.cli_items, dtype=np.uint64)
            repeats = np.flatnonzero(rng.random(plan.cli_items) < 0.1).tolist()
            back = rng.integers(1, 20_001, len(repeats)).tolist()
            for i, b in zip(repeats, back):
                if i:
                    keys[i] = keys[i - min(b, i)]
        else:
            raise ValueError(f"no input generator for workload {w.name!r}")
        values = keys.tolist()
        data = keys.astype("<u8").tobytes()
    arrays["cli_keys"] = keys
    arrays["cli_classes"] = dedup_classes(values, [fingerprint(x) for x in values],
                                          w.n, w.m, plan.horizon)
    _dedup_path(w, workdir).write_bytes(data)
    for name, a in arrays.items():
        np.save(workdir / f"{name}.npy", a)
    digests = {"dedup_input": hashlib.sha256(data).hexdigest()}
    digests.update((name, hashlib.sha256(arrays[name]).hexdigest())
                   for name in ("stream", "probes") if name in arrays)
    return digests


def make_inputs(w: Workload, seed: int, plan: Plan, workdir: Path) -> Inputs:
    """Generate the inputs in a child process, then load them here.

    The child is a plain interpreter running this module; it has ended
    when this returns, and no helper process is left behind. Loading
    allocates each array once at its final size, so the resident size
    just before the first filter is built is also the peak so far.
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    job = json.dumps({"workload": asdict(w), "seed": seed, "plan": asdict(plan),
                      "workdir": str(workdir)})
    # subprocess.run waits for the child, and kills and reaps it if this
    # process is interrupted while waiting
    child = subprocess.run([sys.executable, "-m", "perfbench.workloads", job], cwd=root,
                           env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           text=True, check=True, timeout=170)
    digests = json.loads(child.stdout.splitlines()[-1])
    arrays = {p.stem: np.load(p) for p in sorted(workdir.glob("*.npy"))}
    inp = Inputs(digests=digests, cli_path=_dedup_path(w, workdir), arrays=arrays,
                 words=[_word(r) for r in range(VOCAB)] if w.cli_format == "text" else None)
    if w.library:
        inp.stream = arrays["stream"].tolist()
        inp.probes = arrays["probes"].tolist()
    return inp


# -- checks ---------------------------------------------------------------------


def fp_allowance(k: int, eps: float) -> int:
    """Most Yes answers among k out-of-scope questions that pass the check.

    A count above eps*k + 3 sigma fails. The bound is taken as the
    binomial tail that a 3-sigma normal bound leaves (one-sided
    probability FP_ALPHA), which matches eps + 3 sigma for large eps*k
    and stays exact when eps*k is below one.
    """
    if k == 0:
        return 0
    log_pmf = k * math.log1p(-eps)
    log_ratio = math.log(eps) - math.log1p(-eps)
    cdf = 0.0
    for x in range(k + 1):
        cdf += math.exp(log_pmf)
        if 1.0 - cdf < FP_ALPHA:
            return x
        log_pmf += math.log(k - x) - math.log(x + 1) + log_ratio
    return k


class Tally:
    """Operations attempted and failed, and the correctness problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.out_of_scope = 0
        self.false_positives = 0

    def error(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def answers(self, what: str, answers, classes, eps: float, rate_check: bool) -> None:
        """Checks answers against the classes of their questions.

        No in-window element may be answered No, and no out-of-scope
        element may be answered Yes unless its fingerprint collides.
        With ``rate_check``, the false-positive rate must also stay
        within eps + 3 sigma for its sample count.
        """
        a = np.frombuffer(answers, dtype=np.uint8)
        c = np.frombuffer(classes, dtype=np.uint8)
        missed = int(((c == WINDOW) & (a == 0)).sum())
        wrong = int(((c == OUT) & (a == 1)).sum())
        k = int(((c == OUT) | (c == COLLIDES)).sum())
        fp = int(((c == COLLIDES) & (a == 1)).sum()) + wrong
        self.out_of_scope += k
        self.false_positives += fp
        self.check(missed == 0, f"{what}: {missed} in-window elements answered No")
        self.check(wrong == 0, f"{what}: {wrong} out-of-scope elements answered Yes "
                               "without a fingerprint collision")
        if rate_check:
            self.check(fp <= fp_allowance(k, eps),
                       f"{what}: {fp} of {k} out-of-scope elements answered Yes, "
                       f"above eps + 3 sigma (at most {fp_allowance(k, eps)})")

    def flagged(self, what: str, flagged: int, classes) -> None:
        """The dedup flagged count lies within the bounds the exact window gives.

        The lower bound counts repeats within the last n items; the upper
        bound adds repeats within n+m and every out-of-scope item whose
        fingerprint collides, the most false positives there can be.
        """
        c = np.frombuffer(classes, dtype=np.uint8)
        low = int((c == WINDOW).sum())
        high = low + int(((c == SLACK) | (c == COLLIDES)).sum())
        self.check(low <= flagged <= high,
                   f"{what}: flagged {flagged} outside [{low}, {high}]")


# -- rounds -----------------------------------------------------------------------


class Recorder:
    """The spans of one group of timed calls, plus the facts their hooks collect.

    Untraced, only the public calls ``SlidingFilter.insert`` and
    ``query`` are wrapped: their durations are the end-to-end latencies.
    Traced, the dictionary's entry points and the CLI's token hash are
    wrapped too. Patches go on the classes, so a dictionary that an
    overflow rebuild puts in place is timed like the one it replaces;
    the rebuild itself shows as a change of ``filt.dictionary``, and is
    counted.
    """

    def __init__(self, traced: bool, inserts: int = 0, queries: int = 0):
        self.tracer = Tracer()
        # allocated here, before the baseline resident size is read
        self.tracer.span("filter.insert", inserts)
        self.tracer.span("filter.query", queries)
        self.traced = traced
        self.queries = queries
        self.answers = bytearray(queries)
        self.n_answers = 0
        self.round_ends: list[tuple[int, int]] = []   # (inserts, queries) so far
        self.last_filter = None
        self._watched = (None, None)
        self.rebuilds = 0
        self.label_advances = 0
        self.cells = array("q")
        self.kicks = array("q")
        self.member_one_bucket = 0
        self.scanned = 0
        self.freed = 0

    def end_round(self) -> None:
        self.round_ends.append((self.tracer.spans["filter.insert"].count,
                                self.tracer.spans["filter.query"].count))

    def per_round(self, name: str) -> list[np.ndarray]:
        """Durations of ``filter.insert`` or ``filter.query``, split by round."""
        col = 0 if name == "filter.insert" else 1
        d = self.tracer.spans[name].durations()
        starts = [0] + [e[col] for e in self.round_ends[:-1]]
        return [d[s:e[col]] for s, e in zip(starts, self.round_ends)]

    def _on_query(self, args, result) -> None:
        i = self.n_answers
        bit = 1 if result else 0
        if i < self.queries:
            self.answers[i] = bit
        else:
            self.answers.append(bit)
        self.n_answers = i + 1
        self.last_filter = args[0]

    def _on_insert(self, args, result) -> None:
        filt = args[0]
        d = filt.dictionary
        if filt is self._watched[0] and d is not self._watched[1]:
            self.rebuilds += 1
        self._watched = (filt, d)
        if filt.gen_pos == 0:
            self.label_advances += 1

    def _on_insert_or_update(self, args, result) -> None:
        self.cells.append(args[0].last_op_cells)
        self.kicks.append(args[0].last_op_kicks)

    def _on_member(self, args, result) -> None:
        if args[0].last_op_cells == BUCKET_SIZE:
            self.member_one_bucket += 1

    def _on_scan(self, args, result) -> None:
        self.scanned += args[1]
        self.freed += result or 0

    @contextlib.contextmanager
    def patched(self, filter_cls):
        t = self.tracer
        try:
            t.patch(filter_cls, "insert", "filter.insert", self._on_insert if self.traced else None)
            t.patch(filter_cls, "query", "filter.query", self._on_query)
            if self.traced:
                t.patch(Dictionary, "insert_or_update", "dictionary.insert_or_update",
                        self._on_insert_or_update)
                t.patch(Dictionary, "member", "dictionary.member", self._on_member)
                t.patch(Dictionary, "scan_step", "dictionary.scan_step", self._on_scan)
                t.patch(cli, "fnv1a64", "prng.fnv1a64")
            yield self
        finally:
            t.restore()


def _dedup_argv(w: Workload, seed: int, path: Path, quiet: bool) -> list[str]:
    argv = ["dedup", "--out", "json", "--format", w.cli_format,
            "-n", str(w.n), "-m", "inf" if w.m == INFINITE else str(w.m),
            "-e", repr(w.eps), "--seed", str(seed & MASK64), str(path)]
    return argv[:1] + ["--quiet"] + argv[1:] if quiet else argv


def _call_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter_ns()
        code = main(argv)
        wall = perf_counter_ns() - t0
    return code, out.getvalue(), err.getvalue(), wall


def _split_dedup_output(text: str):
    """Per-item lines and the final JSON stats block of ``dedup --out json``."""
    lines = text.split("\n")
    start = lines.index("{")
    return lines[:start], json.loads("\n".join(lines[start:]))


def library_round(w, plan, inp, r, filt, rec, tally, what) -> None:
    """Round r's timed block of inserts, then its block of queries."""
    gc.collect()
    with rec.patched(type(filt)):
        insert = filt.insert
        lo = plan.warmup + r * plan.inserts
        for x in islice(inp.stream, lo, lo + plan.inserts):
            try:
                insert(x)
            except Exception as exc:  # counted as a failed operation
                tally.error(exc)
        query = filt.query
        start = rec.n_answers
        for x in islice(inp.probes, r * plan.queries, (r + 1) * plan.queries):
            try:
                query(x)
            except Exception as exc:
                tally.error(exc)
    tally.attempted += plan.inserts + plan.queries
    tally.answers(f"{what} library round {r}", rec.answers[start:rec.n_answers],
                  inp.probe_classes[r * plan.queries:(r + 1) * plan.queries], w.eps,
                  rate_check=True)


def dedup_round(w, plan, inp, seed, r, rec, tally, what) -> int:
    """Round r's timed dedup run over the whole input; returns its wall ns."""
    rec.last_filter = None
    gc.collect()
    start = rec.n_answers
    with rec.patched(cli.SlidingFilter):
        code, out, err, wall = _call_cli(rec.tracer.timed("cli.main", cli.main),
                                         _dedup_argv(w, seed, inp.cli_path, quiet=True))
    tally.attempted += plan.cli_items
    if code != 0:
        tally.failed += plan.cli_items
        tally.check(False, f"{what} dedup round {r} exited {code}: {err.strip()}")
        return wall
    stats = json.loads(out)
    answers = rec.answers[start:rec.n_answers]
    tally.check(stats["items"] == plan.cli_items == len(answers),
                f"{what} dedup round {r}: {stats['items']} items, {len(answers)} queries, "
                f"{plan.cli_items} expected")
    tally.check(stats["flagged"] == sum(answers),
                f"{what} dedup round {r}: flagged {stats['flagged']} "
                f"but {sum(answers)} queries answered Yes")
    tally.flagged(f"{what} dedup round {r}", stats["flagged"], inp.cli_classes)
    tally.answers(f"{what} dedup round {r}", answers, inp.cli_classes, w.eps, w.random_words)
    return wall


def verbose_dedup(w, plan, inp, seed, tally) -> None:
    """A dedup run without --quiet; every output line is checked against the window."""
    code, out, err, _ = _call_cli(cli.main, _dedup_argv(w, seed, inp.cli_path, quiet=False))
    tally.attempted += plan.cli_items
    if code != 0:
        tally.failed += plan.cli_items
        tally.check(False, f"verbose dedup exited {code}: {err.strip()}")
        return
    lines, stats = _split_dedup_output(out)
    tally.check(len(lines) == plan.cli_items,
                f"verbose dedup printed {len(lines)} lines for {plan.cli_items} items")
    answers = bytearray(len(lines))
    for i, (line, key) in enumerate(zip(lines, inp.cli_keys)):
        idx, verdict, token = line.split("\t")
        if idx != str(i) or token != inp.token(key) or verdict not in ("dup", "new"):
            tally.check(False, f"verbose dedup line {i} reads {line!r}")
            return
        answers[i] = verdict == "dup"
    tally.check(stats["flagged"] == sum(answers),
                "verbose dedup flagged count disagrees with its lines")
    tally.flagged("verbose dedup", stats["flagged"], inp.cli_classes)
    tally.answers("verbose dedup", answers, inp.cli_classes, w.eps, w.random_words)


def snapshot_round(filt, reps, tally, saves, loads):
    """Timed save_filter/load_filter round trips; appends their ns.

    Returns the last snapshot and the filter loaded from it, or None if a
    round trip raised.
    """
    for _ in range(reps):
        tally.attempted += 2
        try:
            t0 = perf_counter_ns()
            buf = io.BytesIO()
            save_filter(filt, buf)
            blob = buf.getvalue()
            t1 = perf_counter_ns()
            loaded = load_filter(blob)
            t2 = perf_counter_ns()
        except Exception as exc:  # counted as a failed operation
            tally.error(exc)
            tally.check(False, f"snapshot round trip raised {exc!r}")
            return None
        saves.append(t1 - t0)
        loads.append(t2 - t1)
    return blob, loaded


def check_snapshot(filt, blob, loaded, check_values, in_window, tally) -> None:
    """The reloaded filter re-saves to the same bytes and answers like the original."""
    again = io.BytesIO()
    save_filter(loaded, again)
    tally.check(again.getvalue() == blob,
                "snapshot of the reloaded filter differs from the original")
    before = [filt.query(x) for x in check_values]
    after = [loaded.query(x) for x in check_values]
    tally.check(before == after, "reloaded filter answers differently from the original")
    tally.check(all(a for a, win in zip(after, in_window) if win),
                "reloaded filter answers No for an in-window element")


def setup_round(w, seed, filter_cls, derive_ns, construct_ns) -> None:
    """derive(...) and filter construction, timed SETUP_REPS times."""
    for _ in range(SETUP_REPS):
        t0 = perf_counter_ns()
        params = derive(w.n, w.m, w.eps, DEFAULT_UNIVERSE)
        t1 = perf_counter_ns()
        filt = filter_cls(params, seed & MASK64)
        t2 = perf_counter_ns()
        del filt
        derive_ns.append(t1 - t0)
        construct_ns.append(t2 - t1)


def calibrate() -> int:
    """ns taken by a fixed pure-Python loop of list updates and integer arithmetic.

    The reference machine's two vCPUs share physical cores with other
    tenants, and pure-Python code there runs 1.5-2x slower whenever they
    are busy, in episodes of seconds to minutes. Timing this loop next to
    each timed slice gives the slowdown of that moment, CAL_NOMINAL_NS
    being the loop's time on a quiet machine. The loop allocates nothing
    that outlives it, so it leaves resident memory alone.
    """
    table = _CAL_TABLE
    s = 0
    t0 = perf_counter_ns()
    for i in range(CAL_ITERATIONS):
        k = (i * 2654435761) & 0xFFFF
        table[k] ^= 1
        s += k % 7
    return perf_counter_ns() - t0


def _status_kib(field_name: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field_name}")


def rss_bytes() -> int:
    """Resident size now."""
    return _status_kib("VmRSS") * 1024


def peak_rss_bytes() -> int:
    """Highest resident size so far."""
    return _status_kib("VmHWM") * 1024


# -- one pass ------------------------------------------------------------------------


@dataclass
class Pass:
    """What one pass over a workload's rounds measured."""

    main: Recorder                # the calls the layer metrics describe
    dedup: Recorder               # the timed dedup runs
    dedup_walls: list[int]
    filt: object                  # the filter the main calls left
    rss_before: int = 0
    peak_before: int = 0
    peak_after: int = 0           # after round 0's timed work
    saves: list[int] = field(default_factory=list)
    loads: list[int] = field(default_factory=list)
    snapshot_bytes: int = 0
    derive_ns: list[int] = field(default_factory=list)
    construct_ns: list[int] = field(default_factory=list)
    # per slice ("library", "dedup", "snapshot", "setup"), per round: the
    # mean calibration time around the slice over CAL_NOMINAL_NS
    slowdown: dict[str, list[float]] = field(default_factory=dict)

    def bracket(self, slice_name: str, before: int) -> int:
        """Record the slowdown of a slice that started after calibration ``before``."""
        after = calibrate()
        self.slowdown.setdefault(slice_name, []).append((before + after) / 2 / CAL_NOMINAL_NS)
        return after


def run_pass(w, params, plan, inp, seed, filter_cls, traced, tally, untraced=None) -> Pass:
    """All rounds once; untraced it also times snapshots and set-up, and reads memory."""
    what = "traced" if traced else "untraced"
    lib = Recorder(traced, plan.rounds * plan.inserts, plan.rounds * plan.queries)
    dedup = Recorder(traced, plan.rounds * plan.cli_items, plan.rounds * plan.cli_items)
    p = Pass(main=lib if w.library else dedup, dedup=dedup, dedup_walls=[], filt=None)
    gc.collect()
    p.rss_before, p.peak_before = rss_bytes(), peak_rss_bytes()
    if w.library:
        p.filt = filter_cls(params, seed & MASK64)
        for x in islice(inp.stream, plan.warmup):
            try:
                p.filt.insert(x)
            except Exception as exc:  # counted as a failed operation
                tally.error(exc)
        tally.attempted += plan.warmup
    # an untimed dedup run, so the first timed one starts warm too
    _call_cli(cli.main, _dedup_argv(w, seed, inp.cli_path, quiet=True))
    for r in range(plan.rounds):
        cal = calibrate()
        if w.library:
            library_round(w, plan, inp, r, p.filt, lib, tally, what)
            lib.end_round()
            cal = p.bracket("library", cal)
        p.dedup_walls.append(dedup_round(w, plan, inp, seed, r, dedup, tally, what))
        dedup.end_round()
        cal = p.bracket("dedup", cal)
        if not w.library:
            p.filt = dedup.last_filter
        if traced:
            continue
        if r == 0:
            p.peak_after = peak_rss_bytes()
        snapshot = snapshot_round(p.filt, plan.snapshot_reps, tally, p.saves, p.loads)
        cal = p.bracket("snapshot", cal)
        if r == 0 and snapshot is not None:
            p.snapshot_bytes = len(snapshot[0])
            if w.library:
                check_values = inp.probes[:min(plan.queries, 2000)]
                in_window = (inp.probe_classes[:len(check_values)] == WINDOW).tolist()
            else:
                recent = inp.cli_keys[-min(w.n, 1000):]
                check_values = [inp.value(k) for k in recent]
                check_values += _distinct(3 << 62, 1000, seed & MASK64).tolist()
                in_window = [True] * len(recent) + [False] * 1000
            check_snapshot(p.filt, *snapshot, check_values, in_window, tally)
            cal = calibrate()
        setup_round(w, seed, filter_cls, p.derive_ns, p.construct_ns)
        p.bracket("setup", cal)
    if untraced is not None:
        tally.check(bytes(p.main.answers) == bytes(untraced.main.answers)
                    and bytes(p.dedup.answers) == bytes(untraced.dedup.answers),
                    "traced and untraced passes answered differently")
    return p


if __name__ == "__main__":
    # the input generator of make_inputs: one JSON job on argv, the
    # digests as JSON on stdout
    _job = json.loads(sys.argv[1])
    print(json.dumps(write_inputs(Workload(**_job["workload"]), _job["seed"],
                                  Plan(**_job["plan"]), Path(_job["workdir"]))))
