"""Command-line front end.

Subcommands: dedup (flag repeats in a stream), fpr, space, bench.
Text tokens are pre-hashed to 64-bit integers with FNV-1a (plumbing,
unrelated to the filter's internal universal hash); binary input is
consumed as little-endian 64-bit words.

Exit codes: 0 ok, 2 usage or invalid configuration, 3 dictionary
insert overflow, 4 statistically underpowered fpr run.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from array import array

from .dictionary import InsertOverflow
from .filter import DEFAULT_UNIVERSE, SlidingFilter
from .harness import MIN_EXPECTED_HITS, measure_fpr, space_report
from .params import INFINITE, InvalidParams, derive
from .prng import fnv1a64

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_UNDERPOWERED = 4


def _parse_slack(text: str):
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    return int(text)


def _add_filter_args(sub, need_seed_default=0):
    sub.add_argument("-n", "--window", type=int, required=True,
                     help="window size n")
    sub.add_argument("-m", "--slack", type=_parse_slack, default=INFINITE,
                     help="slackness m, or 'inf' (default)")
    sub.add_argument("-e", "--epsilon", type=float, required=True,
                     help="false-positive bound in (0,1)")
    sub.add_argument("--seed", type=int, default=need_seed_default,
                     help="master seed (default %(default)s)")


def _tokens_text(stream):
    for line in stream:
        for token in line.split():
            yield token, fnv1a64(token.encode("utf-8"))


def _tokens_binary(stream):
    """(word, word) for each little-endian 64-bit word of a binary stream.

    Reads through one reused buffer of io.DEFAULT_BUFFER_SIZE bytes. A
    partial word at the end raises ValueError once every whole word
    before it has been yielded.
    """
    words = array("Q", bytes(io.DEFAULT_BUFFER_SIZE))
    raw = memoryview(words).cast("B")
    idx = 0
    while True:
        got = 0
        while got < len(raw):
            n = stream.readinto(raw[got:])
            if not n:
                break
            got += n
        whole = got // 8
        chunk = words if whole == len(words) else words[:whole]
        if sys.byteorder == "big":
            chunk.byteswap()
        for word in chunk:
            yield word, word
        idx += whole
        if got < len(raw):
            if got % 8:
                raise ValueError(f"trailing {got % 8} bytes at word {idx}")
            return


def _emit_json(obj, out):
    out.write(json.dumps(obj, indent=2, sort_keys=True))
    out.write("\n")


def _run_dedup(args) -> int:
    try:
        params = derive(args.window, args.slack, args.epsilon, DEFAULT_UNIVERSE)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    filt = SlidingFilter(params, args.seed)
    out = sys.stdout

    if args.input == "-":
        source = sys.stdin.buffer if args.format == "binary" else sys.stdin
        close = False
    else:
        try:
            source = open(args.input, "rb" if args.format == "binary" else "r")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        close = True
    tokens = _tokens_binary(source) if args.format == "binary" else _tokens_text(source)

    items = 0
    flagged = 0
    try:
        for token, value in tokens:
            dup = filt.query(value)
            filt.insert(value)
            items += 1
            if dup:
                flagged += 1
            if not args.quiet:
                out.write(f"{items - 1}\t{'dup' if dup else 'new'}\t{token}\n")
    except InsertOverflow as exc:
        print(f"error: insert overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            source.close()

    space = filt.bits_used()
    if args.out == "json":
        _emit_json({
            "schema": "slidingbloom.dedup/1",
            "items": items,
            "flagged": flagged,
            "window": args.window,
            "slack": "inf" if args.slack == INFINITE else args.slack,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "total_bits": space.total_bits,
            "dictionary_bits": space.dictionary_bits,
        }, out)
    else:
        out.write(f"items\t{items}\n")
        out.write(f"flagged\t{flagged}\n")
        out.write(f"total_bits\t{space.total_bits}\n")
    return EXIT_OK


def _run_fpr(args) -> int:
    m_fin = 0 if args.slack == INFINITE else args.slack
    stream_len = args.stream_len or 2 * (args.window + m_fin) + 20
    try:
        report = measure_fpr(args.window, args.slack, args.epsilon,
                             stream_len=stream_len, trials=args.trials,
                             seed=args.seed)
    except (InvalidParams, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsertOverflow as exc:
        print(f"error: insert overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    _emit_json(report.to_dict(), sys.stdout)
    if report.underpowered:
        print(f"warning: epsilon*trials = {args.epsilon * args.trials:.1f} "
              f"< {MIN_EXPECTED_HITS}; estimate is underpowered", file=sys.stderr)
        return EXIT_UNDERPOWERED
    return EXIT_OK


def _run_space(args) -> int:
    try:
        report = space_report(args.window, args.slack, args.epsilon, seed=args.seed)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit_json(report.to_dict(), sys.stdout)
    return EXIT_OK


def _run_bench(args) -> int:
    try:
        params = derive(args.window, args.slack, args.epsilon, DEFAULT_UNIVERSE)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    import time

    runs = []
    for k in range(args.seeds):
        seed = args.seed + k
        filt = SlidingFilter(params, seed)
        start = time.perf_counter()
        try:
            for x in range(args.ops):
                filt.insert(x)
        except InsertOverflow as exc:
            print(f"error: insert overflow at seed {seed}: {exc}", file=sys.stderr)
            return EXIT_OVERFLOW
        elapsed = time.perf_counter() - start
        cost = filt.step_cost_stats()
        runs.append({
            "seed": seed,
            "ops": args.ops,
            "seconds": round(elapsed, 6),
            "inserts_per_sec": round(args.ops / elapsed, 1) if elapsed else None,
            "insert_cells_max": cost.insert_cells_max,
            "insert_cells_mean": round(cost.insert_cells_mean, 3),
            "max_kick_chain": cost.max_kick_chain,
        })
    _emit_json({"schema": "slidingbloom.bench/1", "runs": runs}, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidingbloom",
        description="Approximate membership over the last n stream elements.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    dedup = subs.add_parser("dedup", help="flag stream elements seen within the window")
    _add_filter_args(dedup)
    dedup.add_argument("--format", choices=("text", "binary"), default="text",
                       help="input encoding: whitespace tokens or LE64 words")
    dedup.add_argument("--out", choices=("tsv", "json"), default="tsv",
                       help="final stats format")
    dedup.add_argument("--quiet", action="store_true",
                       help="suppress per-element lines, print stats only")
    dedup.add_argument("input", nargs="?", default="-",
                       help="input path, or '-' for stdin (default)")
    dedup.set_defaults(func=_run_dedup)

    fpr = subs.add_parser("fpr", help="Monte Carlo false-positive rate report")
    _add_filter_args(fpr)
    fpr.add_argument("-T", "--trials", type=int, default=100_000,
                     help="number of fresh probes (default %(default)s)")
    fpr.add_argument("--stream-len", type=int, default=None,
                     help="stream length (default 2*(n+m)+20)")
    fpr.set_defaults(func=_run_fpr)

    space = subs.add_parser("space", help="bit footprint vs. space bounds")
    _add_filter_args(space)
    space.set_defaults(func=_run_space)

    bench = subs.add_parser("bench", help="insert throughput and touched-cell stats")
    _add_filter_args(bench)
    bench.add_argument("--ops", type=int, default=100_000,
                       help="inserts per run (default %(default)s)")
    bench.add_argument("--seeds", type=int, default=1,
                       help="number of consecutive seeds to run (default 1)")
    bench.set_defaults(func=_run_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
