"""Command-line front end.

Subcommand: dedup (flag repeats in a stream).
Text is read and echoed as UTF-8, whatever the locale; its tokens are
pre-hashed to 64-bit integers with FNV-1a of their UTF-8 bytes
(plumbing, unrelated to the filter's internal universal hash). Binary
input is consumed as little-endian 64-bit words.

Exit codes: 0 ok, 2 usage or invalid configuration, 3 dictionary
insert overflow, 141 (128 + SIGPIPE, as a shell reports a process
killed by it) standard output closed by its reader, as by ``| head``;
nothing is written to stderr then.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from array import array

from .dictionary import InsertOverflow
from .filter import DEFAULT_UNIVERSE, SlidingFilter
from .params import INFINITE, InvalidParams, derive
from .prng import fnv1a64

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_BROKEN_PIPE = 141


def _parse_slack(text: str):
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    return int(text)


def _add_filter_args(sub):
    sub.add_argument("-n", "--window", type=int, required=True,
                     help="window size n")
    sub.add_argument("-m", "--slack", type=_parse_slack, default=INFINITE,
                     help="slackness m, or 'inf' (default)")
    sub.add_argument("-e", "--epsilon", type=float, required=True,
                     help="false-positive bound in (0,1)")
    sub.add_argument("--seed", type=int, default=0,
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


def _utf8_text(raw, release):
    """The byte stream ``raw`` read as UTF-8; detached on release, which
    leaves ``raw`` open where closing the wrapper would not."""
    stream = io.TextIOWrapper(raw, "utf-8")
    release.callback(stream.detach)
    return stream


def _utf8_stdout(release):
    """sys.stdout written as UTF-8, so that every token read can be
    echoed; flushed and detached on release. A text sink without a byte
    buffer (io.StringIO) is returned as it is."""
    out = sys.stdout
    if getattr(out, "buffer", None) is None:
        return out
    out.flush()
    stream = io.TextIOWrapper(out.buffer, "utf-8",
                              line_buffering=getattr(out, "line_buffering", False))
    release.callback(stream.detach)
    return stream


def _run_dedup(args) -> int:
    try:
        params = derive(args.window, args.slack, args.epsilon, DEFAULT_UNIVERSE)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    filt = SlidingFilter(params, args.seed)
    binary = args.format == "binary"
    with contextlib.ExitStack() as release:
        # tokens hash as their UTF-8 bytes, so text is read as UTF-8, and
        # echoed as UTF-8, whatever the locale or the I/O encoding says
        if args.input == "-":
            raw = sys.stdin.buffer
        else:
            try:
                raw = release.enter_context(open(args.input, "rb"))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
        tokens = _tokens_binary(raw) if binary else _tokens_text(_utf8_text(raw, release))
        out = _utf8_stdout(release)

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
        except ValueError as exc:  # text that is not UTF-8, a partial or out-of-universe word
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

        space = filt.bits_used()
        if args.out == "json":
            out.write(json.dumps({
                "schema": "slidingbloom.dedup/1",
                "items": items,
                "flagged": flagged,
                "window": args.window,
                "slack": "inf" if args.slack == INFINITE else args.slack,
                "epsilon": args.epsilon,
                "seed": args.seed,
                "total_bits": space.total_bits,
                "dictionary_bits": space.dictionary_bits,
            }, indent=2, sort_keys=True))
            out.write("\n")
        else:
            out.write(f"items\t{items}\n")
            out.write(f"flagged\t{flagged}\n")
            out.write(f"total_bits\t{space.total_bits}\n")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
