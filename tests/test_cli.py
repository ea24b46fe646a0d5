import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from slidingbloom import cli
from slidingbloom.dictionary import InsertOverflow
from slidingbloom.prng import SplitMix64


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_dedup_flags_repeat_within_window(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("a b a\n")
    code, out, err = run(capsys, "dedup", "-n", "10", "-m", "5", "-e", "0.01",
                         "--seed", "1", str(src))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0\tnew\ta"
    assert lines[1] == "1\tnew\tb"
    assert lines[2] == "2\tdup\ta"
    assert "items\t3" in lines and "flagged\t1" in lines


def test_dedup_distinct_tokens_not_flagged(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(" ".join(f"tok{i}" for i in range(200)))
    code, out, _ = run(capsys, "dedup", "-n", "100", "-e", "0.0001",
                       "--seed", "3", "--quiet", "--out", "json", str(src))
    assert code == 0
    stats = json.loads(out)
    assert stats["items"] == 200
    assert stats["flagged"] == 0
    assert stats["slack"] == "inf"
    assert stats["schema"] == "slidingbloom.dedup/1"


def test_dedup_smallest_epsilon_at_u_2_64(capsys, tmp_path):
    # n = 1 and epsilon just above 1/u give the CLI's widest quotients,
    # which still fit the 64-bit cell keys
    src = tmp_path / "in.txt"
    src.write_text("a b a\n")
    code, out, err = run(capsys, "dedup", "-n", "1", "-e", "1e-19", "--quiet", str(src))
    assert (code, err) == (0, "")
    assert out.startswith("items\t3\n")


def test_dedup_binary_input(capsys, tmp_path):
    src = tmp_path / "in.bin"
    words = [5, 99, 5]
    src.write_bytes(b"".join(struct.pack("<Q", w) for w in words))
    code, out, _ = run(capsys, "dedup", "-n", "10", "-m", "2", "-e", "0.01",
                       "--format", "binary", str(src))
    assert code == 0
    assert out.splitlines()[2].startswith("2\tdup\t5")


def test_dedup_binary_rejects_ragged_input(capsys, tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x01\x02\x03")
    code, _, err = run(capsys, "dedup", "-n", "10", "-e", "0.01",
                       "--format", "binary", str(src))
    assert code == 2
    assert "trailing" in err


def test_dedup_binary_partial_word_after_buffer_boundary(capsys, tmp_path):
    # one whole read buffer of words, then 3 bytes in the next read
    per_buffer = io.DEFAULT_BUFFER_SIZE // 8
    words = [i * 0x9E3779B97F4A7C15 % 2**64 for i in range(per_buffer)]
    src = tmp_path / "in.bin"
    src.write_bytes(struct.pack(f"<{per_buffer}Q", *words) + b"\x01\x02\x03")
    code, out, err = run(capsys, "dedup", "-n", "10", "-e", "0.01",
                         "--format", "binary", str(src))
    assert code == 2
    assert f"error: trailing 3 bytes at word {per_buffer}" in err
    assert [line.split("\t")[2] for line in out.splitlines()] == [str(w) for w in words]


# "àb àb" in UTF-8: a latin-1 decoder reads byte 0xA0 as a no-break
# space, which str.split() splits on, and would see four tokens
UTF8_TEXT = "àb àb\n".encode("utf-8")


def cli_env(**env):
    """The environment of a fresh interpreter that imports this slidingbloom."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def run_cli_process(*args, stdin=b"", **env):
    """python <args> in a fresh interpreter that imports this slidingbloom."""
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          env=cli_env(**env), timeout=120)


DEDUP_JSON = ("-m", "slidingbloom.cli", "dedup", "-n", "10", "-e", "0.01",
              "--quiet", "--out", "json")


def test_dedup_stdin_is_utf8_whatever_the_io_encoding():
    done = run_cli_process(*DEDUP_JSON, "-", stdin=UTF8_TEXT, PYTHONIOENCODING="latin-1")
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stdout)
    assert (stats["items"], stats["flagged"]) == (2, 1)
    done = run_cli_process(*DEDUP_JSON, "-", stdin=b"\xff b\n")
    assert done.returncode == 2
    assert b"utf-8" in done.stderr


def test_dedup_echoes_tokens_as_utf8_whatever_the_io_encoding():
    # latin-1 cannot encode "中": the verbose lines are UTF-8 all the same
    text = "中 b 中\n"
    done = run_cli_process("-m", "slidingbloom.cli", "dedup", "-n", "10", "-e", "0.01", "-",
                           stdin=text.encode("utf-8"), PYTHONIOENCODING="latin-1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.decode("utf-8").splitlines()
    assert lines[:4] == ["0\tnew\t中", "1\tnew\tb", "2\tdup\t中", "items\t3"]


def test_dedup_path_opened_with_an_explicit_encoding(tmp_path):
    src = tmp_path / "in.txt"
    src.write_bytes(UTF8_TEXT)
    done = run_cli_process("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                           *DEDUP_JSON, str(src))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["items"] == 2


def test_dedup_into_a_pipe_closed_after_one_line(tmp_path):
    # as under `| head -1`: the reader goes away long before the output
    # ends, and the program exits 128 + SIGPIPE with nothing on stderr
    src = tmp_path / "words.txt"
    src.write_text("\n".join(f"w{i}" for i in range(50_000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slidingbloom.cli", "dedup", "-n", "100", "-e", "0.01", str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first == b"0\tnew\tw0\n"
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_dedup_leaves_stdin_open(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(UTF8_TEXT), encoding="latin-1")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run(capsys, "dedup", "-n", "10", "-e", "0.01", "--quiet", "-")
    assert code == 0 and "items\t2" in out.splitlines()
    assert not stdin.closed and not stdin.buffer.closed


def test_dedup_deterministic_output(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("\n".join(f"w{i % 37}" for i in range(500)))
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "dedup", "-n", "20", "-m", "inf", "-e", "0.03",
                           "--seed", "9", "--out", "json", str(src))
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def repeat_heavy_text(length=20_000, seed=5):
    """Tokens of a skewed vocabulary: low ranks dominate, so most repeat
    inside the window, and the rest expire and come back."""
    rng = SplitMix64(seed)
    return (" ".join(f"t{rng.below(1 + rng.below(1500))}" for _ in range(length)) + "\n").encode()


def binary_tenth_repeats(length=20_000, seed=6, reach=2000):
    """LE64 words, every tenth a repeat of one of the last `reach` words."""
    rng = SplitMix64(seed)
    words = []
    for t in range(length):
        words.append(words[-1 - rng.below(min(t, reach))] if t % 10 == 9 else rng.below(2**64))
    return struct.pack(f"<{length}Q", *words)


# name: (input, dedup arguments, sha256 of the verbose TSV output)
PINNED_DEDUP = {
    "text-repeats": (
        repeat_heavy_text, ("-n", "1000", "-m", "200", "-e", "0.001", "--seed", "7"),
        "90509b2f5643b537ff599e209d88fb939c97354bc06bf8928767bcc6360151d4",
    ),
    "binary-tenth-repeats": (
        binary_tenth_repeats, ("-n", "5000", "-m", "inf", "-e", repr(2**-20), "--seed", "8",
                               "--format", "binary"),
        "e93e6ec99e524e9d31f39a9320504f2f406fae95c1b0963456eeaa594be09a47",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DEDUP))
def test_dedup_output_pinned(capsys, tmp_path, name):
    # every verdict and total of dedup, which queries each item and then
    # inserts it; the digests were recorded from an implementation that
    # computed both calls from scratch
    make, args, digest = PINNED_DEDUP[name]
    src = tmp_path / "in"
    src.write_bytes(make())
    code, out, err = run(capsys, "dedup", *args, str(src))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dedup_bad_config_exits_2(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("a")
    code, _, err = run(capsys, "dedup", "-n", "10", "-e", "1.5", str(src))
    assert code == 2
    assert "epsilon" in err


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_dedup_unopenable_input_exits_2(capsys, tmp_path, fmt):
    # a missing path and a directory both fail in open(): a usage error,
    # reported on stderr, not a traceback
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "dedup", "-n", "10", "-e", "0.01",
                             "--format", fmt, str(path))
        assert code == 2
        assert err.startswith("error: ") and str(path) in err
        assert out == ""


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["dedup", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_overflow_exit_code(capsys, tmp_path, monkeypatch):
    src = tmp_path / "in.txt"
    src.write_text("a b c")

    def boom(self, x):
        raise InsertOverflow("forced")

    monkeypatch.setattr("slidingbloom.filter.SlidingFilter.insert", boom)
    code, _, err = run(capsys, "dedup", "-n", "10", "-e", "0.01", str(src))
    assert code == 3
    assert "overflow" in err


# the benchmark and the validation drivers run as scripts, not subcommands:
# perfbench/run.py, scripts/fpr_seed_grid.py and scripts/space_sweep.py
@pytest.mark.parametrize("command", ["bench", "fpr", "space"])
def test_removed_subcommand_is_unknown(capsys, command):
    assert cli.main([command, "-n", "500", "-e", "0.0625"]) == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
