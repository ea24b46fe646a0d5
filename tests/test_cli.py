import io
import json
import struct

import pytest

from slidingbloom import cli
from slidingbloom.dictionary import InsertOverflow


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


def test_dedup_bad_config_exits_2(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("a")
    code, _, err = run(capsys, "dedup", "-n", "10", "-e", "1.5", str(src))
    assert code == 2
    assert "epsilon" in err


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


def test_fpr_subcommand_json(capsys):
    code, out, err = run(capsys, "fpr", "-n", "200", "-m", "50", "-e", "0.0625",
                         "--seed", "4", "-T", "2000")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "slidingbloom.fpr/1"
    assert rep["trials"] == 2000
    assert rep["passed"] is True


def test_fpr_underpowered_exit_4(capsys):
    code, out, err = run(capsys, "fpr", "-n", "100", "-m", "10", "-e", "0.0009765625",
                         "--seed", "4", "-T", "1000")
    assert code == 4
    assert json.loads(out)["underpowered"] is True
    assert "underpowered" in err


def test_space_subcommand(capsys):
    code, out, _ = run(capsys, "space", "-n", "65536", "-m", "65536", "-e", "0.0009765625")
    assert code == 0
    rep = json.loads(out)
    assert rep["measured_bits"] > 0
    assert rep["ratio"] == pytest.approx(rep["measured_bits"] / rep["lower_bound_bits"])


def test_bench_subcommand(capsys):
    code, out, _ = run(capsys, "bench", "-n", "500", "-m", "500", "-e", "0.0625",
                       "--ops", "3000", "--seeds", "2")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["runs"]) == 2
    for r in rep["runs"]:
        assert r["inserts_per_sec"] > 0
        assert r["max_kick_chain"] < 500
