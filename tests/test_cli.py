import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uctseries import cli
from uctseries.cli import main
from uctseries.coding import compress_container, ideal_r_provider
from uctseries.estimators import DEFAULT_MAX_EXPLICIT_ORDER, MarkovSource
from uctseries.seqmodel import Alphabet, SymbolSeq
from uctseries.testing import identity_test, partition_meta_test, serial_independence_test

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestEstimate:
    def test_two_sample_query(self, capsys):
        code, rep, _ = run(
            capsys, "estimate", "--in", DATA / "two_samples.txt", "--query", "01"
        )
        assert code == 0
        assert rep["lengths"] == [4, 3]
        assert rep["query"]["prob"] == pytest.approx(0.32812, abs=1e-3)
        assert rep["prob"] == pytest.approx(0.0089, abs=5e-4)

    def test_deterministic_reports(self, capsys):
        a = run(capsys, "estimate", "--in", DATA / "mixed.txt")
        b = run(capsys, "estimate", "--in", DATA / "mixed.txt")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, rep, _ = run(
            capsys, "estimate", "--in", DATA / "mixed.txt", "--out", out
        )
        assert code == 0 and rep is None
        assert json.loads(out.read_text())["command"] == "estimate"

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--in", DATA / "nope.txt")
        assert code == 3
        assert json.loads(err)["error"] == "data"

    def test_bad_usage(self, capsys):
        code = main(["estimate"])  # missing --in
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"] == "usage"

    def test_token_per_line_alphabet(self, capsys, tmp_path):
        f = tmp_path / "tokens.txt"
        f.write_text("up\ndown\nup\nup\n\ndown\nflat\n")
        code, rep, _ = run(
            capsys, "estimate", "--in", f, "--alphabet", "up,down,flat",
            "--query", "up,up",
        )
        assert code == 0
        assert rep["lengths"] == [4, 2]
        assert 0 < rep["query"]["prob"] < 1

    def test_byte_order_mark_is_not_a_symbol(self, capsys, tmp_path):
        f = tmp_path / "bom.txt"
        f.write_bytes("\ufeff0101\n".encode("utf-8"))
        code, rep, _ = run(capsys, "estimate", "--in", f)
        assert code == 0
        assert rep["alphabet"] == ["0", "1"] and rep["lengths"] == [4]

    def test_crlf_and_bom_give_the_plain_report(self, capsys):
        # tests/data/mixed_crlf_bom.txt is mixed.txt with CRLF line ends
        # and a byte order mark
        assert (DATA / "mixed_crlf_bom.txt").read_bytes() == (
            b"\xef\xbb\xbf" + (DATA / "mixed.txt").read_bytes().replace(b"\n", b"\r\n"))
        plain = run(capsys, "estimate", "--in", DATA / "mixed.txt")
        assert run(capsys, "estimate", "--in", DATA / "mixed_crlf_bom.txt") == plain

    @pytest.mark.parametrize("alphabet", [[], ["--alphabet", "2"]])
    def test_whitespace_inside_a_line_is_not_a_symbol(self, capsys, tmp_path, alphabet):
        f = tmp_path / "spaces.txt"
        f.write_text(" 01 10 \n")
        code, rep, err = run(capsys, "estimate", "--in", f, *alphabet)
        assert code == 3 and rep is None
        assert json.loads(err)["detail"] == "unknown symbol label ' '"

    def test_inferred_alphabet_in_code_point_order(self, capsys, tmp_path):
        f = tmp_path / "letters.txt"
        f.write_text("ba\u00e9\n\n\U0001f600a\n")
        code, rep, _ = run(capsys, "estimate", "--in", f)
        assert code == 0
        assert rep["alphabet"] == ["a", "b", "\u00e9", "\U0001f600"]
        assert rep["lengths"] == [3, 2]


class TestPredict:
    def test_conditionals_sum_to_one(self, capsys):
        code, rep, _ = run(capsys, "predict", "--in", DATA / "alternating.txt")
        assert code == 0
        total = sum(rep["conditionals"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
        # alternating history strongly suggests the next symbol flips
        assert rep["conditionals"]["0"] > 0.8

    def test_side_information(self, capsys):
        code, rep, _ = run(
            capsys, "predict",
            "--in", DATA / "side_x.txt", "--in2", DATA / "side_y.txt",
        )
        assert code == 0
        assert "side_info" in rep
        assert sum(rep["conditionals"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_side_information_length_mismatch(self, capsys):
        code, _, err = run(
            capsys, "predict",
            "--in", DATA / "side_x.txt", "--in2", DATA / "side_x.txt",
        )
        assert code == 3
        assert "one more symbol" in json.loads(err)["detail"]


class TestCompressRoundTrip:
    def test_round_trip_bytes_identical(self, capsys, tmp_path):
        blob = tmp_path / "seq.uct"
        text = tmp_path / "seq.txt"
        code, rep, _ = run(
            capsys, "compress", "--in", DATA / "mixed.txt", "--out", blob
        )
        assert code == 0
        assert rep["payload_bits"] <= rep["ideal_bits"] + 3
        code, rep2, _ = run(
            capsys, "decompress", "--in", blob, "--out", text
        )
        assert code == 0
        assert text.read_text() == (DATA / "mixed.txt").read_text()

    def test_alphabet_flag_decodes_with_the_header_model(self, capsys, tmp_path):
        text = "0001101110010111000011"
        x = SymbolSeq.from_labels(Alphabet.of_size(2), list(text))
        blob = tmp_path / "r.uct"
        blob.write_bytes(compress_container(x)[0])
        out = tmp_path / "r.txt"
        code, rep, _ = run(capsys, "decompress", "--in", blob, "--out", out,
                           "--alphabet", "2")
        assert code == 0
        assert rep["model"] == "r"
        assert out.read_text() == text + "\n"

    # 0 and 2 once named a uniform and an order-0 add-half model
    @pytest.mark.parametrize("model_id", [0, 1, 2, 255])
    def test_unknown_header_model_id_is_data_error(self, capsys, tmp_path, model_id):
        x = SymbolSeq.from_labels(Alphabet.of_size(2), list("0110"))
        blob = bytearray(compress_container(x)[0])
        blob[14] = model_id
        path = tmp_path / "bad.uct"
        path.write_bytes(bytes(blob))
        out = tmp_path / "bad.txt"
        code, rep, err = run(capsys, "decompress", "--in", path, "--out", out)
        assert code == 3 and rep is None
        error = json.loads(err)
        assert error["error"] == "data" and "byte 14" in error["detail"]
        assert not out.exists()

    def test_huge_claimed_length_is_data_error(self, capsys, tmp_path):
        # the header claims 2^40 symbols for an 8-byte payload
        path = tmp_path / "huge.uct"
        path.write_bytes(b"UCT1" + struct.pack(">HQB", 2, 1 << 40, 3) + bytes(8))
        out = tmp_path / "huge.txt"
        code, rep, err = run(capsys, "decompress", "--in", path, "--out", out)
        assert code == 3 and rep is None
        assert json.loads(err)["error"] == "data"
        assert not out.exists()

    def test_alphabet_beyond_u16_is_data_error(self, capsys, tmp_path):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("0\n69999\n5\n")
        out = tmp_path / "x.uct"
        code, rep, err = run(capsys, "compress", "--in", tokens, "--alphabet", "70000",
                             "--out", out)
        assert code == 3 and rep is None
        error = json.loads(err)
        assert error["error"] == "data" and "65535" in error["detail"]
        assert not out.exists()

    def test_multisample_input_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compress", "--in", DATA / "two_samples.txt",
            "--out", tmp_path / "x.uct",
        )
        assert code == 3

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compress", "--in", DATA / "mixed.txt")
        assert code == 2

    def test_decompress_requires_out(self, capsys, tmp_path):
        blob = tmp_path / "seq.uct"
        run(capsys, "compress", "--in", DATA / "mixed.txt", "--out", blob)
        code, _, _ = run(capsys, "decompress", "--in", blob)
        assert code == 2


class TestIdentityCommand:
    def test_uniform_data_accepts(self, capsys):
        code, rep, _ = run(
            capsys, "test-identity", "--in", DATA / "mixed.txt",
            "--null", DATA / "uniform_null.txt", "--alpha", "0.05",
        )
        assert code == 0
        assert rep["verdict"] == "accept"
        assert rep["provider"] == "ideal-r"

    def test_alternating_data_rejects(self, capsys):
        code, rep, _ = run(
            capsys, "test-identity", "--in", DATA / "alternating.txt",
            "--null", DATA / "uniform_null.txt", "--alpha", "0.05",
        )
        assert code == 1
        assert rep["verdict"] == "reject"

    def test_byte_order_mark_in_null_is_skipped(self, capsys, tmp_path):
        null = tmp_path / "null.txt"
        null.write_bytes(b"\xef\xbb\xbf" + (DATA / "uniform_null.txt").read_bytes())
        argv = ["test-identity", "--in", DATA / "alternating.txt", "--null"]
        plain = run(capsys, *argv, DATA / "uniform_null.txt")
        assert plain[0] == 1
        assert run(capsys, *argv, null) == plain

    def test_null_required(self, capsys):
        code, _, err = run(
            capsys, "test-identity", "--in", DATA / "mixed.txt"
        )
        assert code == 2

    @pytest.mark.parametrize("text, line", [
        ("alphabet\norder 0\n0.5 0.5\n", 1),
        ("alphabet 2\norder\n0.5 0.5\n", 2),
        ("alphabet 2\norder -1\n0.5 0.5\n", 2),
        ("alphabet 2\norder 1\nx 0.5 0.5\n1 0.5 0.5\n", 3),
        ("alphabet 2\norder 1\n0 0.5 0.5\n1 0.5 y\n", 4),
        ("alphabet 2\norder 1\ninitial\n0 0.5 0.5\n1 0.5 0.5\n", 3),
        # probabilities that parse but make no distribution
        ("alphabet 2\norder 1\ninitial nan nan\n0 0.5 0.5\n1 0.5 0.5\n", 3),
        ("alphabet 2\norder 1\ninitial 0.5 0.6\n0 0.5 0.5\n1 0.5 0.5\n", 3),
        ("alphabet 2\norder 1\n0 0.5 0.6\n1 0.5 0.5\n", 3),
        ("alphabet 2\norder 1\n0 0.5 0.5\n1 -0.5 1.5\n", 4),
        ("alphabet 2\norder 0\n# a comment\nnan 1\n", 4),
        # each declaration and each context once
        ("alphabet 2\norder 1\n0 0.5 0.5\n1 0.5 0.5\norder 2\n", 5),
        ("alphabet 2\nalphabet 3\norder 0\n0.5 0.5\n", 2),
        ("alphabet 2\norder 1\n0 0.5 0.5\n0 0.9 0.1\n1 0.5 0.5\n", 4),
        ("alphabet 2\norder 1\ninitial 0.5 0.5\ninitial 0.5 0.5\n0 0.5 0.5\n1 0.5 0.5\n", 4),
        ("alphabet 2\norder 0\n0.5 0.5\n0.5 0.5\n", 4),
    ])
    def test_malformed_null_is_data_error_naming_the_line(self, capsys, tmp_path,
                                                          text, line):
        null = tmp_path / "null.txt"
        null.write_text(text)
        code, rep, err = run(capsys, "test-identity", "--in", DATA / "mixed.txt",
                             "--null", null)
        assert code == 3 and rep is None
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "data" and f"line {line}:" in error["detail"]

    @pytest.mark.parametrize("text, context", [
        ("alphabet 2\norder 2\n00 0.5 0.5\n01 0.5 0.5\n11 0.5 0.5\n", "'10'"),
        ("alphabet 12\norder 1\n0" + " 0.5" * 2 + " 0" * 10 + "\n", "'1'"),
        ("alphabet 2\norder 0\n", "''"),
        # found before a table of 2^60 rows is allocated
        ("alphabet 2\norder 60\n", repr("0" * 60)),
        # longer than numpy's dimension limit, named digit by digit
        ("alphabet 2\norder 70\n" + "0" * 70 + " 0.5 0.5\n", repr("0" * 69 + "1")),
    ])
    def test_missing_context_is_data_error_naming_it(self, capsys, tmp_path, text,
                                                     context):
        null = tmp_path / "null.txt"
        null.write_text(text)
        code, rep, err = run(capsys, "test-identity", "--in", DATA / "mixed.txt",
                             "--null", null)
        assert code == 3 and rep is None
        assert json.loads(err)["detail"] == f"conditional table is missing context {context}"

    @pytest.mark.parametrize("initial", ["nan nan", "nan 1", "inf -inf"])
    def test_non_finite_initial_distribution_is_data_error(self, capsys, tmp_path,
                                                          initial):
        null = tmp_path / "null.txt"
        null.write_text(f"alphabet 2\norder 1\ninitial {initial}\n0 0.5 0.5\n1 0.5 0.5\n")
        code, rep, err = run(capsys, "test-identity", "--in", DATA / "mixed.txt",
                             "--null", null)
        assert code == 3 and rep is None
        assert json.loads(err)["error"] == "data"


class TestIndependenceCommand:
    def test_alternating_rejects(self, capsys):
        code, rep, _ = run(
            capsys, "test-independence", "--in", DATA / "alternating.txt",
            "--order", "0", "--alpha", "0.01",
        )
        assert code == 1
        assert rep["verdict"] == "reject"
        assert rep["test"] == "serial-independence"

    def test_multisample_accepts(self, capsys):
        code, rep, _ = run(
            capsys, "test-independence", "--in", DATA / "two_samples.txt",
            "--order", "0", "--alpha", "0.05",
        )
        assert code == 0
        assert rep["lengths"] == [4, 3]

    def test_external_provider(self, capsys):
        code, rep, _ = run(
            capsys, "test-independence", "--in", DATA / "mixed.txt",
            "--order", "0", "--alpha", "0.05",
            "--provider", "external", "--compressor-cmd", "gzip -c",
        )
        assert code == 0
        assert rep["provider"].startswith("external:")

    def test_arithmetic_provider(self, capsys):
        code, rep, _ = run(
            capsys, "test-independence", "--in", DATA / "mixed.txt",
            "--order", "0", "--alpha", "0.05", "--provider", "arithmetic",
        )
        assert code == 0
        assert rep["provider"] == "arithmetic"


class TestDensityCommand:
    def test_uniform_reals(self, capsys):
        code, rep, _ = run(
            capsys, "density", "--in", DATA / "uniform_reals.csv",
            "--domain", "0:1", "--depth", "4",
        )
        assert code == 0
        assert rep["n"] == 400
        assert rep["bits_per_value"] < 0.5

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf" + (DATA / "uniform_reals.csv").read_bytes())
        plain = run(capsys, "density", "--in", DATA / "uniform_reals.csv",
                    "--domain", "0:1", "--depth", "4")
        assert plain[0] == 0
        assert run(capsys, "density", "--in", f, "--domain", "0:1", "--depth", "4") == plain

    def test_renormalize_flag_lowers_bits(self, capsys):
        _, plain, _ = run(
            capsys, "density", "--in", DATA / "uniform_reals.csv",
            "--domain", "0:1", "--depth", "4",
        )
        _, renorm, _ = run(
            capsys, "density", "--in", DATA / "uniform_reals.csv",
            "--domain", "0:1", "--depth", "4", "--renormalize-depth-weights",
        )
        assert renorm["bits_per_value"] < plain["bits_per_value"]

    def test_domain_required(self, capsys):
        code, _, _ = run(
            capsys, "density", "--in", DATA / "uniform_reals.csv", "--domain", ""
        )
        assert code == 2

    def test_negative_bound_needs_the_equals_form(self, capsys):
        reals = DATA / "uniform_reals.csv"
        code, rep, _ = run(capsys, "density", "--in", reals, "--domain=-1:1", "--depth", "4")
        assert code == 0 and rep["domain"] == [-1.0, 1.0] and rep["n"] == 400
        # argparse takes -1:1 for a flag, so --domain is left without a value
        code, rep, err = run(capsys, "density", "--in", reals, "--domain", "-1:1")
        assert code == 2 and rep is None
        assert json.loads(err) == {"error": "usage",
                                   "detail": "argument --domain: expected one argument"}

    def test_out_of_domain_value(self, capsys):
        code, _, err = run(
            capsys, "density", "--in", DATA / "uniform_reals.csv",
            "--domain", "0:0.5",
        )
        assert code == 3

    def test_two_column_file_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "pairs.csv"
        f.write_text("0.25\n0.5,0.75\n")
        code, rep, err = run(capsys, "density", "--in", f, "--domain", "0:1")
        assert code == 3 and rep is None
        error = json.loads(err)
        assert error["error"] == "data" and f"{f}:2:" in error["detail"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain, text, code, kind, detail", [
        # a non-finite --domain is a bad option value; a non-finite value, bad data
        ("-inf:inf", "0.25\n", 2, "usage", "finite"),
        ("0:inf", "0.25\n", 2, "usage", "finite"),
        ("0:1", "0.25\nnan\n0.5\n", 3, "data", "nan at index 1 "),
    ])
    def test_non_finite_is_one_json_error_line(self, capsys, tmp_path, domain, text,
                                               code, kind, detail):
        f = tmp_path / "reals.csv"
        f.write_text(text)
        got, rep, err = run(capsys, "density", "--in", f, f"--domain={domain}")
        assert got == code and rep is None
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == kind and detail in error["detail"]


class TestReadReals:
    @pytest.mark.parametrize("data", [
        b"0.25\n-0.5\n1e-3\n",
        b"0.25\n-0.5\n1e-3",
        b"0.25\r\n-0.5\r\n1e-3\r\n",
        b"0.25\r-0.5\r1e-3\r",
        b"\xef\xbb\xbf0.25\r\n-0.5\r\n1e-3",
        b"  0.25 \n\t-0.5\n1e-3  \r\n",
        b"\n0.25\n\n-0.5\n   \n1e-3\n\n",
    ], ids=["lf", "no-final-newline", "crlf", "cr", "bom-crlf", "padded", "blank-lines"])
    def test_line_endings_padding_and_blank_lines(self, tmp_path, data):
        f = tmp_path / "reals.csv"
        f.write_bytes(data)
        got = cli._read_reals(str(f))
        assert got.dtype == float and got.tolist() == [0.25, -0.5, 1e-3]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "reals.csv"
        f.write_bytes(b"")
        got = cli._read_reals(str(f))
        assert got.dtype == float and got.shape == (0,)

    @pytest.mark.parametrize("data, lineno, bad", [
        (b"0.25\n\nx\n0.5\nbad\n", 3, "x"),
        (b"0.25\r\r 1.5.2 \r0.5\r", 3, "1.5.2"),
        (b"\xef\xbb\xbf0.25\r\n0.5,0.75\r\n", 2, "0.5,0.75"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, data, lineno, bad):
        f = tmp_path / "reals.csv"
        f.write_bytes(data)
        named = re.escape(f"{f}:{lineno}: ") + ".*" + re.escape(repr(bad))
        with pytest.raises(ValueError, match=named):
            cli._read_reals(str(f))


class TestMonteCarloCommand:
    @staticmethod
    def per_call(kind, cfg, i) -> bool:
        """Trial i tested alone, by the public test functions."""
        rng = np.random.default_rng(cfg["seed"] + i)
        provider = ideal_r_provider(cfg["max_order"])
        if kind == "partition-si":
            lo, hi = cfg["domain"]
            data = lo + (hi - lo) * rng.random(cfg["length"])
            return partition_meta_test(data, cfg["alpha"], "si", cfg["depth"], (lo, hi),
                                       max_explicit_order=cfg["max_order"]).rejected
        x = cfg["source"].sample(cfg["length"], rng)
        if kind == "identity":
            return identity_test(x, cfg["null"], cfg["alpha"], provider).rejected
        return serial_independence_test(x, cfg["order"], cfg["alpha"], provider).rejected

    # mixed: some of the trials reject and some accept
    @pytest.mark.parametrize("kind, trials, cfg, mixed", [
        # the montecarlo_identity_sticky golden: half its trials reject
        ("identity", 40, dict(seed=0, alpha=0.05, length=64, max_order=16,
                              null=MarkovSource.from_file(DATA / "uniform_null.txt"),
                              source=MarkovSource.from_file(DATA / "sticky_null.txt")), True),
        ("identity", 16, dict(seed=2, alpha=0.05, length=32, max_order=16,
                              null=MarkovSource.from_file(DATA / "sticky_null.txt"),
                              source=MarkovSource.from_file(DATA / "sticky_null.txt")), True),
        # a trial holding a 1 has null probability zero and rejects uncoded
        ("identity", 16, dict(seed=4, alpha=0.05, length=2, max_order=16,
                              null=MarkovSource.iid(Alphabet.of_size(2), [1.0, 0.0]),
                              source=MarkovSource.uniform(Alphabet.of_size(2))), True),
        ("independence", 30, dict(seed=7, alpha=0.05, length=40, max_order=2, order=0,
                                  source=MarkovSource.from_file(DATA / "sticky_null.txt")),
         True),
        ("independence", 12, dict(seed=1, alpha=0.3, length=9, max_order=16, order=2,
                                  source=MarkovSource.uniform(Alphabet.of_size(3))), False),
        ("partition-si", 20, dict(seed=3, alpha=0.05, length=400, max_order=16, depth=6,
                                  domain=(0.0, 1.0)), False),
        ("partition-si", 16, dict(seed=5, alpha=0.9, length=30, max_order=1, depth=3,
                                  domain=(-2.0, 5.0)), False),
    ], ids=["identity-sticky", "identity-order1-null", "identity-zero-probability",
            "independence-sticky",
            "independence-ternary-order2", "partition-si-golden", "partition-si-loose"])
    def test_batched_trials_equal_the_per_call_tests(self, monkeypatch, kind, trials,
                                                      cfg, mixed):
        expected = [self.per_call(kind, cfg, i) for i in range(trials)]
        assert not mixed or 0 < sum(expected) < trials
        assert cli._run_pool(kind, cfg, trials) == expected
        for chunk in (3 * cfg["length"] - 1, 1):  # two trials a batch, then one
            monkeypatch.setattr(cli, "_MC_CHUNK", chunk)
            assert cli._run_pool(kind, cfg, trials) == expected

    def test_order_not_below_the_length_is_a_data_error(self, capsys):
        code, rep, err = run(capsys, "montecarlo", "--test", "independence",
                             "--order", "5", "--length", "5", "--trials", "3")
        assert code == 3 and rep is None
        assert json.loads(err) == {
            "error": "data", "detail": "every sample must be longer than the order k=5"}

    def test_identity_type1(self, capsys):
        code, rep, _ = run(
            capsys, "montecarlo", "--test", "identity", "--trials", "40",
            "--alpha", "0.05", "--length", "64", "--seed", "3",
        )
        assert code == 0
        assert rep["pass"] is True
        assert rep["rejection_rate"] <= rep["bound"]

    def test_partition_type1(self, capsys):
        code, rep, _ = run(
            capsys, "montecarlo", "--test", "partition-si", "--trials", "30",
            "--alpha", "0.05", "--length", "48", "--depth", "3", "--seed", "4",
        )
        assert code == 0

    def test_deterministic_across_runs(self, capsys):
        args = ("montecarlo", "--test", "independence", "--trials", "25",
                "--alpha", "0.05", "--length", "50", "--seed", "9")
        assert run(capsys, *args) == run(capsys, *args)

    def test_kl_redundancy(self, capsys):
        code, rep, _ = run(
            capsys, "montecarlo", "--test", "kl-redundancy",
            "--source", DATA / "sticky_chain.txt",
            "--trials", "10", "--length", "200", "--seed", "5",
        )
        assert code == 0
        assert rep["value_bits_per_letter"] > 0

    def test_single_trial_report_is_strict_json(self, capsys):
        # one trial has no standard error: the report says null, not NaN
        code = main(["montecarlo", "--test", "kl-redundancy",
                     "--source", str(DATA / "sticky_chain.txt"),
                     "--trials", "1", "--length", "50"])
        out = capsys.readouterr().out

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rep = json.loads(out, parse_constant=reject)
        assert code == 0
        assert rep["stderr"] is None and rep["value_bits_per_letter"] > 0

    @pytest.mark.parametrize("argv, unread", [
        (["--test", "kl-redundancy", "--source", DATA / "sticky_null.txt", "--alphabet", "7",
          "--domain", "5:9", "--alpha", "0.3", "--order", "4", "--depth", "3"],
         "--alpha, --alphabet, --depth, --domain, --order"),
        (["--test", "identity", "--null", DATA / "uniform_null.txt", "--alphabet", "5"],
         "--alphabet"),
        (["--test", "identity", "--order", "3", "--depth", "2", "--domain", "0:2"],
         "--depth, --domain, --order"),
        (["--test", "partition-si", "--null", DATA / "uniform_null.txt",
          "--source", DATA / "sticky_null.txt", "--order", "2"],
         "--null, --order, --source"),
        (["--test", "independence", "--source", DATA / "sticky_null.txt", "--alphabet", "3",
          "--depth", "5"],
         "--alphabet, --depth"),
        # a default value given is still given
        (["--test", "identity", "--order", "0"], "--order"),
        (["--test", "kl-redundancy", "--source", DATA / "sticky_null.txt", "--alpha=0.05"],
         "--alpha"),
    ], ids=["kl", "identity-null-alphabet", "identity", "partition-si",
            "independence-source-alphabet", "identity-default-order", "kl-default-alpha"])
    def test_unread_flag_is_one_json_usage_line(self, capsys, monkeypatch, argv, unread):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_run_pool", no_trials)
        monkeypatch.setattr(cli.estimators, "avg_kl_error", no_trials)
        code = main(["montecarlo", *map(str, argv), "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "usage", "detail": f"montecarlo --test {argv[1]} does not read {unread}"}

    @pytest.mark.parametrize("test", ["identity", "independence"])
    def test_alphabet_is_read_without_a_source_file(self, capsys, test):
        code, rep, err = run(capsys, "montecarlo", "--test", test, "--alphabet", "3",
                             "--trials", "2", "--length", "16")
        assert code == 0 and err == ""
        assert rep["test"] == test and rep["trials"] == 2 and rep["length"] == 16

    @pytest.mark.filterwarnings("error")
    def test_non_finite_domain_is_one_json_error_line(self, capsys):
        code, rep, err = run(capsys, "montecarlo", "--test", "partition-si",
                             "--trials", "2", "--domain=0:inf")
        assert code == 2 and rep is None
        assert len(err.splitlines()) == 1
        assert "finite" in json.loads(err)["detail"]


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--test", "identity", "--trials", "0"],
    ["montecarlo", "--test", "identity", "--trials", "-3"],
    ["estimate", "--in", DATA / "mixed.txt", "--max-order", "-1"],
    ["density", "--in", DATA / "uniform_reals.csv", "--domain", "0:1", "--depth", "-1"],
    ["test-independence", "--in", DATA / "mixed.txt", "--alpha", "1.5"],
    ["test-independence", "--in", DATA / "mixed.txt", "--alpha", "0"],
    ["estimate", "--in", DATA / "mixed.txt", "--max-order", "two"],
    ["test-independence", "--in", DATA / "mixed.txt", "--order", "-1"],
    ["montecarlo", "--test", "independence", "--order", "-1"],
    ["montecarlo", "--test", "identity", "--length", "-4"],
    ["montecarlo", "--test", "identity", "--length", "0"],
    ["montecarlo", "--test", "identity", "--seed", "-1"],
    # flags the subcommand does not read
    ["estimate", "--in", DATA / "mixed.txt", "--provider", "external", "--trials", "5"],
    ["predict", "--in", DATA / "mixed.txt", "--order", "1"],
    ["compress", "--in", DATA / "mixed.txt", "--out", DATA / "missing" / "x.uct", "--seed", "1"],
    ["density", "--in", DATA / "uniform_reals.csv", "--domain", "0:1", "--max-order", "2"],
    ["test-identity", "--in", DATA / "mixed.txt", "--null", DATA / "uniform_null.txt",
     "--seed", "3"],
    ["montecarlo", "--test", "identity", "--in", DATA / "mixed.txt"],
    ["montecarlo", "--test", "identity", "--provider", "arithmetic"],
    # prefixes of flags the subcommand reads
    ["compress", "--in", DATA / "mixed.txt", "--out", DATA / "missing" / "x.uct",
     "--alpha", "0.1"],
    ["density", "--in", DATA / "uniform_reals.csv", "--domain", "0:1", "--dep", "3"],
    # depths past realvalued.MAX_DEPTH, where the context terms lose precision
    ["density", "--in", DATA / "uniform_reals.csv", "--domain", "0:1", "--depth", "21"],
    ["montecarlo", "--test", "partition-si", "--depth", "21"],
    ["montecarlo", "--test", "bogus"],
])
def test_out_of_range_option_is_usage_error(capsys, argv):
    code, rep, err = run(capsys, *argv)
    assert code == 2 and rep is None
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv, code", [
    (["estimate", "--in", DATA / "mixed.txt", "--alphabet", "x"], 2),
    (["estimate", "--in", DATA / "mixed.txt", "--alphabet", "a,a"], 2),
    (["estimate", "--in", "{blank}"], 3),
    (["density", "--in", DATA / "uniform_reals.csv", "--domain", "abc"], 2),
    (["density", "--in", DATA / "uniform_reals.csv", "--domain", "1:0"], 2),
    (["test-independence", "--in", DATA / "mixed.txt", "--provider", "external"], 2),
    (["predict", "--in", DATA / "two_samples.txt", "--in2", DATA / "side_y.txt"], 3),
    (["test-identity", "--in", DATA / "mixed.txt", "--null", DATA / "uniform_null.txt",
      "--alphabet", "3"], 3),
    (["montecarlo", "--test", "kl-redundancy"], 2),
], ids=["alphabet-spec", "alphabet-repeats", "blank-symbol-file", "domain-spec",
        "domain-order", "external-without-cmd", "side-info-multisample",
        "null-alphabet-size", "kl-without-source"])
def test_documented_bad_input_is_one_json_error_line(capsys, tmp_path, argv, code):
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n\n")
    got = main([str(blank) if a == "{blank}" else str(a) for a in argv])
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    error = json.loads(captured.err)
    assert set(error) == {"error", "detail"}
    assert error["error"] == {2: "usage", 3: "data"}[code]


def test_one_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, "estimate", "--in", DATA / "two_samples.txt", "--query", "01")
    # a usage error and other flags in between leave no state behind
    assert run(capsys, "estimate", "--in", DATA / "mixed.txt", "--max-order", "-1")[0] == 2
    assert run(capsys, "estimate", "--in", DATA / "mixed.txt", "--max-order", "2")[0] == 0
    assert run(capsys, "estimate", "--in", DATA / "two_samples.txt", "--query", "01") == first
    _, rep, _ = run(capsys, "estimate", "--in", DATA / "two_samples.txt")
    assert "query" not in rep and rep["max_order"] == DEFAULT_MAX_EXPLICIT_ORDER


class TestSubprocessEntry:
    def test_import_leaves_quadrature_unloaded(self, tmp_path):
        # scipy.integrate serves only callable null densities, and nothing
        # else loads scipy: not the import, not a command
        script = (
            "import sys, uctseries\n"
            "print('scipy.integrate' in sys.modules)\n"
            "def loaded(): return sorted({'scipy', 'scipy.special'} & set(sys.modules))\n"
            "print(loaded())\n"
            "from uctseries import cli\n"
            f"code = cli.main(['estimate', '--in', {str(DATA / 'mixed.txt')!r},"
            f" '--out', {str(tmp_path / 'report.json')!r}])\n"
            "print(code, loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "[]", "0 []"]
        assert json.loads((tmp_path / "report.json").read_text())["lengths"]

    def test_depth_20_density_peak_memory(self, child_peak_kib):
        # the 2^20 finest cells are indices and no label is built for
        # them; 2^20 label strings took the peak to 194 MB
        stdout, kib = child_peak_kib(
            "from uctseries.cli import main\n"
            f"assert main(['density', '--in', {str(DATA / 'uniform_reals.csv')!r},"
            " '--domain', '0:1', '--depth', '20']) == 0\n"
        )
        assert json.loads(stdout)["depth"] == 20
        assert kib < 100 * 1024

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "uctseries", "estimate",
             "--in", str(DATA / "two_samples.txt"), "--query", "01"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["query"]["prob"] == pytest.approx(0.32812, abs=1e-3)

    def test_reject_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uctseries", "test-independence",
             "--in", str(DATA / "alternating.txt"), "--order", "0",
             "--alpha", "0.01"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
