import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from uctseries.cli import main
from uctseries.coding import compress_container
from uctseries.seqmodel import Alphabet, SymbolSeq

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

    @pytest.mark.parametrize("name", ["kt", "uniform"])
    def test_alphabet_flag_decodes_with_the_header_model(self, capsys, tmp_path, name):
        text = "0001101110010111000011"
        x = SymbolSeq.from_labels(Alphabet.of_size(2), list(text))
        blob = tmp_path / f"{name}.uct"
        blob.write_bytes(compress_container(x, model_name=name)[0])
        out = tmp_path / f"{name}.txt"
        code, rep, _ = run(capsys, "decompress", "--in", blob, "--out", out,
                           "--alphabet", "2")
        assert code == 0
        assert rep["model"] == name
        assert out.read_text() == text + "\n"

    @pytest.mark.parametrize("model_id", [1, 255])
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

    def test_null_required(self, capsys):
        code, _, err = run(
            capsys, "test-identity", "--in", DATA / "mixed.txt"
        )
        assert code == 2


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
    @pytest.mark.parametrize("domain, text, detail", [
        ("-inf:inf", "0.25\n", "finite"),
        ("0:inf", "0.25\n", "finite"),
        ("0:1", "0.25\nnan\n0.5\n", "nan at index 1 "),
    ])
    def test_non_finite_is_one_json_error_line(self, capsys, tmp_path, domain, text,
                                               detail):
        f = tmp_path / "reals.csv"
        f.write_text(text)
        code, rep, err = run(capsys, "density", "--in", f, f"--domain={domain}")
        assert code == 3 and rep is None
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "data" and detail in error["detail"]


class TestMonteCarloCommand:
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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_domain_is_one_json_error_line(self, capsys):
        code, rep, err = run(capsys, "montecarlo", "--test", "partition-si",
                             "--trials", "2", "--domain=0:inf")
        assert code == 3 and rep is None
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
    # depths whose 2^depth cell labels would take gigabytes
    ["density", "--in", DATA / "uniform_reals.csv", "--domain", "0:1", "--depth", "21"],
    ["montecarlo", "--test", "partition-si", "--depth", "21"],
])
def test_out_of_range_option_is_usage_error(capsys, argv):
    code, rep, err = run(capsys, *argv)
    assert code == 2 and rep is None
    assert json.loads(err)["error"] == "usage"


class TestSubprocessEntry:
    def test_import_leaves_quadrature_unloaded(self):
        # scipy.integrate serves only callable null densities
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, uctseries; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

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
