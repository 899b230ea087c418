"""Byte-for-byte CLI reports, containers and coder payloads, the decoding
of the stored containers, and the export lists.

The files under tests/data/golden were written by the CLI and the coder
themselves on the data files of tests/data.  A change to any report,
container or payload byte is a change in numerics and must be
deliberate: rerun this module's ``write_goldens()`` and say so in the
change log.

    PYTHONPATH=src python -c "import tests.test_golden as g; g.write_goldens()"
"""

import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import uctseries
from uctseries.cli import main
from uctseries.coding import arithmetic_encode
from uctseries.estimators import DEFAULT_MAX_EXPLICIT_ORDER, KtState, MixtureEstimator
from uctseries.seqmodel import Alphabet, MultiSample, SymbolSeq

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
OUT = "OUT"  # stands for the --out path in the stored compress report

# name -> (argv with data file names relative to tests/data, exit code)
CASES = {
    "estimate_mixed": (["estimate", "--in", "mixed.txt"], 0),
    "estimate_alternating": (["estimate", "--in", "alternating.txt"], 0),
    "estimate_query_mixed": (["estimate", "--in", "mixed.txt", "--query", "0110"], 0),
    "estimate_query_two_samples": (
        ["estimate", "--in", "two_samples.txt", "--query", "01"], 0),
    "estimate_query_two_samples_long_word": (
        ["estimate", "--in", "two_samples.txt", "--query", "01101"], 0),
    "estimate_query_two_samples_long_word_order1": (
        ["estimate", "--in", "two_samples.txt", "--query", "01101", "--max-order", "1"], 0),
    "independence_mixed": (
        ["test-independence", "--order", "1", "--in", "mixed.txt"], 0),
    "independence_alternating": (
        ["test-independence", "--order", "1", "--in", "alternating.txt"], 0),
    "independence_two_samples": (
        ["test-independence", "--order", "1", "--in", "two_samples.txt"], 0),
    "identity_mixed": (
        ["test-identity", "--in", "mixed.txt", "--null", "uniform_null.txt"], 0),
    "identity_mixed_alpha03": (
        ["test-identity", "--in", "mixed.txt", "--null", "uniform_null.txt",
         "--alpha", "0.3"], 1),
    "identity_two_samples_sticky": (
        ["test-identity", "--in", "two_samples.txt", "--null", "sticky_null.txt"], 1),
    "montecarlo_partition_si": (
        ["montecarlo", "--test", "partition-si", "--trials", "20", "--length", "400",
         "--depth", "6", "--seed", "3"], 0),
    # one generator spans every trial, so these pin the sampled stream
    "montecarlo_kl_sticky": (
        ["montecarlo", "--test", "kl-redundancy", "--source", "sticky_null.txt",
         "--trials", "20", "--length", "300", "--seed", "5"], 0),
    "montecarlo_identity_sticky": (
        ["montecarlo", "--test", "identity", "--null", "uniform_null.txt",
         "--source", "sticky_null.txt", "--trials", "40", "--length", "64"], 1),
    "density_uniform": (
        ["density", "--in", "uniform_reals.csv", "--domain", "0:1", "--depth", "4"], 0),
    "density_uniform_depth20": (
        ["density", "--in", "uniform_reals.csv", "--domain", "0:1", "--depth", "20"], 0),
    "predict_mixed": (["predict", "--in", "mixed.txt"], 0),
    "predict_side_info": (
        ["predict", "--in", "side_x.txt", "--in2", "side_y.txt"], 0),
    "predict_two_samples": (["predict", "--in", "two_samples.txt"], 0),
    "compress_mixed": (["compress", "--in", "mixed.txt", "--out", OUT], 0),
    "compress_ternary": (["compress", "--in", "ternary.txt", "--out", OUT], 0),
    "compress_ternary_order0": (
        ["compress", "--in", "ternary.txt", "--max-order", "0", "--out", OUT], 0),
    "compress_ternary_order2": (
        ["compress", "--in", "ternary.txt", "--max-order", "2", "--out", OUT], 0),
}


def _ternary() -> SymbolSeq:
    text = (DATA / "ternary.txt").read_text(encoding="utf-8").strip()
    return SymbolSeq(Alphabet.of_size(3), np.array([int(c) for c in text]))


def _ternary_multi() -> MultiSample:
    # empty and one-symbol samples between longer ones
    sym = _ternary().symbols
    cuts = [(0, 150), (150, 150), (150, 151), (151, 220), (220, 360)]
    return MultiSample([SymbolSeq(Alphabet.of_size(3), sym[a:b]) for a, b in cuts])


# name -> (data, fresh model): arithmetic_encode payload bytes, in <name>.bin
PAYLOADS = {
    "payload_ternary_multi": (_ternary_multi, MixtureEstimator),
    "payload_ternary_kt2": (_ternary, lambda a: KtState(a, 2)),
}

MODULES = ["uctseries.seqmodel", "uctseries.estimators",
           "uctseries.coding", "uctseries.testing", "uctseries.realvalued"]


def _argv(argv, out: Path) -> list[str]:
    files = {p.name for p in DATA.iterdir()}
    return [str(out) if a == OUT else str(DATA / a) if a in files else a
            for a in argv]


def run_case(name: str, out: Path) -> tuple[int, str]:
    """Exit code and stdout of one case; the --out path is masked."""
    argv, _ = CASES[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_argv(argv, out))
    return code, buf.getvalue().replace(str(out), OUT)


def payload(name: str) -> bytes:
    data, model = PAYLOADS[name]
    x = data()
    return arithmetic_encode(x, model(x.alphabet))[0]


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        out = GOLDEN / f"{name}.uct"
        _, text = run_case(name, out)
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
    for name in PAYLOADS:
        (GOLDEN / f"{name}.bin").write_bytes(payload(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    out = tmp_path / "container.uct"
    code, text = run_case(name, out)
    assert code == CASES[name][1]
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if OUT in CASES[name][0]:
        assert out.read_bytes() == (GOLDEN / f"{name}.uct").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0][0] == "compress"))
def test_stored_container_decodes_to_its_source(name, tmp_path):
    argv = CASES[name][0]
    order = (argv[argv.index("--max-order") + 1] if "--max-order" in argv
             else str(DEFAULT_MAX_EXPLICIT_ORDER))
    out = tmp_path / "decoded.txt"
    with redirect_stdout(io.StringIO()):
        code = main(["decompress", "--in", str(GOLDEN / f"{name}.uct"),
                     "--max-order", order, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / argv[argv.index("--in") + 1]).read_bytes()


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_is_byte_identical(name):
    assert payload(name) == (GOLDEN / f"{name}.bin").read_bytes()


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_resolve_to_module_objects():
    public = [n for n in vars(uctseries) if not n.startswith("_")]
    for name in public:
        obj = getattr(uctseries, name)
        owner = getattr(obj, "__module__", None)
        if owner and owner.startswith("uctseries."):
            mod = importlib.import_module(owner)
            assert name in mod.__all__ and getattr(mod, name) is obj, name
