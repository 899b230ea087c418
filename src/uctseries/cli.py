"""Command-line front end: estimation, prediction, coding, tests, harness.

Every command prints a JSON report on standard output (or to --out) and
sets the exit code: 0 success or accept, 1 reject (tests and the Monte
Carlo bound check), 2 usage error, 3 data error.  Errors emit a
machine-readable {"error", "detail"} object on standard error.

Symbol files are UTF-8 text, blank-line separated samples; a leading
byte order mark is ignored.  When every alphabet label is a single
character (the default numeric labels up to size 10), each line is a
contiguous string of symbols; otherwise one token per line.  An inferred
alphabet holds the characters present other than whitespace.
Real-valued files hold one value per line.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from concurrent import futures

import numpy as np

from . import coding, estimators, realvalued, testing
from .estimators import MarkovSource, r_log2prob
from .seqmodel import Alphabet, MultiSample, SymbolSeq, _code_points

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Store(argparse.Action):
    """argparse's store action that also adds the flag to `args.given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {option_string}


# ---------------------------------------------------------------------------
# Input handling


def _parse_alphabet(spec: str) -> Alphabet:
    """argparse type of --alphabet: a size or a comma-separated label list."""
    try:
        if "," in spec:
            return Alphabet(tuple(tok.strip() for tok in spec.split(",")))
        if spec.isdigit():
            return Alphabet.of_size(int(spec))
        raise ValueError("--alphabet must be a size or a comma-separated label list, "
                         f"got {spec!r}")
    except ValueError as exc:  # also repeated labels and size 0
        raise argparse.ArgumentTypeError(str(exc)) from None


def _char_mode(alphabet: Alphabet) -> bool:
    return all(len(lbl) == 1 for lbl in alphabet.labels)


def _read_blocks(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    blocks: list[list[str]] = []
    cur: list[str] = []
    for line in lines:
        if line.strip():
            cur.append(line.strip())
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    if not blocks:
        raise ValueError(f"no symbols found in {path}")
    return blocks


def _read_symbols(path: str, alphabet: Alphabet | None):
    blocks = _read_blocks(path)
    if alphabet is None or _char_mode(alphabet):
        blocks = ["".join(block) for block in blocks]  # a str iterates its characters
    if alphabet is None:  # the characters present, whitespace left out
        present = np.flatnonzero(np.bincount(_code_points("".join(blocks)))).tolist()
        alphabet = Alphabet(tuple(c for c in map(chr, present) if not c.isspace()))
    samples = [SymbolSeq.from_labels(alphabet, tokens) for tokens in blocks]
    return MultiSample(samples) if len(samples) > 1 else samples[0], alphabet


def _parse_word(text: str, alphabet: Alphabet) -> list[int]:
    tokens = list(text) if _char_mode(alphabet) else text.split(",")
    return [alphabet.index(tok) for tok in tokens]


def _read_reals(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    try:  # float() ignores the whitespace around a value
        return np.array(list(map(float, lines)))
    except ValueError:  # a blank line, or a bad value to name
        pass
    values = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected one real value, got {line!r}") from None
    return np.asarray(values)


def _parse_domain(spec: str) -> tuple[float, float]:
    """argparse type of --domain: a:b with finite bounds, a < b."""
    try:
        lo, hi = spec.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--domain must look like a:b, got {spec!r}") from None
    try:
        realvalued.Partition(lo, hi, 0)  # finite bounds, lo < hi
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi


def _format_symbols(x, alphabet: Alphabet) -> str:
    samples = x.samples if isinstance(x, MultiSample) else [x]
    sep = "" if _char_mode(alphabet) else "\n"
    return "\n\n".join(sep.join(s.to_labels()) for s in samples) + "\n"


def _provider(args):
    if args.provider == "ideal-r":
        return coding.ideal_r_provider(args.max_order)
    if args.provider == "arithmetic":
        return coding.arithmetic_provider(max_explicit_order=args.max_order)
    if not args.compressor_cmd:
        raise _UsageError("--provider external requires --compressor-cmd")
    return coding.external_provider(args.compressor_cmd)


# ---------------------------------------------------------------------------
# Report output


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None  # JSON has no NaN
        return float(f"{v:.12g}") if math.isfinite(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(report: dict, args, to_stdout: bool = False) -> None:
    """Write the JSON report to --out, or stdout when absent or forced."""
    text = json.dumps(_rounded(report), indent=2, allow_nan=False) + "\n"
    out = None if to_stdout else args.out
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands


def cmd_estimate(args) -> int:
    x, alphabet = _read_symbols(args.input, args.alphabet)
    if args.query is None:
        lp = r_log2prob(x, args.max_order)
    else:  # one count per order, of x with the word: x is counted once
        word = _parse_word(args.query, alphabet)
        lp, query_lp = estimators._r_log2prob_pair(x, word, args.max_order)
    report = {
        "command": "estimate",
        "alphabet": list(alphabet.labels),
        "lengths": x.lengths.tolist(),
        "max_order": args.max_order,
        "log2_prob": lp,
        "prob": float(2.0 ** lp),
    }
    if args.query is not None:
        clp = query_lp - lp  # r_cond_log2prob's difference
        report["query"] = {
            "word": args.query,
            "log2_prob": clp,
            "prob": float(2.0 ** clp),
        }
    _emit(report, args)
    return EXIT_OK


def cmd_predict(args) -> int:
    x, alphabet = _read_symbols(args.input, args.alphabet)
    report = {"command": "predict", "alphabet": list(alphabet.labels),
              "max_order": args.max_order}
    if args.input2:
        y, y_alphabet = _read_symbols(args.input2, None)
        if isinstance(x, MultiSample) or isinstance(y, MultiSample):
            raise ValueError("side-information prediction takes single samples")
        if len(y) != len(x) + 1:
            raise ValueError(
                "side-information file must hold one more symbol than --in "
                f"(got {len(y)} vs {len(x)})"
            )
        pair = estimators.PairAlphabet(alphabet, y_alphabet)
        history = np.column_stack([x.symbols, y.symbols[:-1]])
        lps = estimators.side_info_cond_log2probs(
            pair, history, int(y.symbols[-1]), args.max_order
        )
        probs = np.exp2(lps)
        report["side_info"] = y_alphabet.labels[int(y.symbols[-1])]
    else:
        probs, _ = estimators.final_conditional(x, args.max_order)
    report["conditionals"] = {
        alphabet.labels[a]: float(probs[a]) for a in range(alphabet.size)
    }
    _emit(report, args)
    return EXIT_OK


def cmd_compress(args) -> int:
    x, alphabet = _read_symbols(args.input, args.alphabet)
    if isinstance(x, MultiSample):
        raise ValueError("compress takes a single sample (no blank-line separators)")
    if not args.out:
        raise _UsageError("compress requires --out for the binary container")
    blob, nbits = coding.compress_container(x, max_explicit_order=args.max_order)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    ideal = -r_log2prob(x, args.max_order)
    report = {
        "command": "compress",
        "length": len(x),
        "alphabet_size": alphabet.size,
        "container_bytes": len(blob),
        "payload_bits": nbits,
        "ideal_bits": ideal,
        "out": args.out,
    }
    _emit(report, args, to_stdout=True)
    return EXIT_OK


def cmd_decompress(args) -> int:
    if not args.out:
        raise _UsageError("decompress requires --out for the decoded text")
    with open(args.input, "rb") as fh:
        blob = fh.read()
    seq, header = coding.decompress_container(
        blob, alphabet=args.alphabet, max_explicit_order=args.max_order
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_format_symbols(seq, seq.alphabet))
    report = {"command": "decompress", "out": args.out, **header}
    _emit(report, args, to_stdout=True)
    return EXIT_OK


def _finish_test(report, args) -> int:
    _emit(report.to_dict(), args)
    return EXIT_REJECT if report.rejected else EXIT_OK


def cmd_test_identity(args) -> int:
    if not args.null:
        raise _UsageError("test-identity requires --null (source parameter file)")
    null = MarkovSource.from_file(args.null)
    x, alphabet = _read_symbols(args.input, args.alphabet)
    if alphabet.size != null.alphabet.size:
        raise ValueError("data alphabet size differs from the null model")
    report = testing.identity_test(x, null, args.alpha, _provider(args))
    return _finish_test(report, args)


def cmd_test_independence(args) -> int:
    x, _ = _read_symbols(args.input, args.alphabet)
    report = testing.serial_independence_test(x, args.order, args.alpha,
                                              _provider(args))
    return _finish_test(report, args)


def cmd_density(args) -> int:
    if not args.domain:
        raise _UsageError("density requires --domain a:b")
    lo, hi = args.domain
    values = _read_reals(args.input)
    lp = realvalued.density_log2(
        values, lo, hi, max_depth=args.depth,
        renormalize=args.renormalize_depth_weights,
    )
    report = {
        "command": "density",
        "n": int(values.size),
        "domain": [lo, hi],
        "depth": args.depth,
        "renormalized": bool(args.renormalize_depth_weights),
        "log2_density": lp,
        "bits_per_value": (-lp / values.size) if values.size else 0.0,
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Monte Carlo harness


def _mc_trial(payload) -> bool:
    kind, cfg, index = payload
    seed = cfg["seed"] + index
    rng = np.random.default_rng(seed)
    alpha = cfg["alpha"]
    max_order = cfg["max_order"]
    provider = coding.ideal_r_provider(max_order)
    if kind == "identity":
        x = cfg["source"].sample(cfg["length"], rng)
        return testing.identity_test(x, cfg["null"], alpha, provider).rejected
    if kind == "independence":
        x = cfg["source"].sample(cfg["length"], rng)
        return testing.serial_independence_test(x, cfg["order"], alpha,
                                                provider).rejected
    if kind == "partition-si":
        lo, hi = cfg["domain"]
        data = lo + (hi - lo) * rng.random(cfg["length"])
        report = testing.partition_meta_test(
            data, alpha, kind="si", max_depth=cfg["depth"], domain=(lo, hi),
            max_explicit_order=max_order,
        )
        return report.rejected
    raise ValueError(f"unknown Monte Carlo test {kind!r}")


def _run_pool(kind, cfg, trials):
    payloads = [(kind, cfg, i) for i in range(trials)]
    workers = min(os.cpu_count() or 1, 8)
    if workers > 1 and trials >= 16:
        try:
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, trials // (workers * 8))
                return list(pool.map(_mc_trial, payloads, chunksize=chunk))
        except OSError as exc:  # restricted environments: fall back to in-process
            logging.getLogger("uctseries").warning(
                "process pool of %d workers failed (%s); running %d trials in-process",
                workers, exc, trials)
    return [_mc_trial(p) for p in payloads]


# the flags every --test reads
_MC_COMMON = ("--test", "--trials", "--length", "--seed", "--max-order", "--out")
# --test -> (the other flags it reads, the flag whose presence leaves
# --alphabet unread)
_MC_READS = {
    "identity": (("--alpha", "--null", "--source", "--alphabet"), "--null"),
    "independence": (("--alpha", "--order", "--source", "--alphabet"), "--source"),
    "partition-si": (("--alpha", "--depth", "--domain"), None),
    "kl-redundancy": (("--source",), None),
}


def cmd_montecarlo(args) -> int:
    kind = args.test
    reads, drops_alphabet = _MC_READS[kind]
    unread = args.given - {*_MC_COMMON, *reads}
    if drops_alphabet in args.given:
        unread |= args.given & {"--alphabet"}
    if unread:
        raise _UsageError(f"montecarlo --test {kind} does not read "
                          + ", ".join(sorted(unread)))
    cfg = {
        "seed": args.seed,
        "alpha": args.alpha,
        "length": args.length,
        "order": args.order,
        "depth": args.depth,
        "max_order": args.max_order,
        "domain": args.domain or (0.0, 1.0),
    }
    if kind == "kl-redundancy":
        if not args.source:
            raise _UsageError("kl-redundancy requires --source")
        truth = MarkovSource.from_file(args.source)
        est = estimators.avg_kl_error(
            truth, lambda x: r_log2prob(x, args.max_order), args.length,
            trials=args.trials, seed=args.seed,
        )
        report = {
            "test": "kl-redundancy", "trials": est.trials, "length": args.length,
            "value_bits_per_letter": est.value, "stderr": est.stderr,
            "seed": args.seed,
        }
        _emit(report, args)
        return EXIT_OK
    if kind == "identity":
        null = (MarkovSource.from_file(args.null) if args.null
                else MarkovSource.uniform(args.alphabet or Alphabet.of_size(2)))
        cfg["null"] = null
        cfg["source"] = MarkovSource.from_file(args.source) if args.source else null
    elif kind == "independence":
        cfg["source"] = (MarkovSource.from_file(args.source) if args.source
                         else MarkovSource.uniform(args.alphabet or Alphabet.of_size(2)))
    rejected = _run_pool(kind, cfg, args.trials)
    rate = float(np.mean(rejected)) if rejected else 0.0
    se = math.sqrt(args.alpha * (1 - args.alpha) / args.trials)
    bound = args.alpha + 3 * se
    report = {
        "test": kind,
        "trials": args.trials,
        "alpha": args.alpha,
        "length": args.length,
        "rejection_rate": rate,
        "binomial_se": se,
        "bound": bound,
        "pass": rate <= bound,
        "seed": args.seed,
    }
    _emit(report, args)
    return EXIT_OK if rate <= bound else EXIT_REJECT


# ---------------------------------------------------------------------------
# Argument wiring


def _ranged(kind, ok, requirement: str):
    """argparse type: a `kind` value for which `ok` holds, else a usage error."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {requirement}")
        return value

    parse.__name__ = kind.__name__
    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "a positive integer")
_ORDER = _ranged(int, lambda v: v >= 0, "a nonnegative integer")
_LEVEL = _ranged(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
_DEPTH = _ranged(int, lambda v: 0 <= v <= realvalued.MAX_DEPTH,
                 f"an integer in 0..{realvalued.MAX_DEPTH}")


_FLAGS = {
    "--in": dict(dest="input", required=True, help="input data file"),
    "--in2": dict(dest="input2", help="side-information file"),
    "--alphabet": dict(type=_parse_alphabet, help="size or comma-separated symbol labels"),
    "--domain": dict(type=_parse_domain, help="real-valued domain a:b"),
    "--order": dict(type=_ORDER, default=0, help="Markov order"),
    "--max-order": dict(dest="max_order", type=_ORDER,
                        default=estimators.DEFAULT_MAX_EXPLICIT_ORDER,
                        help="largest explicit mixture order"),
    "--depth": dict(type=_DEPTH, default=realvalued.DEFAULT_MAX_DEPTH,
                    help="quantization depth"),
    "--alpha": dict(type=_LEVEL, default=0.05, help="significance level"),
    "--provider": dict(choices=["ideal-r", "arithmetic", "external"],
                       default="ideal-r"),
    "--compressor-cmd": dict(dest="compressor_cmd",
                             help="external compressor command (stdin to stdout)"),
    "--seed": dict(type=_ORDER, default=0),
    "--trials": dict(type=_COUNT, default=200),
    "--length": dict(type=_COUNT, default=256, help="per-trial sample length"),
    "--out": dict(help="write the report (or binary container) here"),
    "--renormalize-depth-weights": dict(dest="renormalize_depth_weights",
                                        action="store_true"),
    "--query": dict(help="word whose conditional probability to report"),
    "--null": dict(help="null source parameter file"),
    "--source": dict(help="data-generating source parameter file"),
    "--test": dict(required=True, choices=list(_MC_READS)),
}

_SYMBOLS = ("--in", "--alphabet", "--max-order", "--out")
_TEST = ("--in", "--alphabet", "--alpha", "--provider", "--compressor-cmd",
         "--max-order", "--out")

# (command, handler, help, the flags its handler reads)
_COMMANDS = [
    ("estimate", cmd_estimate, "mixture probability of the input",
     _SYMBOLS + ("--query",)),
    ("predict", cmd_predict, "next-symbol conditional distribution",
     _SYMBOLS + ("--in2",)),
    ("compress", cmd_compress, "arithmetic-code the input", _SYMBOLS),
    ("decompress", cmd_decompress, "decode a compressed container", _SYMBOLS),
    ("test-identity", cmd_test_identity, "goodness-of-fit test against a null",
     _TEST + ("--null",)),
    ("test-independence", cmd_test_independence, "serial independence test",
     _TEST + ("--order",)),
    ("density", cmd_density, "density estimate of real-valued input",
     ("--in", "--domain", "--depth", "--renormalize-depth-weights", "--out")),
    ("montecarlo", cmd_montecarlo, "rejection-rate validation harness",
     _MC_COMMON + ("--alpha", "--order", "--depth", "--domain", "--alphabet", "--null",
                   "--source")),
]


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="uctseries", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **{"action": _Store, **_FLAGS[flag]})
        p.set_defaults(fn=fn, given=frozenset())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "detail": str(exc)}) + "\n")
        return EXIT_USAGE
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": "data", "detail": str(exc)}) + "\n")
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())
