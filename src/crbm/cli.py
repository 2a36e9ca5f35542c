"""Command-line pipeline: train, generate, energy, stats.

Every command is deterministic given its flags and seed, writes plain CSV
with headers (floats at full round-trip precision), and uses exit codes
0 = success, 1 = runtime or data error, 2 = usage error. Commands share
state only through files.
"""

import argparse
import contextlib
import itertools
import os
import sys
from importlib.util import find_spec

import numpy as np

from . import data, diagnostics, dynamics, generation, model_io, training
from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, READ_AHEAD_BYTES

SYNTHETIC_FILENAME = "synthetic.csv"
REPORT_FILENAME = "train_report.csv"
MODEL_FILENAME = "model.crbm"
ENERGY_FILENAME = "free_energy.csv"
OVERLAY_FILENAME = "free_energy_overlay.csv"


def _quote(cell: str) -> str:
    """A text cell as csv.writer's minimal quoting writes it; ``cell``
    itself when it needs no quotes."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column) -> list:
    """One column's cells: a float array by repr, which round-trips float64
    exactly, another array by str, and anything else by str, quoted."""
    if isinstance(column, np.ndarray):
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    cells = list(map(str, column))
    text = "".join(cells)
    # one scan tells whether any cell of the block needs quotes
    return cells if _quote(text) is text else list(map(_quote, cells))


@contextlib.contextmanager
def _open_csv(path, header):
    """A new CSV file at ``path`` holding the ``header`` row, open for rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        yield fh


def _write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, as csv.writer would."""
    with _open_csv(path, header) as fh:
        _write_rows(fh, columns)


def _write_rows(fh, columns) -> None:
    """Append the rows of equal-length ``columns`` to ``fh``, as csv.writer would.

    Rows are formatted and written in blocks, one write per block. A
    formatted cell holds about 128 bytes of Python objects (the value, its
    text, their list slots), so a block holds about READ_AHEAD_BYTES.
    """
    n_rows = len(columns[0])
    step = max(1, READ_AHEAD_BYTES // (128 * len(columns)))
    for start in range(0, n_rows, step):
        rows = zip(*(_cells(column[start:start + step]) for column in columns))
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _encode_with(series: data.RawSeries, codec) -> data.EncodedSeries:
    encode = data.binarize if codec.arch == ARCH_BERNOULLI else data.standardize
    return encode(series, codec)


def _build_train_config(args) -> training.TrainConfig:
    overrides = {"seed": args.seed}
    if args.lag is not None:
        overrides["lag"] = args.lag
    if args.config is not None:
        return training.TrainConfig.from_file(args.config, **overrides)
    return training.TrainConfig(**overrides)


def cmd_train(args) -> int:
    cfg = _build_train_config(args)
    series = data.ingest_csv(args.input, date_column=args.date_column)
    model_io.check_storable(cfg.seed, series.asset_names)
    train_split = (series if args.split_date is None
                   else data.chrono_split(series, args.split_date)[0])
    if args.arch == ARCH_BERNOULLI:
        codec = data.fit_binary_codec(train_split, bits=args.bits)
    else:
        codec = data.fit_zscore(train_split)
    encoded = _encode_with(train_split, codec)
    report = training.train(encoded, cfg)

    os.makedirs(args.output_dir, exist_ok=True)
    mf = model_io.ModelFile(params=report.params, codec=codec,
                            asset_names=train_split.asset_names, seed=cfg.seed,
                            seed_window=encoded.matrix[encoded.n_rows - cfg.lag:],
                            config_text=cfg.to_text())
    model_path = os.path.join(args.output_dir, MODEL_FILENAME)
    model_io.save_model(mf, model_path)
    report_path = os.path.join(args.output_dir, REPORT_FILENAME)
    _write_csv(report_path,
               ["epoch", "recon_mse", "free_energy_train", "free_energy_holdout"],
               [np.arange(cfg.epochs), report.recon_mse, report.free_energy_train,
                report.free_energy_holdout])
    if series.n_dropped:
        print(f"dropped {series.n_dropped} malformed input row(s)")
    print(f"trained on {train_split.n_rows} rows; wrote {model_path} and {report_path}")
    return 0


@contextlib.contextmanager
def _publishing(directory, paths):
    """Make ``directory`` and yield a ``.part`` path for each of ``paths``.

    On success each ``.part`` file replaces its path. On any exception,
    Ctrl-C included, the ``.part`` files and the directories made here are
    removed, so a failed command leaves what was there before.
    """
    parts = [path + ".part" for path in paths]
    made, head = [], os.path.abspath(directory)  # deepest first
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(directory, exist_ok=True)
    try:
        yield parts
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
        with contextlib.suppress(OSError):
            for made_dir in made:
                os.rmdir(made_dir)
        raise


def cmd_generate(args) -> int:
    # Each chunk of the rollout is decoded and written as it comes, into a
    # temporary file that replaces the output at the end, so memory does not
    # grow with --steps and a runaway leaves no output behind.
    mf = model_io.load_model(args.model)
    rng = np.random.default_rng(args.seed)
    chunks = generation.rollout_chunks(mf.params, mf.seed_window, args.steps, rng,
                                       burn_in=args.burn_in)
    out_path = os.path.join(args.output_dir, SYNTHETIC_FILENAME)
    with _publishing(args.output_dir, [out_path]) as (part,), \
            _open_csv(part, ["step", *mf.asset_names]) as fh:
        for start, rows in chunks:
            values = data._decode(rows, mf.codec)
            _write_rows(fh, [np.arange(start, start + len(values)), *values.T])
    print(f"wrote {args.steps} synthetic rows to {out_path}")
    return 0


def _overlay_index(names, args, mf):
    """The index of ``--overlay-column`` among the input's value columns
    ``names``, or None without one. Raises ValueError unless it is there and
    the other columns are the model's assets, in order."""
    overlay = None
    if args.overlay_column is not None:
        if args.overlay_column not in names:
            raise ValueError(f"overlay column {args.overlay_column!r} not found in "
                             f"{args.input} (columns: {', '.join(names)})")
        overlay = names.index(args.overlay_column)
        names = names[:overlay] + names[overlay + 1:]
    if names != list(mf.asset_names):
        raise ValueError(f"input asset columns {names} do not match "
                         f"the model's {list(mf.asset_names)}")
    return overlay


def _score_blocks(paths, headers, blocks, mf, window, threshold, overlay) -> tuple:
    """Score, flag and write the rows of the RawSeries ``blocks``, which
    follow one another in date order and hold the input's value columns.

    Encoded rows are carried until a call's worth is: a whole number of
    score_rows' blocks (dynamics.score_block), about READ_AHEAD_BYTES. A
    call scores them after the last lag rows before them and flags them
    after the last ``window`` totals before them, so its score_rows blocks,
    and each row's bits, are those of one call over the whole input.
    ``overlay`` is the index of a value column that passes through, or None.
    File i gets the first ``len(headers[i])`` columns. Returns (rows scored,
    rows flagged, cells clipped, input rows dropped). Raises ValueError at
    the first row whose free energy is not finite.
    """
    m, names = mf.params, list(mf.asset_names)
    step = dynamics.score_block(m)
    call = step * max(READ_AHEAD_BYTES // (8 * m.n_visible * step), 1)
    # carried to the next call: encoded rows (its first window's lag first), dates, overlay values
    rows, dates, gauge, totals = np.empty((0, m.n_visible)), [], np.empty(0), np.empty(0)
    n_scored = n_flagged = n_clipped = n_dropped = 0
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_open_csv(path, header))
                 for path, header in zip(paths, headers)]
        for block in itertools.chain(blocks, [None]):
            if block is not None:  # None: score what is left
                n_dropped += block.n_dropped
                if overlay is not None:
                    gauge = np.concatenate([gauge, block.values[:, overlay]])
                    block = data.RawSeries(block.dates, np.delete(block.values, overlay, axis=1),
                                           names)
                encoded = _encode_with(block, mf.codec)
                rows = np.concatenate([rows, encoded.matrix]) if len(rows) else encoded.matrix
                dates += block.dates
                n_clipped += encoded.n_clipped
            while len(rows) - m.lag >= (1 if block is None else call):
                n = min(len(rows) - m.lag, call)
                with np.errstate(over="ignore", invalid="ignore"):
                    fe = diagnostics.free_energy_series(
                        data.EncodedSeries(rows[:m.lag + n], m.arch, dates=dates[:m.lag + n]), m)
                if (bad := ~np.isfinite(fe.total)).any():
                    raise ValueError(f"free energy is not finite at {fe.labels[bad.argmax()]}")
                scores = np.concatenate([totals, fe.total])
                flags = diagnostics.regime_flags(scores, window, threshold)[len(totals):]
                columns = [fe.labels, fe.total, fe.quadratic, fe.structural,
                           flags.astype(np.int8), gauge[m.lag:m.lag + n]]
                for fh, header in zip(files, headers):
                    _write_rows(fh, columns[:len(header)])
                totals = scores[max(len(scores) - window, 0):].copy()
                n_scored += n
                n_flagged += int(np.count_nonzero(flags))
                del fe, scores, flags, columns  # free them before the next call makes its own
                rows, dates, gauge = rows[n:], dates[n:], gauge[n:]
    if not n_scored:
        raise ValueError(f"need more than lag={m.lag} rows, got {len(rows)}")
    return n_scored, n_flagged, n_clipped, n_dropped


def cmd_energy(args) -> int:
    # The input streams through a block at a time, into temporary files that
    # replace the outputs at the end; input whose dates do not ascend is
    # read whole and sorted instead. An error leaves no output behind.
    mf = model_io.load_model(args.model)
    header = ["date", "total", "quadratic", "structural", "flag"]
    paths, headers = [os.path.join(args.output_dir, ENERGY_FILENAME)], [header]
    if args.overlay_column is not None:
        paths.append(os.path.join(args.output_dir, OVERLAY_FILENAME))
        headers.append(header + [args.overlay_column])
    rule = (mf, args.flag_window, args.flag_threshold)
    with contextlib.closing(data.ingest_blocks(args.input, args.date_column)) as blocks:
        overlay = _overlay_index(next(blocks), args, mf)
        with _publishing(args.output_dir, paths) as parts:
            try:
                counts = _score_blocks(parts, headers, blocks, *rule, overlay)
            except data.DatesNotAscending:
                series = data.ingest_csv(args.input, date_column=args.date_column)
                # read again: check its columns again
                overlay = _overlay_index(series.asset_names, args, mf)
                counts = _score_blocks(parts, headers, [series], *rule, overlay)
    n_scored, n_flagged, n_clipped, n_dropped = counts
    if n_dropped:
        print(f"dropped {n_dropped} malformed input row(s)")
    if n_clipped:
        print(f"clipped {n_clipped} cell(s) to the model's fitted range")
    if args.flag_window >= n_scored:
        print(f"no row can be flagged: --flag-window {args.flag_window} is not below "
              f"the {n_scored} scored rows")
    print(f"scored {n_scored} rows ({n_flagged} flagged); wrote " + ", ".join(paths))
    return 0


def _safe_filename(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _write_corr_csv(path, names, matrix) -> None:
    _write_csv(path, ["asset"] + list(names), [names, *matrix.T])


def _stats_size_error(n_quantiles: int, n_rows: int) -> str | None:
    """The error qq_table, then summary_stats, raises first on series of at
    least ``n_rows`` rows, or None."""
    if n_rows < n_quantiles:
        return "need at least n_quantiles values in each sample"
    if n_rows < 2:
        return "need a 2-D matrix with at least two rows"
    return None


def cmd_stats(args) -> int:
    # One series at a time: the real values are reduced, and dropped, before
    # the synthetic CSV is read. Real values that fail a size check fail the
    # check on both series too; they are not reduced, and their error waits,
    # so that errors keep their order (real read, synthetic read, column
    # names, sizes). Every check runs before the output directory is made.
    table = data.read_values_csv(args.real)
    names, n_rows = table.asset_names, table.n_rows
    dropped = [(args.real, table.n_dropped)]
    if _stats_size_error(args.qq_quantiles, n_rows) is None:
        levels = diagnostics._qq_levels(args.qq_quantiles)
        real, real_qq = diagnostics._summarize(table.values, names, levels)
    del table
    table = data.read_values_csv(args.synthetic)
    dropped.append((args.synthetic, table.n_dropped))
    if table.asset_names != names:
        raise ValueError(f"asset columns differ: real has {names}, "
                         f"synthetic has {table.asset_names}")
    error = _stats_size_error(args.qq_quantiles, min(n_rows, table.n_rows))
    if error is not None:
        raise ValueError(error)
    qq_files = [f"qq_{_safe_filename(name)}.csv" for name in names]
    for j, qq_file in enumerate(qq_files):
        if (i := qq_files.index(qq_file)) != j:
            raise ValueError(f"assets {names[i]!r} and {names[j]!r} would both write {qq_file}")
    synth, synth_qq = diagnostics._summarize(table.values, names, levels)
    os.makedirs(args.output_dir, exist_ok=True)

    for j, qq_file in enumerate(qq_files):
        _write_csv(os.path.join(args.output_dir, qq_file),
                   ["level", "real", "synthetic"], [levels, real_qq[:, j], synth_qq[:, j]])

    fidelity = diagnostics._compare_correlations(real.correlation, synth.correlation)
    _write_corr_csv(os.path.join(args.output_dir, "corr_real.csv"), names, fidelity.real)
    _write_corr_csv(os.path.join(args.output_dir, "corr_synth.csv"), names, fidelity.synthetic)
    _write_corr_csv(os.path.join(args.output_dir, "corr_diff.csv"), names, fidelity.difference)

    series = ["real", "synthetic"]
    stats = [real, synth]
    # one row per series and asset, in that order
    moments = [np.concatenate([getattr(s, field) for s in stats])
               for field in ("mean", "std", "skewness", "excess_kurtosis")]
    q_names = [f"q{level:g}" for level in diagnostics.QUANTILE_LEVELS]
    _write_csv(os.path.join(args.output_dir, "summary.csv"),
               ["series", "asset", "mean", "std", "skewness", "excess_kurtosis", *q_names],
               [[label for label in series for _ in names], names * len(series), *moments,
                *np.hstack([s.quantiles for s in stats])])
    # one row per series, asset and lag, in that order
    lags = stats[0].sq_autocorr_lags
    _write_csv(os.path.join(args.output_dir, "sq_autocorr.csv"),
               ["series", "asset", "lag", "autocorr"],
               [[label for label in series for _ in names for _ in lags],
                [name for _ in series for name in names for _ in lags],
                np.tile(lags, len(series) * len(names)),
                np.concatenate([s.sq_autocorr.T.ravel() for s in stats])])
    for path, n_dropped in dropped:
        if n_dropped:
            print(f"dropped {n_dropped} malformed input row(s) from {path}")
    print(f"correlation fidelity score: {fidelity.score!r}")
    print(f"wrote fidelity CSVs to {args.output_dir}")
    return 0


def _parse_date(text: str):
    try:
        return data._iso_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number(kind, low=None, high=None):
    """An argparse type for a numeric flag: a ``kind`` value, not NaN, within
    [low, high], either of which may be None; argparse names the flag of a
    value it refuses."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if value != value:  # NaN
            raise argparse.ArgumentTypeError("must not be NaN")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crbm",
        description="Train conditional RBMs on multi-asset series, generate "
                    "synthetic data, and score free-energy regime signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on the training split")
    p_train.add_argument("--input", required=True, help="dated multi-asset CSV")
    p_train.add_argument("--arch", required=True, choices=[ARCH_BERNOULLI, ARCH_GAUSSIAN],
                         help=f"{ARCH_BERNOULLI} trains on bit encodings, "
                              f"{ARCH_GAUSSIAN} on z-scores")
    p_train.add_argument("--seed", required=True, type=_number(int, 0),
                         help="training seed (no default on purpose)")
    p_train.add_argument("--output-dir", required=True,
                         help=f"directory for {MODEL_FILENAME} and {REPORT_FILENAME}")
    p_train.add_argument("--config", help="key=value hyperparameter file")
    p_train.add_argument("--split-date", type=_parse_date,
                         help="train on rows up to and including this date "
                              "(default: the whole series)")
    p_train.add_argument("--lag", type=_number(int, 0), help="history window length in rows")
    p_train.add_argument("--bits", type=_number(int, 1, data.MAX_BITS), default=16,
                         help=f"bits per asset for the {ARCH_BERNOULLI} architecture")
    p_train.add_argument("--date-column", help="date column name (default: first)")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="sample a synthetic series from a model")
    p_gen.add_argument("--model", required=True, help="model file from train")
    p_gen.add_argument("--steps", required=True, type=_number(int, 1), help="rows to emit")
    p_gen.add_argument("--seed", required=True, type=_number(int, 0), help="sampling seed")
    p_gen.add_argument("--output-dir", required=True,
                       help=f"directory for {SYNTHETIC_FILENAME}")
    p_gen.add_argument("--burn-in", type=_number(int, 0), default=20,
                       help="extra Gibbs sweeps before each emitted row")
    p_gen.set_defaults(func=cmd_generate)

    p_energy = sub.add_parser("energy", help="score rows by conditional free energy")
    p_energy.add_argument("--model", required=True, help="model file from train")
    p_energy.add_argument("--input", required=True, help="dated CSV to score")
    p_energy.add_argument("--output-dir", required=True,
                          help=f"directory for {ENERGY_FILENAME}")
    p_energy.add_argument("--overlay-column", help="input column to pass through "
                          f"into {OVERLAY_FILENAME} instead of scoring it")
    p_energy.add_argument("--flag-window", type=_number(int, 2), default=diagnostics.FLAG_WINDOW,
                          help="rolling baseline length in rows")
    p_energy.add_argument("--flag-threshold", type=_number(float),
                          default=diagnostics.FLAG_THRESHOLD,
                          help="flag when total exceeds mean + threshold * std")
    p_energy.add_argument("--date-column", help="date column name (default: first)")
    p_energy.set_defaults(func=cmd_energy)

    p_stats = sub.add_parser("stats", help="compare a real and a synthetic CSV")
    p_stats.add_argument("--real", required=True, help="real series CSV")
    p_stats.add_argument("--synthetic", required=True, help="synthetic series CSV")
    p_stats.add_argument("--output-dir", required=True, help="directory for fidelity CSVs")
    p_stats.add_argument("--qq-quantiles", type=_number(int, 1), default=99,
                         help="number of matched quantiles per asset")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# what hashlib imports in place of OpenSSL; without one of them it logs a
# traceback per algorithm to stderr
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))


def program(argv=None) -> int:
    """The ``crbm`` program: ``main(argv)`` in a process that loads no OpenSSL.

    ``python -m crbm``, ``python -m crbm.cli`` and the installed ``crbm``
    script run this. crbm hashes nothing, but ``numpy.random`` imports
    ``secrets`` → ``hmac`` → ``_hashlib``, which maps libcrypto. Marking
    ``_hashlib`` missing, when the built-in hash modules can stand in for
    it, sends ``hashlib`` down CPython's no-OpenSSL path. ``main`` itself
    has no such process-wide effect.
    """
    if all(map(find_spec, _BUILTIN_HASHES)):
        sys.modules.setdefault("_hashlib", None)
    return main(argv)


if __name__ == "__main__":
    sys.exit(program())
