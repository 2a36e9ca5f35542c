"""Command-line pipeline: train, generate, energy, stats.

Every command is deterministic given its flags and seed, writes plain CSV
with headers (floats at full round-trip precision), and uses exit codes
0 = success, 1 = runtime or data error, 2 = usage error. Commands share
state only through files.
"""

import argparse
import os
import sys

import numpy as np

from . import data, diagnostics, generation, model_io, training
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


def _write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, as csv.writer would.

    Rows are formatted and written in blocks, one write per block. A
    formatted cell holds about 128 bytes of Python objects (the value, its
    text, their list slots), so a block holds about READ_AHEAD_BYTES.
    """
    n_rows = len(columns[0])
    step = max(1, READ_AHEAD_BYTES // (128 * len(columns)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, n_rows, step):
            rows = zip(*(_cells(column[start:start + step]) for column in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _prepare_output_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _encode_with(series: data.RawSeries, codec) -> data.EncodedSeries:
    if isinstance(codec, data.BinaryCodec):
        return data.binarize(series, codec)
    return data.standardize(series, codec)


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
    if args.split_date is not None:
        train_split, _future = data.chrono_split(series, args.split_date)
    else:
        train_split = series
    if args.arch == ARCH_BERNOULLI:
        codec = data.fit_binary_codec(train_split, bits=args.bits)
    else:
        codec = data.fit_zscore(train_split)
    encoded = _encode_with(train_split, codec)
    report = training.train(encoded, cfg)

    out_dir = _prepare_output_dir(args.output_dir)
    seed_window = encoded.matrix[encoded.n_rows - cfg.lag:].ravel() if cfg.lag \
        else np.empty(0)
    mf = model_io.ModelFile(params=report.params, codec=codec,
                            asset_names=train_split.asset_names, seed=cfg.seed,
                            seed_window=seed_window, config_text=cfg.to_text())
    model_path = os.path.join(out_dir, MODEL_FILENAME)
    model_io.save_model(mf, model_path)
    report_path = os.path.join(out_dir, REPORT_FILENAME)
    _write_csv(report_path,
               ["epoch", "recon_mse", "free_energy_train", "free_energy_holdout"],
               [np.arange(cfg.epochs), report.recon_mse, report.free_energy_train,
                report.free_energy_holdout])
    if series.n_dropped:
        print(f"dropped {series.n_dropped} malformed input row(s)")
    print(f"trained on {train_split.n_rows} rows; wrote {model_path} and {report_path}")
    return 0


def cmd_generate(args) -> int:
    mf = model_io.load_model(args.model)
    rng = np.random.default_rng(args.seed)
    encoded = generation.generate(mf.params, mf.seed_window, args.steps, rng,
                                  burn_in=args.burn_in, codec=mf.codec)
    values = generation.decode_series(encoded)
    out_dir = _prepare_output_dir(args.output_dir)
    out_path = os.path.join(out_dir, SYNTHETIC_FILENAME)
    _write_csv(out_path, ["step"] + list(mf.asset_names),
               [np.arange(values.shape[0]), *values.T])
    print(f"wrote {values.shape[0]} synthetic rows to {out_path}")
    return 0


def cmd_energy(args) -> int:
    mf = model_io.load_model(args.model)
    series = data.ingest_csv(args.input, date_column=args.date_column)

    overlay = None
    if args.overlay_column is not None:
        if args.overlay_column not in series.asset_names:
            raise ValueError(f"overlay column {args.overlay_column!r} not found in "
                             f"{args.input} (columns: {', '.join(series.asset_names)})")
        keep = [i for i, name in enumerate(series.asset_names)
                if name != args.overlay_column]
        overlay = series.values[:, series.asset_names.index(args.overlay_column)]
        series = data.RawSeries(dates=series.dates, values=series.values[:, keep],
                                asset_names=[series.asset_names[i] for i in keep],
                                n_dropped=series.n_dropped)

    if series.asset_names != list(mf.asset_names):
        raise ValueError(f"input asset columns {series.asset_names} do not match "
                         f"the model's {list(mf.asset_names)}")
    encoded = _encode_with(series, mf.codec)
    if encoded.n_clipped:
        print(f"clipped {encoded.n_clipped} cell(s) to the model's fitted range")
    fe = diagnostics.free_energy_series(encoded, mf.params)
    flags = diagnostics.regime_flags(fe.total, window=args.flag_window,
                                     threshold=args.flag_threshold)

    out_dir = _prepare_output_dir(args.output_dir)
    energy_path = os.path.join(out_dir, ENERGY_FILENAME)
    header = ["date", "total", "quadratic", "structural", "flag"]
    columns = [fe.labels, fe.total, fe.quadratic, fe.structural, flags.astype(np.int8)]
    _write_csv(energy_path, header, columns)
    written = [energy_path]
    if overlay is not None:
        overlay_path = os.path.join(out_dir, OVERLAY_FILENAME)
        _write_csv(overlay_path, header + [args.overlay_column],
                   columns + [overlay[mf.params.lag:]])
        written.append(overlay_path)
    if args.flag_window >= len(fe):
        print(f"no row can be flagged: --flag-window {args.flag_window} is not below "
              f"the {len(fe)} scored rows")
    print(f"scored {len(fe)} rows ({int(flags.sum())} flagged); wrote "
          + ", ".join(written))
    return 0


def _safe_filename(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _write_corr_csv(path, names, matrix) -> None:
    _write_csv(path, ["asset"] + list(names), [names, *matrix.T])


def cmd_stats(args) -> int:
    real = data.read_values_csv(args.real)
    synth = data.read_values_csv(args.synthetic)
    if real.asset_names != synth.asset_names:
        raise ValueError(f"asset columns differ: real has {real.asset_names}, "
                         f"synthetic has {synth.asset_names}")
    names = real.asset_names
    out_dir = _prepare_output_dir(args.output_dir)

    for j, name in enumerate(names):
        qq = diagnostics.qq_table(real.values[:, j], synth.values[:, j],
                                  n_quantiles=args.qq_quantiles)
        _write_csv(os.path.join(out_dir, f"qq_{_safe_filename(name)}.csv"),
                   ["level", "real", "synthetic"],
                   [qq.levels, qq.real, qq.synthetic])

    fidelity = diagnostics.correlation_fidelity(real.values, synth.values)
    _write_corr_csv(os.path.join(out_dir, "corr_real.csv"), names, fidelity.real)
    _write_corr_csv(os.path.join(out_dir, "corr_synth.csv"), names, fidelity.synthetic)
    _write_corr_csv(os.path.join(out_dir, "corr_diff.csv"), names, fidelity.difference)

    series = ["real", "synthetic"]
    stats = [diagnostics.summary_stats(real.values, names),
             diagnostics.summary_stats(synth.values, names)]
    # one row per series and asset, in that order
    moments = [np.concatenate([getattr(s, field) for s in stats])
               for field in ("mean", "std", "skewness", "excess_kurtosis")]
    q_names = [f"q{level:g}" for level in diagnostics.QUANTILE_LEVELS]
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["series", "asset", "mean", "std", "skewness", "excess_kurtosis", *q_names],
               [[label for label in series for _ in names], names * len(series), *moments,
                *np.hstack([s.quantiles for s in stats])])
    # one row per series, asset and lag, in that order
    lags = stats[0].sq_autocorr_lags
    _write_csv(os.path.join(out_dir, "sq_autocorr.csv"),
               ["series", "asset", "lag", "autocorr"],
               [[label for label in series for _ in names for _ in lags],
                [name for _ in series for name in names for _ in lags],
                np.tile(lags, len(series) * len(names)),
                np.concatenate([s.sq_autocorr.T.ravel() for s in stats])])
    print(f"correlation fidelity score: {fidelity.score!r}")
    print(f"wrote fidelity CSVs to {out_dir}")
    return 0


def _parse_date(text: str):
    try:
        return data.Date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an ISO date") from None


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
    p_train.add_argument("--seed", required=True, type=int,
                         help="training seed (no default on purpose)")
    p_train.add_argument("--output-dir", required=True,
                         help=f"directory for {MODEL_FILENAME} and {REPORT_FILENAME}")
    p_train.add_argument("--config", help="key=value hyperparameter file")
    p_train.add_argument("--split-date", type=_parse_date,
                         help="train on rows up to and including this date "
                              "(default: the whole series)")
    p_train.add_argument("--lag", type=int, help="history window length in rows")
    p_train.add_argument("--bits", type=int, default=16,
                         help=f"bits per asset for the {ARCH_BERNOULLI} architecture")
    p_train.add_argument("--date-column", help="date column name (default: first)")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="sample a synthetic series from a model")
    p_gen.add_argument("--model", required=True, help="model file from train")
    p_gen.add_argument("--steps", required=True, type=int, help="rows to emit")
    p_gen.add_argument("--seed", required=True, type=int, help="sampling seed")
    p_gen.add_argument("--output-dir", required=True,
                       help=f"directory for {SYNTHETIC_FILENAME}")
    p_gen.add_argument("--burn-in", type=int, default=20,
                       help="extra Gibbs sweeps before each emitted row")
    p_gen.set_defaults(func=cmd_generate)

    p_energy = sub.add_parser("energy", help="score rows by conditional free energy")
    p_energy.add_argument("--model", required=True, help="model file from train")
    p_energy.add_argument("--input", required=True, help="dated CSV to score")
    p_energy.add_argument("--output-dir", required=True,
                          help=f"directory for {ENERGY_FILENAME}")
    p_energy.add_argument("--overlay-column", help="input column to pass through "
                          f"into {OVERLAY_FILENAME} instead of scoring it")
    p_energy.add_argument("--flag-window", type=int, default=diagnostics.FLAG_WINDOW,
                          help="rolling baseline length in rows")
    p_energy.add_argument("--flag-threshold", type=float,
                          default=diagnostics.FLAG_THRESHOLD,
                          help="flag when total exceeds mean + threshold * std")
    p_energy.add_argument("--date-column", help="date column name (default: first)")
    p_energy.set_defaults(func=cmd_energy)

    p_stats = sub.add_parser("stats", help="compare a real and a synthetic CSV")
    p_stats.add_argument("--real", required=True, help="real series CSV")
    p_stats.add_argument("--synthetic", required=True, help="synthetic series CSV")
    p_stats.add_argument("--output-dir", required=True, help="directory for fidelity CSVs")
    p_stats.add_argument("--qq-quantiles", type=int, default=99,
                         help="number of matched quantiles per asset")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
