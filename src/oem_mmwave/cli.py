"""Command-line front end: design, channel, waterfill, simulate, scenario.

Every subcommand that writes files also writes a JSON run manifest next
to them (same path with a ``.manifest.json`` suffix) echoing the fully
resolved configuration, seed, output paths and environment (Python,
numpy and platform versions; no timings).  All output is
deterministic for a fixed seed, and never left half-written.

Exit codes: 0 success, 2 invalid flags, 3 invalid config or input file
or an output that cannot be written, 4 simulation error.  Every exit 2
is argparse's, ``channel --mode`` (bounded by the config's U) included,
and a flag value that is not a number is rejected with its conversion's
reason.  ``main`` alone returns 0, 3 and 4: the subcommand handlers
return nothing, and toolkit errors are mapped to 3 and 4 there.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .antenna import PatchSpec, design_dish, design_patch, feed_impedance
from .capacity import MAX_SNR_DB, NORMALIZATIONS, sweep
from .channel import build_mode_channels, mode_power_profile, VARIANTS
from .config import OemConfig, _replace_on_success
from .errors import InvalidConfigError, OemError
from .geometry import scenario_check
from .waterfill import MIN_SAMPLES, waterfill_instantaneous

SPEED_OF_LIGHT = 299_792_458.0

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_SIMULATION = 4


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _platform_name() -> str:
    # platform.platform() would also scan the interpreter binary for its
    # libc version: ~10 ms and 0.5 MB of resident memory per process.
    return f"{platform.system()}-{platform.release()}-{platform.machine()}"


def _write_manifest(command: str, config_echo: dict, seed, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config_echo": config_echo,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": _platform_name(),
        },
    }
    path = Path(outputs[0]).with_suffix(Path(outputs[0]).suffix + ".manifest.json")
    with _replace_on_success(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# -- design --------------------------------------------------------------


def _cmd_design_patch(args) -> None:
    wavelength = SPEED_OF_LIGHT / (args.freq_ghz * 1e9)
    spec = PatchSpec(
        wavelength=wavelength, eps_r=args.eps_r,
        thickness=args.thickness_mm * 1e-3, z0=args.z0,
    )
    design = design_patch(spec)
    zin = feed_impedance(spec, design, design.feed_offset)
    record = {
        "width_mm": design.width * 1e3,
        "eps_eff": design.eps_eff,
        "guide_wavelength_mm": design.guide_wavelength * 1e3,
        "length_mm": design.length * 1e3,
        "gap_correction_mm": design.gap_correction * 1e3,
        "feed_offset_mm": design.feed_offset * 1e3,
        "xi_re": design.xi_re,
        "feed_impedance_ohm": [zin.real, zin.imag],
    }
    print(json.dumps(record, indent=2))


def _cmd_design_dish(args) -> None:
    wavelength = SPEED_OF_LIGHT / (args.freq_ghz * 1e9)
    design = design_dish(args.gain_db, args.efficiency, args.kappa, wavelength)
    record = {
        "diameter_mm": design.diameter * 1e3,
        "focal_length_mm": design.focal_length * 1e3,
        "kappa": design.kappa,
        "surface_per_mm": design.surface * 1e-3,
    }
    print(json.dumps(record, indent=2))


# -- channel -------------------------------------------------------------


def _cmd_channel(args) -> None:
    cfg = OemConfig.load(args.config)
    if args.mode is not None and not (0 <= args.mode < cfg.u_elems):
        args.usage_error(f"argument --mode: must lie in 0..{cfg.u_elems - 1}, got {args.mode}")
    channels = build_mode_channels(cfg, kind=args.model)
    # c and B are finite, but the dumped entries V * c_l * B[m, n] may not be
    c_top, b_top = (float(np.abs(part).max()) for part in (channels.coefficients, channels.base))
    if not math.isfinite(cfg.v_elems * c_top * b_top):
        raise InvalidConfigError(f"beta={cfg.beta} and {args.model} mode coefficients up to"
                                 f" {c_top:g} give entries V * c_l * B beyond the float range")
    modes = range(len(channels)) if args.mode is None else [args.mode]
    m_rx, n_tx = channels.base.shape
    # Row pieces "l,", "m,n,", re text and im text, one row of this array per
    # entry; the (m, n) column is filled once per dump.  Each mode is one
    # join and one write, as one string for the whole dump would hold all
    # M*N*U rows.
    pieces = np.empty((m_rx * n_tx, 4), dtype=object)
    pieces[:, 1] = [f"{m},{n}," for m in range(1, m_rx + 1) for n in range(1, n_tx + 1)]
    with _replace_on_success(args.out) as fh:
        fh.write("mode,m,n,re,im\n")
        for l in modes:
            matrix = cfg.v_elems * channels[l].matrix  # V * (c_l * B)
            pieces[:, 0] = f"{l},"
            pieces[:, 2] = _field_texts(matrix.real, ",")
            pieces[:, 3] = _field_texts(matrix.imag, "\n")
            fh.write("".join(pieces.ravel().tolist()))
    _write_manifest("channel", cfg.to_json_dict(), None, [args.out])


def _field_texts(part: np.ndarray, end: str) -> np.ndarray:
    """The entries of ``part`` in row-major order as ``format(x, ".12g") + end``, an object array.

    Identical bits give identical text, so each distinct bit pattern is
    formatted once, all of them in one %-template pass.  Keying on bits,
    not values, keeps 0.0 and -0.0 apart.  A mode matrix c_l * B of a
    square link is circulant, so it holds about M/2 distinct values per part.
    """
    bits, inverse = np.unique(part.ravel().view(np.uint64), return_inverse=True)
    # a NUL, which no %.12g text holds, closes each field
    texts = (f"%.12g{end}\0" * bits.size % tuple(bits.view(np.float64).tolist())).split("\0")
    return np.array(texts[:-1], dtype=object)[inverse]


# -- waterfill -----------------------------------------------------------


def _read_snr_csv(path: str) -> list[tuple[int, int, float]]:
    """Rows (i, l, gamma) of a gamma CSV; (i, l) is a label, used by at most one row."""
    rows, seen = [], set()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                i, l, gamma = int(row["i"]), int(row["l"]), float(row["gamma"])
                if i < 0 or l < 0:
                    raise ValueError("stream/mode indices must be nonnegative")
                if not (math.isfinite(gamma) and gamma >= 0.0):
                    raise ValueError(f"gamma must be finite and nonnegative, got {row['gamma']}")
                if (i, l) in seen:
                    raise ValueError(f"channel i={i} l={l} repeats an earlier row")
                seen.add((i, l))
                rows.append((i, l, gamma))
    except OSError as exc:
        raise InvalidConfigError(f"bad SNR csv: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"bad SNR csv: {path} is not UTF-8: {exc}") from exc
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad SNR csv, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise InvalidConfigError("SNR csv holds no channels")
    return rows


def _cmd_waterfill(args) -> None:
    rows = _read_snr_csv(args.snr_csv)
    policy = waterfill_instantaneous(np.array([gamma for _, _, gamma in rows]), args.total_power)
    with _replace_on_success(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "l", "gamma", "power"])
        for (i, l, gamma), power in zip(rows, policy.allocations[:, 0]):
            writer.writerow([i, l, _fmt(gamma), _fmt(power)])
    summary_path = str(Path(args.out).with_suffix(".summary.json"))
    summary = {
        "mu_star": policy.mu_star if math.isfinite(policy.mu_star) else None,
        "water_level": policy.water_level,
        "active_count": len(policy.active_set),
    }
    with _replace_on_success(summary_path) as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    _write_manifest(
        "waterfill", {"snr_csv": args.snr_csv, "total_power": args.total_power},
        None, [args.out, summary_path],
    )


# -- simulate ------------------------------------------------------------


# Most points one --snr-db range may hold.
MAX_SNR_POINTS = 1_000


def _parse_snr_range(text: str) -> list[float]:
    """Points start, start + step, ... up to stop of a "start:stop:step" range in dB.

    start and stop must be finite and within +-MAX_SNR_DB, and the range
    may hold at most MAX_SNR_POINTS points; the count is checked before
    any point is built.  Other text raises ArgumentTypeError, with its reason.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise argparse.ArgumentTypeError("start, stop and step must be finite")
    if max(abs(start), abs(stop)) > MAX_SNR_DB:
        raise argparse.ArgumentTypeError(f"start and stop must lie within +-{MAX_SNR_DB:g} dB")
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_SNR_POINTS:
        raise argparse.ArgumentTypeError(f"the range holds more than {MAX_SNR_POINTS} points")
    return [start + k * step for k in range(int(steps) + 1)]


def _cmd_simulate(args) -> None:
    cfg = OemConfig.load(args.config)
    profile = mode_power_profile(cfg, args.model)
    oem_curve, mimo_curve = sweep(
        cfg, profile, args.snr_db, args.total_power, args.trials, args.seed, args.normalization
    )
    with _replace_on_success(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["snr_db", "se_oem", "se_oem_stderr", "se_mimo", "se_mimo_stderr"])
        for op, mp in zip(oem_curve, mimo_curve):
            writer.writerow([
                _fmt(op.mean_snr_db), _fmt(op.se), _fmt(op.stderr),
                _fmt(mp.se), _fmt(mp.stderr),
            ])
    config_echo = {
        "config": cfg.to_json_dict(),
        "model": args.model,
        "normalization": args.normalization,
        "mode_profile": [float(g) for g in profile],
        "snr_db": args.snr_db,
        "trials": args.trials,
        "total_power": args.total_power,
    }
    _write_manifest("simulate", config_echo, args.seed, [args.out])


# -- scenario ------------------------------------------------------------


def _cmd_scenario(args) -> None:
    report = scenario_check(OemConfig.load(args.config))
    record = {
        "scenario": report.scenario,
        "use_oem": report.use_oem,
        "d_adjacent_uca_mm": report.d_adjacent_uca * 1e3,
        "d_adjacent_element_mm": report.d_adjacent_element * 1e3,
        "wavelength_mm": report.wavelength * 1e3,
        "wavelength_interval_mm": (
            None if report.interval_empty
            else [report.wavelength_min * 1e3, report.wavelength_max * 1e3]
        ),
        "no_valid_wavelength": report.interval_empty,
    }
    print(json.dumps(record, indent=2))


# -- parser --------------------------------------------------------------


def _number(convert, holds=None, need: str = ""):
    """An argparse type: ``convert`` the text and require ``holds`` of the value, if given.

    Text that does not convert is rejected with the conversion's own
    reason; a value that fails ``holds`` with "<need>, got <text>".
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if holds is not None and not holds(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oem-sim",
        description="OAM-embedded massive-MIMO mmWave link simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _number(float, lambda x: math.isfinite(x) and x > 0.0, "must be positive and finite")
    # the design calculators check the range of these values themselves
    real = _number(float)

    design = sub.add_parser("design", help="closed-form antenna design calculators")
    design_sub = design.add_subparsers(dest="design_kind", required=True)
    patch = design_sub.add_parser("patch", help="rectangular microstrip patch element")
    patch.add_argument("--freq-ghz", type=positive, required=True)
    patch.add_argument("--eps-r", type=real, required=True)
    patch.add_argument("--thickness-mm", type=real, required=True)
    patch.add_argument("--z0", type=real, default=50.0)
    patch.set_defaults(func=_cmd_design_patch)
    dish = design_sub.add_parser("dish", help="converging parabolic reflector")
    dish.add_argument("--gain-db", type=real, required=True)
    dish.add_argument("--efficiency", type=real, required=True)
    dish.add_argument("--kappa", type=real, required=True)
    dish.add_argument("--freq-ghz", type=positive, required=True)
    dish.set_defaults(func=_cmd_design_dish)

    channel = sub.add_parser("channel", help="dump per-mode channel matrices as CSV")
    channel.add_argument("--config", required=True)
    channel.add_argument("--mode", type=_number(int), default=None)
    channel.add_argument("--model", choices=VARIANTS, default="convergent")
    channel.add_argument("--out", required=True)
    channel.set_defaults(func=_cmd_channel, usage_error=channel.error)

    waterfill = sub.add_parser("waterfill", help="instantaneous water-filling on a gamma CSV")
    waterfill.add_argument("--snr-csv", required=True)
    waterfill.add_argument("--total-power", type=positive, required=True)
    waterfill.add_argument("--out", required=True)
    waterfill.set_defaults(func=_cmd_waterfill)

    simulate = sub.add_parser("simulate", help="ergodic SE sweep, OEM vs MIMO baseline")
    simulate.add_argument("--config", required=True)
    simulate.add_argument(
        "--snr-db", type=_parse_snr_range, required=True,
        help=f"start:stop:step in dB, within +-{MAX_SNR_DB:g} dB, at most {MAX_SNR_POINTS} points",
    )
    trials = _number(int, lambda n: n >= MIN_SAMPLES, f"need at least {MIN_SAMPLES} trials")
    simulate.add_argument("--trials", type=trials, required=True)
    simulate.add_argument("--seed", type=_number(int, lambda n: n >= 0, "must be nonnegative"),
                          required=True)
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--model", choices=VARIANTS, default="convergent")
    simulate.add_argument("--normalization", choices=NORMALIZATIONS, default="per-channel")
    simulate.add_argument("--total-power", type=positive, default=1.0)
    simulate.set_defaults(func=_cmd_simulate)

    scenario = sub.add_parser("scenario", help="wavelength-regime check")
    scenario.add_argument("--config", required=True)
    scenario.set_defaults(func=_cmd_scenario)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``build_parser`` parser, built once per process.

    Parsing leaves it unchanged, and each handler looks up the toolkit
    functions it calls (``sweep``, ``build_mode_channels``, ...) in this
    module when it runs, so a reused parser reaches replaced functions too.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OemError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
