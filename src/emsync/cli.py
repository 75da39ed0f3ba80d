"""Command-line surface.

Subcommands: validate, classify, sync-rate, pred-rate, bounds, simulate,
gen.  Reports are ordered (key, value) lists rendered either as a human
table or as machine-readable `key<TAB>value` lines (--format kv); floats
use 9 significant digits.  Exit statuses: 0 success, 1 analysis
precondition or numerical failure or a closed output pipe, 2 malformed
input, 3 resource or generation failure.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .errors import EmsyncError, InputError
from .machine import MAX_TRIES, parse_machine, random_machine, render_machine
from .oracle import ENUM_BUDGET, exact_word_stats, simulate_beliefs
from .pairs import classify
from .rates import RATE_EPS, nsyn_bounds, rate_report, sync_rate


def format_value(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_report(report, fmt):
    if fmt == "kv":
        return "\n".join(f"{key}\t{format_value(value)}" for key, value in report)
    width = max(len(key) for key, _ in report)
    return "\n".join(f"{key:<{width}}  {format_value(value)}" for key, value in report)


def load_machine(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    return parse_machine(text)


def cmd_validate(args):
    m = load_machine(args.machine)
    return [
        ("machine", m.name),
        ("states", m.n),
        ("symbols", m.k),
        ("edges", m.edge_count()),
        ("classification", classify(m)),
    ]


def cmd_classify(args):
    m = load_machine(args.machine)
    return [("classification", classify(m))]


def cmd_sync_rate(args):
    m = load_machine(args.machine)
    return [("src", sync_rate(m, eps=args.eps))]


def cmd_pred_rate(args):
    m = load_machine(args.machine)
    report = rate_report(m)
    out = [("prc", report.prc)]
    for i, value in enumerate(report.drifts):
        out.append((f"e_m.{i}", value))
    out.append(("escape", report.escape))
    return out


def cmd_bounds(args):
    m = load_machine(args.machine)
    # the enumeration runs first, so that one over its budget is refused at once
    stats = exact_word_stats(m, args.length, budget=args.budget) if args.oracle else None
    bounds = nsyn_bounds(m, args.length)
    out = [("length", args.length), ("nsyn.lower", bounds.lower)]
    if stats is not None:
        out.append(("nsyn.exact", stats.nsyn))
    out.append(("nsyn.upper", bounds.upper))
    return out


def _parse_sweep(text):
    try:
        first, last, step = (int(part) for part in text.split(":"))
    except ValueError:
        raise InputError(f"bad sweep {text!r}, expected START:STOP:STEP") from None
    if first < 0 or last < first or step < 1:
        raise InputError(f"bad sweep {text!r}: need 0 <= START <= STOP and STEP >= 1")
    return list(range(first, last + 1, step))


def cmd_simulate(args):
    m = load_machine(args.machine)
    if args.sweep:
        if args.length is not None:
            raise InputError("give either --length or --sweep, not both")
        checkpoints = _parse_sweep(args.sweep)
        length = checkpoints[-1]
    else:
        if args.length is None:
            raise InputError("either --length or --sweep is required")
        checkpoints = [args.length]
        length = args.length
    sim = simulate_beliefs(m, length, args.runs, args.seed, record_at=checkpoints)
    out = [("length", length), ("runs", args.runs), ("seed", args.seed)]
    # one (checkpoints, runs) sample, read along its run axis
    q = np.stack([sim.q_at[point] for point in checkpoints])
    medians = np.median(q, axis=1).tolist()
    for point, mean, median in zip(checkpoints, q.mean(axis=1).tolist(), medians):
        out.append((f"q_l.mean.{point}", mean))
        out.append((f"q_l.median.{point}", median))
    if not args.sweep:
        out.append((f"q_l.p10.{length}", float(np.quantile(q[0], 0.1))))
        out.append((f"q_l.p90.{length}", float(np.quantile(q[0], 0.9))))
    else:
        # decay slope of ln(median); checkpoints with median 0 (already
        # synchronized) carry no decay information and are left out
        xs = [point for point, median in zip(checkpoints, medians) if median > 0]
        ys = [math.log(median) for median in medians if median > 0]
        slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else math.nan
        out.append(("slope", slope))
    return out


def cmd_gen(args):
    m = random_machine(
        args.states, args.symbols, density=args.density, seed=args.seed, max_tries=args.max_tries
    )
    text = render_machine(m)
    if args.out is None:
        sys.stdout.write(text)
        return None
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    return [
        ("states", m.n),
        ("symbols", m.k),
        ("edges", m.edge_count()),
        ("out", args.out),
    ]


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so calls can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "kv"),
        default="human",
        help="report style: aligned table or tab-separated key/value lines",
    )
    # the options of every command that reads a machine file, and the file
    machine = argparse.ArgumentParser(add_help=False, parents=[common])
    machine.add_argument("machine", help="machine file")

    parser = argparse.ArgumentParser(
        prog="emsync",
        description="Synchronization and prediction rate constants of epsilon-machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[machine], help="parse and validate a machine file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", parents=[machine], help="exact or non-exact")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "sync-rate", parents=[machine], help="synchronization rate constant (exact machines)"
    )
    p.add_argument(
        "--eps", type=float, default=RATE_EPS, help="absolute accuracy (default %(default)g)"
    )
    p.set_defaults(func=cmd_sync_rate)

    p = sub.add_parser(
        "pred-rate",
        parents=[machine],
        help="prediction rate constant, per-component drifts, escape rate",
    )
    p.set_defaults(func=cmd_pred_rate)

    p = sub.add_parser(
        "bounds", parents=[machine], help="bounds on the non-synchronization probability"
    )
    p.add_argument("--length", type=int, required=True, help="word length")
    p.add_argument(
        "--oracle", action="store_true", help="also compute the exact value by enumeration"
    )
    p.add_argument(
        "--budget",
        type=int,
        default=ENUM_BUDGET,
        help="enumeration budget in path steps (default %(default)s)",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "simulate", parents=[machine], help="Monte Carlo simulation of observer uncertainty"
    )
    p.add_argument("--length", type=int, default=None, help="word length")
    p.add_argument(
        "--sweep",
        default=None,
        metavar="START:STOP:STEP",
        help="record statistics at several lengths and fit the decay slope",
    )
    p.add_argument("--runs", type=int, default=1000, help="number of runs (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", parents=[common], help="generate a random machine file")
    p.add_argument("--states", type=int, required=True, help="number of states")
    p.add_argument("--symbols", type=int, required=True, help="number of symbols")
    p.add_argument(
        "--density", type=float, default=1.0, help="edge presence probability (default 1)"
    )
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--out", default=None, help="write the machine here instead of stdout")
    p.add_argument(
        "--max-tries", type=int, default=MAX_TRIES, help="rejection limit (default %(default)s)"
    )
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        if report is not None:
            print(render_report(report, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again (Python docs, signal, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except EmsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
