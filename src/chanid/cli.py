"""Command-line interface.

Exit codes: 0 success, 1 validation error (bad arguments, malformed
JSON, a state with an eigenvalue below -1e-10, a map whose TP defect
||sum_k A_k† A_k - 1||_op overflows a double, an input too large for
memory), 2 numerical failure
(inadmissible reference, self-check violation, CB interval whose lower end
exceeds its upper end).  reconstruct --w refuses such a state when it reads
it, so the library's non-CP refusal (below -1e-8) is not reached.

cbdist's only tuning flags are --starts and --max-iters.  sweep reads its
grid from --grid alone; a config's min_eig_grid key is ignored, and so are
its ref_spec and trials, which the grid replaces.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import harness, metrics, serialize
from .channel import NotCompletelyPositiveError, random_channel
from .identify import NotAdmissibleError, reconstruct
from .metrics import CertificateError


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` nested at ``indent``, each list of finite
    float [re, im] pairs written by one %-format (``%r`` is JSON's float repr),
    and each int and finite float leaf by its repr, as ``json`` writes them."""
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (json.dumps(key) + ": " + _dumps(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(obj) in (list, tuple) and obj:
        if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
            flat = tuple(itertools.chain.from_iterable(obj))
            if set(map(type, flat)) == {float}:
                pair = f"[{inner}  %r,{inner}  %r{inner}]"
                text = ("[" + inner + ("," + inner).join([pair] * len(obj)) + indent + "]") % flat
                if "n" not in text:  # %r writes nan and inf where JSON writes NaN and Infinity
                    return text
        return "[" + inner + ("," + inner).join(_dumps(value, inner) for value in obj) + indent + "]"
    return json.dumps(obj, indent=2).replace("\n", indent)


def _emit(obj, out: str | None):
    text = _dumps(obj)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_randchannel(args) -> int:
    t = random_channel(args.d1, args.d2, args.rank, args.seed)
    _emit(serialize.channel_to_json(t), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    w = serialize.density_from_json(_load_json(args.w))
    ref = serialize.reference_from_json(_load_json(args.ref))
    report = serialize.reconstruction_to_json(reconstruct(w, ref))
    if args.out:  # the channel to --out, the residuals to the sidecar
        _emit(report.pop("channel"), args.out)
        _emit(report, args.out + ".report.json")
    else:
        _emit(report, None)
    return 0


def _cmd_fidelity(args) -> int:
    t1 = serialize.channel_from_json(_load_json(args.t1))
    t2 = serialize.channel_from_json(_load_json(args.t2))
    fidelity, lhs, rhs = metrics._fidelity_and_fvdg_gap(t1, t2)
    _emit({"fidelity": fidelity, "fvdg_lhs": lhs, "fvdg_rhs": rhs}, args.out)
    return 0


def _cmd_cbdist(args) -> int:
    t1 = serialize.channel_from_json(_load_json(args.t1))
    t2 = serialize.channel_from_json(_load_json(args.t2))
    interval = metrics.cb_distance_interval(t1, t2, starts=args.starts, max_iters=args.max_iters)
    _emit(serialize.norm_interval_to_json(interval), args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    cfg = harness.config_from_json(_load_json(args.config))
    table = harness.run_roundtrip(cfg)
    harness.write_records_csv(table, args.out)
    print(f"wrote {table.trial_index.size} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    grid = []
    for entry in args.grid.split(","):
        try:
            grid.append(float(entry))
        except ValueError:
            raise ValueError(f"--grid entry {entry!r} is not a number") from None
    cfg = harness._sweep_config_from_json(_load_json(args.config))
    table = harness.run_spectrum_sweep(cfg, grid)
    harness.write_records_csv(table, args.out)
    print(f"wrote {table.trial_index.size} records to {args.out}", file=sys.stderr)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chanid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("randchannel", help="emit a random trace-preserving channel as JSON")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_randchannel)

    p = sub.add_parser("reconstruct", help="recover a channel from a probe-output state")
    p.add_argument("--w", required=True, help="bipartite state JSON (complex matrix)")
    p.add_argument("--ref", required=True, help="reference state JSON")
    p.add_argument("--out", help="channel JSON destination (report goes to a sidecar)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("fidelity", help="channel fidelity between two channel JSONs")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("cbdist", help="CB-norm distance interval between two channels")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--starts", type=int, default=metrics.CB_STARTS)
    p.add_argument("--max-iters", type=int, default=metrics.CB_MAX_ITERS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cbdist)

    p = sub.add_parser("roundtrip", help="noise-robustness round-trip batch to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("sweep", help="reconstruction quality versus reference spectrum")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", required=True, help="comma-separated min-eigenvalue grid")
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on bad arguments: a validation error here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (
        NotAdmissibleError,
        NotCompletelyPositiveError,
        harness.SelfCheckError,
        CertificateError,
    ) as exc:
        print(f"chanid: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"chanid: error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no text
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
