"""Command-line interface.

Exit codes separate operational failure from mathematical inconclusiveness:
a certificate full of Unknowns still exits 0; only bad input (2), network
failure in RemoteFirst mode (3), a missing fixture in OfflineOnly mode
(4), or a valid curve beyond a capacity limit (5) are nonzero.  A batch
runs its labels in file order, one at a time, and exits with the code of
its first failing label, or 0 if none failed.
"""

import argparse
import os
import sys

from .arith import is_prime
from .cohom import central_scalar_shortcut, close_group, cohomology
from .curve import CurveModel, compute_invariants, minimal_model, parse_curve_spec
from .engine import analyze, certificate_to_json, certificate_to_text
from .errors import (
    FactorizationTooHard,
    InvalidInput,
    NetworkError,
    NotFound,
    ShaclassError,
)
from .galrep import DEFAULT_SAMPLE_BOUND
from .localred import local_data, tate_algorithm
from .selmerdata import (
    OFFLINE_ONLY,
    REMOTE_FIRST,
    ExternalCurveRecord,
    apply_user_overrides,
    default_config,
    fetch_curve_record,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NETWORK = 3
EXIT_FIXTURE_MISSING = 4
EXIT_CAPACITY = 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shaclass",
        description="Certified bounds relating Sha of an elliptic curve to the "
        "class group of its p-division field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_args(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--label", help="Cremona or LMFDB label")
        source.add_argument(
            "--curve",
            help="coefficients a1,a2,a3,a4,a6 or short form [A,B]",
        )
        sp.add_argument("--offline", action="store_true", help="never touch the network")
        sp.add_argument("--fixtures", help="directory of fixture records")
        sp.add_argument("--cache-dir", help="cache directory (SHACLASS_CACHE_DIR)")
        sp.add_argument("--base-url", help="remote database endpoint")
        return source

    an = sub.add_parser("analyze", help="full pipeline: certificate on stdout")
    an.set_defaults(run=cmd_analyze)
    source = add_curve_args(an)
    an.add_argument("-p", type=int, required=True, help="odd prime p")
    an.add_argument("--sample-bound", type=int, default=DEFAULT_SAMPLE_BOUND)
    an.add_argument("--assume-wild-ramification", action="store_true")
    an.add_argument(
        "--no-assume-sha-finite",
        dest="assume_sha_finite",
        action="store_false",
        help="drop the finiteness-of-Sha assumption (odd Sha[p]-ranks allowed)",
    )
    an.add_argument("--format", choices=("text", "json"), default="text")
    an.add_argument("--mw-rank", type=int, help="user-supplied Mordell-Weil rank")
    an.add_argument("--sha-order", type=int, help="user-supplied Sha order")
    an.add_argument(
        "--sha-structure", help="user-supplied Sha invariant factors, e.g. 5,5"
    )
    source.add_argument("--batch", help="file with one label per line")
    # parsed so callers passing it keep working; README says what a one-at-a-time batch costs
    an.add_argument("--workers", type=int, help="has no effect; batch labels run in file order")

    iv = sub.add_parser("invariants", help="b/c invariants, discriminant, j")
    iv.set_defaults(run=cmd_invariants)
    add_curve_args(iv)

    ta = sub.add_parser("tate", help="local reduction data at bad primes")
    ta.set_defaults(run=cmd_tate)
    add_curve_args(ta)
    ta.add_argument("-v", type=int, help="single prime (default: all bad primes)")

    co = sub.add_parser("cohomology", help="H^0/H^1 of a matrix group on F_p^2")
    co.set_defaults(run=cmd_cohomology)
    co.add_argument("--p", type=int, required=True)
    co.add_argument(
        "--generators",
        required=True,
        help="semicolon-separated matrices, each a,b,c,d row-major mod p",
    )
    co.add_argument("--cap", type=int, default=5000)
    return parser


def _store_config(args):
    return default_config(args.cache_dir, args.fixtures, args.base_url)


def _resolve_curve(args, label=None, config=None):
    """Returns (model, record, label). record is None without a label."""
    if args.curve is not None:  # argparse lets through only one of --label, --curve, --batch
        return parse_curve_spec(args.curve), None, None
    label = label or args.label
    mode = OFFLINE_ONLY if args.offline else REMOTE_FIRST
    config = config or _store_config(args)
    record = fetch_curve_record(label, mode, config)
    if record.ainvs is None:
        raise InvalidInput(f"record for {label} carries no coefficients")
    return CurveModel(*record.ainvs), record, label


def _user_overrides(args, model, record):
    structure = None
    if args.sha_structure:
        try:
            structure = tuple(int(s) for s in args.sha_structure.split(","))
        except ValueError as err:
            raise InvalidInput(f"bad --sha-structure {args.sha_structure!r}") from err
    if record is None:
        if args.mw_rank is None and args.sha_order is None and structure is None:
            return None
        if args.mw_rank is None:
            # no record to read it from: 0 would be an invented rank
            raise InvalidInput("--curve with --sha-order or --sha-structure needs --mw-rank")
        record = ExternalCurveRecord("user-curve", model.ainvs(), args.mw_rank, (), None, None)
    return apply_user_overrides(
        record,
        mw_rank=args.mw_rank,
        sha_order=args.sha_order,
        sha_structure=structure,
    )


def _analyze_one(args, label=None, config=None):
    model, record, label = _resolve_curve(args, label, config)
    record = _user_overrides(args, model, record)
    cert = analyze(
        model,
        args.p,
        record=record,
        sample_bound=args.sample_bound,
        assume_wild_ramification=args.assume_wild_ramification,
        assume_sha_finite=args.assume_sha_finite,
        label=label,
    )
    if args.format == "json":
        return certificate_to_json(cert)
    return certificate_to_text(cert)


def cmd_analyze(args):
    if not is_prime(args.p) or args.p == 2:
        raise InvalidInput(f"p must be an odd prime, got {args.p}")
    if args.batch is None:
        sys.stdout.write(_analyze_one(args))
        return EXIT_OK
    try:
        with open(args.batch) as fh:
            labels = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidInput(f"cannot read batch file {args.batch}: {err}") from err
    code = EXIT_OK
    # one config for the whole batch: after a fetch fails for want of a
    # network, the later labels go straight to local data
    config = _store_config(args)
    for label in labels:
        try:
            sys.stdout.write(_analyze_one(args, label, config))
        except ShaclassError as err:
            print(f"error: {label}: {err}", file=sys.stderr)
            code = code or _exit_code(err, args)
        sys.stdout.flush()
    return code


def cmd_invariants(args):
    model, _record, label = _resolve_curve(args)
    inv = compute_invariants(model)
    mm = minimal_model(model)
    print(f"curve {label or model}")
    print(f"  b2, b4, b6, b8 = {inv.b2}, {inv.b4}, {inv.b6}, {inv.b8}")
    print(f"  c4, c6 = {inv.c4}, {inv.c6}")
    print(f"  disc = {inv.disc}")
    print(f"  j = {inv.j}")
    print(f"  minimal model: {mm}")
    return EXIT_OK


def cmd_tate(args):
    model, _record, label = _resolve_curve(args)
    data = local_data(model) if args.v is None else {args.v: tate_algorithm(model, args.v)}
    print(f"curve {label or model}")
    for q, d in data.items():
        print(
            f"  v = {q}: {d.kodaira} ({d.reduction_class}), c_v = {d.c_v}, "
            f"v(disc_min) = {d.val_delta_min}, f = {d.conductor_exponent}"
        )
    return EXIT_OK


def cmd_cohomology(args):
    p = args.p
    if not is_prime(p) or p == 2:
        raise InvalidInput(f"p must be an odd prime, got {p}")
    gens = []
    for part in args.generators.split(";"):
        try:
            entries = [int(s) for s in part.split(",")]
        except ValueError as err:
            raise InvalidInput(f"matrix entries must be integers: {part!r}") from err
        if len(entries) != 4:
            raise InvalidInput(f"matrix needs 4 entries: {part!r}")
        gens.append(tuple(entries))
    group = close_group(gens, p, cap=args.cap)
    result = cohomology(group, use_shortcut=False)
    scalar = central_scalar_shortcut(group)
    print(f"group order = {len(group)}")
    print(f"h0 = {result.h0_dim}")
    print(f"h1 = {result.h1_dim}")
    if scalar is not None:
        print(f"central scalar {scalar} present: vanishing also follows without elimination")
    return EXIT_OK


def _exit_code(err, args):
    """Exit code of a run, or of one batch label, that failed with err."""
    if isinstance(err, NotFound):
        offline = getattr(args, "offline", False) or os.environ.get("SHACLASS_OFFLINE") == "1"
        return EXIT_FIXTURE_MISSING if offline else EXIT_INVALID_INPUT
    if isinstance(err, NetworkError):
        return EXIT_NETWORK
    if isinstance(err, FactorizationTooHard):
        return EXIT_CAPACITY
    return EXIT_INVALID_INPUT


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    try:
        return args.run(args)
    except ShaclassError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err, args)


if __name__ == "__main__":
    sys.exit(main())
