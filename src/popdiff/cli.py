"""Command-line front door: scan, construct, upper, verify.

Exit codes: 0 ok, 1 verification failed, 2 malformed input, 3 retries
exhausted, 4 infeasible parameters, 5 degenerate Bohr collapse, 6 a
computation failed where the theory guarantees success.  Every
artifact embeds {tool, version, seed, mode, params}; identical invocations
(same seed) produce byte-identical outputs.  POPDIFF_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# numpy and the library modules are imported inside each command, so a
# process loads only what its command runs and --version, --help and a bad
# flag load no numpy at all
from . import __version__
from .errors import (
    DegenerateBohrError,
    DomainError,
    FileFormatError,
    InfeasibleError,
    PopdiffError,
    RegularityError,
    RetriesExhausted,
)

EXIT_OK = 0
EXIT_VERIFY = 1

# an error exits with the code of the first row whose class it is an instance
# of, so the PopdiffError catch-all comes after its subclasses; argparse exits
# 2 on a bad flag by itself
EXIT_CODES = (
    (RetriesExhausted, 3),
    (InfeasibleError, 4),
    (DegenerateBohrError, 5),
    (RegularityError, 6),
    (PopdiffError, 2),
    (OSError, 2),
)

NORM_FLAGS = ("over-n", "over-window")

# construct --kind behrend certifies its set with apfree.is_apfree, about
# |A| N / 64 word operations: 0.45 s at N = 10^6 and 5-13 s at N = 10^7 on a
# 2-core box, growing about 4-fold for each further doubling of N
BEHREND_MAX_N = 10**7


def _meta(args, params: dict) -> dict:
    return {
        "tool": "popdiff",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "params": params,
    }


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_scan(args) -> int:
    from .aps import ap_profile, total_3ap_density, worst_difference
    from .domains import OVER_N, OVER_WINDOW, load_fn

    f = load_fn(args.infile)
    prof = ap_profile(f, normalization=OVER_N if args.norm == "over-n" else OVER_WINDOW)
    prof.to_csv(f"{args.out}.csv")
    worst = worst_difference(prof)
    summary = {
        "n": f.n,
        "normalization": prof.normalization,
        "mean": f.mean(),
        "total_3ap_density": total_3ap_density(f) if f.domain.is_group else None,
        "max_offdiag_density": worst.max_offdiag,
        "min_offdiag_density": float(prof.densities[1:].min()) if worst.argmax_d else None,
        "argmax_d": worst.argmax_d,
        "meta": _meta(args, {"infile": str(args.infile)}),
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


def _check_size(size: int, what: str) -> None:
    """A DomainError naming ``what`` when no float vector of ``size`` entries
    can be allocated.  bytes(8 * size) is the same lazily zeroed calloc as
    np.zeros(size), so the probe touches no page and needs no numpy."""
    try:
        bytes(8 * size)
    except (MemoryError, OverflowError) as exc:  # OverflowError: beyond the index range
        raise DomainError(f"{what} = {size} is too large to hold a value vector") from exc


def _construction(args) -> tuple:
    """(params, artifact, certificate body, ok) of one construct kind; the
    artifact is a function file or a set artifact."""
    alpha, n = args.alpha, args.n
    # a size that no vector can hold exits 2 before any primality test or
    # loop over it; each kind rejects a size below 1 with its own message
    if args.kind == "product":
        size, what = math.prod(args.factors), "the product of --factors"
    else:
        size, what = n, "--n"
    if size >= 1:
        _check_size(size, what)
    if args.kind == "model":
        from .domains import fn_to_dict
        from .modelfn import build_model_fn, model_fn_extra, verify_model_properties

        m = build_model_fn(alpha, n)
        ok = verify_model_properties(m).ok
        cert = {"kind": "model", "ok": ok}
        return {"alpha": alpha, "n": n}, fn_to_dict(m.fn, model_fn_extra(m)), cert, ok
    if args.kind == "behrend":
        from .apfree import apfree_set, is_apfree

        if n > BEHREND_MAX_N:
            raise DomainError(
                f"--n = {n} is above {BEHREND_MAX_N}, the largest N whose AP-free check ends in seconds"
            )
        s = apfree_set(n)
        ok = is_apfree(s)
        cert = {"kind": "behrend", "ok": ok, "size": len(s)}
        return {"N": n}, {"elements": list(s), "N": n}, cert, ok
    if args.kind == "lowap":
        from .behrend import low_ap_density_subset

        x = low_ap_density_subset(n, alpha)
        ok = bool(x.ok)
        cert = {"kind": "lowap", "ok": ok, "bound": x.bound}
        return {"n": n, "alpha": alpha}, x.to_dict(), cert, ok
    from .domains import fn_to_dict

    if args.kind == "product":
        from .product import ProductParams, construct_product

        params = ProductParams(
            alpha=alpha, epsilon=args.epsilon, factors=args.factors, mode=args.mode
        )
        f, cert = construct_product(params, seed=args.seed, max_retries_per_level=args.retries)
    else:
        from .interval import choose_interval_params, construct_interval_fn

        params = choose_interval_params(
            n, alpha, args.epsilon, mode=args.mode, factors=args.factors or None
        )
        f, cert = construct_interval_fn(params, seed=args.seed, max_overlay_retries=args.retries)
    return {"alpha": alpha, "epsilon": args.epsilon}, fn_to_dict(f), cert.to_dict(), cert.passed


def cmd_construct(args) -> int:
    params, artifact, cert, ok = _construction(args)
    meta = _meta(args, {"kind": args.kind, **params})
    suffix = "fn" if "values" in artifact else "set"
    _write_json(f"{args.out}.{suffix}.json", {**artifact, "meta": meta})
    _write_json(f"{args.out}.cert.json", {**cert, "meta": meta})
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_upper(args) -> int:
    from .bohr import geometric_schedule, strict_schedule, upper_search
    from .domains import load_fn

    f = load_fn(args.infile)
    if not f.domain.is_group:
        raise FileFormatError("the search needs an odd-order group input")
    if args.schedule == "strict":
        schedule = strict_schedule(args.epsilon)
    else:
        rho0 = args.rho0 if args.rho0 is not None else min(0.5, max(args.epsilon, 1e-3))
        schedule = geometric_schedule(rho0)
    trace = upper_search(f, args.epsilon, schedule=schedule)
    obj = trace.to_dict()
    obj["meta"] = _meta(args, {"epsilon": args.epsilon, "schedule": args.schedule})
    _write_json(f"{args.out}.trace.json", obj)
    alpha = f.mean()
    return EXIT_OK if trace.density >= alpha**3 - args.epsilon else EXIT_VERIFY


def cmd_verify(args) -> int:
    from .aps import ap_profile, worst_difference
    from .domains import OVER_WINDOW, load_fn

    f = load_fn(args.infile)
    alpha = args.alpha if args.alpha is not None else f.mean()
    target = alpha**3 * (1 - args.epsilon) if args.bound == "rel" else alpha**3 - args.epsilon
    verdict = worst_difference(ap_profile(f, OVER_WINDOW), target)
    print(
        json.dumps(
            {
                "target": verdict.target,
                "worst_d": verdict.argmax_d,
                "worst_density": verdict.max_offdiag,
                "passed": verdict.passed,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK if verdict.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser


def _factors(text: str) -> tuple:
    return tuple(_at_least_1(v) for v in text.split(","))


def _at_least_1(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    # a DomainError is a ValueError, so argparse rejects a bad --seed with it too
    if not text.isdecimal():
        raise DomainError(f"--seed and POPDIFF_SEED take decimal digits only, got {text!r}")
    return int(text)


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    # eps >= 1 leaves alpha^3 (1 - eps) <= 0 and alpha^3 - eps < 0: no target
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _mean(text: str) -> float:
    # the mean of a [0, 1]-valued function
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="popdiff")
    ap.add_argument("--version", action="version", version=f"popdiff {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--mode", choices=("strict", "desk"), default="desk")

    p = sub.add_parser("scan", help="per-difference density profile of an input artifact")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--norm", choices=NORM_FLAGS, default="over-window")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="run a construction and certify it")
    common(p)
    p.add_argument("--kind", choices=("model", "behrend", "lowap", "product", "interval"), required=True)
    p.add_argument("--alpha", type=_mean, default=0.25)
    p.add_argument("--epsilon", type=_tolerance, default=1e-3)
    p.add_argument("--n", type=int, default=101, help="modulus / interval length")
    p.add_argument("--factors", type=_factors, default=())
    p.add_argument("--retries", type=_at_least_1, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("upper", help="popular-difference increment search")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", type=_positive, required=True)
    p.add_argument("--schedule", choices=("strict", "geometric"), default="geometric")
    p.add_argument("--rho0", type=_positive, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("verify", help="exhaustive per-difference bound check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", choices=("rel", "abs"), default="rel")
    p.add_argument("--epsilon", type=_tolerance, required=True)
    p.add_argument("--alpha", type=_mean, default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    env_seed = os.environ.get("POPDIFF_SEED")
    try:
        if env_seed is not None and hasattr(args, "seed"):
            args.seed = _seed(env_seed)
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
