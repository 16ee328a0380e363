"""Command-line front door: scan, construct, upper, verify.

Exit codes: 0 ok, 1 verification failed, 2 malformed input, 3 retries
exhausted, 4 infeasible parameters, 5 degenerate Bohr collapse.  Every
artifact embeds {tool, version, seed, mode, params}; identical invocations
(same seed) produce byte-identical outputs.  POPDIFF_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .aps import ap_profile, total_3ap_density, worst_difference
from .behrend import apfree_set, is_apfree, low_ap_density_subset
from .bohr import geometric_schedule, strict_schedule, upper_search
from .domains import (
    OVER_N,
    OVER_WINDOW,
    DensityFn,
    _is_int,
    cyclic,
    fn_from_dict,
    interval,
    load_fn,
    save_fn,
)
from .errors import (
    DegenerateBohrError,
    FileFormatError,
    InfeasibleError,
    PopdiffError,
    RetriesExhausted,
)
from .interval import choose_interval_params, construct_interval_fn
from .modelfn import build_model_fn, model_fn_extra, verify_model_properties
from .product import ProductParams, construct_product

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RETRIES = 3
EXIT_INFEASIBLE = 4
EXIT_DEGENERATE = 5


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


def _normalization(f: DensityFn, flag: str | None) -> str | None:
    if f.domain.is_group:
        return None
    return {None: OVER_WINDOW, "over-n": OVER_N, "over-window": OVER_WINDOW}.get(flag, flag)


# ---------------------------------------------------------------------------
# subcommands


def cmd_scan(args) -> int:
    f, _ = load_fn(args.infile)
    norm = _normalization(f, args.norm)
    prof = ap_profile(f, normalization=norm)
    prof.to_csv(f"{args.out}.csv")
    worst_d, worst, _ = worst_difference(prof)
    summary = {
        "n": f.n,
        "normalization": prof.normalization,
        "mean": f.mean(),
        "total_3ap_density": total_3ap_density(f) if f.domain.is_group else None,
        "max_offdiag_density": worst,
        "min_offdiag_density": float(prof.densities[1:].min()) if worst_d else None,
        "argmax_d": worst_d,
        "meta": _meta(args, {"infile": str(args.infile)}),
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


def cmd_construct(args) -> int:
    seed = args.seed
    if args.kind == "model":
        m = build_model_fn(args.alpha, args.n)
        extra = model_fn_extra(m)
        extra["meta"] = _meta(args, {"kind": "model", "alpha": args.alpha, "n": args.n})
        save_fn(m.fn, f"{args.out}.fn.json", extra)
        ok = verify_model_properties(m).ok
        _write_json(f"{args.out}.cert.json", {"kind": "model", "ok": ok, "meta": extra["meta"]})
        return EXIT_OK if ok else EXIT_VERIFY
    if args.kind == "behrend":
        s = apfree_set(args.n)
        ok = is_apfree(s)
        obj = {
            "elements": [int(v) for v in s],
            "N": args.n,
            "meta": _meta(args, {"kind": "behrend", "N": args.n}),
        }
        _write_json(f"{args.out}.set.json", obj)
        _write_json(
            f"{args.out}.cert.json",
            {"kind": "behrend", "ok": bool(ok), "size": len(s), "meta": obj["meta"]},
        )
        return EXIT_OK if ok else EXIT_VERIFY
    if args.kind == "lowap":
        x = low_ap_density_subset(args.n, args.alpha)
        obj = x.to_dict()
        obj["meta"] = _meta(args, {"kind": "lowap", "n": args.n, "alpha": args.alpha})
        _write_json(f"{args.out}.set.json", obj)
        _write_json(
            f"{args.out}.cert.json",
            {"kind": "lowap", "ok": bool(x.ok), "bound": x.bound, "meta": obj["meta"]},
        )
        return EXIT_OK if x.ok else EXIT_VERIFY
    if args.kind == "product":
        params = ProductParams(
            alpha=args.alpha,
            epsilon=args.epsilon,
            factors=args.factors,
            mode=args.mode,
        )
        f, cert = construct_product(params, seed=seed, max_retries_per_level=args.retries)
        meta = _meta(args, {"kind": "product", "alpha": args.alpha, "epsilon": args.epsilon})
        save_fn(f, f"{args.out}.fn.json", {"meta": meta})
        obj = cert.to_dict()
        obj["meta"] = meta
        _write_json(f"{args.out}.cert.json", obj)
        return EXIT_OK if cert.passed else EXIT_VERIFY
    if args.kind == "interval":
        params = choose_interval_params(
            args.n,
            args.alpha,
            args.epsilon,
            mode=args.mode,
            factors=args.factors or None,
        )
        f, cert = construct_interval_fn(params, seed=seed, max_overlay_retries=args.retries)
        meta = _meta(args, {"kind": "interval", "alpha": args.alpha, "epsilon": args.epsilon})
        save_fn(f, f"{args.out}.fn.json", {"meta": meta})
        obj = cert.to_dict()
        obj["meta"] = meta
        _write_json(f"{args.out}.cert.json", obj)
        return EXIT_OK if cert.passed else EXIT_VERIFY
    raise FileFormatError(f"unknown construct kind {args.kind!r}")


def cmd_upper(args) -> int:
    f, _ = load_fn(args.infile)
    if not f.domain.is_group:
        raise FileFormatError("the search needs an odd-order group function file")
    if args.schedule == "strict":
        schedule = strict_schedule(args.epsilon)
    else:
        rho0 = args.rho0 if args.rho0 is not None else min(0.5, max(args.epsilon, 1e-3))
        schedule = geometric_schedule(rho0, args.decay)
    trace = upper_search(f, args.epsilon, schedule=schedule)
    obj = trace.to_dict()
    obj["meta"] = _meta(args, {"epsilon": args.epsilon, "schedule": args.schedule})
    _write_json(f"{args.out}.trace.json", obj)
    alpha = f.mean()
    return EXIT_OK if trace.density >= alpha**3 - args.epsilon else EXIT_VERIFY


def _set_indicator(obj: dict) -> DensityFn:
    """Indicator of a set artifact: residues 0..n-1 of Z_n under ``n``, or
    members 1..N of the interval [N] under ``N``."""
    key = "n" if "n" in obj else "N"
    size = obj.get(key)
    if not _is_int(size) or size < 1:
        raise FileFormatError(f"set artifact needs a positive integer 'n' or 'N', got {size!r}")
    elements = obj["elements"]
    if not isinstance(elements, list) or not all(_is_int(v) for v in elements):
        raise FileFormatError("set elements must be a list of integers")
    lo = 0 if key == "n" else 1
    bad = next((v for v in elements if not lo <= v < lo + size), None)
    if bad is not None:
        raise FileFormatError(f"set element {bad} is outside {lo}..{lo + size - 1} ({key}={size})")
    vals = np.zeros(size)
    vals[np.asarray(elements, dtype=np.int64) - lo] = 1.0
    return DensityFn(cyclic(size) if key == "n" else interval(size), vals)


def cmd_verify(args) -> int:
    obj = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise FileFormatError("artifact must be a JSON object")
    if "values" in obj:
        f, _ = fn_from_dict(obj)
    elif "elements" in obj:
        f = _set_indicator(obj)
    else:
        raise FileFormatError("artifact holds neither values nor elements")
    alpha = args.alpha if args.alpha is not None else f.mean()
    if args.bound in ("rel", "relative", "a3(1-eps)"):
        target = alpha**3 * (1 - args.epsilon)
    elif args.bound in ("abs", "absolute", "a3-eps"):
        target = alpha**3 - args.epsilon
    else:
        raise FileFormatError(f"unknown bound spec {args.bound!r}")
    worst_d, worst, ok = worst_difference(ap_profile(f, _normalization(f, None)), target)
    print(
        json.dumps(
            {
                "target": target,
                "worst_d": worst_d,
                "worst_density": worst,
                "passed": bool(ok),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="popdiff")
    ap.add_argument("--version", action="version", version=f"popdiff {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("strict", "desk"), default="desk")

    p = sub.add_parser("scan", help="per-difference density profile of a function file")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--norm", choices=("over-n", "over-window"), default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="run a construction and certify it")
    common(p)
    p.add_argument("--kind", choices=("model", "behrend", "lowap", "product", "interval"), required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=101, help="modulus / interval length")
    p.add_argument("--factors", type=lambda s: tuple(int(v) for v in s.split(",")), default=())
    p.add_argument("--retries", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("upper", help="popular-difference increment search")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--schedule", choices=("strict", "geometric"), default="geometric")
    p.add_argument("--rho0", type=float, default=None)
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("verify", help="exhaustive per-difference bound check")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", default="rel")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    env_seed = os.environ.get("POPDIFF_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        args.seed = int(env_seed)
    try:
        return args.func(args)
    except (FileFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RetriesExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRIES
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DegenerateBohrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PopdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
