"""Command-line front end.

Subcommands: verify (run the full suite), spectrum (both eigenvalue routes
at one point), polytope (mass sampling to CSV), calibrate (sign search and
the eigenvalue-range measurement).

Exit codes: 0 pass, 1 check failure, 2 usage error (an unwritable --output
included), 3 numerical failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import hermsym, poisson, spectrum, verify
from .errors import CalibrationError, ConventionError, NumericalError, UsageError

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2, 3
POLYTOPE_CHUNK = 4096   # samples per sampler call: bounds its stacked temporaries


def _parse_tols(items):
    out = {}
    for item in items or []:
        name, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--tol expects name=value, got {item!r}")
        try:
            out[name.strip()] = float(val)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value in {item!r}") from exc
    return out


def _check_samples(args, minimum):
    if args.samples < minimum:
        raise UsageError(f"--samples must be at least {minimum}, got {args.samples}")


def cmd_verify(args):
    _check_samples(args, 1)
    tols = _parse_tols(args.tol)
    # open the report first: an unwritable --output fails before the suite
    # runs, and a suite that raises leaves no report behind
    fh = open(args.output, "w") if args.output else None
    try:
        report = verify.run_suite(args.case, n_samples=args.samples,
                                  seed=args.seed, tolerances=tols or None)
    except BaseException:
        if fh is not None:
            fh.close()
            os.remove(args.output)
        raise
    text = report.to_json()
    if fh is not None:
        with fh:
            fh.write(text + "\n")
    else:
        print(text)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        extra = f" (skipped {c.skipped})" if c.skipped else ""
        print(f"{status}  {c.name:<22} max={c.max_residual:.3e} "
              f"tol={c.tolerance:.1e}{extra}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_spectrum(args):
    case = hermsym.parse_case(args.case)
    signs = verify.calibrate().signs
    point = (hermsym.identity_point(case) if args.identity
             else hermsym.random_point(case, args.seed))
    cs = spectrum.chain_spectrum(case, point.m)
    pair = poisson.build_pair(case, point.g, signs)
    pencil = poisson.pencil_spectrum(pair)
    chain = cs.free_values()
    disc = float(np.abs(np.sort(chain) - pencil).max())
    print(f"# {case.name}  seed={args.seed}  identity={args.identity}")
    if cs.kind == "gt":
        print("chain pattern (ascending raw rows, * = free coordinate):")
        for lv, row, mk in zip(cs.levels, cs.rows, cs.masks):
            cells = "  ".join(f"{v:+.6f}{'*' if f else ' '}"
                              for v, f in zip(row, mk))
            print(f"  level {lv}: {cells}")
    else:
        print("chain data (a_k, b_k):")
        for label, val in cs.raw_labeled():
            print(f"  {label:<4} {val:+.6f}")
    print(f"{'label':<10}{'chain eigenvalue':>24}")
    for label, val in cs.labeled_entries():
        print(f"{label:<10}{val:>24.16f}")
    print("pencil (de-doubled, ascending):")
    for val in pencil:
        print(f"{'':<10}{val:>24.16f}")
    print(f"max multiset discrepancy: {disc:.3e}")
    if args.output:
        payload = {
            "case": case.descriptor(), "seed": args.seed,
            "identity": bool(args.identity),
            "chain": {k: float(v) for k, v in cs.labeled_entries()},
            "pencil": [float(v) for v in pencil],
            "max_discrepancy": disc,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_polytope(args):
    _check_samples(args, 1)
    case = hermsym.parse_case(args.case)
    out_path = args.output or f"polytope_{case.tag}.csv"
    slack = 1e-9
    labels = (spectrum.raw_labels(case) if case.tag == "bdi"
              else spectrum.free_labels(case))
    mins = np.full(len(labels), np.inf)
    maxs = -mins
    violations = 0
    # locale-independent scientific notation, 17 significant digits
    row = "%d," + ",".join(["%.16e"] * len(labels)) + "\n"
    with open(out_path, "w", newline="") as fh:
        fh.write("sample," + ",".join(labels) + "\n")
        for done in range(0, args.samples, POLYTOPE_CHUNK):
            cnt = min(POLYTOPE_CHUNK, args.samples - done)
            _, ms = hermsym.batch_points(case, args.seed, done, cnt)
            batch = spectrum.chain_batch(case, ms)
            if case.tag == "bdi":
                data = np.concatenate([batch["a"], batch["b"]], axis=1)
            else:
                _, data, _ = spectrum.batch_free_values(case, batch)
            mins = np.minimum(mins, data.min(axis=0))
            maxs = np.maximum(maxs, data.max(axis=0))
            violations += spectrum.batch_violations(case, batch, slack)
            fh.writelines(row % (i, *vals)
                          for i, vals in enumerate(data.tolist(), done))
    summary = {
        "case": case.descriptor(), "samples": int(args.samples),
        "seed": int(args.seed), "slack": slack,
        "violations": int(violations),
        "ranges": {lbl: {"min": float(lo), "max": float(hi)}
                   for lbl, lo, hi in zip(labels, mins, maxs)},
    }
    with open(out_path + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.samples} samples to {out_path} "
          f"(violations: {violations})")
    return EXIT_OK if violations == 0 else EXIT_FAIL


def cmd_calibrate(args):
    _check_samples(args, 0)         # 0 selects the default sample count
    cal = verify.calibrate()
    print("sign calibration on Gr(1,2) (4 candidates):")
    for pair_, res in sorted(cal.residuals.items()):
        mark = " <== unique pass" if pair_ == cal.signs else ""
        print(f"  s_K={pair_[0]:+d} s_0={pair_[1]:+d}  residual {res:.3e}{mark}")
    print(f"calibrated: s_K={cal.s_k:+d}, s_0={cal.s_0:+d}")
    n = 3
    if args.case:
        case = hermsym.parse_case(args.case)
        if case.tag != "diii":
            raise UsageError("the normalization measurement expects a diii case")
        n = case.params["n"]
    samples = args.samples if args.samples else 10000
    out = verify.measure_diii_normalization(n=n, samples=samples,
                                            seed=args.seed)
    print(f"eigenvalue-range measurement on {out['case']} "
          f"({out['samples']} samples, pencil route):")
    print(f"  empirical range [{out['min']:.6f}, {out['max']:.6f}]")
    print(f"  candidate ranges: [0,2] and [-1,3]")
    print(f"  matches: {out['matches']}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="pnorbit",
        description="verification and sampling for Poisson pencils on "
                    "classical adjoint orbits")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, samples=None, output=True):
        sp.add_argument("--case", required=sp.prog.endswith(("verify", "spectrum", "polytope")),
                        help="case descriptor, e.g. aiii:k=2,n=4 | ci:n=3 | "
                             "diii:n=4 | bdi:m=7")
        if samples is not None:
            sp.add_argument("--samples", type=int, default=samples)
        sp.add_argument("--seed", type=int, default=0)
        if output:
            sp.add_argument("--output", default=None)

    sp = sub.add_parser("verify", help="run the full verification suite")
    common(sp, 100)
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="override a named tolerance (repeatable)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("spectrum", help="chain vs pencil eigenvalues at one point")
    common(sp)
    sp.add_argument("--identity", action="store_true",
                    help="evaluate at the identity coset")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("polytope", help="sample eigenvalue tuples to CSV")
    common(sp, 100000)
    sp.set_defaults(func=cmd_polytope)

    sp = sub.add_parser("calibrate", help="sign calibration and range finding")
    common(sp, 0, output=False)
    sp.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        # the output files are the only files a subcommand opens
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CalibrationError, NumericalError, ConventionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
