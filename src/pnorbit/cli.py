"""Command-line front end.

Subcommands: verify (run the full suite), spectrum (both eigenvalue routes
at one point), polytope (mass sampling to CSV), calibrate (the sign
convention certificate and the eigenvalue-range measurement).  polytope
reads its samples from hermsym.point_chunks, so its working set is bounded
by that stream's byte budget per chunk, whatever the sample count and N,
and writes each chunk's CSV rows with _csv_rows: the bytes of the %
operator's "%.16e", from numpy arithmetic instead of a Python float per
value.

Exit codes: 0 pass, 1 check failure, 2 usage error (an unwritable --output
and a case too large for memory included), 3 numerical failure.  Inside
verify a non-real or unpaired pencil is a failed check (exit 1), which the
report records; spectrum and calibrate raise on it (exit 3).
"""

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager

import numpy as np

from . import hermsym, poisson, spectrum, verify
from .errors import CalibrationError, ConventionError, NumericalError, UsageError

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2, 3


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


def _regular(fh):
    """Whether the open file fh is a regular file (not a device or pipe)."""
    return stat.S_ISREG(os.fstat(fh.fileno()).st_mode)


@contextmanager
def _output_file(path, binary=False):
    """The --output file (None without a path), opened before any work: an
    unwritable path fails before the command computes or prints, and a
    command that raises leaves no file behind (a device such as /dev/null
    is never unlinked).  Text, or bytes if binary."""
    if not path:
        yield None
        return
    fh = open(path, "wb") if binary else open(path, "w", newline="")
    regular = _regular(fh)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            os.remove(path)
        raise


def cmd_verify(args):
    _check_samples(args, 1)
    tols = _parse_tols(args.tol)
    with _output_file(args.output) as fh:
        report = verify.run_suite(args.case, n_samples=args.samples,
                                  seed=args.seed, tolerances=tols or None)
        text = report.to_json()
        if fh is not None:
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
    # open the JSON first: an unwritable --output fails before any output
    with _output_file(args.output) as fh:
        verify.calibrate()
        point = (hermsym.identity_point(case) if args.identity
                 else hermsym.random_point(case, args.seed))
        cs = spectrum.chain_spectrum(case, point.m)
        pair = poisson.build_pair(case, point.g, m=point.m)
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
        if fh is not None:
            payload = {
                "case": case.descriptor(), "seed": args.seed,
                "identity": bool(args.identity),
                "chain": {k: float(v) for k, v in cs.labeled_entries()},
                "pencil": [float(v) for v in pencil],
                "max_discrepancy": disc,
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


# The CSV value format "%.16e" in numpy arithmetic.  A finite x != 0 with
# 1e-6 <= |x| < 1e16 prints as D 10^(d-16), its decade d in [-6, 15] and D
# the integer nearest |x| 10^q, q = 16 - d, ties to even.  10^q is an exact
# double (q <= 22) and Dekker's TwoProduct gives |x| 10^q = p + e exactly;
# in the decade p is an even integer >= 2^53, so D = p + rint(e).  Every
# other value (non-finite, subnormal, or outside that range) sends its row
# to the % operator.
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])  # exact
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"),
                    axis=-1).reshape(10000, 4)      # "0000" .. "9999"
_QUADS = _DIGITS4.view(np.uint32).ravel()           # the same, 4 bytes a word
# "e-07" .. "e+16" at d + 7, one word each: every decade _mantissas returns
_DECADES = np.arange(-7, 17)
_EXPONENTS = np.stack([np.full(24, ord("e")),
                       np.where(_DECADES < 0, ord("-"), ord("+")),
                       *_DIGITS4[np.abs(_DECADES), 2:].T],
                      axis=1).astype(np.uint8).view(np.uint32).ravel()
# one value's bytes: sign (or pad), digit, '.', 16 digits, 'e', the
# exponent's sign and two digits, then ',' or the row's '\n'
_SLOT = 24


def _split(a):
    """Veltkamp's split a = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * a                             # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _two_product(a, q):
    """(p, e), p = fl(a 10^q) and a 10^q = p + e exactly (Dekker, no FMA)."""
    p = a * _POW10[q]
    ah, al = _split(a)
    bh, bl = _POW10_HI[q], _POW10_LO[q]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mantissas(a):
    """(D, d, ok) for magnitudes a: the 17-digit mantissa D and the decade
    d of each value, and whether the kernel formats it (0 as D = d = 0)."""
    ok = (a >= 1e-6) & (a < 1e16)
    w = np.where(ok, a, 1.0)
    d0 = np.clip(np.floor(np.log10(w)), -6, 15).astype(np.int64)
    p, e = _two_product(w, 16 - d0)
    # log10 is off by at most one: compare p + e with 10^16 and 10^17
    # exactly, not the rounded D (a product just below 10^16 rounds to
    # D = 10^16, yet belongs to the decade below, which shows one more digit)
    d = (d0 + ((p > 1e17) | ((p == 1e17) & (e >= 0)))
         - ((p < 1e16) | ((p == 1e16) & (e < 0))))
    ok &= (d >= -6) & (d <= 15)
    moved = ok & (d != d0)
    if moved.any():
        p[moved], e[moved] = _two_product(w[moved], 16 - d[moved])
    # no double lies within 1/2 below 10^17 here (17 digits resolve every
    # double), so no D rounds up to the next decade
    mant = p.astype(np.int64) + np.rint(e).astype(np.int64)
    zero = a == 0                                   # w = 1: d = 0 already
    mant[zero] = 0
    return mant, d, ok | zero


def _csv_rows(start, data):
    """The CSV rows of samples start.. with values data (S, k), as the bytes
    of ("%d," + ",".join(["%.16e"] * k) + "\\n") % (index, *values) per row:
    laid out in one byte buffer, the pad bytes (0) dropped."""
    cnt, k = data.shape
    mant, d, ok = _mantissas(np.abs(data))
    idx = np.arange(start, start + cnt, dtype=np.int64)
    width = len(str(max(start + cnt - 1, 0)))
    buf = np.zeros((cnt, width + 1 + _SLOT * k), np.uint8)
    for j in range(width - 1):                      # leading zeros stay pad
        power = 10 ** (width - 1 - j)
        buf[:, j] = np.where(idx >= power, idx // power % 10 + ord("0"), 0)
    buf[:, width - 1] = idx % 10 + ord("0")
    buf[:, width] = ord(",")
    vals = buf[:, width + 1:].reshape(cnt, k, _SLOT)
    vals[..., 0] = np.where(np.signbit(data), ord("-"), 0)
    lead = mant // 10 ** 16
    vals[..., 1] = lead + ord("0")
    vals[..., 2] = ord(".")
    # the 16 digits after the point as four 4-digit groups (a scalar divisor
    # per division: numpy divides by a scalar much faster than by an array)
    hi, lo = np.divmod(mant - lead * 10 ** 16, 10 ** 8)
    quads = np.stack([*np.divmod(hi, 10 ** 4), *np.divmod(lo, 10 ** 4)], axis=-1)
    vals[..., 3:19] = _QUADS[quads].view(np.uint8)
    vals[..., 19:23] = _EXPONENTS[d + 7, None].view(np.uint8)
    vals[..., 23] = ord(",")
    vals[:, -1, 23] = ord("\n")
    bad = ~ok.all(axis=1)
    buf[bad] = 0
    text = buf[buf != 0].tobytes()
    if not bad.any():
        return text
    # rows with a value outside the kernel's range: the % operator, spliced
    # in where their (empty) kernel rows end
    row = "%d," + ",".join(["%.16e"] * k) + "\n"
    ends = np.cumsum(np.count_nonzero(buf, axis=1))
    parts, pos = [], 0
    for i in np.flatnonzero(bad):
        parts += [text[pos:ends[i]],
                  (row % (start + int(i), *data[i].tolist())).encode()]
        pos = ends[i]
    parts.append(text[pos:])
    return b"".join(parts)


def cmd_polytope(args):
    _check_samples(args, 1)
    case = hermsym.parse_case(args.case)
    out_path = args.output or f"polytope_{case.tag}.csv"
    labels = (spectrum.raw_labels(case) if case.tag == "bdi"
              else spectrum.free_labels(case))
    mins = np.full(len(labels), np.inf)
    maxs = -mins
    violations = 0
    # the CSV and its summary are both opened before any sampling, and a
    # device --output such as /dev/null gets no summary beside it
    with _output_file(out_path, binary=True) as fh, _output_file(
            out_path + ".summary.json" if _regular(fh) else None) as summary_fh:
        fh.write(("sample," + ",".join(labels) + "\n").encode())
        for start, _, ms in hermsym.point_chunks(case, args.seed, args.samples):
            batch = spectrum.chain_batch(case, ms)
            if case.tag == "bdi":
                data = np.concatenate([batch["a"], batch["b"]], axis=1)
            else:
                data = spectrum.free_value_map(case, batch)
            mins = np.minimum(mins, data.min(axis=0))
            maxs = np.maximum(maxs, data.max(axis=0))
            violations += spectrum.batch_violations(case, batch, values=data)
            # locale-independent scientific notation, 17 significant digits
            fh.write(_csv_rows(start, data))
        if summary_fh is not None:
            # a non-finite range end is null: the summary is strict JSON
            summary = {
                "case": case.descriptor(), "samples": int(args.samples),
                "seed": int(args.seed), "slack": spectrum.SLACK,
                "violations": int(violations),
                "ranges": {lbl: {key: float(v) if np.isfinite(v) else None
                                 for key, v in (("min", lo), ("max", hi))}
                           for lbl, lo, hi in zip(labels, mins, maxs)},
            }
            json.dump(summary, summary_fh, indent=2, allow_nan=False)
            summary_fh.write("\n")
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
    s_k, s_0 = cal.signs
    print(f"calibrated: s_K={s_k:+d}, s_0={s_0:+d}")
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
        # a seed that would alias fails before any output file is opened
        hermsym.philox_key(args.seed)
        return args.func(args)
    except (UsageError, OSError) as exc:
        # the output files are the only files a subcommand opens
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (CalibrationError, NumericalError, ConventionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
