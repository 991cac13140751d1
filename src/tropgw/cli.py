"""Command line interface: counts, cross-checks, node polynomials, wall tests.

All commands work in exact arithmetic and print deterministic output.  The
recursion memo can be persisted to a JSON cache file (``--cache`` or the
``TROPGW_CACHE`` environment variable).  The file holds
``{"version": 3, "entries": {"d:alpha:beta": [g_lo, [ranks], [signatures]]}}``,
the counts of (d, alpha, beta) at every genus from g_lo on.  A missing
cache is never an error; an unreadable, corrupt or other-version file is
ignored with one warning and rewritten.  An entry is dropped, under one
warning, unless the recursion can look its key up (no negative entry or
trailing zero in alpha or beta, d >= 1, I(alpha) + I(beta) = d), its two
lists have equal length and hold the (rank, signature) pairs of valid
forms, and its genera lie in 1 - 2d - |beta| .. max_genus(d), where the
recursion can count anything.  The file is written back only when the
command added entries or the load warned.  A cache that cannot be written
is an error (exit status 2).

A process imports at module level only what every command needs: the
recursion (``ch``) and the GW(Q) arithmetic (``gw``), which also serve the
cache.  Each command imports the layers it runs when it runs, so that
``count --method ch`` loads neither the lattice nor the floor, path,
template or curve layers.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from . import ch
from .gw import GWElement, gw_equal, gw_from_pair, render

CACHE_ENV = "TROPGW_CACHE"
CACHE_VERSION = 3
LIST_FLAGS = ("--wl", "--wr", "--alpha", "--beta")


def _parse_weights(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(map(int, text.split(",")))


def _weights_flag(flag: str, text: str | None) -> tuple[int, ...]:
    """The weights given to ``flag``; an argument error unless they parse."""
    try:
        return _parse_weights(text)
    except ValueError:
        _reject(f"{flag} {text!r} is not a comma separated list of integers")


def _cache_path(args) -> str | None:
    return args.cache or os.environ.get(CACHE_ENV)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cache_entry(name: str, value) -> tuple[tuple, tuple]:
    """Parse one cache entry; ValueError unless the recursion can look its key
    up and its value holds valid rank/signature pairs at genera where the
    recursion can count anything."""
    d, alpha, beta = name.split(":")
    d, alpha, beta = int(d), _parse_weights(alpha), _parse_weights(beta)
    ch.check_key(d, alpha, beta)
    if not isinstance(value, list) or [type(x) for x in value] != [int, list, list]:
        raise ValueError(f"{value!r} is not a [g_lo, [ranks], [signatures]] entry")
    g_lo, ranks, signatures = value
    if len(ranks) != len(signatures):
        raise ValueError("ranks and signatures differ in length")
    for rank, signature in zip(ranks, signatures):
        if type(rank) is not int or type(signature) is not int:
            raise ValueError(f"{rank!r}, {signature!r} are not integers")
        if (rank - signature) % 2 or abs(signature) > rank:
            raise ValueError(f"no form has rank {rank} and signature {signature}")
    if g_lo < ch.genus_floor(d, beta) or g_lo + len(ranks) - 1 > ch.max_genus(d):
        raise ValueError(f"genera from {g_lo} on lie outside the recursion's range")
    return (d, alpha, beta), (g_lo, tuple(ranks), tuple(signatures))


def _load_cache(path: str | None) -> int | None:
    """Load the cache into the memo; the number of entries loaded, or None
    if the file is to be rewritten whatever the command adds."""
    if not path or not os.path.exists(path):
        return 0
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested
        _warn(f"cache {path} is unreadable ({exc}); starting empty and rewriting it")
        return None
    if (
        not isinstance(data, dict)
        or data.get("version") != CACHE_VERSION
        or not isinstance(data.get("entries"), dict)
    ):
        _warn(
            f"cache {path} is not a version {CACHE_VERSION} cache; "
            "starting empty and rewriting it"
        )
        return None
    entries = {}
    dropped = 0
    for name, value in data["entries"].items():
        try:
            key, counts = _cache_entry(name, value)
        except ValueError:
            dropped += 1
            continue
        entries[key] = counts
    ch.memo_load(entries)
    if dropped:
        _warn(f"cache {path}: dropped {dropped} invalid entries")
        return None
    return len(entries)


def _save_cache(path: str | None) -> bool:
    """Write the memo to ``path``; False, with an error line, if that fails."""
    if not path:
        return True
    import tempfile

    entries = {}
    for (d, alpha, beta), (g_lo, ranks, signatures) in ch.memo_snapshot().items():
        name = ":".join((str(d), ",".join(map(str, alpha)), ",".join(map(str, beta))))
        entries[name] = [g_lo, list(ranks), list(signatures)]
    data = {"version": CACHE_VERSION, "entries": entries}
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(data, sort_keys=True))
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        print(f"error: cannot write cache {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _emit_result(args, rows: list[dict]) -> None:
    fmt = args.format
    if fmt == "json":
        print(json.dumps(rows, indent=1, sort_keys=True))
    elif fmt == "csv":
        print("d,g_or_delta,method,rank,signature,display")
        for row in rows:
            print(
                f"{row['d']},{row['g_or_delta']},{row['method']},"
                f"{row['rank']},{row['signature']},{row['display']}"
            )
    else:
        for row in rows:
            print(
                f"{row['display']} (rank {row['rank']}, "
                f"signature {row['signature']})"
            )


def _result_row(args, method: str, g_or_delta, value: GWElement, d=None) -> dict:
    return {
        "d": d if d is not None else getattr(args, "d", None),
        "g_or_delta": g_or_delta,
        "method": method,
        "rank": value.rank,
        "signature": value.signature,
        "display": render(value),
        "classes": [{"rep": r, "mult": m} for r, m in value.terms],
    }


def _reject(message: str):
    """End a command whose arguments do not fit together, as argparse does:
    one ``error:`` line and SystemExit(2)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def cmd_count(args) -> int:
    method = args.method
    if args.d is not None and (args.k is not None or args.a is not None):
        _reject("give either --d or the --k/--a Hirzebruch data")
    if args.d is not None and (args.wl or args.wr):
        _reject("--wl/--wr need the --k/--a Hirzebruch data, not --d")
    if method != "ch" and (args.alpha is not None or args.beta is not None):
        _reject("--alpha/--beta are only supported by --method ch")
    if method != "floor" and args.connected:
        _reject("--connected is only supported by --method floor")
    if method != "latticepath" and args.tie_break is not None:
        _reject("--tie-break is only supported by --method latticepath")
    if method != "ch" and args.d is None and (args.k is None or args.a is None):
        _reject(f"--method {method} needs --d or both --k and --a")
    wl, wr = _weights_flag("--wl", args.wl), _weights_flag("--wr", args.wr)
    if method == "ch":
        if args.d is None:
            _reject("--method ch needs --d")
        alpha = _weights_flag("--alpha", args.alpha)
        beta = None if args.beta is None else _weights_flag("--beta", args.beta)
        value = ch.ch_count(args.d, args.g, alpha, beta)
    elif method == "latticepath":
        from . import paths
        from .lattice import delta_polygon, hirzebruch_polygon

        if args.d is not None:
            polygon = delta_polygon(args.d)
        else:
            k, a = args.k, args.a
            wl = wl or (1,) * (a * k + len(wr))
            if any(w != 1 for w in wl + wr):
                _reject(
                    "the lattice path method only supports weight-1 ends; "
                    "use --method floor for higher weights"
                )
            if len(wl) != a * k + len(wr):
                _reject(
                    f"--wl needs a*k + len(--wr) = {a * k + len(wr)} weights, "
                    f"not {len(wl)}"
                )
            polygon = hirzebruch_polygon(k, a, len(wr))
        tie_break = args.tie_break or "ydesc"
        value = paths.count_lattice_path(polygon, args.g, tie_break=tie_break)
    else:
        from . import floors

        if args.d is not None:
            value = floors.delta_floor_count(args.d, args.g, connected=args.connected)
        else:
            value = floors.floor_count(
                args.k, args.a, wl, wr, args.g, connected=args.connected
            )
    _emit_result(args, [_result_row(args, method, args.g, value)])
    return 0


def cmd_crosscheck(args) -> int:
    from . import floors, paths
    from .lattice import delta_polygon

    if args.dmax < 2:
        _reject(f"--dmax {args.dmax} leaves no degree to check; it needs at least 2")
    # degree 2 is always checked, and its lattice paths take 3*2 + g - 1 >= 1 steps
    if args.gmin < -4:
        _reject(
            f"--gmin {args.gmin} is below -4, the least genus with a lattice "
            "path in degree 2"
        )
    if args.gmin > ch.max_genus(args.dmax):
        _reject(
            f"--gmin {args.gmin} is above the maximal genus "
            f"{ch.max_genus(args.dmax)} of degree {args.dmax}; nothing to check"
        )
    rows = []
    failures = 0
    lines = []
    for d in range(2, args.dmax + 1):
        gmax = ch.max_genus(d)
        for g in range(args.gmin, gmax + 1):
            polygon = delta_polygon(d)
            values = {
                "latticepath": paths.count_lattice_path(polygon, g),
                "ch": ch.ch_count(d, g),
                "floor": floors.delta_floor_count(d, g),
                "latticepath-flip": paths.count_lattice_path(
                    polygon, g, tie_break="yasc"
                ),
            }
            base = values["latticepath"]
            ok = all(gw_equal(base, v) for v in values.values())
            lines.append(
                f"d={d} g={g}: {render(base)} "
                f"[{'PASS' if ok else 'FAIL'}]"
            )
            if not ok:
                failures += 1
                for method, value in values.items():
                    off = (
                        f"; vs latticepath: rank {value.rank - base.rank}, "
                        f"signature {value.signature - base.signature}"
                        if method != "latticepath" else ""
                    )
                    lines.append(
                        f"  {method}: {render(value)} "
                        f"(rank {value.rank}, signature {value.signature}{off})"
                    )
            for method, value in values.items():
                rows.append(_result_row(args, method, g, value, d=d))
    if args.format == "plain":
        print("cross-check: lattice path vs recursion vs floor diagrams (+ tie flip)")
        for line in lines:
            print(line)
        print("result:", "PASS" if failures == 0 else f"{failures} FAILURES")
    else:
        _emit_result(args, rows)
    return 0 if failures == 0 else 1


def cmd_nodepoly(args) -> int:
    from . import templates

    fit = templates.fit_node_polynomial(args.delta, n_holdout=args.holdout)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "delta": args.delta,
                    "hyperbolic": [str(c) for c in fit.hyperbolic_coeffs],
                    "unit": [str(c) for c in fit.unit_coeffs],
                    "threshold": fit.threshold,
                    "values": [
                        {"d": d, "hyperbolic": p, "unit": q}
                        for d, p, q in fit.values
                    ],
                },
                indent=1,
            )
        )
        return 0
    if args.format == "csv":
        rows = [
            _result_row(
                args, "templates", args.delta, gw_from_pair((2 * p + q, q)), d=d
            )
            for d, p, q in fit.values
        ]
        _emit_result(args, rows)
        return 0
    print(f"node count for {args.delta} nodes: P(d)*H + Q(d)*<1>")
    print(f"  P = {templates.poly_str(fit.hyperbolic_coeffs)}")
    print(f"  Q = {templates.poly_str(fit.unit_coeffs)}")
    print(f"  exact from degree {fit.threshold} on")
    for d, p, q in fit.values:
        print(f"  d={d}: H-coefficient {p}, <1>-coefficient {q}")
    return 0


def cmd_wallcheck(args) -> int:
    import random

    from .curves import random_star, resolve_wall

    if args.trials < 1:
        _reject(f"--trials {args.trials} checks nothing; it needs at least 1")
    rng = random.Random(args.seed)
    checked = skipped = failures = 0
    while checked < args.trials:
        star = random_star(rng)
        if star is None:
            skipped += 1
            continue
        left, right_sum = resolve_wall(star)
        if not gw_equal(left, right_sum):
            failures += 1
            print(f"FAIL {star.edges}: {render(left)} != {render(right_sum)}")
        checked += 1
    print(
        f"wall crossings checked: {checked}, degenerate draws skipped: "
        f"{skipped}, failures: {failures}"
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropgw",
        description="exact quadratic-form counts of plane tropical curves",
    )
    parser.add_argument("--cache", help="JSON memo cache for the recursion")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count curves by one method")
    count.add_argument("--method", required=True, choices=("latticepath", "ch", "floor"))
    count.add_argument("--d", type=int, help="plane curve degree")
    count.add_argument("--g", type=int, required=True, help="genus")
    count.add_argument("--k", type=int, help="Hirzebruch parameter")
    count.add_argument("--a", type=int, help="number of floors")
    count.add_argument("--wl", help="comma separated left end weights")
    count.add_argument("--wr", help="comma separated right end weights")
    count.add_argument("--alpha", help="prescribed left ends by weight (ch)")
    count.add_argument("--beta", help="free left ends by weight (ch)")
    count.add_argument("--connected", action="store_true",
                       help="restrict floor counts to connected curves")
    count.add_argument("--tie-break", choices=("ydesc", "yasc"),
                       help="lattice path tie-break (latticepath; default ydesc)")
    count.add_argument("--format", default="plain", choices=("plain", "json", "csv"))
    count.set_defaults(func=cmd_count)

    cross = sub.add_parser("crosscheck", help="compare all three methods")
    cross.add_argument("--dmax", type=int, default=4)
    cross.add_argument("--gmin", type=int, default=0)
    cross.add_argument("--format", default="plain", choices=("plain", "json", "csv"))
    cross.set_defaults(func=cmd_crosscheck)

    poly = sub.add_parser("nodepoly", help="fit node polynomials")
    poly.add_argument("--delta", type=int, required=True)
    poly.add_argument("--holdout", type=int, default=2)
    poly.add_argument("--format", default="plain", choices=("plain", "json", "csv"))
    poly.set_defaults(func=cmd_nodepoly)

    wall = sub.add_parser("wallcheck", help="randomized wall-crossing identity")
    wall.add_argument("--trials", type=int, default=1000)
    wall.add_argument("--seed", type=int, default=0)
    wall.set_defaults(func=cmd_wallcheck)

    return parser


def _join_list_values(argv: list[str]) -> list[str]:
    """Pass ``--wl -1,3`` on as ``--wl=-1,3``.  argparse reads a value that
    starts with a dash as an option unless it is a plain number, and would
    end in its usage message before the layers check the weights."""
    out = []
    for arg in argv:
        if out and out[-1] in LIST_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_list_values(argv))
    path = _cache_path(args)
    if path and os.path.isdir(path):
        print(
            f"error: cannot write cache {path}: {os.strerror(errno.EISDIR)}",
            file=sys.stderr,
        )
        return 2
    loaded = _load_cache(path)
    try:
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "error: this count needs a deeper recursion than Python allows",
            file=sys.stderr,
        )
        return 2
    if loaded == ch.memo_size():
        return code  # the file already holds every entry
    return code if _save_cache(path) else 2


if __name__ == "__main__":
    sys.exit(main())
