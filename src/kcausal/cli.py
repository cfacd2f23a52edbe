"""Command-line front end.

Subcommands: ``check`` (decide precedence of two measures), ``closure``
(emit the closed transitive relation), ``upsets`` (enumerate future-closed
subsets), ``timefn`` (enumerate or sample time functions), ``generate``
(materialize a generator recipe as an explicit spacetime), and ``verify``
(run the property suites).

Exit codes are a stable contract: 0 = feasible / success, 1 = infeasible or
not stably causal or failing suites, 2 = input or usage error (including a
rational too long to print), 3 = any other internal failure (bug signal).
All emitted JSON is byte-deterministic: sorted keys, two-space indent,
rationals as strings, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, KCausalError, NotStablyCausalError
from .harness import SUITES, TrialConfig, report_to_jsonable, run_suite
from .measures import format_rational, measure_from_jsonable
from .structure import (
    DEFAULT_UPSET_BOUND,
    MASK_BLOCK,
    CausalSpace,
    _label_sorted_pairs,
    _SubsetTables,
    space_from_jsonable,
)
from .timefunctions import (
    DEFAULT_ENUMERATION_BOUND,
    _ranked_timefns,
    _sampled_timefns,
)
from .transport import (
    certificate_to_jsonable,
    coupling_to_jsonable,
    decide_k_causal,
    strassen_check,
)

__all__ = ["main"]


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise InputError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:  # not JSON, or an integer past the digit limit
            raise InputError(f"{path}: {exc}") from exc


def _write(pieces: Iterable[str], path: str | None):
    """Write the text ``pieces`` in turn to ``path``, or to stdout if it is None.

    The first piece is computed before ``path`` is opened, so a command whose
    checks run there leaves no file when they fail.
    """
    pieces = iter(pieces)
    first = next(pieces, "")
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as out:
        out.write(first)
        out.writelines(pieces)


def _emit(obj, path: str | None):
    _write([json.dumps(obj, indent=2, sort_keys=True) + "\n"], path)


def _emit_space(space: CausalSpace, relation: str) -> Iterator[str]:
    """The text of ``_emit(space_to_jsonable(space, relation), path)``: a header, one piece per cause, a footer.

    Each label is quoted once, into the head of the pairs it causes and the
    tail of the pairs it is the effect of; the bytes are the same.
    """
    rows = _label_sorted_pairs(space, relation)
    quoted = [json.dumps(label) for label in space.events.labels]
    events = ",\n".join([f"    {label}" for label in quoted])
    yield '{\n  "events": [\n' + events + '\n  ],\n  "relation": {\n    "kind": "explicit",\n    "pairs": ['
    heads = [f"      [\n        {label},\n        " for label in quoted]
    tails = [f"{label}\n      ]" for label in quoted]
    sep = "\n"  # before the first pair, ",\n" after it
    for i, effects in rows:
        if effects:
            yield sep + heads[i] + (",\n" + heads[i]).join([tails[j] for j in effects])
            sep = ",\n"
    yield ("]" if sep == "\n" else "\n    ]") + "\n  }\n}\n"


def _timefn_lines(space: CausalSpace, timefns) -> Iterator[str]:
    """``json.dumps(timefn_to_jsonable(t), sort_keys=True) + "\\n"`` per time function, each label quoted once.

    Keys go in sorted-label order; rational text needs no JSON escaping, so the bytes are the same.
    """
    labels = space.events.labels
    heads = [(i, json.dumps(labels[i]) + ': "') for i in sorted(range(space.n), key=labels.__getitem__)]
    for t in timefns:
        yield '{"values": {' + '", '.join([head + format_rational(t.values[i]) for i, head in heads]) + '"}}\n'


def _bug(what: str) -> int:
    print(f"error: {what}; this is a bug, please report the inputs", file=sys.stderr)
    return 3


def _cmd_check(args) -> int:
    space = space_from_jsonable(_load_json(args.spacetime))
    mu = measure_from_jsonable(_load_json(args.mu), space.events)
    nu = measure_from_jsonable(_load_json(args.nu), space.events)
    cert = decide_k_causal(space, mu, nu)
    if args.oracle:
        oracle_feasible, _ = strassen_check(space, mu, nu)
        if oracle_feasible != cert.feasible:
            return _bug("decision procedure and subset oracle disagree")
    if args.certificate:
        _emit(certificate_to_jsonable(cert), args.certificate)
    if args.witness and cert.feasible:
        _emit(coupling_to_jsonable(cert.witness), args.witness)
    print(cert.verdict)
    return 0 if cert.feasible else 1


def _cmd_upsets(args) -> int:
    space = space_from_jsonable(_load_json(args.spacetime))
    tables = _SubsetTables("up-set enumeration", space, args.max_events)
    masks = np.concatenate(list(tables.upsets()))
    # _emit of each up-set's sorted labels in listing order, each label quoted once; only the first up-set is empty.
    listed = masks[tables.at(tables.key, masks).argsort()][1:]
    events = [(1 << i, json.dumps(space.events.labels[i])) for i in tables.by_label]
    blocks = (listed[lo : lo + MASK_BLOCK].tolist() for lo in range(0, len(listed), MASK_BLOCK))
    sets = (
        "".join([",\n    [\n      " + ",\n      ".join([label for bit, label in events if mask & bit]) + "\n    ]" for mask in block])
        for block in blocks
    )
    _write(chain(['{\n  "upsets": [\n    []'], sets, ["\n  ]\n}\n"]), args.out)
    return 0


def _cmd_timefn(args) -> int:
    space = space_from_jsonable(_load_json(args.spacetime))
    if args.enumerate:
        timefns = _ranked_timefns(space, args.max_events)
    else:
        # A bad count is reported before a missing seed; a given seed is range-checked with the count.
        timefns = _sampled_timefns(space, args.sample, 0 if args.seed is None else args.seed)
        if args.seed is None:
            raise InputError("--sample requires an explicit --seed")
    _write(_timefn_lines(space, timefns), args.out)
    return 0


def _cmd_generate(args) -> int:
    space = space_from_jsonable(_load_json(args.recipe))
    _write(_emit_space(space, args.relation), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        suites = SUITES
    else:
        suites = tuple(name.strip() for name in args.suite.split(",") if name.strip())
    config = TrialConfig(
        suites=suites,
        trials=args.trials,
        seed=args.seed,
        max_events=args.max_events,
    )
    report = run_suite(config)
    _emit(report_to_jsonable(report), args.report)
    for suite, passed, failed in report.counts:
        print(f"{suite}: {passed} passed, {failed} failed")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcausal",
        description="Decide causal precedence of exact-rational measures on "
        "finite causal spaces, with certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    check = sub.add_parser("check", help="decide precedence of two measures")
    check.add_argument("spacetime", help="spacetime JSON path")
    check.add_argument("mu", help="source measure JSON path")
    check.add_argument("nu", help="target measure JSON path")
    check.add_argument("--witness", metavar="PATH", help="write witness coupling JSON")
    check.add_argument("--certificate", metavar="PATH", help="write certificate JSON")
    check.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the exponential subset oracle",
    )
    check.set_defaults(handler=_cmd_check)

    closure = sub.add_parser("closure", help="emit the closed transitive relation")
    closure.add_argument("recipe", metavar="spacetime", help="spacetime JSON path")
    closure.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    closure.set_defaults(handler=_cmd_generate, relation="kplus")

    upsets = sub.add_parser("upsets", help="enumerate future-closed subsets")
    upsets.add_argument("spacetime", help="spacetime JSON path")
    upsets.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    upsets.add_argument(
        "--max-events",
        type=int,
        default=DEFAULT_UPSET_BOUND,
        help="refuse larger spaces (default %(default)s)",
    )
    upsets.set_defaults(handler=_cmd_upsets)

    timefn = sub.add_parser("timefn", help="enumerate or sample time functions")
    timefn.add_argument("spacetime", help="spacetime JSON path")
    group = timefn.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--enumerate", action="store_true", help="one time function per linear extension"
    )
    group.add_argument("--sample", type=int, metavar="N", help="draw N seeded samples")
    timefn.add_argument("--seed", type=int, help="sampling seed (required with --sample)")
    timefn.add_argument(
        "--max-events",
        type=int,
        default=DEFAULT_ENUMERATION_BOUND,
        help="enumeration bound (default %(default)s)",
    )
    timefn.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    timefn.set_defaults(handler=_cmd_timefn)

    gen = sub.add_parser("generate", help="materialize a generator recipe")
    gen.add_argument("recipe", help="generator recipe JSON path")
    gen.add_argument(
        "--relation",
        choices=("raw", "kplus"),
        default="raw",
        help="emit the raw relation or its closure (default raw)",
    )
    gen.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    gen.set_defaults(handler=_cmd_generate)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument(
        "--suite",
        default="all",
        help="comma-separated suite names, or 'all' (default)",
    )
    verify.add_argument("--trials", type=int, default=TrialConfig.trials, help="trials per suite")
    verify.add_argument("--seed", type=int, default=TrialConfig.seed, help="base seed (default %(default)s)")
    verify.add_argument(
        "--max-events",
        type=int,
        default=TrialConfig.max_events,
        help="instance size cap (default %(default)s)",
    )
    verify.add_argument("--report", metavar="PATH", help="report path (default stdout)")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotStablyCausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KCausalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure must never read as "infeasible"
        return _bug(f"internal failure ({type(exc).__name__}): {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
