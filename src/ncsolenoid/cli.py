"""Command line interface: one table of subcommands, shown in README "CLI".

Each handler returns one JSON document, and ``main`` prints it to stdout
deterministically; diagnostics go to stderr.  Exit codes: 0 on success,
1 when the document has "passed": false (a selftest oracle fails), 2 on
domain or input errors, 3 when its verdict is Unknown.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import classify, ktheory, multiplier, oracle
from .codec import carrier_from_file, dump_json, sequence_from_file
from .nadic import NadicInteger, QnRational, as_fraction, format_fraction
from .sequences import AngleSequence

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNKNOWN = 3

#: selftest sizes: fuzz trials, symmetrizer window (numerators, exponent), colimit depth
_TRIALS, _WINDOW_P, _WINDOW_K, _DEPTH = 200, 40, 2, 3


def cmd_info(args):
    seq = sequence_from_file(args.file)
    kind = multiplier.classify_type(seq) if seq.carrier.is_exact else None
    out = seq.to_json()
    depth = 8
    if not seq.carrier.is_exact:
        depth = min(depth, seq.carrier.length)
    out["values"] = [format_fraction(seq.value(n)) for n in range(depth)]
    out["type"] = kind.value if kind is not None else "Unknown"
    return out


def cmd_simple(args):
    seq = sequence_from_file(args.file)
    return {"simple": multiplier.is_simple(seq)}


def cmd_symmetrizer(args):
    seq = sequence_from_file(args.file)
    return multiplier.symmetrizer(seq).to_json()


def cmd_k0_trace(args):
    seq = sequence_from_file(args.file)
    elem = ktheory.ExtensionElement(seq, args.z, QnRational.from_fraction(args.x, seq.modulus))
    return {"trace": format_fraction(ktheory.trace(elem))}


def cmd_k0_member(args):
    seq = sequence_from_file(args.file)
    second = QnRational.from_fraction(args.second, seq.modulus)
    return {"member": ktheory.k_member(seq, as_fraction(args.first), second)}


def cmd_k0_add(args):
    seq = sequence_from_file(args.file)
    a = ktheory.ExtensionElement(seq, args.az, QnRational.from_fraction(args.ax, seq.modulus))
    b = ktheory.ExtensionElement(seq, args.bz, QnRational.from_fraction(args.bx, seq.modulus))
    return (a + b).to_json()


def cmd_cohomologous(args):
    J = carrier_from_file(args.file_j)
    R = carrier_from_file(args.file_r)
    psi = ktheory.cohomologous(J, R)
    if psi is None:
        return {"cohomologous": False}
    return {"cohomologous": True, "witness": psi.to_json()}


def cmd_iso(args):
    a = sequence_from_file(args.file_a)
    b = sequence_from_file(args.file_b)
    return classify.isomorphic(a, b, bound=args.bound).to_json()


def cmd_bundle(args):
    seq = sequence_from_file(args.file)
    return classify.bundle_data(seq).to_json()


def cmd_selftest(args):
    seed = args.seed
    reports = []

    alpha = AngleSequence.constant(3, Fraction(1, 2))
    for kind, subject, trials in (
        ("xi", alpha.carrier, _TRIALS),
        ("zeta", alpha.carrier, _TRIALS),
        ("psi_bichar", alpha, _TRIALS // 4),
    ):
        reports.append(oracle.cocycle_fuzz(kind, subject, trials=trials, seed=seed).to_json())

    five = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
    # the window's only member is the identity, where every Theta is 0: no spot check
    got = oracle.brute_symmetrizer(five, window_num=_WINDOW_P, window_exp=_WINDOW_K, spot_checks=0)
    described = multiplier.symmetrizer(five)
    brute_ok = all(described.contains(g) for g in got)
    reports.append({"kind": "brute_symmetrizer", "points": len(got), "passed": brute_ok})

    colimit_ok = oracle.colimit_report(alpha, depth=_DEPTH, num_window=8)["match"]
    reports.append({"kind": "colimit", "passed": colimit_ok})

    J = NadicInteger.iota(5, 3)
    R = NadicInteger.iota(0, 3)
    witness, direct = oracle.coboundary_solve(J, R, seed=seed), ktheory.cohomologous(J, R)
    agree = (witness is None) == (direct is None) and (  # on every level both tables hold
        witness is None or all(direct.table.get(k, v) == v for k, v in witness.table.items())
    )
    reports.append({"kind": "coboundary", "passed": agree})

    thirds = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
    failed = oracle.bundle_check(thirds, classify.bundle_data(thirds))
    reports.append({"kind": "bundle", "passed": not failed})

    for r in reports:
        print("selftest %s: %s" % (r["kind"], "ok" if r["passed"] else "FAIL"), file=sys.stderr)
    return {"passed": all(r["passed"] for r in reports), "reports": reports}


_FILE, _REQ, _REQ_INT = ("file", {}), {"required": True}, {"type": int, "required": True}
#: name -> (handler, help, arguments); k0 has no handler, and its own table as arguments
_COMMANDS = {
    "info": (cmd_info, "describe an element file", (_FILE,)),
    "simple": (cmd_simple, "simplicity of the twisted algebra", (_FILE,)),
    "symmetrizer": (cmd_symmetrizer, "symmetrizer subgroup description", (_FILE,)),
    "k0": (None, "K0 queries", {
        "trace": (cmd_k0_trace, "trace of (z, x)", (_FILE, ("--z", _REQ_INT),
                  ("--x", dict(_REQ, help="Q_N element as a fraction, e.g. 2/9")))),
        "member": (cmd_k0_member, "membership of (first, second) in K0",
                   (_FILE, ("--first", _REQ), ("--second", _REQ))),
        "add": (cmd_k0_add, "twisted sum of (az, ax) and (bz, bx)",
                (_FILE, ("--az", _REQ_INT), ("--ax", _REQ), ("--bz", _REQ_INT), ("--bx", _REQ))),
    }),
    "cohomologous": (cmd_cohomologous, "compare two carrier cocycles",
                     (("file_j", {}), ("file_r", {}))),
    "iso": (cmd_iso, "isomorphism classification",
            (("file_a", {}), ("file_b", {}), ("--bound", {"type": int, "default": 32}))),
    "bundle": (cmd_bundle, "bundle data of a periodic element", (_FILE,)),
    "selftest": (cmd_selftest, "run the oracle suite at reduced sizes",
                 (("--seed", {"type": int, "default": oracle.DEFAULT_SEED}),)),
}


def _add_arguments(parser, fn, arguments):
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(fn=fn)


def _add_commands(parser, table, dest):
    """Give parser every subcommand of table; a table entry nests its own."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (fn, text, arguments) in table.items():
        p = sub.add_parser(name, help=text)
        if fn is None:
            _add_commands(p, arguments, name + "_command")
        else:
            _add_arguments(p, fn, arguments)


def _leaf_parser(argv):
    """(parser, rest of argv) for the leaf command argv starts with, or None if it names none.

    The parser is the one the full build gives that command, down to its
    prog, so its help and errors read the same.
    """
    table = _COMMANDS
    for depth, name in enumerate(argv, 1):
        if name not in table:
            return None
        fn, _, arguments = table[name]
        if fn is not None:
            parser = argparse.ArgumentParser(prog=" ".join(["ncsolenoid"] + argv[:depth]))
            _add_arguments(parser, fn, arguments)
            return parser, argv[depth:]
        table = arguments
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = _leaf_parser(argv)
    try:
        if leaf is not None:
            parser, rest = leaf
            args, extra = parser.parse_known_args(rest)
        if leaf is None or extra:  # the full build names the command and prints the top usage
            parser = argparse.ArgumentParser(
                prog="ncsolenoid",
                description="Exact invariants of twisted solenoid algebras over Q_N.",
            )
            _add_commands(parser, _COMMANDS, "command")
            args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_DOMAIN if err.code not in (0, None) else 0
    try:
        doc = args.fn(args)
        print(dump_json(doc))
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_DOMAIN
    if doc.get("verdict") == "Unknown":
        return EXIT_UNKNOWN
    return 1 if doc.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
