"""Command line front end.

Verification commands read a JSON document, resolve named objects, and
re-run the library's certifying checks.  One handler, ``_each``, loads the
document, picks every named object and runs the command's check on each;
the six commands that take a file and names differ only in that check.
Exit status 0 means everything verified, 1 means a mathematical check
failed or an object was rejected, 2 means the input itself was unusable,
or too large to check in memory.  With --json each command prints a single
machine-readable verdict, whose "command" key ``main`` writes from the
command's words in argv; the encoder is pinned (sorted keys, two-space
indent) so identical inputs give byte-identical output.

One table, ``_COMMANDS``, defines every command.  A plain reader reads
the usual argv (the command's words, its positionals, and --json and its
options, each given once with a value) from that table without argparse;
help, abbreviations and every usage error go to argparse, which builds
the parser of the one command argv names (of all of them only for help,
usage and unknown words).  ``run``, the process entry point, flushes
stdout and stderr and ends the process with os._exit, so the interpreter
tears down nothing the run built.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from contextlib import suppress
from types import SimpleNamespace

from .bundles import (
    AbgParams,
    abg_bundle,
    abg_triviality_criterion,
    search_trivialization,
)
from .cleft import check_cleaving
from .comod import push_forward
from .document import Document, document_of, load_document, values_spec
from .errors import BadScalarError, InputError, MathError
from .fields import field_from_name
from .galois import is_galois, verify_bundle
from .homotopy import (
    cleft_trivialization_witness,
    kummer_trivialization_witness,
    verify_chain,
    verify_witness,
)
from .hopf import verify_hopf
from .report import Report
from .rings import base_ring


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------

def _load(path: str) -> Document:
    try:
        return load_document(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _pick(table: dict, name: str, kind: str, path: str):
    try:
        return table[name]
    except KeyError:
        raise InputError(f"no {kind} named {name!r} in {path}") from None


def _scalar_flag(K, text: str, flag: str):
    try:
        return K.parse(text)
    except BadScalarError as exc:
        raise BadScalarError(f"--{flag}: {exc}") from None


def _format_vec(A, vec: dict) -> str:
    C = A.base
    terms = [f"({C.format_coeffs(c)}) {A.labels[i]}"
             for i, c in sorted(vec.items())]
    return " + ".join(terms) if terms else "0"


# --------------------------------------------------------------------------
# verification commands
# --------------------------------------------------------------------------

def _each(table: str, kind: str, run):
    """The handler of a command that loads args.file, picks each name from
    the document's ``table`` (every object in it when no name is given) and
    calls ``run(name, obj) -> (ok, lines, result)`` on each object in turn;
    the command passes when every run does."""
    def handler(args):
        objs = getattr(_load(args.file), table)
        names = args.names or list(objs)
        if not names:
            raise InputError(f"no {table} in {args.file}")
        picked = [_pick(objs, nm, kind, args.file) for nm in names]
        oks, lines, results = zip(*(run(nm, x) for nm, x in zip(names, picked)))
        ok = all(oks)
        return ((0 if ok else 1), [ln for part in lines for ln in part],
                {"ok": ok, "results": list(results)})
    return handler


def _verifier(table: str, kind: str, verify):
    """_each, reporting the Report ``verify`` gives for each object."""
    def run(name, obj):
        rep = verify(obj)
        return (rep.ok, [f"{name}:", *("  " + ln for ln in str(rep).splitlines())],
                {"name": name, "report": rep.to_json()})
    return _each(table, kind, run)


def _galois(name, A):
    v = is_galois(A)
    return v.ok, [f"{name}: {v.describe()}"], {"name": name, "galois": v.ok,
                                               "det": v.det_text, "reason": v.describe()}


def _cleft_inverse(name, g):
    # rejects with NotComoduleMap / NotInvertible before anything is printed
    cm = check_cleaving(g.algebra, g)
    A = cm.algebra
    lines = [f"{name}: convolution inverse"]
    lines += [f"  {A.hopf.labels[k]} -> {_format_vec(A, vec)}"
              for k, vec in enumerate(cm.gamma_inv.values)]
    return True, lines, {"name": name, "inverse": values_spec(cm.gamma_inv)}


def _cmd_pushforward(args):
    doc = _load(args.file)
    A = _pick(doc.bundles, args.bundle, "bundle", args.file)
    f = _pick(doc.morphisms, args.morphism, "base morphism", args.file)
    B = push_forward(f, A)
    rep = verify_bundle(B)
    out = document_of(Document(doc.field, bundles={args.bundle + "_pushed": B}))
    lines = [f"push-forward of {args.bundle} along {args.morphism}:"]
    lines.extend("  " + ln for ln in str(rep).splitlines())
    lines.append(json.dumps(out, indent=2, sort_keys=True))
    return (0 if rep.ok else 1), lines, {"ok": rep.ok, "report": rep.to_json(),
                                         "document": out}


def _abg_flags(args) -> AbgParams:
    """The parameters --alpha, --beta and --gamma over --field."""
    K = field_from_name(args.field)
    C = base_ring(K)
    return AbgParams(C, *(C.from_scalar(_scalar_flag(K, getattr(args, nm), nm))
                          for nm in ("alpha", "beta", "gamma")))


def _cmd_h4_criterion(args):
    p = _abg_flags(args)
    K = p.base.field
    verdict = abg_triviality_criterion(p)
    if verdict.trivial:
        line = f"trivial, s={K.format(verdict.s)}, t={K.format(verdict.t)}"
    else:
        line = "not trivial"
    payload = {"field": args.field, "alpha": args.alpha, "beta": args.beta,
               "gamma": args.gamma, "trivial": verdict.trivial,
               "s": K.format(verdict.s) if verdict.trivial else None,
               "t": K.format(verdict.t) if verdict.trivial else None}
    return (0 if verdict.trivial else 1), [line], payload


# --------------------------------------------------------------------------
# demos: rebuild a known result and re-verify it through public entry points
# --------------------------------------------------------------------------

# the schema's bounds on a kummer bundle's order, which --order shares
MIN_KUMMER_ORDER, MAX_KUMMER_ORDER = 2, 64


def _cmd_demo_thm43(args):
    p = _abg_flags(args)
    C = p.base
    lines = [f"bundle {p!r}"]
    verdict = abg_triviality_criterion(p)
    lines.append(f"criterion over {args.field}: {verdict.describe()}")
    chain = cleft_trivialization_witness(p)
    lines.append(f"witness chain with {len(chain)} link(s) down to (1, 0, 0):")
    for idx, (w, forward) in enumerate(chain.links):
        arrow = "forward" if forward else "reversed"
        lines.append(f"  link {idx} ({arrow}): {w.step!r}, "
                     f"family over {w.interval.ring!r}")
    start = abg_bundle(p)
    end = abg_bundle(AbgParams(C, C.one(), C.zero(), C.zero()))
    rep = verify_chain(chain, start=start, end=end)
    lines.extend(str(rep).splitlines())
    payload = {"field": args.field, "alpha": args.alpha, "beta": args.beta,
               "gamma": args.gamma, "criterion_trivial": verdict.trivial,
               "links": len(chain), "ok": rep.ok, "report": rep.to_json()}
    return (0 if rep.ok else 1), lines, payload


def _cmd_demo_prop35(args):
    if args.order < MIN_KUMMER_ORDER:
        raise InputError(f"--order {args.order} is below {MIN_KUMMER_ORDER}, "
                         "the smallest order a kummer bundle may have")
    if args.order > MAX_KUMMER_ORDER:
        raise InputError(f"--order {args.order} is above {MAX_KUMMER_ORDER}, "
                         "the largest order a kummer bundle may have")
    K = field_from_name(args.field)
    q = _scalar_flag(K, args.q, "q")
    A, w = kummer_trivialization_witness(args.order, q, K)
    lines = [f"cyclic bundle of order {args.order}, parameter {args.q}, "
             f"over {args.field}"]
    witness_rep = verify_witness(w)  # w.at_zero is A: one subreport is verify_bundle(A)
    at_zero = next(r for r in witness_rep.subreports if r.title == "endpoint bundle at 0")
    bundle_rep = Report(f"quantum principal bundle check (rank {A.dim})", at_zero.checks,
                        at_zero.subreports)
    lines.extend(str(bundle_rep).splitlines())
    lines.append(f"self-trivializing step: {w.step!r}")
    lines.extend(str(witness_rep).splitlines())
    ok = witness_rep.ok
    payload = {"field": args.field, "order": args.order, "q": args.q, "ok": ok,
               "bundle": bundle_rep.to_json(), "witness": witness_rep.to_json()}
    return (0 if ok else 1), lines, payload


def _cmd_demo_census(args):
    K = field_from_name("F3")
    C = base_ring(K)
    rows, lines = [], ["triviality census over F3 (alpha a unit):"]
    for a in (1, 2):
        for b in range(3):
            for g in range(3):
                p = AbgParams(C, a, b, g)
                verdict = abg_triviality_criterion(p)
                found = search_trivialization(p) is not None
                agree = verdict.trivial == found
                rows.append({"alpha": a, "beta": b, "gamma": g,
                             "criterion": verdict.trivial, "search": found,
                             "agree": agree})
                word = "trivial" if verdict.trivial else "not trivial"
                mark = "agree" if agree else "DISAGREE"
                lines.append(f"  ({a}, {b}, {g}): criterion {word:11s} "
                             f"exhaustive search {'found an iso' if found else 'found none':14s} {mark}")
    ok = all(r["agree"] for r in rows)
    count = sum(1 for r in rows if r["criterion"])
    lines.append(f"{count} of {len(rows)} triples trivial; "
                 f"criterion and search {'agree on all' if ok else 'DISAGREE on some'}")
    return (0 if ok else 1), lines, {"ok": ok, "trivial_count": count, "rows": rows}


# --------------------------------------------------------------------------
# the command table, its two readers, and the entry point
# --------------------------------------------------------------------------

# A command is a leaf, or a group whose next word names one of its leaves.
# Positionals and options are (name, add_argument keywords); a variadic
# positional comes last.  Every leaf also takes --json.
_Leaf = namedtuple("_Leaf", "help handler positionals options", defaults=((), ()))
_Group = namedtuple("_Group", "help dest leaves")

_FILE_NAMES = (("file", {}), ("names", {"nargs": "+", "metavar": "name"}))
_ABG_FLAGS = (("--alpha", {"required": True, "help": "unit scalar, e.g. 3 or 2/5"}),
              ("--beta", {"required": True}),
              ("--gamma", {"required": True}),
              ("--field", {"default": "Q", "help": "Q or F<p> (default Q)"}))

# in help order; a check is read from this module's globals when it runs
_COMMANDS = {
    "verify-hopf": _Leaf("check every Hopf algebra axiom", _verifier(
        "hopf_algebras", "Hopf algebra", lambda H: verify_hopf(H)), _FILE_NAMES),
    "verify-bundle": _Leaf("full principal bundle check", _verifier(
        "bundles", "bundle", lambda A: verify_bundle(A)), _FILE_NAMES),
    "galois": _Leaf("bijectivity of the structure map, by determinant",
                    _each("bundles", "bundle", _galois), _FILE_NAMES),
    "cleft": _Group("cleaving map commands", "action", {
        "check": _Leaf("certify a cleaving map", _verifier(
            "cleavings", "cleaving", lambda g: check_cleaving(g.algebra, g).verify()),
            _FILE_NAMES),
        "invert": _Leaf("print the convolution inverse",
                        _each("cleavings", "cleaving", _cleft_inverse), _FILE_NAMES)}),
    "pushforward": _Leaf("push a bundle along a base morphism", _cmd_pushforward,
                         (("file", {}), ("bundle", {}), ("morphism", {}))),
    "h4": _Group("rank-4 family commands", "action", {
        "criterion": _Leaf("decide isomorphism to (1, 0, 0) over a field",
                           _cmd_h4_criterion, options=_ABG_FLAGS)}),
    "witness": _Group("homotopy witness commands", "action", {
        "verify": _Leaf("re-certify stored witnesses", _verifier(
            "witnesses", "witness", lambda w: verify_witness(w)), (
            ("file", {}),
            ("names", {"nargs": "*", "metavar": "name",
                       "help": "default: every witness in the file"})))}),
    "demo": _Group("rebuild and re-verify known results", "what", {
        "thm43": _Leaf("trivializing witness chain for a cleft bundle", _cmd_demo_thm43,
                       options=_ABG_FLAGS),
        "prop35": _Leaf("etale self-trivialization of a cyclic bundle", _cmd_demo_prop35,
                        options=(("--order", {"type": int, "default": 2}),
                                 ("--q", {"default": "-1"}),
                                 ("--field", {"default": "Q"}))),
        "census-f3": _Leaf("criterion versus exhaustive search, all 18 triples",
                           _cmd_demo_census)}),
}


def _build_parser(argv=()):
    """The argparse parser of the command argv[0] names, or of every command
    when argv[0] names none, so that help, usage and the error for an
    unknown word read as they would with every command built."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print one machine-readable verdict")

    def add_leaf(sub, name, leaf):
        p = sub.add_parser(name, parents=[common], help=leaf.help)
        for arg, kw in leaf.positionals + leaf.options:
            p.add_argument(arg, **kw)
        p.set_defaults(handler=leaf.handler)

    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="verify Hopf algebras, principal bundles, cleavings, "
                    "and homotopy witnesses from JSON documents")
    if argv and argv[0] in _COMMANDS:
        # the usage line of an error the top parser reports lists them all
        names = [argv[0]]
        metavar = "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        spec = _COMMANDS[name]
        if isinstance(spec, _Leaf):
            add_leaf(sub, name, spec)
            continue
        group = sub.add_parser(name, help=spec.help)
        gsub = group.add_subparsers(dest=spec.dest, required=True)
        for word, leaf in spec.leaves.items():
            add_leaf(gsub, word, leaf)
    return parser


def _read_plain(argv):
    """The arguments argparse would read from argv, read from the table
    without argparse, or None.  argv is read only when it is the command's
    words, then --json, the leaf's options each followed by a value that
    does not start with '-', and one run of positional words, with each
    option given at most once, the positional counts met, the required
    options given and typed values converted; help, abbreviations, repeats
    and every error are left to argparse."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    values, rest = {"command": argv[0]}, argv[1:]
    if isinstance(spec, _Group):
        if not rest or rest[0] not in spec.leaves:
            return None
        values[spec.dest] = rest[0]
        spec, rest = spec.leaves[rest[0]], rest[1:]
    options = dict(spec.options)
    values["json"] = False
    for flag, kw in spec.options:
        values[flag[2:]] = kw.get("default")
    seen, words, ended = set(), [], False
    tokens = iter(rest)
    for tok in tokens:
        if not tok.startswith("-"):
            if ended:  # a second run of positional words
                return None
            words.append(tok)
            continue
        if tok in seen:
            return None
        seen.add(tok)
        ended = bool(words)
        if tok == "--json":
            values["json"] = True
        elif tok in options:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                values[tok[2:]] = options[tok].get("type", str)(value)
            except ValueError:
                return None
        else:
            return None
    if any(kw.get("required") and flag not in seen for flag, kw in spec.options):
        return None
    for dest, kw in spec.positionals:
        nargs = kw.get("nargs")
        if nargs is None and words:
            values[dest] = words.pop(0)
        elif nargs == "*" or (nargs == "+" and words):
            values[dest], words = words, []
        else:
            return None
    if words:
        return None
    return SimpleNamespace(handler=spec.handler, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        code, lines, payload = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    if args.json:
        spec = _COMMANDS[args.command]
        command = args.command if isinstance(spec, _Leaf) else (
            f"{args.command} {getattr(args, spec.dest)}")
        text = json.dumps({**payload, "command": command}, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    with suppress(BrokenPipeError):  # the reader closed its end; the code is the verdict
        print(text)
    return code


def run() -> int:
    """main() for ``python -m hopfgal.cli`` and the ``hopfgal`` script.

    Once main() has returned and stdout and stderr are flushed, the process
    ends with os._exit, so the interpreter tears down none of the objects
    the run built.  A stdout whose reader has closed its end drops what is
    left unwritten.  Any other failed flush returns the code instead, and
    the interpreter's own shutdown reports it as it would without this exit.
    main() itself never exits: it may run many times in one process.
    """
    code = main()
    try:
        with suppress(BrokenPipeError):
            sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a full disk, a missing stream
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
