"""Layer ladders: in-process timings of hopfgal, one rung per layer and size.

    PYTHONPATH=src python3 bench/ladders.py BENCH_<n>.json

Run from the root of a source checkout.  Each rung records the median of
three runs of wall time (``time.perf_counter``) and of CPU time
(``time.process_time``), or one run when the first takes over 4 s, the
range of the wall times, and the verdict it computed, so a run that got a
wrong answer shows.  A rung that checks a Hopf algebra, a bundle or a
witness runs on a copy made before each run, outside the timed interval
(``unread``): a record keeps its verdict once read, and the copy's has not
been, as at a first check, while its rings and tables, with their caches,
are the original's.  The tier-1 rung always runs three times: one run of
the suite cannot show a change of a few seconds.  The file also records
the machine, ``nproc``, the Python version, a SHA-256 of the library's
sources and a fixed pure-Python yardstick timed the same way: on a shared
host, divide a rung by the yardstick of its own file before comparing
files.  The stored documents under ``perfbench/data`` are only read.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hopfgal
from hopfgal import axioms
from hopfgal.cli import main as cli_main
from hopfgal.cleft import check_cleaving, extract_cocycle, twisted_product
from hopfgal.comod import (ComoduleAlgebra, _lifted, check_iso, convolution_invert,
                           push_forward, verify_comodule_algebra)
from hopfgal.document import dump_document, load_document, validate_raw
from hopfgal.errors import SchemaError
from hopfgal.fields import QQ, PrimeField, SimpleExtension
from hopfgal.galois import canonical_matrix, is_galois, verify_bundle
from hopfgal.homotopy import (HomotopyWitness, kummer_trivialization_witness, verify_step,
                              verify_witness)
from hopfgal.hopf import Bialgebra, HopfAlgebra, dual_hopf, solve_antipode, taft, verify_hopf
from hopfgal.linalg import ring_det
from hopfgal.rings import BaseElement, adjoin_root, laurent_ring, polynomial_ring

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "perfbench" / "data" / "seed0"
RUNS, SINGLE_RUN_OVER_S = 3, 4.0
REPEATED = {"tier-1"}  # layers timed RUNS times, however long a run takes
INVERSES = 1000  # per run of an extension-field rung
POWERS = 20  # per run of a ring power rung
CLEAVINGS = 100  # per run of a cleaving rung: one takes under 1 ms
PRODUCTS, TERMS = 1000, 12  # per run of a product rung: pairs of elements, terms of each
INVERSES_IN_RING = 500  # per run of a ring try_inverse rung
DETS = 20  # per run of the Berkowitz ring_det rung: one takes about 5 ms
VALIDATIONS = 20  # per run of a validate_raw rung
ROOTS = 1000  # per run of a Q or F_p sqrt rung; a tenth of it in an extension
FIELD_OPS = 10000  # per run of a field mul or inv rung
CONSTRUCTIONS = 20  # per run of the ComoduleAlgebra rung: one takes about 2.5 ms
STEPS = 1000  # per run of a verify_step rung: one takes about 25 us
DUMPS = 10  # per run of the dump_document rung: one takes about 8 ms


def timed(fn, repeat=False, setup=None):
    """(median wall, median cpu, value of fn(), the wall times): RUNS runs,
    or one when the first takes over SINGLE_RUN_OVER_S and not ``repeat``.
    With ``setup`` a run is fn(*setup()), setup() called before the clock
    starts."""
    walls, cpus = [], []
    while len(walls) < RUNS and (repeat or not (walls and walls[0] > SINGLE_RUN_OVER_S)):
        args = setup() if setup else ()
        w0, c0 = time.perf_counter(), time.process_time()
        value = fn(*args)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus), value, walls


def yardstick():
    """Fixed pure-Python work: integer arithmetic, dicts and tuples."""
    acc, table = 0, {}
    for i in range(300_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 1009
        acc = (acc + table[key]) % 1_000_003
    return acc


def of_order(K: PrimeField, n: int):
    return next(K.from_int(a) for a in range(2, K.p) if K.has_order(K.from_int(a), n))


def seeded_pairs(R, exps: dict, seed: int) -> list:
    """PRODUCTS pairs of elements of R, each a sum of TERMS monomials whose
    generator g takes an exponent from exps[g] and whose coefficient is a
    small fraction, drawn from a generator seeded with ``seed``."""
    rng, K = random.Random(seed), R.field

    def element():
        return sum((R.monomial({g: rng.choice(e) for g, e in exps.items()},
                               K.div(K.from_int(rng.randint(-9, 9)), K.from_int(rng.randint(1, 9))))
                    for _ in range(TERMS)), R.zero())
    return [(element(), element()) for _ in range(PRODUCTS)]


def total_terms(pairs) -> int:
    return sum(len((a * b).coeffs) for a, b in pairs)


def ring_rungs():
    """Products in Q[u,v,w] and in F241[z^+-1][w | w^N = z]; their verdict
    is the total number of terms.  Then try_inverse of a Laurent monomial,
    of the unit 7 z^-2 w^(N-1) under the root (w^N = z makes this ring
    F241[w^+-1], whose units are single monomials) and of the non-unit
    1 + w, whose norm is 1 - z for even N."""
    pairs = seeded_pairs(polynomial_ring(QQ, "u", "v", "w"), dict.fromkeys("uvw", range(4)), 0)
    yield "ring mul", f"{PRODUCTS} in Q[u,v,w]", lambda: total_terms(pairs)
    L = laurent_ring(PrimeField(241), "z")
    for n in (8, 16, 24):
        R, _, w = adjoin_root(L, L.gen("z"), n, name="w")
        ring, z = f"F241[z^+-1][w | w^{n} = z]", R.gen("z")
        pairs = seeded_pairs(R, {"z": range(-3, 4), "w": range(n)}, n)
        yield "ring mul", f"{PRODUCTS} in {ring}", lambda pairs=pairs: total_terms(pairs)
        for kind, x in (("laurent monomial", 5 * z ** -3),
                        ("unit", 7 * z ** -2 * w ** (n - 1)),
                        ("non-unit", 1 + w)):
            yield f"try_inverse {kind}", f"{INVERSES_IN_RING} in {ring}", (
                lambda R=R, x=x: [R.try_inverse(x) for _ in range(INVERSES_IN_RING)][-1] is not None)


def fresh_inverse_rungs():
    """try_inverse of INVERSES_IN_RING distinct elements under a root, on a
    ring built afresh in each run, so that no value is in the memo of its
    regular representation: units c z^a w^b and non-units 1 + c z^a w^b,
    0 < b < N, of F241[z^+-1][w | w^N = z]; the verdict is the number of
    units found."""
    L = laurent_ring(PrimeField(241), "z")
    for n in (8, 16, 24):
        picks = [(c, a, b) for c in range(1, 241) for a in (-1, 0, 1)
                 for b in range(1, n)][:INVERSES_IN_RING]
        for kind, elements in (("unit", [{(a, b): c} for c, a, b in picks]),
                               ("non-unit", [{(0, 0): 1, (a, b): c} for c, a, b in picks])):
            def run(n=n, elements=elements):
                R = adjoin_root(L, L.gen("z"), n, name="w")[0]
                return sum(R.try_inverse(BaseElement(R, e)) is not None for e in elements)
            yield f"try_inverse {kind}", (
                f"{len(elements)} distinct in a fresh F241[z^+-1][w | w^{n} = z]"), run


def stalled_unit_rungs():
    """try_inverse of the non-unit (1 + r)^(n-1) of K[z^+-1][r | r^n = z],
    on a ring built afresh in each run, for K = F241 at n = 8, 16, 24 and
    K = Q at n = 8, 16 (Q at n = 24 takes about 15 s): unit pivots stall on
    its regular representation, so the test falls back (ROADMAP item 16).
    The verdict is whether it is a unit."""
    for K, ns in ((PrimeField(241), (8, 16, 24)), (QQ, (8, 16))):
        L = laurent_ring(K, "z")
        for n in ns:
            def run(L=L, n=n):
                R, _, r = adjoin_root(L, L.gen("z"), n, name="r")
                return R.try_inverse((1 + r) ** (n - 1)) is not None
            yield "try_inverse stalled", f"(1+r)^{n - 1} in a fresh {K.name}[z^+-1][r | r^{n} = z]", run


def power_rungs():
    """POWERS powers (1 + u + v)^24 in Q[u,v] and (1 + z + w)^40 under
    w^8 = z, by ``BaseRing._pow``; the verdict is the number of terms."""
    P = polynomial_ring(QQ, "u", "v")
    L = laurent_ring(PrimeField(241), "z")
    R, _, w = adjoin_root(L, L.gen("z"), 8, name="w")
    for size, x, e in (("(1+u+v)^24 in Q[u,v]", 1 + P.gen("u") + P.gen("v"), 24),
                       ("(1+z+w)^40 in F241[z^+-1][w | w^8 = z]", 1 + R.gen("z") + w, 40)):
        yield "ring pow", f"{POWERS} of {size}", (
            lambda x=x, e=e: [len(x.ring._pow(x.coeffs, e)) for _ in range(POWERS)][-1])


def sqrt_rungs():
    """sqrt of squares, so every call finds a root: of fractions with
    30-digit numerators over Q, in F998244353 (119 * 2^23 + 1, the longest
    Tonelli-Shanks loop) and by search in F31[u]/(u^2 + 1), 961 elements.
    The verdict is the number of roots found."""
    rng = random.Random(30)
    F = PrimeField(998244353)
    F961 = SimpleExtension(PrimeField(31), "u", (1, 0, 1))
    squares = (
        ("Q", QQ, [QQ.div(rng.randrange(10 ** 30), rng.randrange(1, 10 ** 30)) for _ in range(ROOTS)]),
        ("F998244353", F, [F.from_int(rng.randrange(F.p)) for _ in range(ROOTS)]),
        ("F31[u]/(u^2+1)", F961, [(rng.randrange(31), rng.randrange(31)) for _ in range(ROOTS // 10)]))
    for name, K, xs in squares:
        ys = [K.mul(x, x) for x in xs]
        yield "sqrt", f"{len(ys)} in {name}", lambda K=K, ys=ys: sum(K.sqrt(y) is not None for y in ys)


def field_rungs():
    """mul of FIELD_OPS pairs of neighbours and inv of FIELD_OPS elements,
    over Q (fractions of two numbers below 10^30) and over F998244353; the
    verdict is the last value, printed."""
    rng = random.Random(32)
    F = PrimeField(998244353)
    for name, K, xs in (
            ("Q", QQ, [QQ.div(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30))
                       for _ in range(FIELD_OPS + 1)]),
            ("F998244353", F, [F.from_int(rng.randrange(1, F.p)) for _ in range(FIELD_OPS + 1)])):
        yield "field mul", f"{FIELD_OPS} in {name}", lambda K=K, xs=xs: K.format(
            [K.mul(x, y) for x, y in zip(xs, xs[1:])][-1])
        yield "field inv", f"{FIELD_OPS} in {name}", lambda K=K, xs=xs: K.format(
            [K.inv(x) for x in xs[1:]][-1])


def rungs():
    """(layer, size, callable returning a verdict) in the order they run;
    what a rung needs is built before it is timed."""
    yield from ring_rungs()
    yield from fresh_inverse_rungs()
    yield from stalled_unit_rungs()
    yield from power_rungs()
    yield from sqrt_rungs()
    yield from field_rungs()
    for name in ("bundle-towers/kummer.json", "cli-docs/abg.json"):
        path = str(DATA / name)
        yield "load_document", name, lambda path=path: len(load_document(path).bundles)
    # the writer; the verdict is whether it gives back the stored bytes
    path = DATA / "bundle-towers" / "kummer.json"
    doc, text = load_document(str(path)), path.read_text(encoding="utf-8")
    yield "dump_document", f"{DUMPS} of bundle-towers/kummer.json", lambda: [
        dump_document(doc) for _ in range(DUMPS)][-1] == text
    # an accepted document and one the schema rejects; the verdict is the
    # pointer of the rejection, "" when there is none
    for name in ("bundle-towers/kummer.json", "cli-docs/schema.json"):
        raw = json.loads((DATA / name).read_text(encoding="utf-8"))
        yield "validate_raw", f"{VALIDATIONS} of {name}", lambda raw=raw: [
            schema_pointer(raw) for _ in range(VALIDATIONS)][-1]
    # 36 unit pivots, then Berkowitz on the 28 x 28 block left
    B = load_document(str(DATA / "bundle-towers" / "nongalois.json")).bundles["B"]
    rows = canonical_matrix(B)
    yield "ring_det", f"{DETS} berkowitz, nongalois.json over {B.base!r}", lambda: [
        B.base.format_coeffs(ring_det(rows, B.base)) for _ in range(DETS)][-1]
    # the verdict of a bundle that is not Galois, with its determinant
    yield "is_galois", "nongalois.json B", *unread_by(lambda B: is_galois(B).describe(), B)
    for n, p in ((8, 17), (16, 17), (24, 73), (32, 97)):
        K = PrimeField(p)
        q = of_order(K, n)
        yield "taft", f"N={n}/F{p}", lambda n=n, q=q, K=K: taft(n, q, K).dim
        H = taft(n, q, K)
        yield "verify_hopf", f"taft N={n}/F{p}", *unread_by(lambda H: verify_hopf(H).ok, H)
        if n >= 24:  # the check alone, Delta as the coaction of H on itself
            yield "coassociativity", f"taft N={n}/F{p}", lambda H=H: axioms.coassociativity(
                axioms.field_ops(H.field), H.dim, H.comult, H.comult)
        if n == 32:  # the record alone, from tables in normal form; the verdict is its rows
            yield "HopfAlgebra", f"taft N={n}/F{p} tables", lambda H=H: len(HopfAlgebra(
                H.field, H.labels, H.mult, H.unit, H.comult, H.counit, H.antipode).mult)
            yield "Verdict", f"taft N={n}/F{p}", lambda H=H: algebra_verdict(
                axioms.field_ops(H.field), H)
    # the antipode solved on generators, then on the whole basis of a dual,
    # whose 1 is a sum of basis elements; the verdict is the stored antipode
    for n, p, dual in ((6, 7, False), (8, 17, False), (12, 13, False),
                       (3, 7, True), (4, 5, True), (5, 11, True)):
        K = PrimeField(p)
        H = taft(n, of_order(K, n), K)
        H = dual_hopf(H) if dual else H
        B = Bialgebra(K, H.labels, H.mult, H.unit, H.comult, H.counit)
        yield "solve_antipode", f"{'dual of ' if dual else ''}taft N={n}/F{p}", *unread_by(
            lambda B, H=H: solve_antipode(B) == H.antipode, B)
    F241 = PrimeField(241)
    for n in (24, 40, 60):
        q = of_order(F241, n)
        A, w = kummer_trivialization_witness(n, q, F241)
        size = f"kummer N={n}/F241"
        if n == 60:  # the record alone, from tables of BaseElements as kummer_bundle gives
            C = A.base

            def elements(vec, C=C):
                return {i: BaseElement(C, c) for i, c in vec.items()}
            tables = ({k: elements(row) for k, row in A.mult.items()}, elements(A.unit),
                      {k: elements(row) for k, row in A.coaction.items()})
            yield "ComoduleAlgebra", f"{CONSTRUCTIONS} of {size} tables", (
                lambda A=A, tables=tables: [len(ComoduleAlgebra(A.base, A.hopf, A.labels, *tables)
                                                .coaction) for _ in range(CONSTRUCTIONS)][-1])
            yield "Verdict", size, lambda A=A: algebra_verdict(A.ops, A)
        yield "verify_bundle", size, *unread_by(lambda A: verify_bundle(A).ok, A)
        # the check alone, on H's comultiplication lifted into the base once
        yield "coassociativity", size, lambda A=A, hcomult=_lifted(A.base, A.hopf.comult): (
            axioms.coassociativity(A.ops, A.dim, A.coaction, hcomult))
        # the bundle, which is also the witness's endpoint at 0, and its push
        # to the extension have a word tree; the endpoint at 1 and the
        # family, whose 1 is the sum of H's idempotents, have none
        pushed = push_forward(w.step.morphism, A)
        # three push-forwards verify_witness makes: the bundle to the
        # extension and the family to each end; the verdict is the number of
        # terms of the product table
        for name, f, X in (("bundle to the extension", w.step.morphism, A),
                           ("family at 0", w.interval.at_zero, w.family),
                           ("family at 1", w.interval.at_one, w.family)):
            yield "push_forward", f"{size} {name}", lambda f=f, X=X: sum(
                len(c) for row in push_forward(f, X).mult.values() for c in row.values())
        for name, X in (("bundle", A), ("bundle over the extension", pushed),
                        ("endpoint at 1", w.at_one), ("family", w.family)):
            yield "verify_comodule_algebra", f"{size} {name}", *unread_by(
                lambda X: verify_comodule_algebra(X).ok, X)
        # both endpoint isomorphisms, as verify_witness checks them
        for label, M, end, at in (("0", w.iso_zero, pushed, w.interval.at_zero),
                                  ("1", w.iso_one, push_forward(w.step.morphism, w.at_one),
                                   w.interval.at_one)):
            yield "check_iso", f"{size} at {label}", *unread_by(
                lambda end, fibre, M: check_iso(end, fibre, M).ok, end, push_forward(at, w.family),
                M)
        # every one of the N^2 pivots is a unit; the verdict is the determinant
        if n < 60:
            rows = canonical_matrix(A)
            yield "ring_det", size, lambda A=A, rows=rows: A.base.format_coeffs(ring_det(rows, A.base))
        yield "canonical_matrix", size, lambda A=A: sum(map(len, canonical_matrix(A)))
        yield "is_galois", size, *unread_by(lambda A: is_galois(A).ok, A)
        # the trivial bundle at 1 and the family over the interval, whose
        # structure maps have no unit entry over their total algebras
        yield "is_galois", f"{size} trivial bundle", *unread_by(lambda X: is_galois(X).ok, w.at_one)
        yield "is_galois", f"{size} family", *unread_by(lambda X: is_galois(X).ok, w.family)
        yield "verify_witness", size, *unread_by(lambda w: verify_witness(w).ok, w)
        yield "verify_step", f"{STEPS} of {size}", lambda w=w: [
            verify_step(w.step) for _ in range(STEPS)][-1]
        if n < 60:  # the verdict is the rank of the witness's family
            yield "kummer_trivialization_witness", size, (
                lambda n=n, q=q: kummer_trivialization_witness(n, q, F241)[1].family.dim)
    # e z + (1 - e), e = (1 + r + ... + r^(n-1))/n idempotent: a unit with
    # no unit entry in its multiplication matrix, so ring_solve runs its
    # Cayley-Hamilton tail on all of it
    L = laurent_ring(F241, "z")
    for n in (8, 16, 24):
        R, _, r = adjoin_root(L, L.one(), n, name="r")
        e = sum((r ** k for k in range(n)), R.zero()) * F241.inv(F241.from_int(n))
        x, want = e * R.gen("z") + (R.one() - e), e * R.gen("z") ** -1 + (R.one() - e)
        yield "try_inverse", f"root r^{n} = 1 over F241[z^+-1]", (
            lambda R=R, x=x, want=want: R.try_inverse(x) == want)
    g = load_document(str(DATA / "bundle-towers" / "abg_uvw.json")).cleavings["g"]
    yield "check_cleaving", f"{CLEAVINGS} on abg over Q[u,v,w]", lambda: [
        sum(map(len, check_cleaving(g.algebra, g).gamma_inv.values)) for _ in range(CLEAVINGS)][-1]
    yield "convolution_invert", f"{CLEAVINGS} on abg over Q[u,v,w]", lambda: [
        sum(map(len, convolution_invert(g).values)) for _ in range(CLEAVINGS)][-1]
    # the verdicts are the nonzero values of sigma and the terms of the table
    cm = check_cleaving(g.algebra, g)
    sigma = extract_cocycle(cm)
    yield "extract_cocycle", f"{CLEAVINGS} on abg over Q[u,v,w]", lambda: [
        sum(not c.is_zero for row in extract_cocycle(cm).sigma for c in row)
        for _ in range(CLEAVINGS)][-1]
    yield "twisted_product", f"{CLEAVINGS} on abg over Q[u,v,w]", lambda: [
        sum(map(len, twisted_product(sigma.base, sigma.hopf, sigma).mult.values()))
        for _ in range(CLEAVINGS)][-1]
    # the bundle and witness of Proposition 3.5 at the largest order, in
    # process; it runs once, being over SINGLE_RUN_OVER_S; the verdict is the
    # exit code
    argv = ["demo", "prop35", "--order", "64", "--q", "11", "--field", "F193"]
    yield "cli.main", " ".join(argv), lambda: quiet(cli_main, argv)
    # the commands that take names, in process with --json, on stored
    # documents; the verdict is the exit code
    for argv in (["galois", "cli-docs/abg.json", "A"],
                 ["cleft", "check", "cli-docs/abg.json", "g"],
                 ["cleft", "invert", "cli-docs/abg.json", "g"],
                 ["witness", "verify", "cli-docs/abg.json", "w"],
                 ["verify-bundle", "bundle-towers/kummer.json", "K6", "K8", "K10"],
                 ["galois", "bundle-towers/kummer.json", "K6", "K8", "K10"],
                 ["witness", "verify", "bundle-towers/kummer.json", "w6", "w8", "w10"]):
        full = [str(DATA / a) if a.endswith(".json") else a for a in argv] + ["--json"]
        yield "cli.main", " ".join(argv + ["--json"]), lambda full=full: quiet(cli_main, full)
    # the verdict is whether the last inverse times the element is 1
    for name, K, a in (("Q(i)", SimpleExtension(QQ, "i", (1, 0, 1)), (QQ.fraction(3, 7), 5)),
                       ("Q(2^(1/3))", SimpleExtension(QQ, "c", (-2, 0, 0, 1)),
                        (QQ.fraction(3, 7), 5, -1)),
                       ("F5[u]/(u^3+u+1)", SimpleExtension(PrimeField(5), "u", (1, 1, 0, 1)),
                        (2, 0, 3))):
        yield "SimpleExtension.inv", f"{INVERSES} inverses in {name}", lambda K=K, a=a: K.is_one(
            K.mul(a, [K.inv(a) for _ in range(INVERSES)][-1]))
    # the tier-1 suite in a child process from the root of the checkout;
    # the verdict is its exit status
    yield "tier-1", "python -m pytest -q", lambda: subprocess.run(
        [sys.executable, "-m", "pytest", "-q"], cwd=ROOT, stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).returncode


def unread(x):
    """For a Hopf algebra, a bundle or a witness, a copy whose verdicts, its
    own and those of the records it holds, have not been read; its rings,
    steps and tables are x's.  Anything else is returned as it is."""
    if isinstance(x, (Bialgebra, ComoduleAlgebra, HomotopyWitness)):
        return type(x)(*(unread(getattr(x, name)) for name in x._fields))
    return x


def unread_by(fn, *args):
    """A rung's function and the setup that hands it ``unread`` copies of args."""
    return fn, lambda: tuple(map(unread, args))


def algebra_verdict(ops, R) -> list:
    """The generators of R's word tree from its verdict, [] when it keeps none."""
    tree = axioms.Verdict(ops, R.dim, R.mult, R.unit).tree
    return [] if tree is None else list(tree.gens)


def quiet(fn, *args):
    """fn(*args) with what it prints to stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def schema_pointer(raw) -> str:
    """The pointer of the SchemaError ``validate_raw(raw)`` raises, "" if none."""
    try:
        validate_raw(raw)
    except SchemaError as exc:
        return exc.pointer
    return ""


def sources_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(hopfgal.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(out: str) -> None:
    wall, cpu, _, walls = timed(yardstick)
    result = {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpu": cpu_model(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "hopfgal_sha256": sources_sha256(),
        "yardstick": {"wall_s": round(wall, 4), "cpu_s": round(cpu, 4), "runs": len(walls)},
        "rungs": [],
    }
    for layer, size, fn, *setup in rungs():
        wall, cpu, value, walls = timed(fn, layer in REPEATED, *setup)
        result["rungs"].append({"layer": layer, "size": size, "runs": len(walls),
                                "wall_s": round(wall, 4), "cpu_s": round(cpu, 4),
                                "wall_range_s": [round(min(walls), 4), round(max(walls), 4)],
                                "verdict": value})
        print(f"{layer:22} {size:28} wall {wall:8.4f} s  cpu {cpu:8.4f} s  ({len(walls)} runs)",
              file=sys.stderr, flush=True)
    Path(out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
