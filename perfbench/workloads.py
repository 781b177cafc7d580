"""Seeded documents and invocation mixes for the three benchmark workloads.

Documents are built with the library's own constructors and written in the
interchange normal form, the way a user's script would produce them.  The
seed draws the rank-4 scalars, the root of unity q of order N and the order
of invocations; it never changes which code paths run or how large the
inputs are, so runs on different seeds measure the same work.

Every invocation carries the exit code it must give, known by construction:
trivial criterion triples are (s^2, t^2, 2st), non-trivial ones have a
non-square alpha, the corrupted bundle breaks associativity, the non-Galois
bundle has determinant a power of z over a polynomial base.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0

# Explicit Taft(6) documents with their stored antipode.  Building one with
# the library takes about 19 s, so they are made once (see gen_taft6.py)
# and the seed picks among them.
TAFT6_FILES = ("taft6_F7_q3.json", "taft6_F7_q5.json")

# Share of --seconds given to one pass of each mix.  A run makes
# round(--seconds / SECONDS_PER_PASS) passes, so every run of a workload
# measures the same invocations, on any commit.  The shares are set so that
# at --seconds 25 a run, set-ups and yardstick runs included, takes 20-45 s
# on the reference machine (2 cores, Python 3.11.7): 2 passes of cli-docs,
# 3 of the others.
SECONDS_PER_PASS = {"cli-docs": 11.0, "hopf-antipode": 8.0, "bundle-towers": 8.5}

# Ladder points left out of the mixes, with their build or check times.
OMITTED_SIZES = {
    "hopf-antipode": "taft(6) and taft(7) shorthand take 19 s and 155 s to build",
    "bundle-towers": "Kummer witnesses at N = 12 and 16 take 11 s and 60 s to verify",
}


@dataclass(frozen=True)
class Invocation:
    name: str           # unique within the workload; keys stored outputs
    argv: tuple         # arguments after `python -m hopfgal.cli`
    exit_code: int      # known answer by construction
    size: str = ""      # scaling-row key, e.g. "taft N=5/F61"
    fields: tuple = ()  # JSON checks kept for seeds without stored bytes


def _order_n(p: int, n: int) -> list:
    """Elements of exact multiplicative order n in F_p, by brute force."""
    out = []
    for a in range(2, p):
        x, k = a, 1
        while x != 1:
            x, k = x * a % p, k + 1
        if k == n:
            out.append(a)
    return out


def _write(path: Path, doc) -> None:
    from hopfgal.document import dump_document
    path.write_text(dump_document(doc))


def _abg_triple(rng):
    """(alpha, beta, gamma) over Q with alpha a non-square unit."""
    return rng.choice((2, 3, 5, 6, 7)), rng.randint(1, 9), rng.randint(1, 9)


def build_cli_docs(rng, out: Path) -> list:
    from hopfgal import (QQ, AbgParams, Document, abg_bundle,
                         abg_cleaving, cleft_trivialization_witness, sweedler_h4)
    from hopfgal.rings import base_ring, inclusion_morphism

    C = base_ring(QQ)
    P = C.add_free("u")
    a, b, g = _abg_triple(rng)
    p = AbgParams(C, a, b, g)
    A = abg_bundle(p)
    _write(out / "abg.json", Document(
        QQ, rings={"C": C, "P": P}, hopf_algebras={"H4": sweedler_h4(QQ)},
        morphisms={"f": inclusion_morphism(C, P)}, bundles={"A": A},
        cleavings={"g": abg_cleaving(A).gamma},
        witnesses={"w": cleft_trivialization_witness(p).links[0][0]}))
    raw = json.loads((out / "abg.json").read_text())

    # x*x = alpha replaced by alpha + 1: no longer associative, exit 1
    bad = json.loads(json.dumps(raw))
    for row in bad["bundles"]["A"]["mult"]:
        if row[0] == row[1] == "x":
            row[2] = {"1": str(a + 1)}
    (out / "corrupt.json").write_text(json.dumps(bad, indent=2))
    # a bundle without its coaction table fails the schema, exit 2
    schema = json.loads(json.dumps(raw))
    del schema["bundles"]["A"]["coaction"]
    (out / "schema.json").write_text(json.dumps(schema, indent=2))
    # a bundle over a ring the document does not define, exit 2
    unres = json.loads(json.dumps(raw))
    unres["bundles"]["A"]["ring"] = "Missing"
    (out / "unresolved.json").write_text(json.dumps(unres, indent=2))

    taft6 = rng.choice(TAFT6_FILES)
    (out / "taft6.json").write_bytes((DATA / taft6).read_bytes())

    s, t = rng.randint(1, 9), rng.randint(1, 9)
    na, nb, ng = _abg_triple(rng)
    ta, tb, tg = _abg_triple(rng)
    order = rng.choice((3, 4, 6))
    q = rng.choice(_order_n(13, order))
    d = str(out)
    ok = (("ok", True),)
    return [
        Invocation("verify-hopf", ("verify-hopf", f"{d}/abg.json", "H4"), 0, fields=ok),
        Invocation("verify-bundle", ("verify-bundle", f"{d}/abg.json", "A"), 0, fields=ok),
        Invocation("galois", ("galois", f"{d}/abg.json", "A"), 0,
                   fields=ok + (("results/0/galois", True),)),
        Invocation("cleft-check", ("cleft", "check", f"{d}/abg.json", "g"), 0, fields=ok),
        Invocation("cleft-invert", ("cleft", "invert", f"{d}/abg.json", "g"), 0, fields=ok),
        Invocation("witness-verify", ("witness", "verify", f"{d}/abg.json"), 0, fields=ok),
        Invocation("pushforward", ("pushforward", f"{d}/abg.json", "A", "f"), 0, fields=ok),
        Invocation("verify-hopf-taft6", ("verify-hopf", f"{d}/taft6.json", "T"), 0,
                   size="taft N=6/F7 explicit", fields=ok),
        Invocation("h4-criterion", ("h4", "criterion", "--alpha", str(s * s),
                                    "--beta", str(t * t), "--gamma", str(2 * s * t)),
                   0, fields=(("trivial", True),)),
        Invocation("demo-census", ("demo", "census-f3"), 0, fields=ok),
        Invocation("demo-thm43", ("demo", "thm43", "--alpha", str(ta), "--beta", str(tb),
                                  "--gamma", str(tg)), 0, fields=ok),
        Invocation("demo-prop35", ("demo", "prop35", "--order", str(order), "--q", str(q),
                                   "--field", "F13"), 0, fields=ok),
        Invocation("neg-criterion", ("h4", "criterion", "--alpha", str(na),
                                     "--beta", str(nb), "--gamma", str(ng)),
                   1, fields=(("trivial", False),)),
        Invocation("neg-corrupt", ("verify-bundle", f"{d}/corrupt.json", "A"), 1,
                   fields=(("ok", False),)),
        Invocation("neg-schema", ("verify-bundle", f"{d}/schema.json", "A"), 2),
        Invocation("neg-unresolved", ("galois", f"{d}/unresolved.json", "A"), 2),
    ]


TAFT_LADDER = (  # (N, field spec, field label)
    (3, "F61", "F61"), (4, "F61", "F61"), (5, "F61", "F61"),
    (3, {"base": "Q", "var": "w", "modulus": ["1", "1", "1"]}, "Q(w)"),
    (4, {"base": "Q", "var": "i", "modulus": ["1", "0", "1"]}, "Q(i)"),
)


def build_hopf_antipode(rng, out: Path) -> list:
    invs = []
    for N, field, label in TAFT_LADDER:
        if field == "F61":
            q = str(rng.choice(_order_n(61, N)))
        elif N == 3:
            q = rng.choice(("w", "-w-1"))      # the two primitive cube roots
        else:
            q = rng.choice(("i", "-i"))
        doc = {"field": field,
               "hopf_algebras": {"T": {"construction": "taft", "order": N, "q": q}}}
        tag = label.replace("(", "").replace(")", "")
        path = out / f"taft{N}_{tag}.json"
        path.write_text(json.dumps(doc, indent=2))
        invs.append(Invocation(f"taft{N}-{tag}", ("verify-hopf", str(path), "T"), 0,
                               size=f"taft N={N}/{label}", fields=(("ok", True),)))
    return invs


KUMMER_ORDERS = (6, 8, 10)


def build_bundle_towers(rng, out: Path) -> list:
    from hopfgal import (AbgParams, Document, PrimeField, QQ, abg_bundle,
                         abg_cleaving, cleft_trivialization_witness,
                         kummer_bundle, kummer_trivialization_witness)
    from hopfgal.rings import adjoin_root, inclusion_morphism, laurent_ring, polynomial_ring

    K = PrimeField(241)
    C = laurent_ring(K, "z")
    z = C.gen("z")
    E, _, _ = adjoin_root(C, z, 2, "r")
    bundles, witnesses = {}, {}
    for N in KUMMER_ORDERS:
        q = rng.choice(_order_n(241, N))
        bundles[f"K{N}"] = kummer_bundle(N, q, K)
        A, w = kummer_trivialization_witness(N, q, K)
        bundles[f"A{N}"] = A
        witnesses[f"w{N}"] = w
    _write(out / "kummer.json", Document(
        K, rings={"C": C, "E": E}, bundles=bundles,
        morphisms={"f": inclusion_morphism(C, E)}, witnesses=witnesses))

    # w^N = z over the polynomial ring F241[z]: det is a power of z, exit 1
    raw = json.loads((out / "kummer.json").read_text())
    ng = {"field": raw["field"], "hopf_algebras": raw["hopf_algebras"],
          "rings": {"P": {"gens": [{"kind": "free", "name": "z"}]}},
          "bundles": {"B": dict(raw["bundles"]["K8"], ring="P")}}
    (out / "nongalois.json").write_text(json.dumps(ng, indent=2))

    R = polynomial_ring(QQ, "u", "v", "w")
    u, v, w = R.gen("u"), R.gen("v"), R.gen("w")
    a, b1, b2, g1, g2 = (rng.choice((2, 3, 5, 6, 7)),) + tuple(
        rng.randint(1, 9) for _ in range(4))
    p = AbgParams(R, a, u * v + b1 * w, g1 * u + g2 * v * w + b2)
    A = abg_bundle(p)
    _write(out / "abg_uvw.json", Document(
        QQ, rings={"R": R}, bundles={"A": A},
        cleavings={"g": abg_cleaving(A).gamma},
        witnesses={"w": cleft_trivialization_witness(p).links[0][0]}))

    d = str(out)
    ok = (("ok", True),)
    names = [f"K{N}" for N in KUMMER_ORDERS]
    return [
        Invocation("verify-bundle-uvw", ("verify-bundle", f"{d}/abg_uvw.json", "A"), 0,
                   fields=ok),
        Invocation("verify-bundle-kummer", ("verify-bundle", f"{d}/kummer.json", *names),
                   0, fields=ok),
        Invocation("galois-kummer", ("galois", f"{d}/kummer.json", *names), 0,
                   fields=ok + tuple((f"results/{i}/galois", True) for i in range(3))),
        Invocation("witness-kummer6", ("witness", "verify", f"{d}/kummer.json", "w6"), 0,
                   size="kummer witness N=6", fields=ok),
        Invocation("witness-kummer8", ("witness", "verify", f"{d}/kummer.json", "w8"), 0,
                   size="kummer witness N=8", fields=ok),
        Invocation("witness-kummer10", ("witness", "verify", f"{d}/kummer.json", "w10"), 0,
                   size="kummer witness N=10", fields=ok),
        Invocation("pushforward-root", ("pushforward", f"{d}/kummer.json", "K6", "f"), 0,
                   fields=ok),
        Invocation("cleft-invert-uvw", ("cleft", "invert", f"{d}/abg_uvw.json", "g"), 0,
                   fields=ok),
        Invocation("witness-uvw", ("witness", "verify", f"{d}/abg_uvw.json"), 0, fields=ok),
        Invocation("neg-nongalois", ("galois", f"{d}/nongalois.json", "B"), 1,
                   fields=(("ok", False), ("results/0/galois", False))),
    ]


BUILDERS = {
    "cli-docs": build_cli_docs,
    "hopf-antipode": build_hopf_antipode,
    "bundle-towers": build_bundle_towers,
}


def build(workload: str, seed: int, out: Path) -> tuple:
    """Write the workload's documents into out.

    Returns (mix, warmup): the seeded order of invocations and the one the
    set-up runs, the first and cheapest of the unshuffled list.
    """
    rng = random.Random(f"{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    invs = BUILDERS[workload](rng, out)
    warmup = invs[0]
    rng.shuffle(invs)
    return invs, warmup
