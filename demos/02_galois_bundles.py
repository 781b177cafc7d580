"""Certify principal bundles through the canonical matrix determinant.

The structure map of a rank-n extension is bijective exactly when an
(n*dim H) x (n*n) matrix over the base is square with unit determinant,
so each verdict below is an exact computation, no numerics involved.

Run:  python3 demos/02_galois_bundles.py
"""

from hopfgal import (
    AbgParams,
    BaseMorphism,
    QQ,
    abg_bundle,
    base_ring,
    canonical_matrix,
    is_galois,
    push_forward,
    sweedler_h4,
    trivial_bundle,
    verify_bundle,
)

C = base_ring(QQ)

print("== the untwisted bundle ==")
T = trivial_bundle(C, sweedler_h4(QQ))
print("verdict:", is_galois(T).describe())
assert verify_bundle(T).ok
print()

print("== the two-generator rank-4 family ==")
A = abg_bundle(AbgParams(C, 3, 5, 7))
M = canonical_matrix(A)
print(f"canonical matrix is {len(M)} x {A.dim ** 2}")
v = is_galois(A)
print("verdict:", v.describe())
assert v.ok
print()

print("== determinants transform along base morphisms ==")
Cu = base_ring(QQ).add_free("u")
u = Cu.gen("u")
Au = abg_bundle(AbgParams(Cu, Cu.from_int(2), u, u * u))
det_u = is_galois(Au).det
print("over Q[u]:   det =", Cu.format_element(det_u))
ev = BaseMorphism(Cu, C, {"u": C.from_int(3)})
det_3 = is_galois(push_forward(ev, Au)).det
print("at u = 3:    det =", C.format_element(det_3))
assert det_3 == ev(det_u)
print("evaluation of the determinant matches the determinant after evaluation")
print()

print("== a wrong coaction is caught ==")
from hopfgal import ComoduleAlgebra

bad = ComoduleAlgebra(A.base, A.hopf, A.labels, A.mult, A.unit,
                      {0: {(0, 0): C.one()}, 1: {(1, 2): C.one()},
                       2: {(0, 2): C.one(), (2, 1): C.one()},
                       3: {(1, 3): C.one(), (3, 0): C.one()}})
rep = verify_bundle(bad)
assert not rep.ok
print("first failure:", next(iter(rep.failures())))
