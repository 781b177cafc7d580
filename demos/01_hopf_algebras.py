"""Build the reference Hopf algebras and check every axiom.

Run:  python3 demos/01_hopf_algebras.py
"""

from hopfgal import (
    PrimeField,
    QQ,
    cyclic_group_algebra,
    dual_hopf,
    sweedler_h4,
    taft,
    verify_hopf,
)


def show(title, H):
    rep = verify_hopf(H)
    print(f"{title}: dim {H.dim}, basis {', '.join(H.labels)}")
    print(f"  all axioms: {'ok' if rep.ok else 'FAILED'}")
    if not rep.ok:
        for line in rep.failures():
            print("  " + line)
        raise SystemExit(1)
    return rep


print("== the 4-dimensional Hopf algebra with a group-like and a skew-primitive ==")
H4 = sweedler_h4(QQ)
show("H4 over Q", H4)
print("  antipode columns:")
for j, lab in enumerate(H4.labels):
    img = {H4.labels[i]: c for i, c in sorted(H4.antipode.get(j, {}).items())}
    print(f"    S({lab}) = {img}")
print()

print("== Taft algebras: same recipe at higher order ==")
F7 = PrimeField(7)
T9 = taft(3, F7.from_int(2), F7)
show("order-3 Taft algebra over F7 (q = 2)", T9)
F5 = PrimeField(5)
show("order-4 Taft algebra over F5 (q = 2)", taft(4, F5.from_int(2), F5))
print()

print("== duals of cyclic group algebras ==")
for N in range(1, 7):
    D = dual_hopf(cyclic_group_algebra(N, QQ))
    show(f"dual of Q[C_{N}]", D)
print()
print("all Hopf algebras verified")
