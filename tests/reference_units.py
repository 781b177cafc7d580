"""Reference routes for units under a root and for stalled ring solves.

These are the library's former fallbacks, kept as oracles that share no
elimination code with ``linalg``: the dense Cayley-Hamilton inverse of the
multiplication operator, and Cramer's rule on Berkowitz determinants.
"""

from hopfgal.linalg import berkowitz_det
from hopfgal.rings import BaseRing, _charpoly_dicts


def root_try_inv(ring: BaseRing, d: dict):
    """_try_inv_dict when the last generator is a root: decide via the
    multiplication operator on the free module with basis 1, g, ...,
    g^(n-1) over the prefix ring."""
    m = len(ring.gens)
    sub = ring.prefix(m - 1)
    n = ring.gens[-1].degree
    coords = [{} for _ in range(n)]
    for mono, c in d.items():
        coords[mono[-1]][mono[:-1]] = c
    u = {mono[:-1]: c for mono, c in ring.root_values[-1].items()}
    upow = {0: {(0,) * (m - 1): ring.field.one()}, 1: u}

    def u_to(q):
        if q not in upow:
            upow[q] = sub._mul(u_to(q - 1), u)
        return upow[q]

    M = [[None] * n for _ in range(n)]
    for col in range(n):
        images = [{} for _ in range(n)]
        for j in range(n):
            if not coords[j]:
                continue
            r, q = (j + col) % n, (j + col) // n
            term = coords[j] if q == 0 else sub._mul(coords[j], u_to(q))
            images[r] = sub._add(images[r], term)
        for row in range(n):
            M[row][col] = images[row]
    # det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n, and c_n = (-1)^n det M
    poly = _charpoly_dicts(sub, M)
    cinv = sub._try_inv_dict(poly[n])
    if cinv is None:
        return None
    # Cayley-Hamilton: a (a^(n-1) + c_1 a^(n-2) + ... + c_(n-1)) = -c_n,
    # the bracket evaluated by Horner's rule
    def lift(x):
        return {mono + (0,): c for mono, c in x.items()}
    acc = {(0,) * m: ring.field.one()}
    for c in poly[1:n]:
        acc = ring._add(ring._mul(acc, d), lift(c))
    return ring._mul(acc, lift(sub._neg(cinv)))


def cramer_solve(M, b, ring: BaseRing):
    n, zero = len(M), ring.zero()
    M = [[row.get(c, zero) for c in range(n)] if isinstance(row, dict) else row for row in M]
    d = berkowitz_det(M, ring)
    dinv = ring.try_inverse(d)
    if dinv is None:
        return None
    out = []
    for j in range(n):
        Mj = [[b[i] if c == j else M[i][c] for c in range(n)] for i in range(n)]
        out.append(berkowitz_det(Mj, ring) * dinv)
    return out
