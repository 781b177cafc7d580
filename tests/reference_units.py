"""Reference routes for units under a root, stalled ring solves and
Berkowitz determinants.

These are the library's former fallbacks, kept as oracles that share no
linear algebra with ``linalg``: the dense Cayley-Hamilton inverse of the
multiplication operator, Cramer's rule, and the Berkowitz characteristic
polynomial and component-wise determinant on a base ring's coefficient
dicts, as ``rings`` held them before ``linalg`` took them over on ``Ops``.
"""

from hopfgal.rings import BaseElement, BaseRing


def _charpoly_dicts(ring: BaseRing, M) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(tI - M), highest degree first.

    Berkowitz's method: iteratively build the characteristic polynomial
    vector of each leading principal submatrix by multiplying Toeplitz
    matrices assembled from the row/column bordering it.  No divisions, so
    it is valid over any commutative ring, zero divisors included.  Products
    with a zero factor are skipped: the multiplication matrix of a monomial
    has one nonzero entry per column.
    """
    n = len(M)
    one = {(0,) * len(ring.gens): ring.field.one()}
    if n == 0:
        return [one]
    mul, add, neg = ring._mul, ring._add, ring._neg

    def dot(R, vec):
        acc: dict = {}
        for r, v in zip(R, vec):
            if r and v:
                acc = add(acc, mul(r, v))
        return acc

    # charpoly vector of the 1x1 leading block: [1, -M[0][0]]
    poly = [one, neg(M[0][0])]
    for k in range(1, n):
        # R = row (M[k][0..k-1]), C = column (M[0..k-1][k]) = vec, a = M[k][k]
        R = M[k][:k]
        vec = [M[j][k] for j in range(k)]
        # Toeplitz column entries: t_0 = 1, t_1 = -a, t_{i+2} = -(R . A^i C)
        toep = [one, neg(M[k][k])]
        for _ in range(k - 1):
            toep.append(neg(dot(R, vec)))
            vec = [dot(M[j][:k], vec) for j in range(k)]
        toep.append(neg(dot(R, vec)))
        poly = [dot(toep[i::-1], poly) for i in range(k + 2)]
    return poly


def _berkowitz_dicts(ring: BaseRing, M) -> dict:
    """Determinant of a square matrix of coefficient dicts over ring.

    The rows and columns fall into the connected components of the graph
    joining row i to column j when M[i][j] is nonzero.  det M is 0 when a
    component has more rows than columns or fewer; otherwise it is the
    product of the components' determinants, each division-free as (-1)^k
    times the last coefficient c_k of _charpoly_dicts, times the sign of the
    permutation pairing each component's rows with its columns in
    increasing order.
    """
    n = len(M)
    parent = list(range(2 * n))  # row i is node i, column j is node n + j

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if x:
                parent[find(i)] = find(n + j)
    components: dict = {}
    for x in range(2 * n):
        components.setdefault(find(x), []).append(x)
    det = {(0,) * len(ring.gens): ring.field.one()}
    perm = [0] * n
    for nodes in components.values():
        rows = [x for x in nodes if x < n]
        cols = [x - n for x in nodes if x >= n]
        if len(rows) != len(cols):
            return {}
        for i, j in zip(rows, cols):
            perm[i] = j
        c = _charpoly_dicts(ring, [[M[i][j] for j in cols] for i in rows])[-1]
        det = ring._mul(det, ring._neg(c) if len(rows) % 2 else c)
    return ring._neg(det) if odd_permutation(perm) else det


def odd_permutation(perm: list) -> bool:
    """Whether the permutation i -> perm[i] of range(len(perm)) is odd."""
    perm, odd = list(perm), False
    for i in range(len(perm)):  # sort by swaps
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            odd = not odd
    return odd


def berkowitz_det(M, ring: BaseRing) -> BaseElement:
    return BaseElement(ring, _berkowitz_dicts(ring, [[e.coeffs for e in row] for row in M]))


def root_matrix(ring: BaseRing, d: dict) -> list:
    """The dense matrix over the prefix ring of multiplication by d, when
    the last generator g is a root: column k is d g^k in the basis 1, g,
    ..., g^(n-1)."""
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
    return M


def root_norm(ring: BaseRing, d: dict) -> dict:
    """det of ``root_matrix``, by Berkowitz over the prefix ring."""
    return _berkowitz_dicts(ring.prefix(len(ring.gens) - 1), root_matrix(ring, d))


def root_try_inv(ring: BaseRing, d: dict):
    """_try_inv_dict when the last generator is a root: decide via the
    multiplication operator on the free module with basis 1, g, ...,
    g^(n-1) over the prefix ring."""
    m = len(ring.gens)
    sub = ring.prefix(m - 1)
    n = ring.gens[-1].degree
    M = root_matrix(ring, d)
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
