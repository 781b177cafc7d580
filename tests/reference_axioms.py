"""Reference axiom checkers for the differential tests.

These are the verifiers as they were written before the library moved to
one checker on structure-constant tables (``hopfgal.axioms``): every axiom
is re-derived on basis vectors, through copies of the vector operations
(``mul_vec``, ``comult_vec``, ``tensor_mul``, ``coact_vec``) as the library
had them, so nothing here shares arithmetic code with the checker beyond
the field and ring operations.  The tests require the library's reports to
equal these, check for check and witness for witness.  ``solve_antipode``
is the full d^2 x d^2 solve as the library had it before it solved on
generators first; it returns the dense matrix S[i][j], the h_i coordinate
of S(h_j), and the checks read ``H.antipode``'s table through their own
``_h_antipode_vec`` and ``_h_antipode_matrix``.  ``canonical_matrix``
builds the structure map's matrix through ``tensor_mul``, as the library
did before reading it off the tables.
``check_iso`` forms every product of two basis elements and its image, as
the library did before it checked maps through the axiom checker.
``entries`` and ``rows`` spell the rows of ``galois.canonical_matrix`` out
densely, with their coefficient dicts read as BaseElements.
``reduce_word_combination`` rewrites words in x, y to the normal form of
the rank-4 family, as ``bundles.abg_bundle`` did before its table was
written out.  ``crossed_multiply`` is the general crossed-product formula
with an explicit action, which ``cleft`` had as an entry point that only
the tests called.  ``quasi_action``, ``cocycle_values`` and
``twisted_table`` transcribe h . c, sigma and the twisted product straight
from their Sweedler sums, on dense lists of BaseElements, so they share no
code with ``axioms.convolution``.  A bundle's tables hold coefficient dicts; the oracles
read each entry as a BaseElement through ``elements`` and compute with
BaseElement arithmetic, as the library did; ``linalg.ring_det`` takes and
returns coefficient dicts, and ``check_iso`` converts at that call.
"""

from hopfgal.errors import NoAntipodeError
from hopfgal.fields import Field
from hopfgal.linalg import field_det, field_solve, ring_det
from hopfgal.report import Report
from hopfgal.rings import BaseElement

Vec = dict


def elements(C, vec: dict) -> dict:
    """A vector of coefficient dicts over the base ring C, as BaseElements."""
    return {k: BaseElement(C, c) for k, c in vec.items()}


def _vadd(out: dict, key, val) -> None:
    s = out.get(key)
    s = val if s is None else s + val
    if s.is_zero:
        out.pop(key, None)
    else:
        out[key] = s


def _vec_add(field: Field, a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for i, c in b.items():
        s = field.add(out.get(i, field.zero()), c)
        if field.is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def _vec_scale(field: Field, c, a: Vec) -> Vec:
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in a.items()}


def _counit_of(H, a: Vec):
    K = H.field
    acc = K.zero()
    for i, c in a.items():
        acc = K.add(acc, K.mul(c, H.counit.get(i, K.zero())))
    return acc


def _unit_tensor(A) -> dict:
    out: dict = {}
    for i, c in elements(A.base, A.unit).items():
        for k, u in A.hopf.unit.items():
            _vadd(out, (i, k), c * A.base.from_scalar(u))
    return out


# ---- vector operations on basis vectors, as the library had them


def _h_mul_vec(H, a: Vec, b: Vec) -> Vec:
    K = H.field
    out: Vec = {}
    for i, ca in a.items():
        for j, cb in b.items():
            sc = H.mult.get((i, j))
            if not sc:
                continue
            c = K.mul(ca, cb)
            for l, m in sc.items():
                s = K.add(out.get(l, K.zero()), K.mul(c, m))
                if K.is_zero(s):
                    out.pop(l, None)
                else:
                    out[l] = s
    return out


def _h_comult_vec(H, a: Vec) -> dict:
    K = H.field
    out: dict = {}
    for i, c in a.items():
        for jk, m in H.comult.get(i, {}).items():
            s = K.add(out.get(jk, K.zero()), K.mul(c, m))
            if K.is_zero(s):
                out.pop(jk, None)
            else:
                out[jk] = s
    return out


def _h_tensor_mul(H, A: dict, B: dict) -> dict:
    K = H.field
    out: dict = {}
    for (i, j), ca in A.items():
        for (p, q), cb in B.items():
            left = H.mult.get((i, p))
            right = H.mult.get((j, q))
            if not left or not right:
                continue
            c = K.mul(ca, cb)
            for l, cl in left.items():
                for r, cr in right.items():
                    key = (l, r)
                    s = K.add(out.get(key, K.zero()), K.mul(c, K.mul(cl, cr)))
                    if K.is_zero(s):
                        out.pop(key, None)
                    else:
                        out[key] = s
    return out


def _h_antipode_matrix(H) -> list:
    """The dense d x d matrix with S(h_j) = sum_i M[i][j] h_i, read off the
    table {j: {i: c}}."""
    K, d = H.field, H.dim
    return [[H.antipode.get(j, {}).get(i, K.zero()) for j in range(d)] for i in range(d)]


def _h_antipode_vec(H, a: Vec) -> Vec:
    K = H.field
    out: Vec = {}
    for j, c in a.items():
        for i, m in H.antipode.get(j, {}).items():
            if K.is_zero(m):
                continue
            s = K.add(out.get(i, K.zero()), K.mul(c, m))
            if K.is_zero(s):
                out.pop(i, None)
            else:
                out[i] = s
    return out


def _h_basis(H, i: int) -> Vec:
    return {i: H.field.one()}


def _a_mul_vec(A, a: dict, b: dict) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            sc = A.mult.get((i, j))
            if not sc:
                continue
            c = ca * cb
            for l, m in elements(A.base, sc).items():
                _vadd(out, l, c * m)
    return out


def _a_coact_vec(A, a: dict) -> dict:
    out: dict = {}
    for i, c in a.items():
        for jk, m in elements(A.base, A.coaction.get(i, {})).items():
            _vadd(out, jk, c * m)
    return out


def _a_tensor_mul(A, X: dict, Y: dict) -> dict:
    out: dict = {}
    for (i, k), ca in X.items():
        for (j, l), cb in Y.items():
            am = A.mult.get((i, j))
            hm = A.hopf.mult.get((k, l))
            if not am or not hm:
                continue
            c = ca * cb
            for p, cp in elements(A.base, am).items():
                for q, cq in hm.items():
                    _vadd(out, (p, q), c * cp * A.base.from_scalar(cq))
    return out


def _a_basis(A, i: int) -> dict:
    return {i: A.base.one()}


def canonical_matrix(A) -> tuple:
    """Dense rows (l, k) as l*d + k of the matrix of a (x) b -> (a (x) 1) rho(b),
    columns (i, j) as i*n + j: each column is tensor_mul({(i, k): 1_H}, rho(a_j))."""
    n, d = A.dim, A.hopf.dim
    zero = A.base.zero()
    cols = []
    for i in range(n):
        left = {(i, k): A.base.from_scalar(u) for k, u in A.hopf.unit.items()}
        for j in range(n):
            col = [zero] * (n * d)
            for (l, k), c in _a_tensor_mul(A, left, _a_coact_vec(A, _a_basis(A, j))).items():
                col[l * d + k] = c
            cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(n * n)) for r in range(n * d))


def entries(A, M) -> tuple:
    """The dense matrix of the rows M of ``galois.canonical_matrix(A)``: a
    tuple of row tuples of BaseElements, one column per pair (i, j)."""
    C, ncols = A.base, A.dim ** 2
    return tuple(tuple(BaseElement(C, row.get(c, {})) for c in range(ncols)) for row in M)


def rows(A, M) -> list:
    """``entries`` as a list of row lists."""
    return [list(r) for r in entries(A, M)]


def verify_hopf(H) -> Report:
    """Re-check every Hopf axiom on basis elements; no structure is trusted."""
    K = H.field
    d = H.dim
    one = {i: c for i, c in H.unit.items() if not K.is_zero(c)}
    rep = Report(f"hopf axioms ({d}-dimensional over {K.name})")

    ok = True
    for i in range(d):
        e = _h_basis(H, i)
        if _h_mul_vec(H, H.unit, e) != e or _h_mul_vec(H, e, H.unit) != e:
            ok = rep.add("unit", False, f"fails on {H.labels[i]}")
            break
    else:
        rep.add("unit", True)

    for i in range(d):
        for j in range(d):
            ij = _h_mul_vec(H, _h_basis(H, i), _h_basis(H, j))
            for l in range(d):
                left = _h_mul_vec(H, ij, _h_basis(H, l))
                right = _h_mul_vec(H, _h_basis(H, i), _h_mul_vec(H, _h_basis(H, j), _h_basis(H, l)))
                if left != right:
                    rep.add("associativity", False,
                            f"({H.labels[i]}*{H.labels[j]})*{H.labels[l]}")
                    break
            else:
                continue
            break
        else:
            continue
        break
    else:
        rep.add("associativity", True)

    ok = True
    for i in range(d):
        t = _h_comult_vec(H, _h_basis(H, i))
        left: Vec = {}
        right: Vec = {}
        for (j, k), c in t.items():
            left = _vec_add(K, left, _vec_scale(K, K.mul(c, H.counit.get(j, K.zero())), _h_basis(H, k)))
            right = _vec_add(K, right, _vec_scale(K, K.mul(c, H.counit.get(k, K.zero())), _h_basis(H, j)))
        if left != _h_basis(H, i) or right != _h_basis(H, i):
            ok = rep.add("counit", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("counit", True)

    ok = True
    for i in range(d):
        t = _h_comult_vec(H, _h_basis(H, i))
        lhs: dict = {}
        rhs: dict = {}
        for (j, k), c in t.items():
            for (a, b), c2 in _h_comult_vec(H, _h_basis(H, j)).items():
                key = (a, b, k)
                s = K.add(lhs.get(key, K.zero()), K.mul(c, c2))
                if K.is_zero(s):
                    lhs.pop(key, None)
                else:
                    lhs[key] = s
            for (a, b), c2 in _h_comult_vec(H, _h_basis(H, k)).items():
                key = (j, a, b)
                s = K.add(rhs.get(key, K.zero()), K.mul(c, c2))
                if K.is_zero(s):
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        if lhs != rhs:
            ok = rep.add("coassociativity", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("coassociativity", True)

    ok = True
    if _h_comult_vec(H, H.unit) != _outer(K, one, one):
        ok = rep.add("comultiplication is unital", False, "Delta(1) != 1 (x) 1")
    if ok and not K.is_zero(K.sub(_counit_of(H, H.unit), K.one())):
        ok = rep.add("comultiplication is unital", False, "counit(1) != 1")
    if ok:
        rep.add("comultiplication is unital", True)

    ok = True
    for i in range(d):
        for j in range(d):
            prod = _h_mul_vec(H, _h_basis(H, i), _h_basis(H, j))
            lhs = _h_comult_vec(H, prod)
            rhs = _h_tensor_mul(H, _h_comult_vec(H, _h_basis(H, i)), _h_comult_vec(H, _h_basis(H, j)))
            if lhs != rhs:
                ok = rep.add("comultiplication is multiplicative", False,
                             f"Delta({H.labels[i]}*{H.labels[j]})")
                break
            eps = K.mul(H.counit.get(i, K.zero()), H.counit.get(j, K.zero()))
            if not K.is_zero(K.sub(_counit_of(H, prod), eps)):
                ok = rep.add("comultiplication is multiplicative", False,
                             f"counit({H.labels[i]}*{H.labels[j]})")
                break
        if not ok:
            break
    if ok:
        rep.add("comultiplication is multiplicative", True)

    ok = True
    for i in range(d):
        t = _h_comult_vec(H, _h_basis(H, i))
        left: Vec = {}
        right: Vec = {}
        for (j, k), c in t.items():
            left = _vec_add(K, left, _vec_scale(K, c, _h_mul_vec(H, _h_antipode_vec(H, _h_basis(H, j)), _h_basis(H, k))))
            right = _vec_add(K, right, _vec_scale(K, c, _h_mul_vec(H, _h_basis(H, j), _h_antipode_vec(H, _h_basis(H, k)))))
        expect = _vec_scale(K, H.counit.get(i, K.zero()), one)
        if left != expect or right != expect:
            ok = rep.add("antipode identity", False, f"fails on {H.labels[i]}")
            break
    if ok:
        rep.add("antipode identity", True)

    rep.add("antipode bijective", not K.is_zero(field_det(_h_antipode_matrix(H), K)))
    return rep


def _outer(field: Field, a: Vec, b: Vec) -> dict:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[(i, j)] = field.mul(ca, cb)
    return out


def verify_comodule_algebra(A) -> Report:
    rep = Report(f"comodule algebra (rank {A.dim} over {A.base!r})")
    n = A.dim

    ok = True
    for i in range(n):
        e = _a_basis(A, i)
        one = elements(A.base, A.unit)
        if _a_mul_vec(A, one, e) != e or _a_mul_vec(A, e, one) != e:
            ok = rep.add("unit", False, f"fails on {A.labels[i]}")
            break
    if ok:
        rep.add("unit", True)

    ok = True
    for i in range(n):
        for j in range(n):
            ij = _a_mul_vec(A, _a_basis(A, i), _a_basis(A, j))
            for l in range(n):
                left = _a_mul_vec(A, ij, _a_basis(A, l))
                right = _a_mul_vec(A, _a_basis(A, i), _a_mul_vec(A, _a_basis(A, j), _a_basis(A, l)))
                if left != right:
                    ok = rep.add("associativity", False,
                                 f"({A.labels[i]}*{A.labels[j]})*{A.labels[l]}")
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        rep.add("associativity", True)

    K = A.field
    H = A.hopf
    ok = True
    for i in range(n):
        t = _a_coact_vec(A, _a_basis(A, i))
        back: dict = {}
        for (j, k), c in t.items():
            eps = H.counit.get(k, K.zero())
            if not K.is_zero(eps):
                _vadd(back, j, c * A.base.from_scalar(eps))
        if back != _a_basis(A, i):
            ok = rep.add("coaction counit", False, f"fails on {A.labels[i]}")
            break
    if ok:
        rep.add("coaction counit", True)

    ok = True
    for i in range(n):
        t = _a_coact_vec(A, _a_basis(A, i))
        lhs: dict = {}
        rhs: dict = {}
        for (j, k), c in t.items():
            for (p, q), c2 in elements(A.base, A.coaction.get(j, {})).items():
                _vadd(lhs, (p, q, k), c * c2)
            for (a, b), c2 in H.comult.get(k, {}).items():
                _vadd(rhs, (j, a, b), c * A.base.from_scalar(c2))
        if lhs != rhs:
            ok = rep.add("coaction coassociativity", False, f"fails on {A.labels[i]}")
            break
    if ok:
        rep.add("coaction coassociativity", True)

    ok = True
    if _a_coact_vec(A, elements(A.base, A.unit)) != _unit_tensor(A):
        ok = rep.add("coaction respects product", False, "rho(1) != 1 (x) 1")
    if ok:
        for i in range(n):
            for j in range(n):
                prod = _a_mul_vec(A, _a_basis(A, i), _a_basis(A, j))
                lhs = _a_coact_vec(A, prod)
                rhs = _a_tensor_mul(A, _a_coact_vec(A, _a_basis(A, i)), _a_coact_vec(A, _a_basis(A, j)))
                if lhs != rhs:
                    ok = rep.add("coaction respects product", False,
                                 f"rho({A.labels[i]}*{A.labels[j]})")
                    break
            if not ok:
                break
    if ok:
        rep.add("coaction respects product", True)

    return rep


def solve_antipode(B) -> tuple:
    """The antipode matrix from sum S(h_(1)) h_(2) = counit(h) 1 for every
    basis element, one k-linear system in all d^2 unknowns S[p][i], then the
    right-sided identity on basis vectors; NoAntipodeError as the library."""
    K = B.field
    d = B.dim
    one = {i: c for i, c in B.unit.items() if not K.is_zero(c)}
    M = [{} for _ in range(d * d)]
    rhs = [K.zero()] * (d * d)
    for k in range(d):
        for (i, j), c in B.comult.get(k, {}).items():
            for p in range(d):
                for l, m in B.mult.get((p, j), {}).items():
                    row = M[k * d + l]
                    row[p * d + i] = K.add(row.get(p * d + i, K.zero()), K.mul(c, m))
        eps = B.counit.get(k, K.zero())
        for l, u in B.unit.items():
            rhs[k * d + l] = K.mul(eps, u)
    sol = field_solve(M, rhs, K)
    if sol is None:
        raise NoAntipodeError(
            "identity has no convolution inverse: this bialgebra is not a Hopf algebra")
    S = tuple(tuple(sol[p * d + i] for i in range(d)) for p in range(d))
    for i in range(d):
        right: Vec = {}
        for (j, k), c in _h_comult_vec(B, _h_basis(B, i)).items():
            Sk = {p: S[p][k] for p in range(d) if not K.is_zero(S[p][k])}
            right = _vec_add(K, right, _vec_scale(K, c, _h_mul_vec(B, _h_basis(B, j), Sk)))
        if right != _vec_scale(K, B.counit.get(i, K.zero()), one):
            raise NoAntipodeError(
                f"left convolution inverse fails the right-sided identity on {B.labels[i]}")
    return S


def _apply_matrix(M: list, v: dict) -> dict:
    """phi(a_j) = sum_i M[i][j] b_i applied to a coordinate vector."""
    out: dict = {}
    for j, c in v.items():
        for i, row in enumerate(M):
            if not row[j].is_zero:
                _vadd(out, i, c * row[j])
    return out


def _apply_matrix_left(M: list, t: dict) -> dict:
    """phi (x) id on an A (x) H tensor."""
    out: dict = {}
    for (j, k), c in t.items():
        for i, row in enumerate(M):
            if not row[j].is_zero:
                _vadd(out, (i, k), c * row[j])
    return out


def check_iso(A, B, M) -> Report:
    """The isomorphism certificate on every pair of basis elements; phi(1)
    is compared with the terms of 1_B that are not zero."""
    rep = Report("bundle isomorphism")
    if A.base != B.base:
        rep.add("same base ring", False, "base rings differ")
        return rep
    rep.add("same base ring", True)
    if A.hopf != B.hopf:
        rep.add("same Hopf algebra", False, "coacting Hopf algebras differ")
        return rep
    rep.add("same Hopf algebra", True)
    n = A.dim
    if B.dim != n or len(M) != n or any(len(row) != n for row in M):
        rep.add("matrix shape", False, "expected a square matrix of the common rank")
        return rep
    rep.add("matrix shape", True)
    det = BaseElement(A.base, ring_det([[e.coeffs for e in row] for row in M], A.base))
    if not A.base.is_unit(det):
        rep.add("invertible", False, f"determinant {A.base.format_element(det)} is not a unit")
        return rep
    rep.add("invertible", True)

    one_b = elements(B.base, B.unit)
    rep.add("preserves unit", _apply_matrix(M, elements(A.base, A.unit)) == one_b,
            "phi(1) != 1")
    L = A.labels
    phi = [_apply_matrix(M, _a_basis(A, i)) for i in range(n)]
    bad = next(((i, j) for i in range(n) for j in range(n)
                if _apply_matrix(M, _a_mul_vec(A, _a_basis(A, i), _a_basis(A, j)))
                != _a_mul_vec(B, phi[i], phi[j])), None)
    rep.add("preserves product", bad is None, "" if bad is None else
            f"phi({L[bad[0]]}*{L[bad[1]]}) != phi({L[bad[0]]})*phi({L[bad[1]]})")
    bad = next((i for i in range(n) if _a_coact_vec(B, phi[i])
                != _apply_matrix_left(M, _a_coact_vec(A, _a_basis(A, i)))), None)
    rep.add("equivariant", bad is None,
            "" if bad is None else f"coaction differs on phi({L[bad]})")
    return rep


# ------------------------------------------- the rank-4 family by rewriting

_WORDS = ("", "x", "y", "xy")
_WORD_INDEX = {w: i for i, w in enumerate(_WORDS)}


def _find_redex(word: str, leftmost: bool):
    rng = range(len(word) - 1)
    for i in (rng if leftmost else reversed(rng)):
        if word[i:i + 2] in ("xx", "yy", "yx"):
            return i
    return None


def reduce_word_combination(p, comb: dict, leftmost: bool = True) -> dict:
    """Normal form of a C-combination of words in x, y.

    Rules: xx -> alpha, yy -> beta, yx -> gamma * (empty) - xy.  Both
    strategies must agree; the default scans leftmost.
    """
    C = p.base
    out: dict = {}
    stack = list(comb.items())
    while stack:
        word, c = stack.pop()
        if c.is_zero:
            continue
        i = _find_redex(word, leftmost)
        if i is None:
            s = out.get(word, C.zero()) + c
            if s.is_zero:
                out.pop(word, None)
            else:
                out[word] = s
            continue
        pair = word[i:i + 2]
        rest = word[:i] + word[i + 2:]
        if pair == "xx":
            stack.append((rest, c * p.alpha))
        elif pair == "yy":
            stack.append((rest, c * p.beta))
        else:
            stack.append((rest, c * p.gamma))
            stack.append((word[:i] + "xy" + word[i + 2:], -c))
    return out


def abg_mult(p) -> dict:
    """The multiplication table of the rank-4 bundle of p, by rewriting."""
    one = p.base.one()
    return {(i, j): {_WORD_INDEX[w]: c
                     for w, c in reduce_word_combination(p, {wi + wj: one}).items()}
            for i, wi in enumerate(_WORDS) for j, wj in enumerate(_WORDS)}


def crossed_multiply(base, H, action, sigma, x: tuple, y: tuple) -> dict:
    """Product of simple tensors in the general crossed product.

    x = (c, g-vec), y = (d, h-vec); returns the coordinates (H-index to
    C-element) of (c (x) g)(d (x) h) with the three-fold comultiplication:

        sum c (g_(1) . d) sigma(g_(2), h_(1)) (x) g_(3) h_(2)

    action(k, d) must return the base element h_k . d.  The tests compare
    ``cleft.twisted_product`` with this formula under the trivial action,
    and exercise it under a genuine one.
    """
    K = H.field
    c, g = x
    dd, h = y
    out: dict = {}
    for a, cg in g.items():
        # Delta^2(h_a) as (r, s, q) components
        for (p, q), w1 in H.comult.get(a, {}).items():
            for (r, s), w2 in H.comult.get(p, {}).items():
                w_a = K.mul(cg, K.mul(w1, w2))
                acted = c * action(r, dd)
                for b, ch in h.items():
                    for (b1, b2), wb in H.comult.get(b, {}).items():
                        coeff = acted * sigma.sigma[s][b1]
                        w = base.from_scalar(K.mul(w_a, K.mul(ch, wb)))
                        for l, m in H.mult.get((q, b2), {}).items():
                            _vadd(out, l, w * coeff * base.from_scalar(m))
    return out


# ---- the Sweedler sums of a cleft bundle, on dense vectors


def dense(C, vec: dict, n: int) -> list:
    """A vector {i: coefficient dict} of rank n as a list of BaseElements."""
    return [BaseElement(C, vec[i]) if i in vec else C.zero() for i in range(n)]


def _dense_mul(A, x: list, y: list) -> list:
    """x y for dense vectors of A, entry by entry from the table."""
    C = A.base
    out = [C.zero()] * A.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for l, m in A.mult.get((i, j), {}).items():
                out[l] = out[l] + xi * yj * BaseElement(C, m)
    return out


def _dense_add_scaled(acc: list, w, v: list) -> list:
    return [s + w * e for s, e in zip(acc, v)]


def quasi_action(cm, c) -> list:
    """[h_k . c for every k] as dense vectors of A:
    h . c = sum gamma(h_(1)) (c 1_A) gamma'(h_(2))."""
    A = cm.algebra
    C, H, n = A.base, A.hopf, A.dim
    gamma = [dense(C, v, n) for v in cm.gamma.values]
    gamma_inv = [dense(C, v, n) for v in cm.gamma_inv.values]
    c1 = [c * u for u in dense(C, A.unit, n)]
    out = []
    for k in range(H.dim):
        acc = [C.zero()] * n
        for (i, j), w in H.comult.get(k, {}).items():
            acc = _dense_add_scaled(acc, C.from_scalar(w),
                                    _dense_mul(A, _dense_mul(A, gamma[i], c1), gamma_inv[j]))
        out.append(acc)
    return out


def cocycle_values(cm) -> list:
    """[[sigma(h_a, h_b) for b] for a] as dense vectors of A:
    sigma(g, h) = sum gamma(g_(1)) gamma(h_(1)) gamma'(g_(2) h_(2))."""
    A = cm.algebra
    C, H, n = A.base, A.hopf, A.dim
    K = H.field
    gamma = [dense(C, v, n) for v in cm.gamma.values]
    gamma_inv = [dense(C, v, n) for v in cm.gamma_inv.values]
    rows = []
    for a in range(H.dim):
        row = []
        for b in range(H.dim):
            acc = [C.zero()] * n
            for (a1, a2), ca in H.comult.get(a, {}).items():
                for (b1, b2), cb in H.comult.get(b, {}).items():
                    after = [C.zero()] * n  # gamma'(a2 b2)
                    for l, m in H.mult.get((a2, b2), {}).items():
                        after = _dense_add_scaled(after, C.from_scalar(m), gamma_inv[l])
                    acc = _dense_add_scaled(acc, C.from_scalar(K.mul(ca, cb)), _dense_mul(
                        A, _dense_mul(A, gamma[a1], gamma[b1]), after))
            row.append(acc)
        rows.append(row)
    return rows


def twisted_table(H, sigma) -> dict:
    """{(a, b): (1 (x) h_a)(1 (x) h_b) as a dense vector of C (x) H}:
    (1 (x) g)(1 (x) h) = sum sigma(g_(1), h_(1)) (x) g_(2) h_(2)."""
    C, K, d = sigma.base, H.field, H.dim
    table = {}
    for a in range(d):
        for b in range(d):
            acc = [C.zero()] * d
            for (a1, a2), ca in H.comult.get(a, {}).items():
                for (b1, b2), cb in H.comult.get(b, {}).items():
                    for l, m in H.mult.get((a2, b2), {}).items():
                        acc[l] = acc[l] + C.from_scalar(K.mul(K.mul(ca, cb), m)) * sigma.sigma[a1][b1]
            table[(a, b)] = acc
    return table
