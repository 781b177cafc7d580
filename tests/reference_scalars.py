"""Reference scalar parser for the differential tests.

This is the scalar expression evaluator as the library had it before scalars
were read through ``BaseRing.parse_element``: its own ``ast`` walker over a
``Field``, with its own exponent cap and no work budget.  Only the field
arithmetic and the digit-limit check are shared with the library.
``reference_parse(field, text)`` strips the field's annotation the way
``Field.parse`` does, then evaluates the rest.  ``random_scalar`` draws a
scalar of a field for the seeded tests.
"""

import ast
import re

from hopfgal.errors import BadScalarError
from hopfgal.fields import Field, PrimeField, RationalField, SimpleExtension, check_digits

MAX_POWER = 256


def random_scalar(field: Field, rng, size: int = 9):
    """A scalar of field drawn with rng: over Q a fraction of integers in
    [-size, size] and [1, size], over F_p a residue, over an extension one
    draw from the base field per coordinate."""
    if isinstance(field, RationalField):
        num, den = rng.randint(-size, size), rng.randint(1, size)
        return num // den if num % den == 0 else field.fraction(num, den)
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    if isinstance(field, SimpleExtension):
        return tuple(random_scalar(field.base, rng, size) for _ in range(field.degree))
    raise NotImplementedError(f"no random scalars of {field!r}")


def reference_parse(field: Field, text: str):
    names = {}
    if isinstance(field, PrimeField):
        m = re.fullmatch(r"(.*?)\s+mod\s+(\d+)", text.strip())
        if m:
            if int(m.group(2)) != field.p:
                raise BadScalarError(f"scalar {text!r} declares modulus {m.group(2)}")
            text = m.group(1)
    if isinstance(field, SimpleExtension):
        m = re.fullmatch(r"(.*?)\s+in\s+(\S+)", text.strip())
        if m:
            if m.group(2) != field.name:
                raise BadScalarError(f"scalar {text!r} declares field {m.group(2)}")
            text = m.group(1)
        names = {field.var: field.gen()}
    return _eval_scalar(field, text, names)


def _exponent(node) -> int:
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if not (isinstance(node, ast.Constant) and isinstance(node.value, int)):
        raise BadScalarError("exponent must be an integer literal")
    return sign * node.value


def _check_power(e: int, room: int, grows: bool):
    if grows and abs(e) > room:
        raise BadScalarError(f"exponent {e} exceeds the exponent cap {MAX_POWER}")


def _eval_scalar(field: Field, text: str, names: dict):
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
        value = _eval_node(field, tree.body, names)
    except SyntaxError as exc:
        raise BadScalarError(f"cannot parse scalar {text!r}: {exc.msg}") from None
    except ZeroDivisionError:
        raise BadScalarError(f"division by zero in scalar {text!r}") from None
    except RecursionError:
        raise BadScalarError("scalar nests too deeply to parse") from None
    check_digits(field, (value,), text)
    return value


def _eval_node(field: Field, node, names, room=MAX_POWER):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return field.from_int(node.value)
        raise BadScalarError(f"non-integer literal {node.value!r} in scalar")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise BadScalarError(f"unknown name {node.id!r} in scalar")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(field, node.operand, names, room)
        return field.neg(v) if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            e = _exponent(node.right)
            base = _eval_node(field, node.left, names, room // max(abs(e), 1))
            _check_power(e, room, not field.is_finite() and base not in (
                field.zero(), field.one(), field.neg(field.one())))
            return field.pow(base, e)
        a = _eval_node(field, node.left, names, room)
        b = _eval_node(field, node.right, names, room)
        if isinstance(node.op, ast.Add):
            return field.add(a, b)
        if isinstance(node.op, ast.Sub):
            return field.sub(a, b)
        if isinstance(node.op, ast.Mult):
            return field.mul(a, b)
        if isinstance(node.op, ast.Div):
            return field.div(a, b)
    raise BadScalarError(f"unsupported syntax in scalar expression: {ast.dump(node)}")
