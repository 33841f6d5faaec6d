"""Exact sparse polynomial arithmetic over the integers.

Polynomials live in Z[x_1, ..., x_n, t]: n ordinary variables plus one
distinguished parameter t that is never substituted implicitly.  Terms are
stored sparsely as a dict mapping exponent tuples (a_1, ..., a_n, k) -- the
x-exponents followed by the t-exponent -- to nonzero integer coefficients.
Instances are immutable by convention: no operation mutates its operands,
so values may be shared and memoized freely.

Multiplication packs each exponent tuple into one int, a fixed-width
unsigned field per exponent, so a monomial product is one int addition
(Monagan & Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2009).  The field width, 1, 2, 4 or 8 bytes, is chosen per
product to hold the largest exponent sum in any one field, so no field
can carry into its neighbour; a sum of 2**64 or more raises
ExponentOverflowError.  Storage stays tuples: permuting variables indexes
single exponents, which tuples do faster than packed ints, so only the
product and the quotient by the Vandermonde pack their keys, and unpack
the result.

Exact division is one algorithm for every divisor: long division along one
position v of the divisor, with coefficients in the other variables.  v is
the variable, x_i or t, whose top coefficient in the divisor has the fewest
terms (t for a constant divisor).  Each level of the dividend, its terms of
one degree in v, is divided by that top coefficient: by its integer when it
is a constant, term by term when it is one monomial, and by a recursive
exact division otherwise.  So x_i - x_j has top coefficient 1 in x_i, and a
polynomial in t alone has an integer top coefficient in t.  Only levels
that hold terms are visited, so a division that comes out exact costs in
proportion to the terms it meets, not to the size of the exponents.  One
that fails need not: by x_i - x_j it carries terms down one degree of x_i
at a time until a level below the divisor's is reached, so x_i^e fails
only after visiting every level from e down to 0.  Beside it,
divide_by_vandermonde runs the same long division by each factor
x_i - x_j, the pairs (i, j) in lexicographic order, on packed keys: it
packs the dividend once, moves each term with one int addition and
unpacks the quotient once, so it pays neither divide_exact's set-up per
divisor nor its rebuilding of a tuple per term.
A division that leaves a remainder raises NotDivisibleError; callers treat
that as a correctness probe and never catch it to paper over a failure.
"""

from __future__ import annotations

import heapq
import operator
import struct
from functools import lru_cache


class ArityMismatchError(ValueError):
    """Operands live in rings with different numbers of x-variables."""


class NotDivisibleError(ArithmeticError):
    """Exact division left a nonzero remainder."""


class ExponentOverflowError(ValueError):
    """A product would have an exponent of 2**64 or more, or a dividend of
    divide_by_vandermonde has a total x-degree or t-exponent that large."""


# struct codes of the unsigned field widths keys may pack at, in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _packing(fields, width):
    """Packed keys of ``fields`` unsigned big-endian fields of ``width``
    bytes, the first exponent in the highest field: a function taking
    (key, coefficient) pairs to a list of them on int keys, one taking such
    pairs back to a dict of terms, and the bits of one field."""
    layout = struct.Struct(f">{fields}{_FIELD_CODES[width]}")
    pack, unpack, size = layout.pack, layout.unpack, layout.size
    from_bytes = int.from_bytes

    def pack_terms(pairs):
        return [(from_bytes(pack(*k), "big"), c) for k, c in pairs]

    def unpack_terms(pairs):
        return {unpack(k.to_bytes(size, "big")): c for k, c in pairs}

    return pack_terms, unpack_terms, 8 * width


def _field_width(top):
    """Narrowest field width in bytes that holds exponents up to ``top``."""
    for width in _FIELD_CODES:
        if not top >> (8 * width):
            return width
    raise ExponentOverflowError(f"exponent sum {top} does not fit in 64 bits")


def _main_position(terms, arity):
    """The position to divide along and the divisor's degree in it: among
    the positions the divisor ``terms`` involve, the one whose top
    coefficient has the fewest terms; t (position ``arity``) for a
    constant."""
    best, main, degree = len(terms) + 1, arity, 0
    for position, column in enumerate(zip(*terms)):
        top = max(column)
        if top and column.count(top) < best:
            best, main, degree = column.count(top), position, top
    return main, degree


def _mover(delta):
    """A function taking exponent tuples to the list of them plus ``delta``.

    Divisors such as x_i - x_j and polynomials in t move one exponent per
    term: slicing that one field costs a third to a half less than adding
    whole tuples, and a delta of zero keeps the keys.
    """
    moved = [p for p, d in enumerate(delta) if d]
    if not moved:
        return list
    if len(moved) == 1:
        p = moved[0]
        d, q = delta[p], p + 1
        return lambda keys: [k[:p] + (k[p] + d,) + k[q:] for k in keys]
    return lambda keys: [tuple(map(operator.add, k, delta)) for k in keys]


def _level_divider(lead, v, arity):
    """A function dividing a level, a dict of terms of one degree in
    position v, by ``lead``, the divisor's terms of top degree in v; it
    raises NotDivisibleError when the quotient is not exact.

    A lead of several terms is divided by ``divide_exact`` itself: its
    terms differ outside v, so the recursion divides along another position
    whose top coefficient has fewer terms, and it ends at one term.
    """
    if len(lead) > 1:
        lead = Polynomial._raw(arity, lead)
        return lambda level: Polynomial._raw(arity, level).divide_exact(lead).terms
    ((key, c),) = lead.items()
    unmove = _mover(tuple(map(operator.neg, key)))
    # exponents can only go negative outside position v, where level >= lead
    check = sum(key) > key[v]

    def divide(level):
        keys = unmove(level)
        if check and min(map(min, keys)) < 0:
            raise NotDivisibleError("leading monomial does not divide")
        quotient = {}
        for k, a in zip(keys, level.values()):
            b, r = divmod(a, c)
            if r:
                raise NotDivisibleError("leading coefficient does not divide")
            quotient[k] = b
        return quotient

    return divide


def _key_permuter(images):
    """The map of exponent tuples under x_i |-> x_{w(i)}, for the one-line
    ``images`` of w, n >= 1: the exponent at position i moves to position
    w(i), and t stays last."""
    n = len(images)
    src = [0] * (n + 1)
    for i, img in enumerate(images):
        src[img - 1] = i
    src[n] = n
    return operator.itemgetter(*src)


def _checked_arity(arity):
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
        raise ValueError(f"arity must be a nonnegative integer, got {arity!r}")
    return arity


def _checked_coefficient(coeff):
    if not isinstance(coeff, int) or isinstance(coeff, bool):
        raise ValueError(f"coefficients must be integers, got {coeff!r}")
    return coeff


def _validated_terms(arity, terms):
    clean = {}
    for key, coeff in terms.items():
        key = tuple(key)
        if len(key) != arity + 1:
            raise ValueError(f"exponent tuple {key!r} does not match arity {arity}")
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in key):
            raise ValueError(f"exponents must be nonnegative integers, got {key!r}")
        if _checked_coefficient(coeff):
            clean[key] = clean.get(key, 0) + coeff
            if not clean[key]:
                del clean[key]
    return clean


class Polynomial:
    """Sparse integer polynomial in x_1..x_n and the parameter t."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        object.__setattr__(self, "arity", _checked_arity(arity))
        object.__setattr__(self, "terms", _validated_terms(arity, terms or {}))

    @classmethod
    def _raw(cls, arity, terms):
        """Trusted constructor: ``terms`` already canonical (no zero coefficients)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "arity", arity)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def zero(cls, arity):
        return cls._raw(_checked_arity(arity), {})

    @classmethod
    def constant(cls, arity, value):
        if not _checked_coefficient(value):
            return cls.zero(arity)
        return cls._raw(_checked_arity(arity), {(0,) * (arity + 1): value})

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    @classmethod
    def x(cls, arity, index):
        """The variable x_index (1-based)."""
        _checked_arity(arity)
        is_int = isinstance(index, int) and not isinstance(index, bool)
        if not (is_int and 1 <= index <= arity):
            raise ValueError(f"variable index {index} out of range 1..{arity}")
        key = [0] * (arity + 1)
        key[index - 1] = 1
        return cls._raw(arity, {tuple(key): 1})

    @classmethod
    def t(cls, arity):
        """The parameter t as an element of the arity-n ring."""
        return cls._raw(_checked_arity(arity), {(0,) * arity + (1,): 1})

    @classmethod
    def monomial(cls, arity, x_exponents, t_exponent=0, coeff=1):
        x_exponents = tuple(x_exponents)
        if len(x_exponents) != _checked_arity(arity):
            raise ArityMismatchError(
                f"{len(x_exponents)} x-exponents for arity {arity}"
            )
        return cls(arity, {x_exponents + (t_exponent,): coeff})

    # ------------------------------------------------------------------ #
    # basic queries

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------ #
    # ring operations

    def _coerce(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.arity, other)
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatchError(
                    f"arity {self.arity} vs {other.arity}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Polynomial._raw(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.arity)
            return Polynomial._raw(
                self.arity, {k: c * other for k, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero(self.arity)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        # Packed keys (see the module docstring): fields wide enough for the
        # largest exponent sum in any field, so ka + kb never carries.
        top = max(map(operator.add, map(max, zip(*a)), map(max, zip(*b))))
        pack, unpack, _ = _packing(self.arity + 1, _field_width(top))
        packed_a = pack(a.items())
        out = {}
        get = out.get
        for kb, cb in pack(b.items()):
            for ka, ca in packed_a:
                key = ka + kb
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._raw(self.arity, unpack(out.items()))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.one(self.arity)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # ------------------------------------------------------------------ #
    # variable permutation, substitution, evaluation, embedding

    def permute_vars(self, w):
        """Apply x_i |-> x_{w(i)}; ``w`` is a Permutation of degree arity."""
        images = w.images
        n = self.arity
        if len(images) != n:
            raise ArityMismatchError(
                f"permutation degree {len(images)} vs arity {n}"
            )
        if n == 0:
            return self
        image_of = _key_permuter(images)
        return Polynomial._raw(
            n, {image_of(key): c for key, c in self.terms.items()}
        )

    def substitute_t(self, value):
        """Substitute an integer for t."""
        n = self.arity
        out = {}
        for key, c in self.terms.items():
            nc = c * value ** key[n]
            if not nc:
                continue
            key0 = key[:n] + (0,)
            s = out.get(key0, 0) + nc
            if s:
                out[key0] = s
            else:
                del out[key0]
        return Polynomial._raw(n, out)

    def eval_at(self, point, t_value):
        """Evaluate at integer x-values ``point`` and integer ``t_value``."""
        point = tuple(point)
        n = self.arity
        if len(point) != n:
            raise ArityMismatchError(f"{len(point)} values for arity {n}")
        total = 0
        for key, c in self.terms.items():
            v = c
            for base, e in zip(point, key):
                if e:
                    v *= base ** e
            if key[n]:
                v *= t_value ** key[n]
            total += v
        return total

    def embed(self, arity, offset=0):
        """Reinterpret in a larger ring, x_i |-> x_{i+offset}; t is shared."""
        n = self.arity
        if offset < 0 or offset + n > arity:
            raise ArityMismatchError(
                f"cannot embed arity {n} at offset {offset} into arity {arity}"
            )
        pre = (0,) * offset
        post = (0,) * (arity - offset - n)
        out = {}
        for key, c in self.terms.items():
            out[pre + key[:n] + post + (key[n],)] = c
        return Polynomial._raw(arity, out)

    # ------------------------------------------------------------------ #
    # exact division

    def divide_exact(self, divisor):
        """Exact quotient self/divisor; raises NotDivisibleError on remainder.

        Long division along one position v of the divisor (see the module
        docstring).  The dividend's terms are kept in levels by their
        exponent in v.  The top level is divided by the divisor's top
        coefficient, and that quotient times the rest of the divisor is
        taken off the lower levels; a level left below the divisor's degree
        in v is a remainder.  An exact quotient costs in proportion to the
        terms met; a failing one may walk every level of v down to the
        remainder's, which for x_i - x_j can be every degree of x_i.
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("divisor must be a Polynomial or int")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        n = self.arity
        v, top = _main_position(divisor.terms, n)
        lead, tail = {}, []
        for key, c in divisor.terms.items():
            if key[v] == top:
                lead[key] = c
            else:
                tail.append((key[v] - top, _mover(key), -c))
        divide_level = _level_divider(lead, v, n)
        levels = {}
        for key, c in self.terms.items():
            levels.setdefault(key[v], {})[key] = c
        heap = [-k for k in levels]
        heapq.heapify(heap)
        quotient = {}
        while heap:
            k = -heapq.heappop(heap)
            level = levels.pop(k)
            if not level:
                continue
            if k < top:
                name = "t" if v == n else f"x{v + 1}"
                raise NotDivisibleError(f"remainder of degree {k} in {name}")
            q = divide_level(level)
            quotient.update(q)
            for offset, move, c in tail:
                below = k + offset
                target = levels.get(below)
                if target is None:
                    target = levels[below] = {}
                    heapq.heappush(heap, -below)
                for key, qc in zip(move(q), q.values()):
                    s = target.get(key, 0) + c * qc
                    if s:
                        target[key] = s
                    else:
                        del target[key]
        return Polynomial._raw(n, quotient)

    # ------------------------------------------------------------------ #
    # serialization

    def sorted_terms(self):
        """Terms in canonical order: graded-lex descending on x, then t ascending."""
        n = self.arity
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                -sum(kv[0][:n]),
                tuple(-e for e in kv[0][:n]),
                kv[0][n],
            ),
        )

    def to_text(self):
        if not self.terms:
            return "0"
        n = self.arity
        pieces = []
        for key, c in self.sorted_terms():
            xs = [f"x{i + 1}^{e}" for i, e in enumerate(key[:n]) if e]
            k = key[n]
            if not xs:
                if not k:
                    pieces.append(str(c))
                else:
                    tpart = "t" if k == 1 else f"t^{k}"
                    if c == 1:
                        pieces.append(tpart)
                    elif c == -1:
                        pieces.append("-" + tpart)
                    else:
                        pieces.append(f"{c}*{tpart}")
            else:
                body = f"{c} * " + " ".join(xs)
                if k:
                    body += f" * t^{k}"
                pieces.append(body)
        return " + ".join(pieces)

    __str__ = to_text

    def __repr__(self):
        return f"Polynomial({self.arity}, {self.to_text()!r})"

    def to_latex(self):
        if not self.terms:
            return "0"
        n = self.arity
        pieces = []
        for key, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(key[:n]):
                if e == 1:
                    factors.append(f"x_{{{i + 1}}}")
                elif e:
                    factors.append(f"x_{{{i + 1}}}^{{{e}}}")
            k = key[n]
            if k == 1:
                factors.append("t")
            elif k:
                factors.append(f"t^{{{k}}}")
            mag = abs(c)
            if factors:
                body = " ".join(factors)
                if mag != 1:
                    body = f"{mag} {body}"
            else:
                body = str(mag)
            pieces.append((c < 0, body))
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def to_json_terms(self):
        n = self.arity
        return [
            {"coeff": c, "x_exponents": list(key[:n]), "t_exponent": key[n]}
            for key, c in self.sorted_terms()
        ]


# ---------------------------------------------------------------------- #
# module-level helpers


def divide_by_vandermonde(p):
    """Exact quotient p / prod_{i<j}(x_i - x_j): one exact division by each
    factor x_i - x_j, the pairs (i, j) in lexicographic order, on packed
    keys.

    The terms are packed once (see the module docstring) and the quotient
    unpacked once.  The field width holds p's largest total x-degree, or
    its largest t-exponent if that is larger: a division only lowers the
    degree, and each term it carries moves one degree from x_i to x_j, so
    no field of any intermediate term outgrows it.  A total x-degree or
    t-exponent of 2**64 or more raises ExponentOverflowError, as a product
    does.

    Each division is divide_exact's long division along x_i, where x_i -
    x_j has top coefficient 1.  Taken from the top degree in x_i down, the
    terms of degree d >= 1 are the quotient's terms of degree d - 1, and
    each carries its product with x_j / x_i into degree d - 1.  A level of
    one degree holds its keys with the x_i field cleared, so it becomes the
    quotient's level unchanged, and a carry is one int addition.  Only
    levels that hold terms are visited.  So a failing pair (i, j) raises
    NotDivisibleError("remainder of degree 0 in x{i}"), the remainder being
    the quotient so far at x_i := x_j.  The x_i - x_j are pairwise
    non-associate primes, so that quotient vanishes on x_i = x_j exactly
    when p does: the first failing pair is the first (i, j) in that order
    on whose hyperplane x_i = x_j p does not vanish.
    """
    n, terms = p.arity, p.terms
    if n < 2 or not terms:
        return p
    top = max(max(sum(k[:n]) for k in terms), max(k[n] for k in terms))
    pack, unpack, bits = _packing(n + 1, _field_width(top))
    mask = (1 << bits) - 1
    packed = pack(terms.items())
    for i in range(1, n):
        # x_i is field i - 1, counted from the highest of the n + 1 fields;
        # the levels along x_i serve every pair (i, j) and are joined after
        shift = bits * (n + 1 - i)
        levels = {}
        for k, c in packed:
            d = (k >> shift) & mask
            levels.setdefault(d, {})[k - (d << shift)] = c
        for j in range(i + 1, n + 1):
            x_j = 1 << bits * (n + 1 - j)
            heap = [-d for d in levels]
            heapq.heapify(heap)
            quotient = {}
            while heap:
                d = -heapq.heappop(heap)
                level = levels.pop(d)
                if not level:
                    continue
                if not d:
                    raise NotDivisibleError(f"remainder of degree 0 in x{i}")
                below = levels.get(d - 1)
                if below is None:
                    below = levels[d - 1] = {}
                    heapq.heappush(heap, 1 - d)
                get = below.get
                for k, c in level.items():
                    k += x_j
                    s = get(k, 0) + c
                    if s:
                        below[k] = s
                    else:
                        del below[k]
                quotient[d - 1] = level
            levels = quotient
        packed = [
            (k + (d << shift), c)
            for d, level in levels.items()
            for k, c in level.items()
        ]
    return Polynomial._raw(n, unpack(packed))


def _linear_factor(arity, i, j, c):
    """x_i - c x_j for 1-based indices, built from its terms: x_i, and each
    term of c moved by x_j with its sign flipped."""
    key = [0] * (arity + 1)
    key[i - 1] = 1
    terms = {tuple(key): 1}
    c_terms = c.terms if isinstance(c, Polynomial) else {(0,) * (arity + 1): c}
    for k, coeff in c_terms.items():
        k = k[: j - 1] + (k[j - 1] + 1,) + k[j:]
        s = terms.get(k, 0) - coeff
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)
    return Polynomial._raw(arity, terms)


def linear_factor_product(arity, pairs, c):
    """prod (x_i - c x_j) over the given 1-based index pairs (i, j); ``c`` is
    an int or Polynomial.t(arity)."""
    out = Polynomial.one(arity)
    for i, j in pairs:
        out = out * _linear_factor(arity, i, j, c)
    return out
