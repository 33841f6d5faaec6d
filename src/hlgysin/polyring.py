"""Exact sparse polynomial arithmetic over the integers.

Polynomials live in Z[x_1, ..., x_n, t]: n ordinary variables plus one
distinguished parameter t that is never substituted implicitly.  Terms are
stored sparsely as a dict mapping exponent tuples (a_1, ..., a_n, k) -- the
x-exponents followed by the t-exponent -- to nonzero integer coefficients.
Instances are immutable by convention: no operation mutates its operands,
so values may be shared and memoized freely.

Multiplication is the plain sparse product: each pair of terms adds its
exponent tuples and multiplies its coefficients into one dict.  Exponents
are Python ints, so no product overflows.  The package's products are
small, about a dozen term pairs each, too few to repay packing keys into
ints; only divide_by_vandermonde, which moves every term of a large
dividend once per factor, packs its keys.

Exact division is the textbook long division by the divisor's leading
term, its largest in the lexicographic order of exponent tuples (x_1
first, t last).  The largest term left of the dividend must be a multiple
of the leading term, monomial and coefficient; that multiple joins the
quotient, and its product with the divisor's other terms, all smaller, is
taken off what is left.  The order is a well-order that multiplication
keeps, so each step removes the largest term and adds only smaller ones,
and an exact division costs in proportion to the terms it meets, not to
the size of the exponents.  A failing one need not: by x_i - x_j, whose
leading term is x_i, x_i^e carries one term down one degree of x_i per
step, so it fails only after e steps.  Beside it, divide_by_vandermonde
runs the same division by each factor x_i - x_j on packed keys, so it
pays neither divide_exact's set-up per divisor nor a new tuple per term.
A division that leaves a remainder raises NotDivisibleError; callers treat
that as a correctness probe and never catch it to paper over a failure.

The engine holds each orbit's coefficient, a polynomial in t, as one int:
its value at t = 2**B (Kronecker substitution).  _packed_t chooses B from
a bound, proved in its docstring, on what a computation reads back or
compares, and _pack and _unpack convert.

Every module checks its integer input with two helpers defined here:
_checked_int refuses a value whose type is not int (so a bool) or, when
asked, one below 0 or 1, and _checked_ints each entry of an iterable; both
raise a ValueError naming the field and the value.  Two more helpers are
shared the same way: _inversions, the inversion count behind every sign,
and _norm, the norm ||f|| in which _packed_t states its bounds.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import struct


class ArityMismatchError(ValueError):
    """Operands live in rings with different numbers of x-variables."""


class NotDivisibleError(ArithmeticError):
    """Exact division left a nonzero remainder."""


class ExponentOverflowError(ValueError):
    """A dividend of divide_by_vandermonde has a total x-degree or a
    t-exponent of 2**64 or more, too large for its widest packed field."""


# struct codes of the unsigned field widths keys may pack at, in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_width(top):
    """Narrowest field width in bytes that holds exponents up to ``top``."""
    for width in _FIELD_CODES:
        if not top >> (8 * width):
            return width
    raise ExponentOverflowError(f"total x-degree or t-exponent {top} does not fit in 64 bits")


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


# the word for each lower bound _checked_int and _checked_ints may impose
_AT_LEAST = {0: "nonnegative", 1: "positive"}


def _checked_int(value, name, least=None):
    """value, refused with a ValueError naming it unless its type is int
    (so not a bool) and, when ``least`` is 0 or 1, it is at least
    ``least``.  The one integer check of the package, with _checked_ints."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {_AT_LEAST[least]}")
    return value


def _checked_ints(values, name, least=0):
    """values as a tuple, refused with a ValueError naming them unless they
    are iterable and each entry passes _checked_int with ``least`` (None, 0
    or 1).  The plain loop is measured: on the package's tuples of up to 8
    entries it is faster than a type test at C level, set(map(type, ...)),
    which builds two objects per call."""
    try:
        values = tuple(values)
    except TypeError:
        pass
    else:
        for v in values:
            if type(v) is not int or least is not None and v < least:
                break
        else:
            return values
    kind = "integers" if least is None else f"{_AT_LEAST[least]} integers"
    raise ValueError(f"{name} must be {kind}: {values!r}")


def _inversions(seq):
    """The number of pairs i < j with seq[i] > seq[j]."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(seq, 2)))


def _validated_terms(arity, terms):
    clean = {}
    for key, coeff in terms.items():
        key = _checked_ints(key, "exponents")
        if len(key) != arity + 1:
            raise ValueError(f"exponent tuple {key!r} does not match arity {arity}")
        if _checked_int(coeff, "coefficient"):
            clean[key] = clean.get(key, 0) + coeff
            if not clean[key]:
                del clean[key]
    return clean


class Polynomial:
    """Sparse integer polynomial in x_1..x_n and the parameter t."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        object.__setattr__(self, "arity", _checked_int(arity, "arity", 0))
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
        return cls._raw(_checked_int(arity, "arity", 0), {})

    @classmethod
    def constant(cls, arity, value):
        if not _checked_int(value, "coefficient"):
            return cls.zero(arity)
        return cls._raw(_checked_int(arity, "arity", 0), {(0,) * (arity + 1): value})

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    @classmethod
    def x(cls, arity, index):
        """The variable x_index (1-based)."""
        _checked_int(arity, "arity", 0)
        if not 1 <= _checked_int(index, "variable index") <= arity:
            raise ValueError(f"variable index {index} out of range 1..{arity}")
        key = [0] * (arity + 1)
        key[index - 1] = 1
        return cls._raw(arity, {tuple(key): 1})

    @classmethod
    def t(cls, arity):
        """The parameter t as an element of the arity-n ring."""
        return cls._raw(_checked_int(arity, "arity", 0), {(0,) * arity + (1,): 1})

    @classmethod
    def monomial(cls, arity, x_exponents, t_exponent=0, coeff=1):
        x_exponents = _checked_ints(x_exponents, "exponents")
        if len(x_exponents) != _checked_int(arity, "arity", 0):
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
            if not _checked_int(other, "coefficient"):
                return Polynomial.zero(self.arity)
            return Polynomial._raw(
                self.arity, {k: c * other for k, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        add = operator.add
        out = {}
        get = out.get
        for kb, cb in other.terms.items():
            for ka, ca in self.terms.items():
                key = tuple(map(add, ka, kb))
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._raw(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        out = Polynomial.one(self.arity)
        base = self
        e = _checked_int(exponent, "exponent", 0)
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
        _checked_int(value, "t")
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
        point = _checked_ints(point, "point", None)
        n = self.arity
        if len(point) != n:
            raise ArityMismatchError(f"{len(point)} values for arity {n}")
        _checked_int(t_value, "t")
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
        _checked_int(arity, "arity", 0)
        if _checked_int(offset, "offset") < 0 or offset + n > arity:
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

        Long division by the divisor's lexicographically largest term (see
        the module docstring).  A term left over that this leading term does
        not divide names the first position where its exponent falls short,
        "remainder of degree k in x_i" or "in t", or else says "leading
        coefficient does not divide".
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("divisor must be a Polynomial or int")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        n = self.arity
        lead, c = max(divisor.terms.items())
        neg_lead = tuple(map(operator.neg, lead))
        # What is left of the dividend is held on negated keys, so that a heap
        # of them pops the largest term first; a zero stays where terms cancel.
        # The quotient's term x^q of a key is x^(-key - lead), and its product
        # with a term x^k of the tail has the negated key key + (lead - k).
        tail = [
            (tuple(map(operator.sub, lead, k)), -a)
            for k, a in divisor.terms.items()
            if k != lead
        ]
        left = {tuple(map(operator.neg, k)): a for k, a in self.terms.items()}
        heap = list(left)
        heapq.heapify(heap)
        quotient = {}
        while heap:
            key = heapq.heappop(heap)
            a = left.pop(key)
            if not a:
                continue
            q = tuple(map(operator.sub, neg_lead, key))
            if min(q) < 0:
                v = next(v for v, e in enumerate(q) if e < 0)
                name = "t" if v == n else f"x{v + 1}"
                raise NotDivisibleError(f"remainder of degree {-key[v]} in {name}")
            b, r = divmod(a, c)
            if r:
                raise NotDivisibleError("leading coefficient does not divide")
            quotient[q] = b
            for shift, d in tail:
                k = tuple(map(operator.add, key, shift))
                if k in left:
                    left[k] += b * d
                else:
                    left[k] = b * d
                    heapq.heappush(heap, k)
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

    Each exponent tuple is packed once into one int, a fixed-width unsigned
    field per exponent (Monagan & Pearce, "Sparse polynomial multiplication
    and division in Maple 14", 2009), and the quotient unpacked once.  The
    field width, 1, 2, 4 or 8 bytes, holds p's largest total x-degree, or
    its largest t-exponent if that is larger: a division only lowers the
    degree, and each term it carries moves one degree from x_i to x_j, so
    no field of any intermediate term outgrows it or carries into its
    neighbour.  A total x-degree or t-exponent of 2**64 or more raises
    ExponentOverflowError.

    Each division is divide_exact's long division by x_i - x_j, whose
    leading term x_i divides every term of positive degree in x_i.  Taken
    from the top degree in x_i down, the terms of degree d >= 1 are the
    quotient's terms of degree d - 1, and each carries its product with
    x_j / x_i into degree d - 1.  A level of one degree holds its keys with
    the x_i field cleared, so it becomes the quotient's level unchanged,
    and a carry is one int addition.  Only levels that hold terms are
    visited.  So a failing pair (i, j) raises NotDivisibleError("remainder
    of degree 0 in x{i}"), the remainder being the quotient so far at
    x_i := x_j.  The x_i - x_j are pairwise non-associate primes, so that
    quotient vanishes on x_i = x_j exactly when p does: the first failing
    pair is the first (i, j) in that order on whose hyperplane x_i = x_j p
    does not vanish.
    """
    n, terms = p.arity, p.terms
    if n < 2 or not terms:
        return p
    top = max(max(sum(k[:n]) for k in terms), max(k[n] for k in terms))
    # n + 1 unsigned big-endian fields, x_1 in the highest and t in the lowest
    width = _field_width(top)
    layout = struct.Struct(f">{n + 1}{_FIELD_CODES[width]}")
    pack, unpack, size = layout.pack, layout.unpack, layout.size
    bits = 8 * width
    mask = (1 << bits) - 1
    packed = [(int.from_bytes(pack(*k), "big"), c) for k, c in terms.items()]
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
    return Polynomial._raw(
        n, {unpack(k.to_bytes(size, "big")): c for k, c in packed}
    )


def linear_factor_product(arity, pairs, c):
    """prod (x_i - c x_j) over the given 1-based index pairs (i, j); ``c`` is
    an int or Polynomial.t(arity)."""
    out = Polynomial.one(arity)
    for i, j in pairs:
        out = out * (Polynomial.x(arity, i) - c * Polynomial.x(arity, j))
    return out


# ---------------------------------------------------------------------- #
# Polynomials in t packed into one int (Kronecker substitution)


def _packed_t(bound):
    """The packed t that certifies ``bound``: 2**B for the least multiple B
    of 64 with bound < 2**(B - 1).

    The engine holds each orbit's polynomial f(t) as the int f(c), c the
    packed t (Kronecker substitution; Harvey, J. Symbolic Comput. 44,
    2009).  Evaluation is a ring map, so sums and products of packed values
    are exact for any B, and a packed 0 may be dropped.  Reading f back
    (_unpack, balanced digits in [-2**(B-1), 2**(B-1))) is exact when every
    coefficient of f has absolute value below 2**(B-1).  Two such f and g
    have f(c) = g(c) only if f = g: the lowest nonzero coefficient d of
    f - g, at t^e, has 0 < |d| < 2**B, so (f - g)(c) = c^e (d + c * ...)
    is not 0.  A computation is therefore exact once ``bound`` bounds every
    coefficient it reads back or compares.  A bound that reaches 2**(B-1)
    takes the next B; nothing is truncated.  Calls of similar size share a
    B, and with it the rows' cache.

    The bounds.  ||f|| is the sum of the absolute values of the
    coefficients of f in Z[t][x_1..x_n], over every x-monomial and
    t-exponent; ||f g|| <= ||f|| ||g||, and each orbit's polynomial in t,
    and each of its coefficients, is at most ||f||.

    * Push-forward (_pushforward_bound).  Along a split into blocks b of
      sizes s_b, with delta_b = (s_b - 1, ..., 0) on b, A = sum_w sign(w) w
      and Delta the Vandermonde, push(f) = A(f prod_b x_b^delta_b) / Delta
      for f symmetric in each block.  The coset sum is
      A(f prod_b Delta_b) / (Delta prod_b s_b!), and Delta_b =
      sum_u sign(u) u(x_b^delta_b), u over the permutations of b, which fix
      f, so A(f prod_b Delta_b) = prod_b s_b! A(f prod_b x_b^delta_b).
      A(x^beta) / Delta is 0 or +-s_mu with |mu| = |beta| - n(n-1)/2, and
      s_mu has positive coefficients summing to s_mu(1, ..., 1) <= n^|mu|,
      the fillings of mu with 1..n.  So for f of x-degree at most d, with k
      cross-block pairs, ||push(f)|| <= ||f|| n^(d - k).
    * R_seq is the full flag's push-forward of x^seq prod_{i<j}
      (x_i - t x_j), 2^(n(n-1)/2) products of one term per factor, each
      +-1: ||R_seq|| <= 2^(n(n-1)/2) n^|seq|.  A Grassmann row pushes
      forward prod_{i<=q<j} (x_i - c x_j) A(Q) B(S), c in {t, -1, 0}:
      ||row|| <= 2^(qr) ||A|| ||B|| n^(deg A + deg B).
    * Division by a t-factorial.  If f = [m]_t h in Z[t], m >= 2 and
      deg f <= D, then (1 - t) f = (1 - t^m) h, so h_k is the sum of the
      coefficients g_(k - jm), j >= 0, of g = (1 - t) f, and
      deg h <= D - m + 1: each coefficient of g is counted at most
      floor((D + 1) / m) times, and ||h|| <= 2 floor((D + 1) / m) ||f||.
      P_seq = R_seq / v_seq(t) divides each orbit's polynomial by each
      factor [m]_t of v_seq in turn, each step within degree D
      (hallittlewood._quotient_bound).
    """
    bits = 64
    while 1 << (bits - 1) <= bound:
        bits += 64
    return 1 << bits


def _pushforward_bound(norm, n, degree, crossings):
    """||push(f)|| <= norm * n^(degree - crossings) for f symmetric in each
    block of a split of x_1..x_n with ``crossings`` cross-block pairs,
    ||f|| <= norm and x-degree at most ``degree`` (proved in _packed_t)."""
    return norm * n ** max(degree - crossings, 0)


def _norm(p):
    """||p||, the sum of the absolute values of the coefficients of p."""
    return sum(map(abs, p.terms.values()))


def _pack(terms, c):
    """The value at t = c of the arity-0 polynomial with these terms, a dict
    from (t-exponent,) to integer, by Horner's rule."""
    v = 0
    for e in range(max(terms, default=(0,))[0], -1, -1):
        v = v * c + terms.get((e,), 0)
    return v


def _unpack(v, c):
    """The terms of the arity-0 polynomial whose value at t = c is v.  At
    the packed t c = 2**B the digits are balanced, in [-2**(B-1),
    2**(B-1)), exact when every coefficient lies in that range
    (_packed_t).  At c = 0 and c = -1 a coefficient carries no t."""
    if c < 2:
        return {(0,): v} if v else {}
    bits, mask, half = c.bit_length() - 1, c - 1, c >> 1
    out = {}
    e = 0
    while v:
        d = v & mask
        if d >= half:
            d -= c
        if d:
            out[(e,)] = d
        v = (v - d) >> bits
        e += 1
    return out
