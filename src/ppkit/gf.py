"""Arithmetic in F_p and F_{p^m}, and the arithmetic core shared with towers.

Elements are represented by their integer encoding enc(x) = sum coeffs[i] * p^i,
a bijection onto [0, q).  The modulus is always the least monic irreducible of
degree m under that encoding, so two processes constructing the same (p, m)
agree bit for bit.  The vector arithmetic of every context comes from
log/antilog vectors of its least primitive element.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import (
    DegreeTooLarge,
    DivisionByZero,
    InvalidConfig,
    InvalidParam,
    InvalidSubfield,
    MixedContexts,
    NoIrreducibleFound,
    NotPrime,
    PPKitError,
)

DEFAULT_MAX_Q = 2**16

# the images of one block of ArithCtx.line_products: it bounds the block's
# memory and keeps the block in cache while its rows are read
_LINE_BLOCK = 2**14


def max_field_size() -> int:
    """Field-size bound; overridable through the PPKIT_MAX_Q env var."""
    raw = os.environ.get("PPKIT_MAX_Q", str(DEFAULT_MAX_Q))
    try:
        return int(raw)
    except ValueError:
        raise InvalidConfig(f"PPKIT_MAX_Q={raw!r} is not an integer") from None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# dense coefficient-tuple polynomials over F_p
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a)


def _enc_to_poly(e: int, p: int) -> tuple[int, ...]:
    c = []
    while e:
        c.append(e % p)
        e //= p
    return tuple(c)


def _poly_to_enc(c, p: int) -> int:
    e = 0
    for ci in reversed(c):
        e = e * p + ci
    return e


def _is_irreducible(c, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p, by trial division by
    every monic polynomial of degree up to deg/2."""
    deg = len(c) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d, 2 * p**d):  # monic of degree d
            if not _poly_mod(c, _enc_to_poly(enc, p), p):
                return False
    return True


@functools.cache
def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # x itself, by convention for prime fields
    # monic degree-m polynomials in increasing encoding order
    for enc in range(p**m, 2 * p**m):
        c = _enc_to_poly(enc, p)
        if _is_irreducible(c, p):
            return c
    raise NoIrreducibleFound(f"no irreducible of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# shared encoding-level arithmetic and elements
# ---------------------------------------------------------------------------

class ArithElem:
    """Element of a field context, identified by its integer encoding.

    The operators defer to the context; integers act as the scalars n * 1.
    """

    __slots__ = ("ctx", "enc")

    def __init__(self, ctx, enc: int):
        self.ctx = ctx
        self.enc = enc

    def _same(self, other) -> int:
        if isinstance(other, int):
            return self.ctx.scalar(other)
        if not isinstance(other, ArithElem) or other.ctx is not self.ctx:
            raise MixedContexts("operands from different fields")
        return other.enc

    def _new(self, enc: int):
        return type(self)(self.ctx, enc)

    def __add__(self, other):
        return self._new(self.ctx.add(self.enc, self._same(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.ctx.sub(self.enc, self._same(other)))

    def __rsub__(self, other):
        return self._new(self.ctx.sub(self._same(other), self.enc))

    def __mul__(self, other):
        return self._new(self.ctx.mul(self.enc, self._same(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._new(self.ctx.div(self.enc, self._same(other)))

    def __rtruediv__(self, other):
        return self._new(self.ctx.div(self._same(other), self.enc))

    def __pow__(self, e: int):
        return self._new(self.ctx.pow(self.enc, e))

    def __neg__(self):
        return self._new(self.ctx.neg(self.enc))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.enc == self.ctx.scalar(other)
        return (
            isinstance(other, ArithElem)
            and other.ctx is self.ctx
            and other.enc == self.enc
        )

    def __hash__(self):
        return hash((id(self.ctx), self.enc))

    def __bool__(self):
        return self.enc != 0


class FieldElem(ArithElem):
    """Element of a FieldCtx."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.coeffs(self.enc)

    def __repr__(self):
        return f"<{self.enc} in F_{self.ctx.q}>"


class ArithCtx:
    """Encoding-level arithmetic shared by FieldCtx and TowerCtx.

    A subclass sets elem_type and provides mul only.  The scalar add, sub and
    neg act digit by digit mod p on the p-adic digits of the encoding (a
    tower's encoding is its coordinates' digits), reading no table, so they
    stay an independent check of add_vec; the rest, including the vector
    arithmetic, is derived from those and mul.  The scalar add, sub, neg, mul
    and inv also take int64 arrays of encodings, elementwise, by the same
    formulas: a field's mul and inv read its exp and log as arrays where ints
    read them as lists.
    """

    def __init__(self, p: int, order: int):
        self.p = p
        self.order = order
        # instance attributes, not class defaults: the hot scalar paths read
        # them on every call
        self._tables = None
        self._exp_list = None
        self._kept = {}  # kept(key, build)'s arrays, by key
        # p^j for each digit of an encoding: add and sub take a fixed number
        # of digits, so an encoding out of range cannot keep them looping
        self._places = tuple(p**j for j in range(len(_enc_to_poly(order - 1, p))))

    def elem(self, enc: int):
        if not 0 <= enc < self.order:
            raise InvalidParam(f"encoding {enc} out of [0, {self.order})")
        return self.elem_type(self, enc)

    def scalar(self, n: int) -> int:
        """Embedding of the integer n (image of n * 1)."""
        return n % self.p

    def add(self, x, y):
        """x + y, digit by digit mod p (XOR for p = 2)."""
        p = self.p
        if self.order == p:
            return (x + y) % p
        if p == 2:
            return x ^ y
        out = 0
        for place in self._places:
            out += (x % p + y % p) % p * place
            x = x // p  # not //=, which would write into an array argument
            y = y // p
        return out

    def sub(self, x, y):
        """x - y, digit by digit mod p (XOR for p = 2)."""
        p = self.p
        if self.order == p:
            return (x - y) % p
        if p == 2:
            return x ^ y
        out = 0
        for place in self._places:
            out += (x % p - y % p) % p * place
            x = x // p  # not //=, which would write into an array argument
            y = y // p
        return out

    def neg(self, x):
        return self.sub(0, x)

    def inv(self, x):
        """1/x through exp and log once they are built; DivisionByZero at 0."""
        if isinstance(x, np.ndarray):
            if not x.all():
                raise DivisionByZero("inverse of zero")
            self.tables()
            return self._exp[self.order - 1 - self._log[x]]
        if x == 0:
            raise DivisionByZero("inverse of zero")
        if self._exp_list is not None:
            return self._exp_list[self.order - 1 - self._log_list[x]]
        return self.pow(x, self.order - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be >= 0")
        if x == 0:
            return 1 if e == 0 else 0  # empty-product convention at e = 0
        e %= self.order - 1
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def kept(self, key, build):
        """build(), a tuple of int64 arrays and ints, made once per key and kept
        on the context, its arrays read-only: vectors that depend on the
        context alone live and die with it, as its tables do."""
        got = self._kept.get(key)
        if got is None:
            got = self._kept[key] = build()
            for a in got:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return got

    # -- log/antilog vectors and the vector arithmetic ------------------------

    def tables(self):
        """(exp, log), plus (spread, unspread, spread[exp]) for odd p; int64 vectors.

        exp lists g^k for the least primitive g (walked with the scalar mul,
        at most n - 1 steps per candidate; PPKitError if none is primitive)
        twice over, then a zero tail; log inverts it and log[0] points into
        the tail, so exp[log x + log y] = x * y for all x, y.  spread writes
        the p-adic digits of an encoding (tower encodings included) in base
        2p - 1, where two spreads add without carry, and unspread, of length
        (2p - 1)^k for order p^k, reduces each digit mod p.  spread[exp] lets
        line_products spread a product with the same gather that forms it.
        """
        if self._tables is None:
            n, p = self.order, self.p
            if n > max_field_size():
                raise DegreeTooLarge(f"order {n} exceeds bound {max_field_size()}")
            for g in range(1, n):  # stops at the least primitive element
                powers, x = [1], g
                while x != 1 and len(powers) < n:  # at most n - 1 steps
                    powers.append(x)
                    x = self.mul(x, g)
                if len(powers) == n - 1:  # then x == 1: g has order n - 1
                    break
            else:  # only a wrong scalar mul gets here
                raise PPKitError(f"no element of {self!r} generates its {n - 1} units")
            self._exp = np.array(powers * 2 + [0] * (2 * n - 1), dtype=np.int64)
            self._log = np.full(n, 2 * n - 2, dtype=np.int64)  # 0 -> the zero tail
            self._log[powers] = np.arange(n - 1)
            self._tables = (self._exp, self._log)
            if p != 2:
                spread = unspread = np.zeros(1, dtype=np.int64)
                place, wide = 1, 1  # p^j and (2p - 1)^j
                digits = np.arange(2 * p - 1)
                while place < n:
                    spread = (digits[:p, None] * wide + spread).ravel()
                    unspread = (digits[:, None] % p * place + unspread).ravel()
                    place, wide = place * p, wide * (2 * p - 1)
                self._spread, self._unspread = spread, unspread
                self._spread_exp = spread[self._exp]
                self._tables += (spread, unspread, self._spread_exp)
        return self._tables

    def add_vec(self, x, y):
        """Elementwise x + y of encodings (arrays or ints)."""
        if self._tables is None:
            self.tables()
        if self.p == 2:
            return x ^ y
        return self._unspread[self._spread[x] + self._spread[y]]

    def mul_vec(self, x, y):
        """Elementwise x * y of encodings (arrays or ints)."""
        if self._tables is None:
            self.tables()
        return self._exp[self._log[x] + self._log[y]]

    def line_products(self, lin, gammas):
        """gamma * lin at each gamma of the sequence gammas, in order, in the form
        line_rows adds: exp[log lin + log gamma] for p = 2, and its spread
        spread_exp[log lin + log gamma] for odd p.

        The products are yielded as 2-D blocks, one row per gamma, of at most
        _LINE_BLOCK images (one gamma where a vector alone is longer).  They
        read only lin and gamma, so a caller with many vectors acc on one lin
        keeps the blocks; one that has a single acc streams them.
        """
        if self._tables is None:
            self.tables()
        table = self._exp if self.p == 2 else self._spread_exp
        log_lin = self._log[lin]
        log_gammas = self._log[np.asarray(gammas, dtype=np.int64)][:, None]
        step = max(1, _LINE_BLOCK // len(lin))
        for lo in range(0, len(log_gammas), step):
            yield table[log_lin + log_gammas[lo:lo + step]]

    def line_rows(self, acc, blocks):
        """acc + gamma * lin per block of line_products, in order: a 2-D block
        with the vector of one gamma per row.

        A point costs acc XOR product for p = 2, and
        unspread[spread acc + product] for odd p, with spread acc made once.
        """
        if self._tables is None:
            self.tables()
        if self.p == 2:
            for blk in blocks:
                yield acc ^ blk
        else:
            spread_acc, unspread = self._spread[acc], self._unspread
            for blk in blocks:
                yield unspread[spread_acc + blk]

    def pow_vec(self, vec: np.ndarray, e: int) -> np.ndarray:
        """Elementwise vec**e as exp[(e * log v) mod (order - 1)]; 0**0 == 1."""
        self.tables()
        out = self._exp[self._log[vec] * (e % (self.order - 1)) % (self.order - 1)]
        out[vec == 0] = 0**e
        return out


# ---------------------------------------------------------------------------
# the field F_{p^m}
# ---------------------------------------------------------------------------

class FieldCtx(ArithCtx):
    """The field F_{p^m} with the canonical (least) irreducible modulus.

    Arithmetic methods work on integer encodings; :class:`FieldElem` is a
    thin typed wrapper.  Immutable after construction, safe to share.
    """

    elem_type = FieldElem

    def __init__(self, p: int, m: int, _token=None):
        if _token is not _CTX_TOKEN:
            raise TypeError("use build_field(p, m)")
        super().__init__(p, p**m)
        self.m = m
        self.q = p**m
        self.modulus = _least_irreducible(p, m)
        # build_tower's TowerCtx per u, and at None the canonical one; made
        # here, as a later attribute would slow the attribute reads of mul
        self._towers = {}

    def coeffs(self, enc: int) -> tuple[int, ...]:
        c = _enc_to_poly(enc, self.p)
        return c + (0,) * (self.m - len(c))

    # -- integer-encoding arithmetic ----------------------------------------

    def mul(self, x, y):
        exp = self._exp_list
        if exp is not None:
            try:
                return exp[self._log_list[x] + self._log_list[y]]
            except TypeError:  # an array indexes no list: the same exp and log as arrays
                return self.mul_vec(x, y)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return self.mul_vec(x, y)
        if self.m == 1:
            return x * y % self.p
        prod = _poly_mul(_enc_to_poly(x, self.p), _enc_to_poly(y, self.p), self.p)
        return _poly_to_enc(_poly_mod(prod, self.modulus, self.p), self.p)

    def tables(self):
        """ArithCtx.tables, and exp and log as lists, which the scalar mul and
        inv read; a tower's scalar ops run on its base's, so it makes none."""
        if self._exp_list is None:
            super().tables()
            self._exp_list, self._log_list = self._exp.tolist(), self._log.tolist()
        return self._tables

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))


_CTX_TOKEN = object()


@functools.cache
def build_field(p: int, m: int) -> FieldCtx:
    """Construct F_{p^m} with the canonical deterministic modulus.

    The size bound is checked before p's primality, whose trial division
    would otherwise take as long as sqrt(p) steps on a p far past the bound."""
    if m < 1:
        raise InvalidParam(f"m={m}; a field needs m >= 1")
    if m >= max_field_size().bit_length() or p**m > max_field_size():  # p^m >= 2^m
        raise DegreeTooLarge(f"p^m = {p}^{m} exceeds bound {max_field_size()}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return FieldCtx(p, m, _token=_CTX_TOKEN)


def subfield_order(ctx: FieldCtx, n: int) -> int:
    """Order of the subfield F_sub with [ctx : F_sub] = n, or raise InvalidSubfield.

    F_{p^m} has one subfield of order p^j for each j | m, and no other."""
    if n < 1 or ctx.m % n != 0:
        raise InvalidSubfield(f"F_{ctx.q} has no subfield of index {n}")
    return ctx.p ** (ctx.m // n)


def subfield_elements(ctx: FieldCtx, sub: int) -> list[int]:
    """Encodings of the subfield of order sub inside ctx, in increasing order:
    0 and the subgroup of order sub - 1, read off the log table.  An order
    that subfield_order gives for no index raises InvalidSubfield."""
    n = next((n for n in range(1, ctx.m + 1) if sub**n >= ctx.q), 1)  # sub^n = q at the index
    if subfield_order(ctx, n) != sub:
        raise InvalidSubfield(f"{sub} is not a subfield order of F_{ctx.q}")
    order = ctx.order
    exp = ctx.tables()[0]
    return sorted([0] + exp[0 : order - 1 : (order - 1) // (sub - 1)].tolist())


def trace_sum(ctx, x: int, q: int, n: int) -> int:
    """x + x^q + ... + x^(q^(n-1)) on encodings: Tr down to F_q of x in F_{q^n}."""
    tr = 0
    for _ in range(n):
        tr = ctx.add(tr, x)
        x = ctx.pow(x, q)
    return tr


def power_class(ctx: FieldCtx, x: int, k: int) -> bool:
    """True iff the encoding x is y^k for some y; zero counts as every power.
    Over order n that is x^((n-1)/gcd(k, n-1)) = 1 (Lidl-Niederreiter)."""
    if k < 1:
        raise InvalidParam(f"k={k}; a power class needs k >= 1")
    if x == 0:
        return True
    n = ctx.order
    return ctx.pow(x, (n - 1) // math.gcd(k, n - 1)) == 1
