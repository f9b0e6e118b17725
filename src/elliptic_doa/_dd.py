"""Compensated (double-double) arithmetic primitives.

Each value is carried as an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
giving roughly 32 significant decimal digits.  All helpers are plain
arithmetic expressions, so they work elementwise on numpy arrays as well as
on Python floats.  No fma is assumed; products are split with Veltkamp's
algorithm (safe for |a| < 2**996).
"""

SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def two_prod(a, b):
    p = a * b
    ah = SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(ah, al, bh, bl):
    sh, se = two_sum(ah, bh)
    se = se + (al + bl)
    rh = sh + se
    rl = se - (rh - sh)
    return rh, rl


def dd_mul(ah, al, bh, bl):
    ph, pe = two_prod(ah, bh)
    pe = pe + (ah * bl + al * bh)
    rh = ph + pe
    rl = pe - (rh - ph)
    return rh, rl


def dd_mul_d(ah, al, b):
    """dd * double."""
    ph, pe = two_prod(ah, b)
    pe = pe + al * b
    rh = ph + pe
    rl = pe - (rh - ph)
    return rh, rl


def dd_div_dd(a, b):
    """double / double -> dd quotient."""
    q = a / b
    p, e = two_prod(q, b)
    r = ((a - p) - e) / b
    return q, r


def dd_div(ah, al, bh, bl):
    """dd / dd -> dd (one Newton correction, ~31 digits)."""
    q1 = ah / bh
    # remainder r = a - q1*b computed in dd
    ph, pl = dd_mul_d(bh, bl, q1)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = dd_mul_d(bh, bl, q2)
    rh, rl = dd_add(rh, rl, -ph, -pl)
    q3 = rh / bh
    s, e = two_sum(q1, q2)
    e = e + q3
    h = s + e
    l = e - (h - s)
    return h, l
