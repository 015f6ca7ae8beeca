"""Reference implementations of the multiplier check, the multiplier and the
measure validator, kept from the per-interval code that the support-row
arrays replaced: the weighted sum walks the measure's items and looks phi up
once per weight, the product looks phi up once more per support interval,
and the validator tests each weight and key in turn; and `h2_weights`, the
exact level-2 weights of one block, one interval at a time. The tests
compare the library against them; they are slow and not part of the
package.
"""

import math
from functools import partial
from itertools import repeat

import numpy as np

from haarmult import HaarExpansion, MultiplierReport, appendix_constant
from haarmult.haar import hp_norm, l2_norm, tl_norm
from haarmult.pietsch import _BOUND_RTOL, _SUM_TOL


def multiply(phi, u):
    """phi * u with the factors looked up per support interval."""
    support = u.support
    factors = np.array(list(map(phi.get, support, repeat(0.0))), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = u.values * factors[:, None]
    return HaarExpansion._from_rows(
        u.max_level, u.dimension, support, u.levels, u.positions, values
    )


def h2_weights(u):
    """The probability weights |x_I|^2 |I| / ||u||_2^2 of a nonzero u, which
    witness the level-2 multiplier bound ||phi.u||_2^2 = ||u||_2^2 sum
    |phi_I|^2 mu_I with equality."""
    denom = l2_norm(u) ** 2
    return {
        interval: math.fsum(c * c for c in vector) * 2.0 ** -interval.level / denom
        for interval, vector in u.coeffs.items()
    }


def validate_measure(m, u):
    """The verdict of `haarmult.validate_measure`."""
    if not (1 <= m.normalizer < math.inf and 0 < m.exponent < math.inf):
        return False
    if not all(w >= 0 for w in m.weights.values()):
        return False
    if not m.total() <= 1.0 + _SUM_TOL:
        return False
    return all(interval in u.coeffs for interval in m.weights)


def check_multiplier_bound(u, p, phi, m, q=None):
    """The report of `haarmult.check_multiplier_bound`, field for field."""
    if not all(interval in u.coeffs for interval in m.weights):
        raise ValueError("measure does not match the expansion")
    if not 1 <= m.normalizer < math.inf:
        raise ValueError(f"measure normalizer must lie in [1, inf), got {m.normalizer}")
    if not m.exponent > 0:
        raise ValueError(f"q must be positive, got {m.exponent}")
    if m.exponent == math.inf:
        raise ValueError(f"q must be finite, got {m.exponent}")
    s = m.exponent
    if q is not None and abs(s - q) > 1e-12:
        raise ValueError(f"measure exponent {s} does not match q={q}")
    weighted = math.fsum(
        abs(phi.get(interval, 0.0)) ** s * weight
        for interval, weight in m.weights.items()
    )
    tl_route = u.dimension == 1 and s != 2.0
    norm_of = partial(tl_norm, p=p, q=s) if tl_route else partial(hp_norm, p=p)
    lhs = norm_of(multiply(phi, u))
    norm = norm_of(u)
    lower = appendix_constant(p, 4) ** (-p) if u.dimension > 1 and p > 1 else 1.0
    constant = (m.normalizer / lower) ** (1.0 / p)
    if weighted < 0.0:
        raise ValueError(f"weighted sum {weighted} is negative: the measure has negative weights")
    rhs = constant * norm * weighted ** (1.0 / s)
    return MultiplierReport(
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        weighted_sum=weighted,
        ok=lhs <= rhs * (1.0 + _BOUND_RTOL),
    )
