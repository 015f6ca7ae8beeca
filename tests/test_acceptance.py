"""Acceptance suite: every guarantee of the library at desk scale, on seeded
random instances, with one PASS/FAIL line per criterion (run with -s to see
them).

Pools are built once per module: 1000 scalar instances, 1000 vector
instances, and 1000 interval families whose Carleson constants reach 8.
"""

import contextlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from haarmult import (
    DyadicInterval,
    Factorization,
    HaarExpansion,
    IntervalFamily,
    PietschMeasure,
    VerificationError,
    carleson_constant,
    check_multiplier_bound,
    convexify,
    decompose,
    factorize,
    generation_decay_check,
    generation_decay_verdicts,
    generations,
    h2_measure,
    hp_norm,
    l2_norm,
    multiply,
    tl_norm,
    validate_measure,
    verify_decomposition,
    verify_factorization,
    x0_norm_estimate,
)
from haarmult.atomic import _stopping_time_pieces
from haarmult.cli import main
from haarmult.dyadic import _layer_leaves
from haarmult.haar import evaluate_haar, q_variation, square_leaf_sums
from haarmult.pietsch import _assemble

import dyadic_oracle
import haar_oracle

N_INSTANCES = 1000
HP_PS = (0.5, 1.0, 1.5, 2.0)
TL_PQS = ((1.5, 2.0), (1.0, 3.0), (2.0, 4.0))
PISIER_PQS = ((4.0 / 3.0, 2.0), (1.5, 3.0), (2.0, 4.0))


def _random_expansion(seed, max_level, dimension, density):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[DyadicInterval(level, pos)] = tuple(
                    rng.standard_normal(dimension).tolist()
                )
    if not coeffs:
        coeffs[DyadicInterval(0, 0)] = tuple(
            rng.standard_normal(dimension).tolist()
        )
    return HaarExpansion(max_level, dimension, coeffs)


def _pool(base_seed, count, dimension):
    rng = np.random.default_rng(base_seed)
    pool = []
    for i in range(count):
        max_level = int(rng.integers(2, 7))
        density = float(rng.uniform(0.2, 0.9))
        pool.append(
            _random_expansion([base_seed, i], max_level, dimension, density)
        )
    return pool


@pytest.fixture(scope="module")
def scalar_pool():
    return _pool(101, N_INSTANCES, 1)


@pytest.fixture(scope="module")
def vector_pool():
    rng = np.random.default_rng(202)
    pool = []
    for i in range(N_INSTANCES):
        max_level = int(rng.integers(2, 6))
        density = float(rng.uniform(0.2, 0.9))
        dimension = int(rng.integers(2, 4))
        pool.append(_random_expansion([202, i], max_level, dimension, density))
    return pool


@pytest.fixture(scope="module")
def scalar_results(scalar_pool):
    """(dec, report, measure) per (instance, p); decompose verifies internally,
    and the weights are assembled from the same decomposition."""
    results = {}
    for i, u in enumerate(scalar_pool):
        for p in HP_PS:
            dec = decompose(u, p)
            report = verify_decomposition(u, p, dec)
            measure = _assemble(u, p, dec, exponent=2.0)
            results[i, p] = (dec, report, measure)
    return results


@pytest.fixture(scope="module")
def tl_results(scalar_pool):
    results = {}
    for i, u in enumerate(scalar_pool):
        for p, q in TL_PQS:
            powered = convexify(u, q)
            inner_p = 2.0 * p / q
            dec = decompose(powered, inner_p)
            results[i, (p, q)] = _assemble(powered, inner_p, dec, exponent=q)
    return results


@pytest.fixture(scope="module")
def vector_results(vector_pool):
    results = {}
    for i, u in enumerate(vector_pool):
        for p in HP_PS:
            dec = decompose(u, p)
            results[i, p] = (dec, _assemble(u, p, dec, exponent=2.0))
    return results


def _slice_loop_leaf_sums(u, value_of):
    """Reference leaf sums: one slice update per interval, in support order."""
    sums = np.zeros(1 << u.max_level)
    for interval in u.coeffs:
        shift = u.max_level - interval.level
        lo = interval.position << shift
        sums[lo : lo + (1 << shift)] += value_of(interval)
    return sums


def _dense_cover_x0(f, u, n_samples, seed):
    """Reference value of x0_norm_estimate through the dense support x 2^N
    cover matrix (same candidates, same seed)."""
    p, q, th = f.p, f.q, f.theta
    support = list(u.coeffs)
    y_vec = np.array([f.y[i] for i in support])
    x_vec = np.array([abs(f.x[i]) for i in support])
    m_vec = np.array([2.0 ** (-i.level) for i in support])
    cover = np.zeros((len(support), 1 << u.max_level))
    for row, interval in enumerate(support):
        shift = u.max_level - interval.level
        cover[row, interval.position << shift : (interval.position + 1) << shift] = 1.0
    rng = np.random.default_rng(seed)
    raw = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, len(support)))
    scales = (raw**q @ m_vec) ** (1.0 / q)
    candidates = np.vstack([y_vec, raw / scales[:, None]])
    leaf_sums = (x_vec ** (1.0 - th) * candidates**th) ** q @ cover
    norms = np.mean(leaf_sums ** (p / q), axis=1) ** (1.0 / p)
    return float(norms.max()) ** (1.0 / (1.0 - th))


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert passed, f"criterion {criterion} failed: {detail}"


class TestCriterion1Normalization:
    def test_weight_sums_at_most_one(
        self, scalar_pool, vector_pool, scalar_results, tl_results, vector_results
    ):
        tol = 1e-12
        worst = 0.0
        ok = True
        for i, u in enumerate(scalar_pool):
            for p in HP_PS:
                measure = scalar_results[i, p][2]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
            for pq in TL_PQS:
                measure = tl_results[i, pq]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                measure = vector_results[i, p][1]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
        _report(
            1,
            ok,
            f"weight sums <= 1 on {N_INSTANCES} instances x "
            f"{len(HP_PS)} + {len(TL_PQS)} + {len(HP_PS)} parameter sets, "
            f"max sum {worst:.15f}",
        )

    def test_assembly_matches_public_route(self, scalar_pool, scalar_results):
        from haarmult import weights_hp

        for i in (0, 7, 123):
            u = scalar_pool[i]
            for p in (0.5, 2.0):
                cached = scalar_results[i, p][2]
                public = weights_hp(u, p)
                assert public.weights == cached.weights
                assert public.normalizer == cached.normalizer


class TestCriterion2MultiplierBound:
    def test_hardy_bound_hundred_thousand_pairs(self, scalar_pool, scalar_results):
        rng = np.random.default_rng(777)
        pairs = 0
        failures = 0
        per_instance = 25  # 1000 instances x 4 p x 25 phi = 1e5 pairs
        for i, u in enumerate(scalar_pool):
            support = u.support
            for p in HP_PS:
                measure = scalar_results[i, p][2]
                for _ in range(per_instance):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure)
                    pairs += 1
                    failures += not report.ok
        _report(2, failures == 0, f"Hardy route: {pairs} (instance, phi) pairs, {failures} failures")
        assert pairs == 100_000

    def test_tl_bound(self, scalar_pool, tl_results):
        rng = np.random.default_rng(778)
        pairs = 0
        failures = 0
        for i, u in enumerate(scalar_pool):
            support = u.support
            for p, q in TL_PQS:
                measure = tl_results[i, (p, q)]
                for _ in range(7):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure, q=q)
                    pairs += 1
                    failures += not report.ok
        _report(
            2, failures == 0, f"Triebel-Lizorkin route: {pairs} pairs, {failures} failures"
        )

    def test_vector_bound(self, vector_pool, vector_results):
        rng = np.random.default_rng(779)
        pairs = 0
        failures = 0
        for i, u in enumerate(vector_pool):
            support = u.support
            for p in HP_PS:
                measure = vector_results[i, p][1]
                for _ in range(5):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure)
                    pairs += 1
                    failures += not report.ok
        _report(2, failures == 0, f"vector route (s=2): {pairs} pairs, {failures} failures")


class TestCriterion3AtomicGuarantees:
    def test_all_guarantees(self, scalar_pool, vector_pool, scalar_results, vector_results):
        worst_carleson = Fraction(0)
        observed_sup = 0.0
        ok = True
        for i in range(len(scalar_pool)):
            for p in HP_PS:
                report = scalar_results[i, p][1]
                ok &= report.partition_ok and report.blocks_ok and report.tops_ok
                ok &= report.tops_carleson_ok
                ok &= report.chain_lower_ok and report.chain_middle_ok
                ok &= report.lower_constant == 1.0  # scalar case
                worst_carleson = max(worst_carleson, report.tops_carleson)
                observed_sup = max(observed_sup, report.observed_ratio)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                dec = vector_results[i, p][0]
                report = verify_decomposition(u, p, dec)
                ok &= report.passed
                worst_carleson = max(worst_carleson, report.tops_carleson)
                observed_sup = max(observed_sup, report.observed_ratio)
        ok &= worst_carleson <= 4 and math.isfinite(observed_sup)
        _report(
            3,
            ok,
            f"tops Carleson <= 4 (max {float(worst_carleson):.4f}), partition/"
            f"block/chain exact, empirical upper-ratio supremum {observed_sup:.4f}",
        )


class TestCriterion4ExactIdentities:
    def test_identities(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(888)
        parseval_ok = True
        for u in scalar_pool + vector_pool[:200]:
            exact = math.fsum(
                u.coefficient_square(i) * 2.0 ** (-i.level) for i in u.coeffs
            )
            value = hp_norm(u, 2.0) ** 2
            parseval_ok &= math.isclose(value, exact, rel_tol=1e-12)

        convex_ok = True
        for i, u in enumerate(scalar_pool):
            p, q = TL_PQS[i % len(TL_PQS)]
            lhs = tl_norm(u, p, q)
            rhs = hp_norm(convexify(u, q), 2.0 * p / q) ** (2.0 / q)
            convex_ok &= math.isclose(lhs, rhs, rel_tol=1e-10)

        h2_ok = True
        for u in vector_pool[:500]:
            dec = decompose(u, 1.0)
            for block, _ in dec.pieces:
                ui = u.restrict(block)
                mu = h2_measure(ui)
                phi = dict(zip(ui.support, rng.uniform(-1, 1, len(ui.support))))
                lhs = hp_norm(multiply(phi, ui), 2.0) ** 2
                rhs = l2_norm(ui) ** 2 * math.fsum(
                    phi[i] ** 2 * mu[i] for i in mu
                )
                h2_ok &= math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)

        _report(
            4,
            parseval_ok and convex_ok and h2_ok,
            "Parseval (1e-12), convexification identity (1e-10), "
            "vector level-2 multiplier identity (1e-12)",
        )


class TestCriterion5Factorization:
    def test_factorization_and_sampling(self, scalar_pool):
        identity_ok = True
        y_ok = True
        chain_failures = 0
        samples_per_instance = 1000
        for i, u in enumerate(scalar_pool):
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            f = factorize(u, p, q)
            for interval, (value,) in u.coeffs.items():
                product = (
                    f.x[interval] ** (1.0 - f.theta) * f.y[interval] ** f.theta
                )
                identity_ok &= math.isclose(product, abs(value), rel_tol=1e-10)
            y_norm_q = math.fsum(
                f.y[j] ** q * 2.0 ** (-j.level) for j in u.coeffs
            )
            y_ok &= y_norm_q <= 1.0 + 1e-12
            try:
                x0_norm_estimate(f, u, samples_per_instance, seed=i)
            except VerificationError:
                chain_failures += 1
        _report(
            5,
            identity_ok and y_ok and chain_failures == 0,
            f"product identity (1e-10), unit y-norm, Hoelder chain on "
            f"{N_INSTANCES} x {samples_per_instance} sampled candidates, "
            f"{chain_failures} failures",
        )


class TestCriterion6DecayBound:
    @staticmethod
    def _random_family(rng):
        max_level = int(rng.integers(1, 8))
        density = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        members = [
            DyadicInterval(level, pos)
            for level in range(max_level + 1)
            for pos in range(1 << level)
            if rng.random() < density
        ]
        if not members:
            members = [DyadicInterval(0, 0)]
        return IntervalFamily(members)

    @classmethod
    def _pool(cls):
        rng = np.random.default_rng(999)
        return [cls._random_family(rng) for _ in range(N_INSTANCES)]

    def test_bound_over_thousand_families(self):
        families = self._pool()
        max_packing = max(float(carleson_constant(f)) for f in families)
        assert max_packing == 8.0  # density-1 families at max_level 7 pack to 8

        violations = 0
        checked = 0
        spot_checks = []
        for fam in families:
            packing = float(carleson_constant(fam))
            scale = 1 << fam.max_level
            # one pass: each member contributes its measure to layer
            # (chain position) of every family ancestor, because dyadic
            # ancestors form a chain
            layer_measure: dict[tuple[DyadicInterval, int], int] = {}
            for member in fam:
                chain = [
                    member.ancestor(level)
                    for level in range(member.level + 1)
                    if member.ancestor(level) in fam
                ]
                scaled = scale >> member.level
                for idx, outer in enumerate(chain):
                    key = (outer, len(chain) - 1 - idx)
                    layer_measure[key] = layer_measure.get(key, 0) + scaled
            for (outer, layer), covered in layer_measure.items():
                bound = (
                    4.0
                    * 2.0 ** (-2.0 * layer / (4.0 * packing + 1.0))
                    * 2.0 ** (-outer.level)
                )
                checked += 1
                if covered / scale > bound:
                    violations += 1
            spot_checks.append((fam, *next(iter(layer_measure))))
        # the fast pass must agree with the library checker
        for fam, outer, layer in spot_checks[:100]:
            assert generation_decay_check(fam, outer, layer)
        _report(
            6,
            violations == 0,
            f"{checked} (interval, layer) pairs over {N_INSTANCES} families, "
            f"Carleson constants up to {max_packing:.0f}, {violations} violations",
        )

    def test_queries_match_reference(self):
        # the nearest-ancestor table against the bisect scans and ancestor
        # walks it replaced
        families = self._pool()
        for fam in families:
            assert carleson_constant(fam) == dyadic_oracle.carleson_constant(fam)
            got = [layer.intervals for layer in generations(fam)]
            assert got == [
                layer.intervals for layer in dyadic_oracle.generations(fam)
            ]
        for fam in families[:100]:
            layers = len(generations(fam)) + 1
            for interval in fam:
                for layer in range(layers):
                    assert generation_decay_check(
                        fam, interval, layer
                    ) == dyadic_oracle.generation_decay_check(fam, interval, layer)

    def test_whole_family_verdicts_match_reference(self):
        # one bottom-up pass per family against the per-call oracle, for every
        # member and every layer up to one past the deepest generation; the
        # layer measures too, since the bound leaves every verdict true
        for fam in self._pool():
            scale = 1 << fam.max_level
            for interval, leaves in zip(fam, _layer_leaves(fam)):
                assert [Fraction(n, scale) for n in leaves] == (
                    dyadic_oracle.layer_measures(fam, interval)
                )
            layers = len(generations(fam)) + 1
            verdicts = generation_decay_verdicts(fam, layers)
            assert verdicts == [
                [
                    dyadic_oracle.generation_decay_check(fam, interval, layer)
                    for layer in range(layers)
                ]
                for interval in fam
            ]


class TestCriterion7OracleEquivalence:
    def test_pointwise_oracle(self):
        rng = np.random.default_rng(555)
        ok = True
        for max_level in range(9):
            for _ in range(12):
                u = _random_expansion(
                    [555, max_level, int(rng.integers(1 << 30))],
                    max_level,
                    1,
                    float(rng.uniform(0.3, 1.0)),
                )
                leaves = 1 << max_level
                total = 0.0
                for j in range(leaves):
                    for t in ((j + 0.25) / leaves, (j + 0.75) / leaves):
                        value = math.fsum(
                            vec[0] * evaluate_haar(i, t)
                            for i, vec in u.coeffs.items()
                        )
                        total += value * value / (2.0 * leaves)
                ok &= math.isclose(hp_norm(u, 2.0), math.sqrt(total), rel_tol=1e-12)
        _report(7, ok, "leafwise norm equals brute-force Haar-sum evaluation, N <= 8")


class TestCriterion8MutationSensitivity:
    def test_doubled_weights_caught(self, scalar_pool, scalar_results):
        caught = True
        for i in (0, 250, 999):
            u = scalar_pool[i]
            measure = scalar_results[i, 1.0][2]
            doubled = PietschMeasure(
                weights={k: 2.0 * w for k, w in measure.weights.items()},
                normalizer=measure.normalizer,
                exponent=measure.exponent,
            )
            caught &= validate_measure(measure, u)
            caught &= not validate_measure(doubled, u)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(
                ["verify", "--trials", "2", "--seed", "5", "--p", "1.0",
                 "--inject-mutant", "scale-omega"]
            )
        caught &= exit_code == 1
        _report(8, caught, "doubled weights rejected, mutant verify exits 1")

    def test_perturbed_factor_caught(self, scalar_pool):
        caught = True
        for i in (3, 500):
            u = scalar_pool[i]
            f = factorize(u, 1.5, 3.0)
            target = min(f.x, key=lambda j: abs(f.x[j]))
            bad = Factorization(
                x={**f.x, target: f.x[target] + 1e-3},
                y=dict(f.y),
                theta=f.theta,
                p=f.p,
                q=f.q,
            )
            caught &= verify_factorization(u, f)
            caught &= not verify_factorization(u, bad)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(
                ["verify", "--trials", "2", "--seed", "5", "--p", "1.5", "--q", "3.0",
                 "--inject-mutant", "perturb-x"]
            )
        caught &= exit_code == 1
        _report(8, caught, "perturbed factor rejected, mutant verify exits 1")


class TestLeafSumOracles:
    def test_leaf_sums_bit_identical_to_slice_loop(self, scalar_pool, vector_pool):
        for u in scalar_pool + vector_pool:
            expected = _slice_loop_leaf_sums(u, u.coefficient_square)
            assert np.array_equal(square_leaf_sums(u), expected)
        for u in scalar_pool:
            for q in (0.7, 2.0, 3.0):
                powers = _slice_loop_leaf_sums(u, lambda i: abs(u.coeffs[i][0]) ** q)
                assert np.array_equal(q_variation(u, q).values, powers ** (1.0 / q))

    def test_x0_matches_dense_cover(self, scalar_pool):
        for i in (0, 1, 250, 999):
            u = scalar_pool[i]
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            f = factorize(u, p, q)
            expected = _dense_cover_x0(f, u, 50, seed=i)
            assert x0_norm_estimate(f, u, 50, seed=i) == pytest.approx(
                expected, rel=1e-12
            )


def _mixed_raw(u, rng):
    """u's coefficients as a constructor might get them: some zero vectors,
    some integer vectors (zero ones too), lists, and bare scalars for d = 1."""
    raw = {}
    for interval, vector in u.coeffs.items():
        draw = rng.random()
        if draw < 0.2:
            raw[interval] = [-0.0] * u.dimension
        elif draw < 0.35:
            raw[interval] = [int(round(c)) for c in vector]
        elif u.dimension == 1 and draw < 0.7:
            raw[interval] = vector[0]
        else:
            raw[interval] = list(vector)
    return raw


class TestExpansionOracles:
    """The support arrays against the per-coefficient loops they replaced."""

    def test_constructor_matches_loop(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(4040)
        for u in scalar_pool + vector_pool:
            for raw in (dict(u.coeffs), _mixed_raw(u, rng)):
                got = HaarExpansion(u.max_level, u.dimension, raw)
                want = haar_oracle.cleaned_coeffs(u.max_level, u.dimension, raw)
                assert list(got.coeffs.items()) == list(want.items())
                assert all(type(c) is float for v in got.coeffs.values() for c in v)
                assert got.levels.tolist() == [i.level for i in want]
                assert got.positions.tolist() == [i.position for i in want]
                assert got.values.tolist() == [list(v) for v in want.values()]
                assert got.squares.tolist() == [
                    haar_oracle.coefficient_square(got, i) for i in want
                ]

    def test_multiply_matches_loop(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(4141)
        outside = DyadicInterval(7, 3)  # above every pool max level
        for u in scalar_pool + vector_pool:
            support = u.support
            factors = rng.uniform(-1.0, 1.0, len(support))
            draw = rng.random(len(support))
            factors[draw < 0.15] = 0.0
            # the smallest subnormal: products with |x| < 1/2 underflow to 0
            factors[(draw >= 0.15) & (draw < 0.3)] = 5e-324
            phi = {
                interval: float(factor)
                for interval, factor, keep in zip(support, factors, draw < 0.9)
                if keep
            }
            phi[outside] = 1.0
            got = multiply(phi, u)
            assert list(got.coeffs.items()) == list(haar_oracle.multiply(phi, u).items())
            assert got.squares.tolist() == [
                haar_oracle.coefficient_square(got, i) for i in got.coeffs
            ]
            assert np.array_equal(
                square_leaf_sums(got),
                _slice_loop_leaf_sums(got, got.coefficient_square),
            )

    @pytest.mark.parametrize("factor", [1.7976931348623157e308, math.inf, math.nan])
    def test_multiply_non_finite_rejected(self, scalar_pool, vector_pool, factor):
        checked = 0
        for u in scalar_pool[:50] + vector_pool[:50]:
            largest = max(u.coeffs, key=lambda i: max(map(abs, u.coeffs[i])))
            if max(map(abs, u.coeffs[largest])) <= 1.0:
                continue
            checked += 1
            phi = dict.fromkeys(u.coeffs, 0.5)
            phi[largest] = factor
            with pytest.raises(ValueError) as want:
                haar_oracle.multiply(phi, u)
            with pytest.raises(ValueError) as got:
                multiply(phi, u)
            assert str(got.value) == str(want.value)
        assert checked > 50

    def test_decomposition_pieces_match_set_assignment(
        self, scalar_pool, vector_pool, scalar_results, vector_results
    ):
        for i, u in enumerate(scalar_pool):
            got = scalar_results[i, 1.0][0].pieces
            want = haar_oracle.stopping_time_pieces(u)
            assert [(p.top, p.block.intervals) for p in got] == [
                (p.top, p.block.intervals) for p in want
            ]
        for i, u in enumerate(vector_pool):
            got = vector_results[i, 1.0][0].pieces
            want = haar_oracle.stopping_time_pieces(u)
            assert [(p.top, p.block.intervals) for p in got] == [
                (p.top, p.block.intervals) for p in want
            ]
        for u in scalar_pool[:20]:
            powered = convexify(u, 3.0)
            assert _stopping_time_pieces(powered) == haar_oracle.stopping_time_pieces(powered)
