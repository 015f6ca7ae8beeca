"""Command-line surface: expansion files, random instances, norms,
decompositions, weights, factorizations, and the randomized verification
suite.

Expansion files are JSON objects
    {"max_level": N, "dimension": d,
     "coefficients": [{"level": n, "pos": k, "value": [..]}, ...]}
with one entry per support interval. Interval keys in reports use the
"level/pos" form. All numeric output is printed with 17 significant digits
so reports are byte-reproducible. Exit codes: 0 all checks pass, 1 a
verification failed, 2 usage, input or arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from .atomic import decompose, verify_decomposition
from .dyadic import DyadicInterval, generation_decay_verdicts, generations
from .errors import (
    DegenerateThetaError,
    EmptyFamilyError,
    ExpansionFormatError,
    VerificationError,
    ZeroInputError,
)
from .haar import HaarExpansion, hp_norm, l2_norm, multiply, tl_norm
from .pietsch import (
    check_multiplier_bound,
    h2_measure,
    validate_measure,
    weights_hp,
    weights_tl,
    weights_vector,
)
from .pisier import factorize, verify_factorization, x0_norm_estimate


def _format_number(value: float) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    return format(float(value), ".17g")


def dump_json(obj: Any, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, insertion-ordered."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {dump_json(val, indent + 2)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dump_json(val, indent + 2)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float)):
        return _format_number(obj)
    return json.dumps(obj)


def _interval_key(interval: DyadicInterval) -> str:
    return f"{interval.level}/{interval.position}"


def _is_json_int(value: Any) -> bool:
    """A JSON integer: `json` gives int, and bool is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def load(path: str) -> HaarExpansion:
    """Read an expansion file; every schema violation gets its own message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ExpansionFormatError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ExpansionFormatError(f"{path}: top level must be a JSON object")
    max_level = data.get("max_level")
    dimension = data.get("dimension")
    entries = data.get("coefficients")
    if not (_is_json_int(max_level) and _is_json_int(dimension) and entries is not None):
        raise ExpansionFormatError(
            f"{path}: need integer max_level, integer dimension and a "
            f"coefficients list"
        )
    if max_level < 0 or dimension < 1 or not isinstance(entries, list):
        raise ExpansionFormatError(
            f"{path}: max_level must be >= 0, dimension >= 1, coefficients a list"
        )
    coeffs: dict[DyadicInterval, tuple[float, ...]] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            entry = {}
        level, pos, raw = entry.get("level"), entry.get("pos"), entry.get("value")
        if not (
            _is_json_int(level)
            and _is_json_int(pos)
            and isinstance(raw, list)
            and all(_is_json_int(v) or isinstance(v, float) for v in raw)
        ):
            raise ExpansionFormatError(
                f"{path}: each coefficient needs integer level and pos and a "
                f"list of numbers as value"
            )
        value = [float(v) for v in raw]
        if not 0 <= level <= max_level:
            raise ExpansionFormatError(
                f"{path}: level {level} outside [0, {max_level}]"
            )
        if not 0 <= pos < (1 << level):
            raise ExpansionFormatError(
                f"{path}: position {pos} outside [0, 2^{level}) at level {level}"
            )
        if len(value) != dimension:
            raise ExpansionFormatError(
                f"{path}: value length {len(value)} != dimension {dimension}"
            )
        interval = DyadicInterval(level, pos)
        if interval in coeffs:
            raise ExpansionFormatError(
                f"{path}: duplicate coefficient for interval {interval}"
            )
        coeffs[interval] = tuple(value)
    return HaarExpansion(max_level, dimension, coeffs)


def save(path: str, u: HaarExpansion) -> None:
    """Write the canonical form: support sorted by (level, position)."""
    payload = {
        "max_level": u.max_level,
        "dimension": u.dimension,
        "coefficients": [
            {"level": i.level, "pos": i.position, "value": list(u.coeffs[i])}
            for i in u.support
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(payload) + "\n")


def gen_random(
    max_level: int, dimension: int, density: float, seed: int
) -> HaarExpansion:
    """Each interval of level <= max_level enters independently with
    probability `density`; entries are standard normal. Deterministic in the
    seed."""
    if not 0 < density <= 1:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    return _gen_with_rng(np.random.default_rng(seed), max_level, dimension, density)


def _gen_with_rng(
    rng: np.random.Generator, max_level: int, dimension: int, density: float
) -> HaarExpansion:
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[DyadicInterval(level, pos)] = tuple(
                    rng.standard_normal(dimension).tolist()
                )
    return HaarExpansion(max_level, dimension, coeffs)


def _trial_expansion(
    seed: int, trial: int, max_level: int, dimension: int, density: float
) -> HaarExpansion:
    """Nonzero random expansion keyed by (seed, trial); empty draws retry
    deterministically."""
    for attempt in range(64):
        rng = np.random.default_rng([seed, trial, attempt])
        u = _gen_with_rng(rng, max_level, dimension, density)
        if not u.is_zero:
            return u
    raise RuntimeError("could not draw a nonzero expansion")


class _Check:
    """Aggregates one named check across trials."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.trials = 0
        self.failures: list[dict] = []
        self.extremes: dict[str, float] = {}

    def record(self, ok: bool, seed: int, trial: int, detail: str = "") -> None:
        self.trials += 1
        if not ok:
            entry = {"seed": seed, "trial": trial}
            if detail:
                entry["detail"] = detail
            self.failures.append(entry)

    def track(self, key: str, value: float, largest: bool = True) -> None:
        current = self.extremes.get(key)
        if current is None or (value > current if largest else value < current):
            self.extremes[key] = value

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        out: dict[str, Any] = {"passed": self.passed, "trials": self.trials}
        if self.extremes:
            out["extremes"] = dict(sorted(self.extremes.items()))
        if self.failures:
            out["failure_count"] = len(self.failures)
            out["failures"] = self.failures[:20]
        return out


def run_verification(
    p: float,
    q: float | None,
    trials: int,
    seed: int,
    density: float,
    max_level: int,
    dimension: int,
    phi_per_trial: int = 20,
    z_per_trial: int = 20,
    mutant: str | None = None,
) -> dict:
    """Full randomized invariant suite; returns the report dictionary.

    Per trial: the generation decay bound on the support family, the block
    decomposition guarantees, the weight normalization and multiplier bound
    for the Hardy route (plus the Triebel-Lizorkin route when q is given and
    the factorization route when additionally 1 < p < q), and the vector
    route when dimension > 1.
    """
    checks: dict[str, _Check] = {}

    def check(name: str) -> _Check:
        if name not in checks:
            checks[name] = _Check(name)
        return checks[name]

    run_tl = q is not None
    run_pisier = q is not None and 1 < p < q
    for trial in range(trials):
        u = _trial_expansion(seed, trial, max_level, 1, density)
        rng = np.random.default_rng([seed, trial, 10_000])

        family = u.support_family()
        layers = len(generations(family)) + 1
        verdicts = generation_decay_verdicts(family, layers)
        check("decay_bound").record(all(map(all, verdicts)), seed, trial)

        try:
            dec = decompose(u, p)
        except VerificationError as exc:
            check("atomic_guarantees").record(False, seed, trial, str(exc))
            continue
        report = verify_decomposition(u, p, dec)
        c = check("atomic_guarantees")
        c.record(report.passed, seed, trial)
        c.track("max_tops_carleson", float(report.tops_carleson))
        c.track("max_observed_ratio", report.observed_ratio)

        m = weights_hp(u, p)
        if mutant == "scale-omega":
            m = type(m)(
                weights={k: 2.0 * w for k, w in m.weights.items()},
                normalizer=m.normalizer,
                exponent=m.exponent,
            )
        c = check("hp_weight_sum")
        c.record(validate_measure(m, u), seed, trial)
        c.track("max_weight_sum", m.total())
        c = check("hp_multiplier_bound")
        c.track("constant", m.normalizer ** (1.0 / p))
        for _ in range(phi_per_trial):
            phi = {i: float(v) for i, v in zip(u.support, rng.uniform(-1, 1, len(u.support)))}
            c.record(check_multiplier_bound(u, p, phi, m).ok, seed, trial)

        if run_tl:
            mt = weights_tl(u, p, q)
            c = check("tl_weight_sum")
            c.record(validate_measure(mt, u), seed, trial)
            c.track("max_weight_sum", mt.total())
            c = check("tl_multiplier_bound")
            for _ in range(phi_per_trial):
                phi = {i: float(v) for i, v in zip(u.support, rng.uniform(-1, 1, len(u.support)))}
                c.record(check_multiplier_bound(u, p, phi, mt, q=q).ok, seed, trial)

        if run_pisier:
            f = factorize(u, p, q)
            if mutant == "perturb-x":
                first = next(iter(f.x))
                f.x[first] += 1e-3
            check("factorization_identity").record(
                verify_factorization(u, f), seed, trial
            )
            c = check("factorization_sampling")
            try:
                value = x0_norm_estimate(f, u, z_per_trial, seed=trial)
                c.record(True, seed, trial)
                c.track("max_lattice_candidate", value)
            except VerificationError as exc:
                c.record(False, seed, trial, str(exc))

        if dimension > 1:
            uv = _trial_expansion(seed + 1_000_003, trial, max_level, dimension, density)
            mv = weights_vector(uv, p)
            c = check("vector_weight_sum")
            c.record(validate_measure(mv, uv), seed, trial)
            c.track("max_weight_sum", mv.total())
            c = check("vector_multiplier_bound")
            for _ in range(phi_per_trial):
                phi = {i: float(v) for i, v in zip(uv.support, rng.uniform(-1, 1, len(uv.support)))}
                c.record(check_multiplier_bound(uv, p, phi, mv).ok, seed, trial)
            dv = decompose(uv, p)
            h2_ok = True
            for block, _ in dv.pieces:
                ui = uv.restrict(block)
                mu = h2_measure(ui)
                phi = {i: float(v) for i, v in zip(ui.support, rng.uniform(-1, 1, len(ui.support)))}
                lhs = hp_norm(multiply(phi, ui), 2.0) ** 2
                rhs = l2_norm(ui) ** 2 * sum(
                    phi[i] ** 2 * mu[i] for i in mu
                )
                if abs(lhs - rhs) > 1e-12 * max(lhs, rhs, 1e-300):
                    h2_ok = False
            check("vector_h2_identity").record(h2_ok, seed, trial)

    passed = all(c.passed for c in checks.values())
    flags = {
        "p": p,
        "q": q,
        "trials": trials,
        "seed": seed,
        "density": density,
        "max_level": max_level,
        "dimension": dimension,
    }
    if mutant:
        flags["inject_mutant"] = mutant
    return {
        "flags": flags,
        "checks": {name: checks[name].as_dict() for name in sorted(checks)},
        "passed": passed,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _add_common(parser: argparse.ArgumentParser, *, with_q: bool = True) -> None:
    parser.add_argument("--p", type=float, required=True)
    if with_q:
        parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarmult",
        description="Haar-multiplier computations on finite expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="norm of an expansion file")
    _add_common(norm)
    norm.add_argument("file")

    dec = sub.add_parser("decompose", help="block decomposition with report")
    _add_common(dec, with_q=False)
    dec.add_argument("file")

    pie = sub.add_parser("pietsch", help="summing weights for a multiplier")
    _add_common(pie)
    pie.add_argument("file")

    fac = sub.add_parser("factorize", help="lattice factorization of an expansion")
    fac.add_argument("--p", type=float, required=True)
    fac.add_argument("--q", type=float, required=True)
    fac.add_argument("--samples", type=int, default=0)
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--out", type=str, default=None)
    fac.add_argument("file")

    gen = sub.add_parser("gen", help="write a random expansion file")
    gen.add_argument("--max-level", type=int, default=6)
    gen.add_argument("--dimension", type=int, default=1)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, required=True)

    ver = sub.add_parser("verify", help="randomized verification suite")
    ver.add_argument("--p", type=float, default=1.0)
    ver.add_argument("--q", type=float, default=None)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--density", type=float, default=0.5)
    ver.add_argument("--max-level", type=int, default=6)
    ver.add_argument("--dimension", type=int, default=1)
    ver.add_argument(
        "--inject-mutant",
        choices=["scale-omega", "perturb-x"],
        default=None,
        help="deliberately corrupt one object to prove the verifier catches it",
    )
    ver.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except (ExpansionFormatError, EmptyFamilyError, ZeroInputError,
            DegenerateThetaError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "norm":
        u = load(args.file)
        if args.q is not None:
            value = tl_norm(u, args.p, args.q)
        else:
            value = hp_norm(u, args.p)
        _emit(_format_number(value), args.out)
        return 0

    if args.command == "decompose":
        u = load(args.file)
        dec = decompose(u, args.p)
        report = verify_decomposition(u, args.p, dec)
        payload = {
            "pieces": [
                {
                    "top": _interval_key(top),
                    "block": [_interval_key(i) for i in block],
                }
                for block, top in dec.pieces
            ],
            "report": report.as_dict(),
        }
        _emit(dump_json(payload), args.out)
        return 0

    if args.command == "pietsch":
        u = load(args.file)
        if u.dimension > 1:
            m = weights_vector(u, args.p)
        elif args.q is not None:
            m = weights_tl(u, args.p, args.q)
        else:
            m = weights_hp(u, args.p)
        payload = {
            "weights": {_interval_key(i): w for i, w in m.weights.items()},
            "A": m.normalizer,
            "s": m.exponent,
            "total": m.total(),
        }
        _emit(dump_json(payload), args.out)
        return 0

    if args.command == "factorize":
        if args.samples < 0:
            parser.error(f"--samples must be nonnegative, got {args.samples}")
        u = load(args.file)
        f = factorize(u, args.p, args.q)
        ok = verify_factorization(u, f)
        payload = {
            "theta": f.theta,
            "x": {_interval_key(i): v for i, v in sorted(f.x.items())},
            "y": {_interval_key(i): v for i, v in sorted(f.y.items())},
            "identity_verified": ok,
            "lattice_candidate": x0_norm_estimate(f, u, args.samples, args.seed),
        }
        _emit(dump_json(payload), args.out)
        return 0 if ok else 1

    if args.command == "gen":
        u = gen_random(args.max_level, args.dimension, args.density, args.seed)
        save(args.out, u)
        print(f"wrote {args.out} with {len(u.support)} coefficients")
        return 0

    if args.command == "verify":
        if not 0 < args.p <= 2:
            parser.error(f"--p must lie in (0, 2] for the Hardy-space path, got {args.p}")
        if args.q is not None and args.q < args.p:
            parser.error(f"--q must be >= --p, got p={args.p}, q={args.q}")
        if args.trials <= 0:
            parser.error("--trials must be positive")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        if not 0 < args.density <= 1:
            parser.error("--density must lie in (0, 1]")
        if args.dimension < 1:
            parser.error("--dimension must be positive")
        report = run_verification(
            p=args.p,
            q=args.q,
            trials=args.trials,
            seed=args.seed,
            density=args.density,
            max_level=args.max_level,
            dimension=args.dimension,
            mutant=args.inject_mutant,
        )
        _emit(dump_json(report), args.out)
        return 0 if report["passed"] else 1

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
