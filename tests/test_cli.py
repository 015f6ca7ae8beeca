"""Expansion files, random generation, and the command-line drivers."""

import json
import math

import pytest

from haarmult import DyadicInterval, ExpansionFormatError
from haarmult.cli import dump_json, gen_random, load, main, run_verification, save


def iv(level, pos):
    return DyadicInterval(level, pos)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


MINIMAL = {
    "max_level": 0,
    "dimension": 1,
    "coefficients": [{"level": 0, "pos": 0, "value": [1.0]}],
}


class TestLoadSave:
    def test_minimal_file(self, tmp_path):
        u = load(write(tmp_path, "u.json", MINIMAL))
        assert u.max_level == 0
        assert u.dimension == 1
        assert u.coeffs == {iv(0, 0): (1.0,)}

    def test_round_trip_canonical(self, tmp_path):
        u = gen_random(5, 2, 0.5, seed=3)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save(str(first), u)
        save(str(second), load(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_position_at_bound_rejected(self, tmp_path):
        bad = dict(MINIMAL, coefficients=[{"level": 0, "pos": 1, "value": [1.0]}])
        with pytest.raises(ExpansionFormatError, match="position"):
            load(write(tmp_path, "bad.json", bad))

    def test_level_out_of_range_rejected(self, tmp_path):
        bad = dict(MINIMAL, coefficients=[{"level": 3, "pos": 0, "value": [1.0]}])
        with pytest.raises(ExpansionFormatError, match="level"):
            load(write(tmp_path, "bad.json", bad))

    def test_duplicate_interval_rejected(self, tmp_path):
        bad = dict(
            MINIMAL,
            coefficients=[
                {"level": 0, "pos": 0, "value": [1.0]},
                {"level": 0, "pos": 0, "value": [2.0]},
            ],
        )
        with pytest.raises(ExpansionFormatError, match="duplicate"):
            load(write(tmp_path, "bad.json", bad))

    def test_malformed_json_rejected(self, tmp_path):
        with pytest.raises(ExpansionFormatError, match="malformed JSON"):
            load(write(tmp_path, "bad.json", "{not json"))

    def test_wrong_value_length_rejected(self, tmp_path):
        bad = dict(MINIMAL, dimension=2)
        with pytest.raises(ExpansionFormatError, match="length"):
            load(write(tmp_path, "bad.json", bad))

    # a float level, a string value and bools are not JSON integers/numbers;
    # they used to load as interval 1/0 with the value coerced
    LOOSE_TYPES = {
        "float level, string value": {
            "max_level": 2,
            "dimension": 2,
            "coefficients": [{"level": 1.9, "pos": 0, "value": "12"}],
        },
        "bool level and value": {
            "max_level": 2,
            "dimension": 1,
            "coefficients": [{"level": True, "pos": 0, "value": [True]}],
        },
        "float max_level": dict(MINIMAL, max_level=1.0),
        "bool dimension": dict(MINIMAL, dimension=True),
        "string pos": dict(
            MINIMAL, coefficients=[{"level": 0, "pos": "0", "value": [1.0]}]
        ),
    }

    @pytest.mark.parametrize("name", sorted(LOOSE_TYPES))
    def test_json_types_strict(self, tmp_path, capsys, name):
        path = write(tmp_path, "bad.json", self.LOOSE_TYPES[name])
        with pytest.raises(ExpansionFormatError):
            load(path)
        assert main(["norm", "--p", "1", path]) == 2
        assert capsys.readouterr().out == ""

    def test_integer_values_accepted(self, tmp_path):
        ok = dict(MINIMAL, coefficients=[{"level": 0, "pos": 0, "value": [2]}])
        assert load(write(tmp_path, "u.json", ok)).coeffs == {iv(0, 0): (2.0,)}


class TestGenRandom:
    def test_full_density_counts(self):
        u = gen_random(2, 1, 1.0, seed=0)
        assert len(u.support) == 7

    def test_deterministic(self):
        assert gen_random(4, 2, 0.5, seed=11) == gen_random(4, 2, 0.5, seed=11)

    def test_density_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_random(2, 1, 0.0, seed=0)

    def test_support_size_statistics(self):
        # 7 slots at density 0.5: per-trial mean 3.5, variance 7/4
        trials = 10_000
        sizes = [len(gen_random(2, 1, 0.5, seed=s).support) for s in range(trials)]
        mean = sum(sizes) / trials
        sigma_mean = math.sqrt(7 * 0.25 / trials)
        assert abs(mean - 3.5) < 3 * sigma_mean


class TestDumpJson:
    def test_seventeen_digit_floats(self):
        text = dump_json({"value": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips_through_json(self):
        payload = {"a": [1.0, 0.1, 12345.6789], "b": {"c": True, "d": None}}
        assert json.loads(dump_json(payload)) == payload

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dump_json({"v": math.inf})


class TestCommands:
    def test_norm_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["norm", "--p", "1", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_norm_tl(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["norm", "--p", "1", "--q", "3", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_norm_bad_file_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", "{broken")
        assert main(["norm", "--p", "1", path]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_decompose_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["decompose", "--p", "1", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pieces"] == [{"top": "0/0", "block": ["0/0"]}]
        assert payload["report"]["passed"] is True

    def test_pietsch_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["pietsch", "--p", "1", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == {"0/0": 1.0}
        assert payload["A"] == 1.0

    def test_factorize_pipeline(self, tmp_path, capsys):
        u = gen_random(4, 1, 0.6, seed=5)
        path = str(tmp_path / "u.json")
        save(path, u)
        code = main(
            ["factorize", "--p", "1.3333333333333333", "--q", "2", "--samples", "20", path]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity_verified"] is True
        assert payload["theta"] == pytest.approx(0.5, rel=1e-12)
        assert set(payload["x"]) == {f"{i.level}/{i.position}" for i in u.support}

    def test_gen_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--max-level", "3", "--seed", "2", "--out", out]) == 0
        u = load(out)
        assert u.max_level == 3

    def test_negative_samples_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--p", "1.5", "--q", "3", "--samples", "-1", path])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_zero_expansion_input_error(self, tmp_path, capsys):
        path = write(
            tmp_path, "zero.json", {"max_level": 1, "dimension": 1, "coefficients": []}
        )
        assert main(["pietsch", "--p", "1", path]) == 2


    @pytest.mark.parametrize(
        "command", [["pietsch", "--p", "1"], ["factorize", "--p", "1.5", "--q", "3"]]
    )
    def test_overflowing_scale_exit_two(self, tmp_path, capsys, command):
        scaled = {
            "max_level": 1,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [1e160]},
                {"level": 1, "pos": 0, "value": [0.5e160]},
                {"level": 1, "pos": 1, "value": [-0.25e160]},
            ],
        }
        path = write(tmp_path, "u.json", scaled)
        assert main(command + [path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    @pytest.mark.parametrize(
        "command",
        [["norm", "--p", "1"], ["norm", "--p", "1", "--q", "2"], ["decompose", "--p", "1"]],
    )
    def test_out_of_float_range_exit_two(self, tmp_path, capsys, command, scale):
        scaled = {
            "max_level": 1,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [scale]},
                {"level": 1, "pos": 0, "value": [0.5 * scale]},
                {"level": 1, "pos": 1, "value": [-0.25 * scale]},
            ],
        }
        path = write(tmp_path, "u.json", scaled)
        assert main(command + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "float range" in captured.err


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code = main(
            ["verify", "--trials", "5", "--seed", "42", "--p", "1.0", "--q", "2.0",
             "--max-level", "4", "--dimension", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"]["atomic_guarantees"]["extremes"]["max_tops_carleson"] <= 4

    def test_p_above_two_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "3"])
        assert exc.value.code == 2

    def test_bad_density_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "1", "--density", "1.5"])
        assert exc.value.code == 2

    def test_omega_mutant_exit_one(self, capsys):
        code = main(
            ["verify", "--trials", "2", "--seed", "1", "--p", "1.0",
             "--inject-mutant", "scale-omega"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["hp_weight_sum"]["passed"] is False
        failure = payload["checks"]["hp_weight_sum"]["failures"][0]
        assert {"seed", "trial"} <= set(failure)

    def test_failure_count_beyond_listed_failures(self, capsys):
        code = main(
            ["verify", "--trials", "25", "--max-level", "3", "--p", "1",
             "--inject-mutant", "scale-omega"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        weight_sum = payload["checks"]["hp_weight_sum"]
        assert weight_sum["failure_count"] == 25
        assert len(weight_sum["failures"]) == 20
        assert "failure_count" not in payload["checks"]["decay_bound"]

    def test_dimension_below_one_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "1", "--dimension", "0"])
        assert exc.value.code == 2

    def test_x_mutant_exit_one(self, capsys):
        code = main(
            ["verify", "--trials", "2", "--seed", "1", "--p", "1.5", "--q", "3.0",
             "--inject-mutant", "perturb-x"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["factorization_identity"]["passed"] is False

    def test_reports_byte_identical(self):
        kwargs = dict(
            p=1.0, q=2.0, trials=4, seed=7, density=0.5, max_level=4, dimension=1
        )
        first = dump_json(run_verification(**kwargs))
        second = dump_json(run_verification(**kwargs))
        assert first == second

    def test_report_written_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            ["verify", "--trials", "2", "--seed", "3", "--p", "0.5", "--out", out]
        )
        assert code == 0
        on_disk = (tmp_path / "report.json").read_text()
        assert json.loads(on_disk)["passed"] is True
