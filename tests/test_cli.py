"""Command-line interface: exit codes, JSON output, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invsp
import invsp.cli
from invsp.cli import UsageError, main
from invsp.polycore import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicPoly:
    def test_gamma7_json(self, capsys):
        code, out, _ = run(capsys, "basic-poly", "--group", "gamma7", "--format", "json")
        assert code == 0
        poly = Polynomial.from_json_dict(json.loads(out))
        assert poly.term_count() == 17

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "basic-poly", "--group", "weighted:11:2", "--method", "both",
            "--format", "text",
        )
        assert code == 0 and "terms=7" in out

    def test_default_output_is_polynomial_json(self, capsys):
        code, out, _ = run(capsys, "basic-poly", "--group", "gamma7")
        assert code == 0
        assert Polynomial.from_json_dict(json.loads(out)).term_count() == 17

    def test_bad_group_is_usage_error(self, capsys):
        code, _, err = run(capsys, "basic-poly", "--group", "dihedral:8")
        assert code == 2 and "bad group spec" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "basic-poly", "--group", "gamma7", "--frobnicate")
        assert code == 2


@pytest.mark.parametrize("exc", [UsageError("bad input"), ValueError("bad value"), KeyError("k")])
def test_command_errors_exit_with_usage_code(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(invsp.cli, "cmd_basic_poly", fail)
    code, out, err = run(capsys, "basic-poly", "--group", "gamma7")
    assert code == 2 and out == "" and err == f"error: {exc}\n"


class TestTensorValidate:
    def test_tensor_pipeline(self, capsys, tmp_path):
        h_file = tmp_path / "h.json"
        h_file.write_text(Polynomial(3, {(1, 1, 1): 14}).dumps())
        code, out, _ = run(
            capsys, "tensor", "--group", "gamma7", "--h", str(h_file), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["is_special"] is True
        assert data["report"]["n_terms"] == 29

    def test_validate(self, capsys, tmp_path):
        p_file = tmp_path / "p.json"
        code, out, _ = run(capsys, "basic-poly", "--group", "gamma7", "--format", "json")
        p_file.write_text(out)
        code, out, _ = run(
            capsys, "validate", "--group", "gamma7", str(p_file), "--format", "json"
        )
        assert code == 0 and json.loads(out)["is_special"] is True

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([{"e": [1.5, 0], "c": "1"}, {"e": [0, 1], "c": "1"}], "integer"),
            ([{"e": [1, 0], "c": "1"}, {"e": [0, 1], "c": "1/2"}, {"e": [0, 1], "c": "1/2"}],
             "repeated monomial [0, 1]"),
        ],
        ids=["x^1.5 + y", "x + 1/2 y + 1/2 y"],
    )
    def test_validate_rejects_lenient_json(self, capsys, tmp_path, terms, message):
        """x^1.5 + y was read as x + y, which is special for scalar:2:2."""
        p_file = tmp_path / "p.json"
        p_file.write_text(json.dumps({"nvars": 2, "terms": terms}))
        code, out, err = run(capsys, "validate", "--group", "scalar:2:2", str(p_file))
        assert code == 2 and out == ""
        assert message in err

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nvars": 3, "terms": [}')
        code, _, err = run(capsys, "validate", "--group", "gamma7", str(bad))
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--group", "gamma7", "/no/such/file.json")
        assert code == 2 and "not found" in err


class TestFamilyCommands:
    def test_build_instantiate_l0range(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "family", "build", "--group", "gamma7", "--h-degree", "3",
            "--format", "json",
        )
        assert code == 0
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(out)

        code, out, _ = run(
            capsys,
            "family", "instantiate", "--family", str(fam_file),
            "--point", '{"U": "14"}', "--format", "json",
        )
        assert code == 0
        assert Polynomial.from_json_dict(json.loads(out)).term_count() == 29

        code, out, _ = run(
            capsys,
            "family", "l0range", "--family", str(fam_file), "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert sorted(int(k) for k in data["achievable"]) == [17, 29, 30]
        assert data["exhaustive"] is True

    def test_build_text_is_one_line_per_slot(self, capsys):
        argv = ("family", "build", "--group", "gamma7", "--h-degree", "3")
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert "(1, 1, 1): 14 - U" in lines
        assert "(7, 0, 0): 1" in lines
        code, default, _ = run(capsys, *argv)
        slots = json.loads(default)["slots"]
        assert len(lines) == len(slots) and default != out
        assert run(capsys, *argv, "--format", "json")[1] == default

    def test_top_level_l0range_alias(self, capsys, tmp_path):
        """The sweep lives under ``family l0range`` only; the old alias is gone."""
        code, out, _ = run(
            capsys, "family", "build", "--group", "scalar:2:2", "--h-degree", "2",
            "--format", "json",
        )
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(out)
        code, _, _ = run(capsys, "l0range", "--family", str(fam_file), "--no-orthant")
        assert code == 2
        code, out, _ = run(
            capsys, "family", "l0range", "--family", str(fam_file), "--no-orthant",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        achievable = sorted(int(k) for k in data["achievable"])
        assert {3, 4, 5, 8}.issubset(achievable)
        assert 1 not in achievable and 2 not in achievable

    def test_orthant_flags_are_exclusive(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "family", "build", "--group", "scalar:2:2", "--h-degree", "2",
        )
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(out)
        code, _, _ = run(
            capsys, "family", "l0range", "--family", str(fam_file),
            "--orthant", "--no-orthant",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "lo,hi,witnesses",
        [("-1", "1", {"1": {"a": "0"}, "2": {"a": "1"}}), (None, "-1", {"2": {"a": "-1"}})],
        ids=["zero-inside", "zero-outside"],
    )
    def test_sign_choices_follow_declared_bounds(self, capsys, tmp_path, lo, hi, witnesses):
        """A sign is tried exactly when a value of that sign lies in [lo, hi]."""
        fam = {
            "nvars": 1,
            "params": [{"name": "a", "lo": lo, "hi": hi, "mono": None}],
            "slots": [{"e": None, "form": {"const": "0", "a": "1"}},
                      {"e": None, "form": {"const": "1"}}],
        }
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(fam))
        code, out, _ = run(
            capsys, "family", "l0range", "--family", str(fam_file), "--no-orthant",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["achievable"] == witnesses
        assert data["certified_absent"] == [v for v in (0, 1, 2) if str(v) not in witnesses]


class TestFamilyFileIsReadStrictly:
    """A family file is taken as it is written, or refused with exit 2."""

    @pytest.fixture
    def fam_data(self, capsys):
        code, out, _ = run(
            capsys, "family", "build", "--group", "scalar:2:2", "--h-degree", "2",
            "--format", "json",
        )
        assert code == 0
        return json.loads(out)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["slots"].append(d["slots"][0]), "repeated slot monomial"),
            (lambda d: d["params"].append(dict(d["params"][1], name="Q")),
             "repeated parameter monomial"),
            (lambda d: d.update(orthant="false"), "'orthant' must be true or false"),
            (lambda d: d["params"][0].update(structural="no"),
             "'structural' must be true or false"),
            (lambda d: d["slots"][0].update(e=[1, 1, 1]), "has 3 exponents, expected 2"),
            (lambda d: d["params"][0].update(mono=[1.5, 0.5]),
             "cannot be interpreted as an integer"),
            (lambda d: d["group"].update(m=2.9), "cannot be interpreted as an integer"),
            (lambda d: d.update(nvars="2"), "cannot be interpreted as an integer"),
            (lambda d: d.update(slots=7), "not iterable"),
        ],
        ids=["repeated-slot", "repeated-param", "orthant-string", "structural-string",
             "slot-arity", "fractional-exponent", "fractional-group", "string-nvars",
             "slots-not-a-list"],
    )
    @pytest.mark.parametrize("command", ["l0range", "instantiate"])
    def test_malformed_family_is_a_usage_error(
        self, capsys, tmp_path, fam_data, edit, message, command
    ):
        edit(fam_data)
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(fam_data))
        extra = ["--point", "{}"] if command == "instantiate" else []
        code, out, err = run(capsys, "family", command, "--family", str(fam_file), *extra)
        assert code == 2 and out == ""
        assert f"bad family in {fam_file}" in err and message in err

    def test_negative_target_is_a_usage_error(self, capsys, tmp_path, fam_data):
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(fam_data))
        code, out, err = run(
            capsys, "family", "l0range", "--family", str(fam_file), "--targets=-2",
        )
        assert code == 2 and out == ""
        assert "a count of nonzero slots is never negative (target -2)" in err
        code, out, _ = run(
            capsys, "family", "l0range", "--family", str(fam_file), "--targets=0",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["sought"] == [0]

    def test_repeated_forms_without_monomials_stay_allowed(self, capsys, tmp_path):
        """A family with null monomials is a plain linear system; a form may repeat."""
        fam = {
            "nvars": 1,
            "params": [{"name": "a", "lo": None, "hi": None, "mono": None},
                       {"name": "b", "lo": None, "hi": None, "mono": None}],
            "slots": [{"e": None, "form": {"const": "0", "a": "1"}},
                      {"e": None, "form": {"const": "0", "a": "1"}}],
        }
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(fam))
        code, out, _ = run(
            capsys, "family", "l0range", "--family", str(fam_file), "--no-orthant",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert sorted(data["achievable"]) == ["0", "2"] and data["certified_absent"] == [1]


class TestGaps:
    def test_weighted_report(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--group", "weighted:11:2", "--max-degree", "21",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exhaustive"] is True
        assert set(range(8, 13)).issubset(data["proven_gaps"])
        assert "7" in data["achievable"]

    def test_targets_exhaustive_at_13(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "13",
            "--targets", "31,35,36", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["found"] == {} and data["exhaustive"] is True

    def test_open_problem_budget_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "17",
            "--targets", "31,35,36", "--budget", "2000", "--format", "json",
        )
        assert code == 3
        assert json.loads(out)["exhaustive"] is False

    def test_sweep_stops_once_every_target_is_witnessed(self, capsys):
        """H = 0 gives 17 terms in the first region; nothing else is sought."""
        code, out, _ = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "17",
            "--targets", "17", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data["found"]) == {"17"} and data["exhaustive"] is True
        assert data["stats"]["regions_total"] == 1

    def test_signed_flag_removed(self, capsys):
        code, _, _ = run(
            capsys, "gaps", "--group", "weighted:5:2", "--max-degree", "9", "--signed"
        )
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = (
            "gaps", "--group", "weighted:7:2", "--max-degree", "13",
            "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "flag",
        [["--h-degree-exact", "4"], ["--value-cap", "30"]],
        ids=["h-degree-exact", "value-cap"],
    )
    def test_targets_reject_flags_they_would_drop(self, capsys, flag):
        """A targeted search applies neither flag, so it must not accept them."""
        code, out, err = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "11", "--targets", "1-30", *flag,
        )
        assert code == 2 and out == ""
        assert "--h-degree-exact" in err and "--value-cap" in err

    def test_reversed_target_range_is_a_usage_error(self, capsys, monkeypatch):
        swept = []
        monkeypatch.setattr(invsp.gapsearch, "achievable_set",
                            lambda *args, **kwargs: swept.append(args))
        code, out, err = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "10", "--targets", "29,35-31",
        )
        assert code == 2 and out == "" and "reversed target range 35-31" in err
        assert swept == []

    def test_target_without_degree_estimate_is_rejected_before_the_sweep(
        self, capsys, monkeypatch
    ):
        swept = []
        monkeypatch.setattr(invsp.gapsearch, "achievable_set",
                            lambda *args, **kwargs: swept.append(args))
        code, out, err = run(
            capsys,
            "gaps", "--group", "gamma7", "--max-degree", "13", "--targets", "0,31",
        )
        assert code == 2 and out == "" and "term count must be positive" in err
        assert swept == []

    @pytest.mark.parametrize("group", ["scalar:3:1", "weighted:5:2", "gamma7"])
    def test_target_below_one_is_rejected_for_every_group(self, capsys, monkeypatch, group):
        swept = []
        monkeypatch.setattr(invsp.gapsearch, "achievable_set",
                            lambda *args, **kwargs: swept.append(args))
        code, out, err = run(
            capsys, "gaps", "--group", group, "--max-degree", "10", "--targets=-5,0",
        )
        assert code == 2 and out == "" and "term count must be positive (target -5)" in err
        assert swept == []

    def test_negative_value_cap_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "gaps", "--group", "scalar:3:1", "--max-degree", "6", "--value-cap=-1",
        )
        assert code == 2 and out == "" and "--value-cap must be nonnegative" in err

    @pytest.mark.parametrize("h_exact", ["7", "0", "-1"])
    def test_exact_h_degree_no_coefficient_has_is_a_usage_error(self, capsys, h_exact):
        """At degree 10, H has degree at most 3 and no constant term: no region
        could meet the restriction, so every value would read as a gap."""
        code, out, err = run(
            capsys, "gaps", "--group", "gamma7", "--max-degree", "10",
            f"--h-degree-exact={h_exact}",
        )
        assert code == 2 and out == ""
        assert f"no coefficient of H has degree {h_exact} within degree 10" in err

    def test_text_label_names_the_exact_h_degree(self, capsys):
        """17 (H = 0) is a gap only among the H of exact degree 3."""
        code, out, _ = run(
            capsys, "gaps", "--group", "gamma7", "--max-degree", "10",
            "--h-degree-exact", "3", "--format", "text",
        )
        assert code == 0
        assert "proven gaps (within degree 10, H of exact degree 3): [0, 1," in out
        code, out, _ = run(
            capsys, "gaps", "--group", "gamma7", "--max-degree", "10", "--format", "text",
        )
        assert code == 0 and "proven gaps (within degree 10): [0, 1," in out


class TestClosureCommand:
    def test_closure(self, capsys, tmp_path):
        code, out, _ = run(capsys, "basic-poly", "--group", "gamma7", "--format", "json")
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps([{"n": 17, "poly": json.loads(out)}]))
        code, out, _ = run(
            capsys, "closure", "--base", str(base_file), "--bound", "100",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert {17, 33, 34, 49, 50, 51}.issubset(set(data["values"]))

    def test_entry_whose_polynomial_has_another_term_count_is_rejected(
        self, capsys, tmp_path
    ):
        """x^2 + 2xy + y^2 has 3 terms, so an entry claiming n = 5 is bad input."""
        square = Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps([{"n": 5, "poly": square.to_json_dict()}]))
        code, out, err = run(capsys, "closure", "--base", str(base_file), "--bound", "10")
        assert code == 2 and out == ""
        assert "entry 0 has n=5 but 3 terms" in err

    @pytest.mark.parametrize(
        "terms, failure",
        [
            ({(1, 0): 1, (0, 1): 2}, "constant_on_hyperplane"),
            ({(1, 0): 2, (0, 1): 2, (2, 0): -1, (1, 1): -2, (0, 2): -1}, "nonneg"),
            ({(0, 0): 1}, "zero_at_origin"),
        ],
        ids=["x + 2y", "2x + 2y - (x + y)^2", "1"],
    )
    def test_base_entry_that_is_not_special_is_rejected(self, capsys, tmp_path, terms, failure):
        poly = Polynomial(2, terms)
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps(
            [self.gamma7_entry(capsys), {"n": poly.term_count(), "poly": poly.to_json_dict()}]
        ))
        code, out, err = run(capsys, "closure", "--base", str(base_file), "--bound", "8")
        assert code == 2 and out == ""
        assert f"entry 1 is not special: fails {failure}" in err

    def test_fractional_n_is_rejected(self, capsys, tmp_path):
        entry = self.gamma7_entry(capsys)
        entry["n"] = 17.9
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps([entry]))
        code, out, err = run(capsys, "closure", "--base", str(base_file), "--bound", "40")
        assert code == 2 and out == ""
        assert "bad closure base" in err and "integer" in err

    def test_every_witness_is_checked_before_printing(self, capsys, tmp_path, monkeypatch):
        """A witness doubled by a faulty combine keeps its term count but is 2 on the hyperplane."""
        combine = invsp.gapsearch.combine_witness
        monkeypatch.setattr(
            invsp.gapsearch, "combine_witness", lambda *args: combine(*args).scale(2)
        )
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps([self.gamma7_entry(capsys)]))
        code, out, err = run(capsys, "closure", "--base", str(base_file), "--bound", "40")
        assert code == 1 and out == ""
        assert "closure witnesses that fail the special checks: [33, 34]" in err

    def test_help_says_invariance_is_not_checked(self, capsys):
        code, out, _ = run(capsys, "closure", "--help")
        assert code == 0
        assert "invariance is not checked" in " ".join(out.split())

    @staticmethod
    def gamma7_entry(capsys):
        code, out, _ = run(capsys, "basic-poly", "--group", "gamma7", "--format", "json")
        return {"n": 17, "poly": json.loads(out)}


def test_verify_paper_ledger(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
    assert len(lines) >= 40
    assert all("FAIL" not in l for l in lines)


def test_verify_paper_json_matches_pinned_ledger(capsys):
    """The whole 67-check ledger, details included, is pinned byte for byte."""
    pinned = (Path(__file__).parent / "fixtures" / "verify_paper.json").read_text()
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    assert out == pinned


def test_verify_paper_closure_bound_below_the_frontier_fails(capsys):
    """A closure bound of 34 leaves [37, 34] empty: the frontier check must fail."""
    code, out, _ = run(capsys, "verify-paper", "--closure-bound", "34", "--format", "json")
    assert code == 1
    data = json.loads(out)
    failed = [c for c in data["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["gamma7-frontier"]
    assert failed[0]["detail"] == "closure bound 34 is below the frontier 37"


def test_verify_paper_budget_reaches_every_sweep(capsys):
    code, out, _ = run(capsys, "verify-paper", "--budget", "10", "--format", "json")
    assert code == 1
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert passed["sparse-map-unconstrained"] is False
    assert passed["sparse-map-orthant"] is False
    # an inconclusive sweep proves no gap, so the triple is not the only undecided set
    assert passed["gamma7-undecided-triple"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["basic-poly", "--group", "gamma7"],
        ["tensor", "--group", "gamma7", "--h", "h.json"],
        ["validate", "--group", "gamma7", "poly.json"],
        ["family", "build", "--group", "gamma7", "--h-degree", "2"],
        ["family", "instantiate", "--family", "fam.json", "--point", "{}"],
        ["closure", "--base", "base.json", "--bound", "10"],
        ["gaps", "--group", "gamma7", "--max-degree", "9"],
        ["family", "l0range", "--family", "fam.json"],
        ["verify-paper"],
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "family" else argv[0],
)
def test_no_subcommand_takes_jobs(capsys, argv):
    code, _, err = run(capsys, *argv, "--jobs", "2")
    assert code == 2 and "unrecognized arguments: --jobs 2" in err


def test_import_loads_no_process_pool():
    """Every sweep runs in one process, so importing invsp starts no pool machinery."""
    src = os.path.dirname(os.path.dirname(invsp.__file__))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import invsp; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
