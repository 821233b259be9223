import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

from wblow.cli import REPORT_SCHEMA, Report, RunSpec, run, run_batch, main


#: 4,300 nines: the longest number the notation reads; nine times it has 4,301 digits.
NINES = "9" * 4300


def make_spec(command, target=None, **params):
    return RunSpec(command=command, target=target, parameters=params)


def run_ok(command, target=None, **params):
    report = run(make_spec(command, target, **params))
    assert report.status == "ok", report.error
    assert report.exit_code == 0
    return report


class TestChartsCommand:
    def test_three_charts(self):
        report = run_ok("charts", "1/1(1,2,3)")
        charts = report.result["charts"]
        assert [c["quotient_type"]["notation"] for c in charts] == [
            "1/1(0,0,0)",
            "1/2(1,1,1)",
            "1/3(2,1,1)",
        ]
        assert [c["cone_index"] for c in charts] == [1, 2, 3]

    def test_single_chart_selection(self):
        report = run_ok("charts", "1/1(1,2,3)", chart=2)
        assert len(report.result["charts"]) == 1
        assert report.result["charts"][0]["index"] == 2


class TestLiftCheckCommand:
    def test_pass(self):
        report = run_ok("lift-check", sigma_prime="1,2", m=1, a=1, dmax=6)
        assert report.result["check"]["status"] == "pass"

    def test_mutated_fails_with_exit_2(self):
        report = run(make_spec("lift-check", sigma_prime="1,2", m=1, a=1, dmax=6, mutate=1))
        assert report.status == "verification-failed"
        assert report.exit_code == 2
        assert report.result["check"]["counterexample"] is not None


class TestExample33Command:
    def test_reference_case(self):
        report = run_ok("example33", r=2, m=1, a=1)
        result = report.result
        assert result["surface_basis"] == [[0, 2], [1, 1], [2, 0]]
        assert result["relation"]["exponents"] == [1, 1, 2]
        assert result["action_lift"]["ok"] is True
        assert result["eigenvalue_class"] == 0
        assert result["checks_passed"] is True

    def test_trivial_surface_has_no_relation(self, capsys):
        # r*m = 1: the surface 1/1(0,0) has a 2-element basis, so no binomial relation
        assert main(["example33", "--r", "1", "--m", "1", "--a", "1", "--format", "json"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["surface_basis"] == [[0, 1], [1, 0]]
        assert (result["relation"], result["relation_ok"], result["checks_passed"]) == (None, False, False)

    def test_larger_case(self):
        report = run_ok("example33", r=3, m=2, a=2)
        assert report.result["checks_passed"] is True


class TestOtherCommands:
    def test_fan(self):
        report = run_ok("fan", "1/2(1,3)")
        assert report.result["subdivision_check"]["ok"] is True
        assert report.result["cone_indices"] == [1, 3]

    def test_ideal(self):
        report = run_ok("ideal", "1/1(2,3)", k="6")
        assert report.result["generators"] == [[0, 2], [3, 0], [2, 1]]

    def test_ideal_with_a_weight_of_ten_digits(self):
        # a box of 4 points: the answer must not cost anything per unit of the largest weight
        start = time.perf_counter()
        report = run_ok("ideal", "1/1(1,1000000000)", k="1")
        assert time.perf_counter() - start < 5
        assert report.result["generators"] == [[1, 0], [0, 1]]

    def test_wt(self):
        report = run_ok("wt", "1/2(1,1)", poly="x1^2+x2")
        assert report.result["weight"] == "1/2"

    def test_pushforward(self):
        report = run_ok("pushforward", "1/3(1,2,1)", f="x1*x2+x3^3")
        assert report.result["multiplicity"] == "1/1"
        assert any("recorded fact" in note for note in report.provenance)

    def test_transform(self):
        report = run_ok("transform", "1/1(1,1)", g="x1^2+x2^2", chart=1)
        assert report.result["factored_exponent"] == "2/1"
        assert {tuple(t["exponents"]) for t in report.result["residual"]} == {
            ("0/1", "0/1"),
            ("0/1", "2/1"),
        }

    def test_invariants(self):
        report = run_ok("invariants", "1/4(1,3)")
        assert report.result["basis"] == [[1, 1], [0, 4], [4, 0]]
        assert report.result["complete"] is True
        assert report.result["relation"]["exponents"] == [1, 1, 4]

    def test_truncation_compare(self):
        report = run_ok("truncation", "1/1(2,3)", b="6", d=2)
        assert report.result["equal"] is True and report.result["witness"] is None

    def test_truncation_find_stable(self):
        report = run_ok("truncation", "1/1(2,3)", find_stable=True, dmax=2, limit=8)
        assert report.result["stable_b"] == "6/1"

    def test_chain(self):
        report = run_ok("chain", "1/3(1,1,2)", a_sequence="2,1", dmax=3)
        assert report.result["status"] == "pass"
        assert [s["lifted_type"]["notation"] for s in report.result["stages"]] == [
            "1/3(1,1,2,1)",
            "1/3(1,1,2,1,1)",
        ]


class TestErrors:
    def test_parse_error_exit_1_with_position(self):
        report = run(make_spec("charts", "1/2(1"))
        assert report.status == "error" and report.exit_code == 1
        assert report.error["kind"] == "parse-error"
        assert report.error["position"] == 6

    def test_unknown_parameter_rejected(self):
        report = run(make_spec("charts", "1/1(1,1)", bogus=3))
        assert report.exit_code == 1
        assert report.error["kind"] == "invalid-instance"

    def test_missing_required_parameter(self):
        report = run(make_spec("ideal", "1/1(1,1)"))
        assert report.exit_code == 1

    def test_domain_error_from_library(self):
        report = run(make_spec("charts", "1/1(2,4)"))
        assert report.exit_code == 1
        assert report.error["kind"] == "invalid-weights"

    def test_unknown_command(self):
        report = run(make_spec("frobnicate", None))
        assert report.exit_code == 1


class TestBatch:
    def _write(self, tmp_path, entries):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return str(path)

    def test_two_passes(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"command": "lift-check", "parameters": {"sigma_prime": "1,2", "m": 1, "a": 1, "dmax": 4}},
                {"command": "lift-check", "parameters": {"sigma_prime": "1,1", "m": 1, "a": 1, "dmax": 4}},
            ],
        )
        report = run_batch(path)
        assert report.exit_code == 0
        assert [r["status"] for r in report.result["results"]] == ["ok", "ok"]

    def test_max_rule(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"command": "lift-check", "parameters": {"sigma_prime": "1,2", "m": 1, "a": 1}},
                {"command": "lift-check", "parameters": {"sigma_prime": "1,2", "m": 1, "a": 1, "mutate": 1}},
            ],
        )
        report = run_batch(path)
        assert report.exit_code == 2
        statuses = [r["status"] for r in report.result["results"]]
        assert statuses == ["ok", "verification-failed"]

    def test_empty_list(self, tmp_path):
        report = run_batch(self._write(tmp_path, []))
        assert report.exit_code == 0 and report.result["results"] == []

    def test_unreadable(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json", encoding="utf-8")
        report = run_batch(str(bad))
        assert report.exit_code == 1 and report.status == "error"
        assert report.error["kind"] == "batch-unreadable"

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe[", b'{"command": "fan"}'], ids=["not-utf8", "not-a-list"]
    )
    def test_unreadable_content(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        report = run_batch(str(bad))
        assert report.exit_code == 1 and report.error["kind"] == "batch-unreadable"
        jsonschema.validate(report.to_payload(), REPORT_SCHEMA)

    def test_results_in_input_order(self, tmp_path):
        entries = [
            {"command": "ideal", "target": f"1/1(1,{k})", "parameters": {"k": "3"}}
            for k in (5, 2, 4, 3)
        ]
        report = run_batch(self._write(tmp_path, entries))
        targets = [r["input"]["target"] for r in report.result["results"]]
        assert targets == [f"1/1(1,{k})" for k in (5, 2, 4, 3)]

    def _only_bad_entry_fails(self, tmp_path, bad_entry):
        good = {"command": "ideal", "target": "1/1(2,3)", "parameters": {"k": "6"}}
        report = run_batch(self._write(tmp_path, [good, bad_entry, good]))
        assert report.exit_code == 1 and report.status == "error"
        results = report.result["results"]
        assert [r["status"] for r in results] == ["ok", "error", "ok"]
        assert results[1]["error"]["kind"] == "invalid-instance"
        jsonschema.validate(report.to_payload(), REPORT_SCHEMA)

    def test_non_string_target_is_one_entry_error(self, tmp_path):
        self._only_bad_entry_fails(tmp_path, {"command": "charts", "target": 5})

    def test_non_object_parameters_is_one_entry_error(self, tmp_path):
        self._only_bad_entry_fails(
            tmp_path, {"command": "charts", "target": "1/1(1,2)", "parameters": [1]}
        )

    def test_non_object_entry_is_one_entry_error(self, tmp_path):
        self._only_bad_entry_fails(tmp_path, 1)

    def test_non_string_command_is_one_entry_error(self, tmp_path):
        self._only_bad_entry_fails(tmp_path, {"command": ["charts"], "target": "1/1(1,2)"})

    def test_non_ascii_digits_are_entry_parse_errors(self, tmp_path, capsys):
        good = {"command": "ideal", "target": "1/1(2,3)", "parameters": {"k": "6"}}
        entries = [
            good,
            {"command": "charts", "target": "1/\u00b2(1,2)"},
            {"command": "wt", "target": "1/1(1,2)", "parameters": {"poly": "x\u00b2"}},
            good,
        ]
        assert main(["batch", self._write(tmp_path, entries), "--format", "json"]) == 1
        results = json.loads(capsys.readouterr().out)["result"]["results"]
        assert [r["status"] for r in results] == ["ok", "error", "error", "ok"]
        assert [(r["error"]["kind"], r["error"]["position"]) for r in results[1:3]] == [
            ("parse-error", 3),
            ("parse-error", 2),
        ]

    def test_over_long_numbers_are_entry_parse_errors(self, tmp_path, capsys):
        good = {"command": "ideal", "target": "1/1(2,3)", "parameters": {"k": "6"}}
        entries = [
            good,
            {"command": "charts", "target": "1/1(" + "1" * 5000 + ",1)"},
            {"command": "wt", "target": "1/1(1,2)", "parameters": {"poly": "x1^" + "2" * 5000}},
            good,
        ]
        assert main(["batch", self._write(tmp_path, entries), "--format", "json"]) == 1
        results = json.loads(capsys.readouterr().out)["result"]["results"]
        assert [r["status"] for r in results] == ["ok", "error", "error", "ok"]
        assert [(r["error"]["kind"], r["error"]["position"]) for r in results[1:3]] == [
            ("parse-error", 5),
            ("parse-error", 4),
        ]


    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_over_long_results_are_entry_errors(self, tmp_path, capsys, fmt):
        good = {"command": "wt", "target": "1/1(1,9)", "parameters": {"poly": "x2^9"}}
        entries = [
            good,
            {"command": "wt", "target": "1/1(1,9)", "parameters": {"poly": "x2^" + NINES}},  # a weight
            {"command": "wt", "target": f"1/1(1{'0' * 2200},1{'0' * 2199}1)", "parameters": {"poly": "x1"}},  # an lcm
            good,
        ]
        assert main(["batch", self._write(tmp_path, entries), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if fmt == "text":  # the text summary renders no result, yet the entry fails as in JSON
            lines = captured.out.splitlines()
            assert "[1] wt: error (exit 1)" in lines and "[2] wt: error (exit 1)" in lines
            return
        results = json.loads(captured.out)["result"]["results"]
        assert [r["status"] for r in results] == ["ok", "error", "error", "ok"]
        assert [r["error"]["kind"] for r in results[1:3]] == ["out-of-domain"] * 2
        assert results[0]["result"]["weight"] == "81/1"


class TestExternalInterfaces:
    def test_enumeration_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("WBLOW_MAX_ENUM", "10")
        report = run(make_spec("ideal", "1/1(1,1,1)", k="9"))
        assert report.exit_code == 1
        assert report.error["kind"] == "enumeration-limit"
        assert "WBLOW_MAX_ENUM" in report.error["message"]

    def test_internal_consistency_maps_to_exit_3(self, monkeypatch):
        import wblow.cli as cli_mod

        monkeypatch.setattr(cli_mod.blowup, "fan_is_subdivision", lambda fan, grid=4: False)
        report = run(make_spec("fan", "1/1(1,2)"))
        assert report.exit_code == 3
        assert report.error["kind"] == "internal-consistency"

    def test_batch_entry_with_unknown_keys(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps([{"command": "fan", "target": "1/1(1,1)", "oops": 1}]))
        report = run_batch(str(path))
        assert report.exit_code == 1
        assert report.result["results"][0]["status"] == "error"

    def test_truncation_requires_a_mode(self):
        report = run(make_spec("truncation", "1/1(1,2)"))
        assert report.exit_code == 1


class TestJsonSchema:
    def test_every_envelope_key_is_required_in_order(self):
        keys = ["schema_version", "command", "input", "status", "exit_code", "result", "error",
                "provenance"]
        assert REPORT_SCHEMA["required"] == keys == list(REPORT_SCHEMA["properties"])
        assert list(Report("wt", {}).to_payload()) == keys

    def test_reports_validate(self):
        specs = [
            make_spec("charts", "1/1(1,2,3)"),
            make_spec("charts", "1/5(1,2,3)", chart=1),
            make_spec("fan", "1/2(1,3)"),
            make_spec("ideal", "1/1(2,3)", k="6"),
            make_spec("ideal", "1/4(1,2,3)", k="5/2"),
            make_spec("wt", "1/2(1,1)", poly="x1^2+x2"),
            make_spec("pushforward", "1/3(1,2,1)", f="x1*x2+x3^3"),
            make_spec("transform", "1/1(1,1)", g="x1^2+x2^2", chart=1),
            make_spec("lift-check", sigma_prime="1,2", m=1, a=1, dmax=4),
            make_spec("lift-check", sigma_prime="1,2", m=1, a=1, dmax=4, mutate=1),
            make_spec("chain", "1/2(1,1,1)", a_sequence="1"),
            make_spec("invariants", "1/4(1,3)"),
            make_spec("example33", r=2, m=1, a=1),
            make_spec("truncation", "1/1(2,3)", b="6", d=2),
            make_spec("truncation", "1/1(1,2)", find_stable=True),
            make_spec("charts", "1/2(1"),  # error report
            make_spec("charts", "1/1(2,4)"),  # domain error report
        ]
        for spec in specs:
            payload = run(spec).to_payload()
            jsonschema.validate(payload, REPORT_SCHEMA)

    def test_json_is_deterministic_in_process(self):
        spec = make_spec("example33", r=2, m=1, a=1)
        assert run(spec).to_json() == run(spec).to_json()


class TestMainEntry:
    def test_main_exit_codes(self, capsys):
        assert main(["charts", "1/1(1,2,3)", "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["command"] == "charts"

    def test_main_error_to_stderr(self, capsys):
        code = main(["charts", "1/2(1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["position"] == 6

    def test_subprocess_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wblow", "lift-check", "--sigma-prime", "1,2",
             "--m", "1", "--a", "1", "--dmax", "4", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["check"]["status"] == "pass"

    def test_ideal_command_does_not_load_lifting(self):
        # -X importtime lists every module the process imports on stderr
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "wblow", "ideal", "1/5(1,2,3)",
             "--k", "2", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "ideal"
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "wblow.wideal" in imported
        assert "wblow.lifting" not in imported

    def test_fan_grid_without_sample_points_exits_1(self, capsys):
        assert main(["fan", "1/1(1,2)", "--grid", "-1", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["error"]["kind"] == "invalid-instance"
        assert "grid" in payload["error"]["message"]

    def test_fan_grid_of_zero_exits_1(self, capsys):
        assert main(["fan", "1/1(1,2)", "--grid", "0", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["message"] == "the sample grid must be at least 1, got 0"

    def test_fan_grid_is_echoed_and_not_charged(self, capsys, monkeypatch):
        # 201^4 grid points, about 1.6e9, would be over the default cap; the exact check samples none
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        assert main(["fan", "1/1(1,1,1,1)", "--grid", "200", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["result"]["subdivision_check"] == {"grid": 200, "ok": True}

    def test_fan_in_six_variables_reports(self, capsys, monkeypatch):
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        assert main(["fan", "1/1(1,1,1,1,1,1)", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["result"]["subdivision_check"] == {"grid": 4, "ok": True}
        assert payload["result"]["cone_indices"] == [1] * 6

    def test_lift_check_sweep_over_budget_exits_1(self, capsys, monkeypatch):
        # charged (n - 1 + degrees) * A = (2 + 10^8) * 2 sweep steps before anything sized by dmax exists
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        argv = ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1",
                "--dmax", "100000000", "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["error"]["kind"] == "enumeration-limit"
        assert "200000004" in payload["error"]["message"]

    def test_invariants_past_the_former_box_reports(self, capsys, monkeypatch):
        # refused at C(244, 4) = 144,084,501 candidates before the Davenport cap
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        assert main(["invariants", "1/60(1,7,11,13)", "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["degree_bound"] == 240 and result["complete"] is True
        assert max(sum(g) for g in result["basis"]) <= 60

    def test_invariants_charge_the_capped_candidates(self, capsys, monkeypatch):
        # C(min(240, 60) + 4, 4) = 635,376 candidates
        monkeypatch.setenv("WBLOW_MAX_ENUM", "635375")
        assert main(["invariants", "1/60(1,7,11,13)", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["kind"] == "enumeration-limit"
        assert "635376" in payload["error"]["message"]

    def test_pushforward_levels_refused_before_any_is_built(self, capsys, monkeypatch):
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        start = time.perf_counter()
        argv = ["pushforward", "1/1(1,1)", "--f", "x1", "--a-max", "100000000", "--format", "json"]
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == "enumeration-limit"

    def test_batch_report_goes_to_stdout_once_the_file_was_read(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"command": "charts", "target": 5}]), encoding="utf-8")
        assert main(["batch", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["status"] == "error"
        assert payload["result"]["results"][0]["error"]["kind"] == "invalid-instance"
        # an unreadable file yields no result, so its report is an error report
        assert main(["batch", str(tmp_path / "missing.json"), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == "batch-unreadable"

    def test_broken_pipe_exits_with_the_report_code(self, monkeypatch):
        read_end, write_end = os.pipe()

        class ClosedReader:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return write_end

        monkeypatch.setattr(sys, "stdout", ClosedReader())
        try:
            assert main(["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1",
                         "--mutate", "1", "--format", "json"]) == 2
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_broken_pipe_in_a_process_leaves_no_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wblow", "lift-check", "--sigma-prime", "1,2",
                 "--m", "1", "--a", "1", "--dmax", "4", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "argv, message, position",
        [
            (["charts", "1/\u00b2(1,2)"], "expected an integer, found '\u00b2'", 3),
            (["wt", "1/1(1,2)", "--poly", "x\u00b2"], "expected a variable index after 'x'", 2),
        ],
        ids=["order", "variable-index"],
    )
    def test_non_ascii_digit_exits_1_with_parse_report(self, capsys, argv, message, position):
        assert main([*argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {
            "kind": "parse-error",
            "message": f"{message} (position {position})",
            "position": position,
        }

    @pytest.mark.parametrize(
        "argv",
        [["wt", "1/1(1,2)", "--poly", "1" * 5000 + "x1"], ["charts", "1/1(" + "1" * 5000 + ",1)"]],
        ids=["coefficient", "weight"],
    )
    def test_over_long_number_exits_1_with_parse_report(self, capsys, argv):
        assert main([*argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        position = 1 if argv[0] == "wt" else 5
        assert payload["error"] == {
            "kind": "parse-error",
            "message": f"integer of 5000 digits is too long (position {position})",
            "position": position,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["wt", "1/1(1,9)", "--poly", "x2^" + NINES],  # a weight of 4,301 digits
            ["wt", "1/1(1,9)", "--poly", f"x2^{NINES}*x2^9"],  # an exponent of 4,301 digits
            ["wt", f"1/1(1{'0' * 2200},1{'0' * 2199}1)", "--poly", "x1"],  # an lcm of 4,401 digits
        ],
        ids=["weight", "exponent", "lcm"],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_over_long_result_exits_1_with_report(self, capsys, argv, fmt):
        assert main([*argv, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        if fmt == "text":
            assert "error[out-of-domain]: the result holds an integer of more than 4300 digits" in captured.err
            return
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["error"] == {
            "kind": "out-of-domain",
            "message": "the result holds an integer of more than 4300 digits, too long to be written as text",
        }

    def test_run_refuses_an_over_long_result_itself(self):
        # lcm(weights) has 4,401 digits: run refuses it before any report is rendered
        report = run(RunSpec("wt", f"1/1(1{'0' * 2200},1{'0' * 2199}1)", {"poly": "x1"}))
        assert (report.status, report.exit_code, report.result) == ("error", 1, None)
        assert report.error == {
            "kind": "out-of-domain",
            "message": "the result holds an integer of more than 4300 digits, too long to be written as text",
        }

    @pytest.mark.parametrize(
        "command, parameters, name",
        [
            ("lift-check", {"sigma_prime": "1,2", "m": 1, "a": 1, "dmax": 10**5000}, "dmax"),
            ("lift-check", {"sigma_prime": "1,2", "m": 10**4400, "a": -(10**4301), "dmax": 3}, "a"),
            ("ideal", {"k": 10**5000}, "k"),  # the wrong type too: refused before validation
        ],
        ids=["dmax", "first-in-name-order", "before-validation"],
    )
    def test_run_refuses_an_over_long_parameter_and_its_report_renders(self, command, parameters, name):
        target = "1/1(1,2)" if command == "ideal" else None
        report = run(RunSpec(command, target, parameters))
        assert (report.status, report.exit_code, report.result) == ("error", 1, None)
        message = (
            f"parameter {name!r} holds an integer of more than 4300 digits, too long to be written as text"
        )
        assert report.error == {"kind": "out-of-domain", "message": message}
        echo = json.loads(report.to_json())["input"]["parameters"]
        long = {key for key, value in parameters.items() if type(value) is int and abs(value) > 10**4300}
        assert {key for key in echo if echo[key] == "<an integer of more than 4300 digits>"} == long
        assert f"error[out-of-domain]: {message}" in report.to_text().splitlines()

    def test_over_long_integer_in_a_message_exits_1_with_report(self, capsys):
        # lcm(weights)/m has 4,401 digits; the refusal of b spells it, which the interpreter refuses
        target = f"1/1(1{'0' * 2200},1{'0' * 2199}1)"
        assert main(["truncation", target, "--b", "1", "--d", "2", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "out-of-domain"

    def test_over_long_result_prints_with_the_digit_limit_off(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wblow", "wt", "1/1(1,9)", "--poly", "x2^" + NINES,
             "--format", "json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert proc.returncode == 0 and proc.stderr == ""
        # 9 * NINES = 8 then 4,299 nines then 1; spelled out, as this process keeps the limit
        assert json.loads(proc.stdout)["result"]["weight"] == "8" + "9" * 4299 + "1/1"

    def test_other_value_errors_are_not_taken_for_the_digit_limit(self, monkeypatch):
        import wblow.cli as cli_mod

        def broken(f, system):
            raise ValueError("an unrelated fault")

        monkeypatch.setattr(cli_mod.wideal, "polynomial_weight", broken)
        with pytest.raises(ValueError, match="an unrelated fault"):
            main(["wt", "1/1(1,9)", "--poly", "x2", "--format", "json"])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # with the limit off no error is the digit limit
        try:
            with pytest.raises(ValueError, match="an unrelated fault"):
                main(["wt", "1/1(1,9)", "--poly", "x2", "--format", "json"])
        finally:
            sys.set_int_max_str_digits(limit)

    def test_other_value_errors_in_rendering_propagate(self, monkeypatch):
        def broken(report):
            raise ValueError("an unrelated fault")

        monkeypatch.setattr(Report, "to_json", broken)
        with pytest.raises(ValueError, match="an unrelated fault"):
            main(["wt", "1/1(1,9)", "--poly", "x2", "--format", "json"])

    def test_over_long_budget_count_is_an_enumeration_limit(self, capsys):
        # the nominal box (10^4300)^2 is too long to print, so the refusal names its size in bits
        assert main(["ideal", "1/1(1,1)", "--k", NINES, "--format", "json"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "enumeration-limit"
        assert "needs more than 2^28568 enumeration steps" in error["message"]

    def test_bad_power_split_exits_3(self, capsys, monkeypatch):
        import wblow.wideal as wideal_mod

        monkeypatch.setattr(wideal_mod, "_power_split", lambda g, weights, lo, hi: g)
        assert main(["truncation", "1/1(2,3)", "--b", "6", "--d", "2", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["exit_code"] == 3
        assert payload["error"]["kind"] == "internal-consistency"

    def test_only_unequal_powers_are_charged_their_sums(self, capsys, monkeypatch):
        # I_30^8 != I_240 for 1/1(6,10,15,1): C(23 + 7, 8) = 5,852,925 d-fold sums,
        # over the cap, while the largest staircase box, 4,199,425 points, is under it
        monkeypatch.setenv("WBLOW_MAX_ENUM", "5000000")
        argv = ["truncation", "1/1(6,10,15,1)", "--b", "30", "--d", "8", "--format", "json"]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "enumeration-limit"
        assert "d-fold products of generators needs 5852925" in error["message"]
        # equal ideals build no sums: C(G + 2, 3) = 6,044,060 here, also over the cap
        argv = ["truncation", "1/1(15,2,1,1)", "--b", "30", "--d", "3", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["equal"] is True

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["lift-check", "--sigma-prime", "\u0661,\u0662", "--m", "1", "--a", "1"], "sigma-prime"),
            (["transform", "1/1(1,1)", "--g", "x1^2+x2^2", "--chart", "\u0661"], "--chart"),
            (["lift-check", "--sigma-prime", "1,2", "--m", "1_0", "--a", "1"], "--m"),
        ],
        ids=["csv-arabic-indic", "flag-arabic-indic", "flag-underscore"],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv, flag):
        assert main([*argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["error"]["kind"] == "invalid-instance"
        assert flag in payload["error"]["message"]

    def test_integer_flags_allow_surrounding_spaces_and_a_sign(self, capsys):
        argv = ["lift-check", "--sigma-prime", " 1 , 2 ", "--m", " 1", "--a", "+1 ", "--format", "json"]
        assert main(argv) == 0
        instance = json.loads(capsys.readouterr().out)["result"]["instance"]
        assert (instance["base_weights"], instance["m"]) == ([1, 2], 1)

    def test_missing_required_flag_exits_1_with_report(self, capsys):
        assert main(["ideal", "1/1(2,3)", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"]["kind"] == "invalid-instance"
        assert "'k'" in payload["error"]["message"]

    def test_unconvertible_flag_exits_1_with_json_report(self, capsys):
        argv = ["lift-check", "--sigma-prime", "1,2", "--m", "x", "--a", "1", "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["command"] == "lift-check"
        assert payload["error"]["kind"] == "invalid-instance"
        assert "--m" in payload["error"]["message"]

    def test_usage_error_in_text_format(self, capsys):
        assert main(["lift-check", "--sigma-prime", "1,2", "--m", "x", "--a", "1"]) == 1
        err = capsys.readouterr().err
        assert "status: error" in err and "error[invalid-instance]" in err

    def test_unknown_flag_and_unknown_command_exit_1(self, capsys):
        assert main(["charts", "1/1(1,2)", "--bogus", "3", "--format=json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invalid-instance"
        assert main(["frobnicate"]) == 1
        assert "error[invalid-instance]" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lift-check", "-h"])
        assert exc.value.code == 0
        assert "--sigma-prime" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, shown",
        [("lift-check", ["--dmax DMAX", "(default: 6)"]),
         ("truncation", ["(default: False)", "(default: 3)", "(default: 8)"])],
    )
    def test_help_lists_the_table_defaults(self, capsys, command, shown):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for text in shown:
            assert text in out

    def test_text_format_mentions_status(self, capsys):
        assert main(["wt", "1/2(1,1)", "--poly", "x1"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "weight: 1/2" in out


class TestErrorPaths:
    """Command-line error paths, each pinned by its exit code, kind and message."""

    @pytest.mark.parametrize(
        "env, argv, kind, message",
        [
            (None, ["lift-check", "--sigma-prime", "1,2", "--m", "0", "--a", "1"],
             "invalid-instance", "group order must be a positive integer, got 0"),
            (None, ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "0"],
             "invalid-instance", "multiplier must be a positive integer, got 0"),
            (None, ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--mutate", "-2"],
             "invalid-instance", "mutated lifted weight 0 is not a positive weight"),
            (None, ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--dmax", "0"],
             "invalid-instance", "d_max must be >= 1, got 0"),
            (None, ["charts", "1/1(1,2)x"],
             "parse-error", "trailing input after the weight system (position 9)"),
            (None, ["invariants", "1/3(1,2)x"],
             "parse-error", "trailing input after the quotient type (position 9)"),
            (None, ["invariants", "1/2(1,1;0){g=x1^2}}"],
             "parse-error", "trailing input after the hyperquotient (position 19)"),
            (None, ["ideal", "1/1(1,2)", "--k", "1/2x"],
             "parse-error", "trailing input after the rational (position 4)"),
            ("abc", ["ideal", "1/1(1,2)", "--k", "3"],
             "enumeration-limit", "WBLOW_MAX_ENUM must be an integer, got 'abc'"),
            ("0", ["ideal", "1/1(1,2)", "--k", "3"],
             "enumeration-limit", "WBLOW_MAX_ENUM must be positive"),
            (None, ["invariants", "1/2(1,1,1;0){g=x1^2+x2^2}"],
             "invalid-instance", "invariants takes a cyclic quotient type"),
            (None, ["pushforward", "1/1(1,1)", "--f", "x1", "--a-max", "-1"],
             "out-of-domain", "a_max must be non-negative, got -1"),
            (None, ["pushforward", "1/1(1,1)", "--f", "0"],
             "undefined-weight", "the zero polynomial defines no divisor"),
            (None, ["transform", "1/1(1,1)", "--g", "0", "--chart", "1"],
             "undefined-weight", "the zero polynomial has no strict transform"),
            ("1000", ["truncation", "1/1(2,3)", "--b", "600", "--d", "2"],
             "enumeration-limit",
             "minimal generator enumeration needs 241001 enumeration steps, over the limit"
             " of 1000; raise WBLOW_MAX_ENUM to allow it"),
            (None, ["truncation", "1/1(2,3)", "--find-stable", "--dmax", "1"],
             "invalid-instance", "d_max must be at least 2, got 1"),
            (None, ["truncation", "1/1(2,3)", "--find-stable", "--limit", "0"],
             "invalid-instance", "search_limit must be at least 1, got 0"),
            (None, ["invariants", "1/4(1,3)", "--degree-bound", "0"],
             "invalid-instance", "degree bound must be at least 1"),
            (None, ["example33", "--r", "2", "--m", "1", "--a", "1", "--exponent-n", "1"],
             "invalid-instance", "the last-variable exponent must be at least 2"),
            ("90", ["pushforward", "1/1(1,2)", "--f", "x1^2+x2", "--a-max", "12"],
             "enumeration-limit",
             "minimal generator enumeration needs 91 enumeration steps, over the limit"
             " of 90; raise WBLOW_MAX_ENUM to allow it"),
            (None, ["charts", "1/0(1,2)"],
             "invalid-weights", "group order must be a positive integer, got 0"),
            # argparse takes a value that starts with '-' and is not a number for a flag
            (None, ["ideal", "1/1(1)", "--k", "-1/2"],
             "invalid-instance", "argument --k: expected one argument"),
            (None, ["invariants", "1/0(1,2)"],
             "invalid-weights", "group order must be a positive integer, got 0"),
            (None, ["wt", "1/1(1,2)", "--poly", "x1^0"],
             "parse-error", "exponents must be positive (position 5)"),
            # 11 charts of 11 x 11 entries: the first size a cap of 1,000 refuses
            ("1000", ["charts", "1/1(" + ",".join(["1"] * 11) + ")"],
             "enumeration-limit",
             "chart substitution listing needs 1331 enumeration steps, over the limit"
             " of 1000; raise WBLOW_MAX_ENUM to allow it"),
            (None, ["truncation", "1/1(2,3)", "--b", "0", "--d", "2"],
             "invalid-instance", "b must be a positive multiple of lcm(weights)/m = 6, got 0"),
        ],
    )
    def test_exit_1_with_kind_and_message(self, capsys, monkeypatch, env, argv, kind, message):
        if env is not None:
            monkeypatch.setenv("WBLOW_MAX_ENUM", env)
        assert main([*argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert {k: payload["error"][k] for k in ("kind", "message")} == {
            "kind": kind, "message": message
        }

    @pytest.mark.parametrize("n, chart", [(10, None), (11, 1)])
    def test_charts_under_the_cap_are_answered(self, monkeypatch, n, chart):
        # 10 charts of 10 x 10 entries, or one chart of 11 x 11, fit a cap of 1,000
        monkeypatch.setenv("WBLOW_MAX_ENUM", "1000")
        params = {} if chart is None else {"chart": chart}
        report = run_ok("charts", "1/1(" + ",".join(["1"] * n) + ")", **params)
        assert len(report.result["charts"]) == (n if chart is None else 1)

    def test_negative_fraction_joined_to_its_flag(self, capsys):
        assert main(["ideal", "1/1(1)", "--k=-1/2", "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["k"] == "-1/2" and result["generators"] == [[0]]

    def test_power_outside_the_truncation_exits_3(self, capsys, monkeypatch):
        import wblow.wideal as wideal_mod

        monkeypatch.setattr(wideal_mod, "minimalize", lambda sums: ((0, 0, 0, 0),))
        argv = ["truncation", "1/1(6,10,15,1)", "--b", "30", "--d", "2", "--format", "json"]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"] == {
            "kind": "internal-consistency",
            "message": "the power ideal escaped the truncation ideal; weights must add",
        }

    def test_pushforward_at_level_zero_reports_one_level(self, capsys):
        assert main(["pushforward", "1/1(1,2)", "--f", "x1", "--a-max", "0", "--format", "json"]) == 0
        levels = json.loads(capsys.readouterr().out)["result"]["levels"]
        assert [(level["a"], level["generators"]) for level in levels] == [(0, [[0, 0]])]

    def test_pushforward_is_charged_its_top_box_first(self, capsys, monkeypatch):
        # the top level, a = 12, walks (12 + 1) * (6 + 1) = 91 points: the largest box
        monkeypatch.setenv("WBLOW_MAX_ENUM", "91")
        argv = ["pushforward", "1/1(1,2)", "--f", "x1^2+x2", "--a-max", "12", "--format", "json"]
        assert main(argv) == 0
        levels = json.loads(capsys.readouterr().out)["result"]["levels"]
        assert [level["a"] for level in levels] == list(range(13))
        assert levels[0]["generators"] == [[0, 0]]
        assert levels[12]["generators"][0] == [0, 6]

    def test_two_variable_type_without_a_binomial_relation_notes_why(self, capsys):
        assert main(["invariants", "1/5(1,2)", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["relation"] is None
        assert payload["provenance"] == [
            "no binomial relation: invariant basis has 4 generators; only the 3-generator"
            " case carries a single binomial relation"
        ]

    def test_chain_notes_a_divided_out_factor(self, capsys):
        assert main(["chain", "1/4(2,2,2)", "--a-sequence", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stage 1: weights shared a factor 2, divided out before lifting" in payload["provenance"]
        assert payload["result"]["stages"][0]["instance"]["normalization_factor"] == 2

    def test_find_stable_without_a_stable_b_reports_null(self, capsys):
        argv = ["truncation", "1/1(6,10,15,1)", "--find-stable", "--limit", "1", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["stable_b"] is None

    def test_missing_batch_file_in_text(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        assert main(["batch", path, "--format", "text"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"batch: {path}",
            "status: error",
            f"error: [Errno 2] No such file or directory: {path!r}",
        ]
