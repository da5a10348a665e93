"""Command line surface: subcommands, formats, exit codes, file stability."""

import csv
import json
import math

import pytest

from tierbroker import cli, simulation
from tierbroker.cli import COMPARE_ORDER, EXIT_CONFIG, EXIT_NO_NODE, EXIT_OK, main
from tierbroker.report import CSV_COLUMNS, report_to_dict
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR

MINIMAL = str(SCENARIO_DIR / "minimal.json")
SHIPPED = ("dealer_hours", "hot_cloud_service", "latency_mix", "minimal")


def test_run_writes_both_formats(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", MINIMAL, "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").is_file()
    assert (out / "metrics.json").is_file()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    # One service row and one run row.
    assert len(rows) == 3


def test_run_format_flag_selects_outputs(tmp_path):
    out_csv = tmp_path / "csv"
    main(["run", "--scenario", MINIMAL, "--out", str(out_csv), "--format", "csv"])
    assert (out_csv / "metrics.csv").is_file()
    assert not (out_csv / "metrics.json").exists()
    out_json = tmp_path / "json"
    main(["run", "--scenario", MINIMAL, "--out", str(out_json), "--format", "json"])
    assert (out_json / "metrics.json").is_file()
    assert not (out_json / "metrics.csv").exists()


def test_run_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", MINIMAL, "--out", str(a)])
    main(["run", "--scenario", MINIMAL, "--out", str(b)])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_run_seed_override(tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", MINIMAL, "--seed", "99", "--out", str(out)])
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["seed"] == 99


def test_run_policy_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", MINIMAL, "--policy", "mno-only",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["policy"] == "mno-only"


def test_compare_emits_fixed_policy_order(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "--scenario", MINIMAL, "--out", str(out)]) == EXIT_OK
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    policy_col = CSV_COLUMNS.index("policy")
    policies = []
    for row in rows[1:]:
        if row[policy_col] not in policies:
            policies.append(row[policy_col])
    assert tuple(policies) == COMPARE_ORDER
    payload = json.loads((out / "compare.json").read_text())
    assert [r["policy"] for r in payload] == list(COMPARE_ORDER)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_compare_reports_equal_independent_runs(monkeypatch, tmp_path, name, seed):
    # compare runs its last three policies over the stream its first drew;
    # each report must be the one a run drawing its own stream gives.
    path = str(SCENARIO_DIR / f"{name}.json")
    reports = []
    simulate = cli.simulate_scenario

    def noting(*args, **kwargs):
        result = simulate(*args, **kwargs)
        reports.append(report_to_dict(result.report))
        return result

    monkeypatch.setattr(cli, "simulate_scenario", noting)
    assert main(["compare", "--scenario", path, "--seed", str(seed),
                 "--out", str(tmp_path)]) == EXIT_OK
    scenario = load_scenario(path)
    assert reports == [
        report_to_dict(simulation.simulate_scenario(scenario, policy=policy, seed=seed).report)
        for policy in COMPARE_ORDER
    ]


def test_compare_draws_the_arrival_stream_once(monkeypatch, tmp_path):
    draws = []
    draw = simulation.generate_workload

    def counting(consumers, seed, horizon_ms):
        draws.append(seed)
        return draw(consumers, seed, horizon_ms)

    monkeypatch.setattr(simulation, "generate_workload", counting)
    for name in SHIPPED:
        assert main(["compare", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                     "--seed", "7", "--out", str(tmp_path / name)]) == EXIT_OK
    assert draws == [7] * len(SHIPPED)


@pytest.mark.parametrize("fmt, written, absent", [("json", "compare.json", "compare.csv"),
                                                  ("csv", "compare.csv", "compare.json")])
def test_compare_format_flag_selects_outputs(tmp_path, fmt, written, absent):
    out = tmp_path / "out"
    assert main(["compare", "--scenario", MINIMAL, "--out", str(out), "--format", fmt]) == EXIT_OK
    assert (out / written).is_file()
    assert not (out / absent).exists()


def test_validate_clean_scenario(capsys):
    assert main(["validate", "--scenario", MINIMAL]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_lists_violations(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    del data["tag_vocabulary"]
    data["services"][0]["version"] = "one"
    data["services"][0]["capability_tags"] = ["UPPER", "compute"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert "svc-echo: version:" in out
    assert "svc-echo: capability_tags:" in out


def test_vocabulary_violations_reported(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    data["tag_vocabulary"] = str(SCENARIO_DIR / "tags.txt")
    data["services"][0]["capability_tags"] = ["compute", "offvocab"]
    path = tmp_path / "offvocab.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == EXIT_CONFIG
    assert "offvocab" in capsys.readouterr().out


def test_unreadable_vocabulary_is_config_error(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    vocabulary = tmp_path / "tags.bin"
    vocabulary.write_bytes(b"compute\n\xff\xfe\x00binary\n")
    data["tag_vocabulary"] = str(vocabulary)
    path = tmp_path / "binvocab.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: scenario.tag_vocabulary: cannot read {vocabulary}: not UTF-8 text" in err


def test_missing_scenario_is_config_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"horizon_ms": }')
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_invalid_fields_are_listed(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    del data["tag_vocabulary"]
    data["horizon_ms"] = -1
    data["nodes"][0]["rtt_ms"] = -5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.horizon_ms" in err
    assert "scenario.nodes[0].rtt_ms" in err


def test_unplaceable_service_exit_code(tmp_path):
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    del data["tag_vocabulary"]
    data["nodes"][0]["trust"] = {"level": "Untrusted"}
    path = tmp_path / "untrusted.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_NO_NODE


@pytest.mark.parametrize(
    "field_path, mutate",
    [
        ("scenario.horizon_ms", lambda d: d.update(horizon_ms=math.inf)),
        ("scenario.consumers[0].rates.svc-echo",
         lambda d: d["consumers"][0]["rates"].update({"svc-echo": math.inf})),
        ("scenario.nodes[0].cpu_speed", lambda d: d["nodes"][0].update(cpu_speed=math.nan)),
        ("scenario.horizon_ms", lambda d: d.update(horizon_ms=10**400)),
    ],
    ids=["infinite-horizon", "infinite-rate", "nan-cpu-speed", "huge-int-horizon"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, field_path, mutate):
    # Python's json reads and writes NaN and Infinity; the parser must refuse them.
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    del data["tag_vocabulary"]
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"error: {field_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "field_path, mutate",
    [
        ("scenario.nodes[0].id", lambda d: d["nodes"][0].update(id="")),
        ("scenario.consumers[0].id", lambda d: d["consumers"][0].update(id="")),
        ("scenario.nodes[0].reputation.complaint_rate",
         lambda d: d["nodes"][0].update(
             reputation={"legal_registered": True, "years_active": 6, "complaint_rate": 1.5})),
    ],
    ids=["empty-node-id", "empty-consumer-id", "complaint-rate-above-one"],
)
def test_values_the_schema_forbids_are_config_errors(tmp_path, capsys, command, field_path, mutate):
    # Each of these once ran to exit 0 though the scenario schema rejects it.
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text())
    del data["tag_vocabulary"]
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = [command, "--scenario", str(bad)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {field_path}: " in capsys.readouterr().err
