"""Command-line interface."""

import json

import pytest

from repro import cli


def test_scenarios_lists_all(capsys):
    assert cli.main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("cellular", "wireline", "busy_cell", "driving_50mph"):
        assert name in out


def test_run_prints_summary(capsys):
    code = cli.main(
        ["run", "--scenario", "cellular", "--duration", "10", "--warmup", "0",
         "--scheme", "poi360", "--transport", "gcc"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_psnr_db" in out
    assert "excellent" in out


def test_run_json_output(capsys):
    code = cli.main(
        ["run", "--scenario", "cellular", "--duration", "10", "--warmup", "0",
         "--transport", "gcc", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "poi360"
    assert "freeze_ratio" in payload


def test_run_rejects_fbcc_on_wireline(capsys):
    code = cli.main(
        ["run", "--scenario", "wireline", "--transport", "fbcc", "--duration", "5"]
    )
    assert code == 2


def test_run_exports_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    frames = tmp_path / "t.csv"
    code = cli.main(
        ["run", "--scenario", "cellular", "--duration", "8", "--warmup", "0",
         "--transport", "gcc", "--export", str(trace), "--export-csv", str(frames)]
    )
    assert code == 0
    assert trace.exists() and frames.exists()
    from repro.metrics.export import read_json

    log = read_json(trace)
    assert log.frames_displayed > 50


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "--scheme", "hologram"])


def test_trace_dumps_jsonl(capsys):
    code = cli.main(["trace", "--scenario", "cellular", "--duration", "5"])
    assert code == 0
    out = capsys.readouterr().out
    names = {json.loads(line)["event"] for line in out.strip().splitlines()}
    assert "mode_switch" in names
    assert "fbcc.congestion" in names
    assert "fw_buffer" in names


def test_trace_event_filter_and_window(capsys):
    code = cli.main(
        ["trace", "--scenario", "cellular", "--duration", "3",
         "--events", "fw_buffer", "--since", "1.0", "--until", "2.0"]
    )
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert rows
    assert all(row["event"] == "fw_buffer" for row in rows)
    assert all(1.0 <= row["t"] <= 2.0 for row in rows)


def test_trace_rejects_unknown_event(capsys):
    code = cli.main(
        ["trace", "--scenario", "cellular", "--duration", "2", "--events", "nope"]
    )
    assert code == 2
    assert "unknown event" in capsys.readouterr().err


def test_trace_summary_format(capsys):
    code = cli.main(
        ["trace", "--scenario", "cellular", "--duration", "2", "--format", "summary"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lte" in out
    assert "fw_buffer" in out


def test_trace_writes_csv_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code = cli.main(
        ["trace", "--scenario", "cellular", "--duration", "2",
         "--events", "fw_buffer", "--format", "csv", "--output", str(path)]
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,event")
    assert len(lines) > 100


def test_trace_csv_stdout_equals_write_trace_csv(tmp_path, capsys):
    from repro.metrics import export
    from repro.obs import TraceBus
    from repro.telephony.session import TelephonySession
    from repro.traces.scenarios import scenario

    code = cli.main(
        ["trace", "--scenario", "cellular", "--duration", "2", "--seed", "4",
         "--scheme", "poi360", "--transport", "fbcc",
         "--events", "fw_buffer,fbcc.rate", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    config = scenario(
        "cellular", scheme="poi360", transport="fbcc", duration=2.0, seed=4
    )
    bus = TraceBus()
    TelephonySession(config, trace=bus).run(2.0, warmup=0.0)
    path = tmp_path / "trace.csv"
    rows = export.write_trace_csv(path, bus.select(names=["fw_buffer", "fbcc.rate"]))
    assert rows > 100
    assert out.encode() == path.read_bytes()


def test_profile_sort_and_limit(capsys):
    code = cli.main(
        ["profile", "--scenario", "cellular", "--duration", "2", "--warmup", "0",
         "--sort", "tottime", "--limit", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Ordered by: internal time" in out
    assert "List reduced" in out and "to 5 due to restriction" in out


def test_metrics_summary(capsys):
    code = cli.main(
        ["metrics", "--scenario", "cellular", "--duration", "5", "--warmup", "1",
         "--sessions", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sessions=1 workers=1" in out
    assert "receiver.frames" in out
    assert "receiver.delay_s (s):" in out
    assert "spans (wall clock)" in out
    assert "session.run" in out


def test_batch_text_headers_name_the_lockstep_sender(capsys):
    """``--batch`` runs FallbackRamp with flat ROI quality under the
    poi360/fbcc label, and the text headers say so; the event engine's
    do not."""
    sender = "lockstep sender: FallbackRamp in place of GCC, flat ROI quality"
    assert cli.main(
        ["metrics", "--batch", "--duration", "1", "--warmup", "0", "--sessions", "2"]
    ) == 0
    assert capsys.readouterr().out.splitlines()[1] == sender
    assert cli.main(["fleet", "--batch", "--calls", "1", "--duration", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == sender
    assert cli.main(["fleet", "--calls", "1", "--duration", "1"]) == 0
    assert "lockstep sender" not in capsys.readouterr().out


def test_metrics_openmetrics_passes_gate(tmp_path, capsys):
    path = tmp_path / "metrics.txt"
    code = cli.main(
        ["metrics", "--scenario", "cellular", "--duration", "5", "--warmup", "1",
         "--format", "openmetrics", "--output", str(path)]
    )
    assert code == 0
    text = path.read_text()
    assert text.endswith("# EOF\n")
    assert "repro_receiver_frames_total" in text

    import importlib.util
    from pathlib import Path

    tool = Path(cli.__file__).resolve().parents[2] / "tools" / "check_metrics.py"
    spec = importlib.util.spec_from_file_location("check_metrics_cli", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.check(text) == []


def test_metrics_json_format(capsys):
    code = cli.main(
        ["metrics", "--scenario", "cellular", "--duration", "5", "--warmup", "1",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"]["session.runs"] == 1
    assert "session.run" in payload["spans"]


def test_metrics_rejects_fbcc_on_wireline(capsys):
    code = cli.main(
        ["metrics", "--scenario", "wireline", "--transport", "fbcc",
         "--duration", "2"]
    )
    assert code == 2


def test_fleet_batch_rejects_unmodelled_pair(capsys):
    code = cli.main(
        ["fleet", "--batch", "--transport", "gcc", "--scheme", "conduit",
         "--calls", "1", "--duration", "1"]
    )
    assert code == 2
    assert "batch runs model only" in capsys.readouterr().err


def test_metrics_batch_rejects_a_named_profile(capsys):
    code = cli.main(
        ["metrics", "--batch", "--profile", "user4-restless", "--sessions", "2",
         "--duration", "1"]
    )
    assert code == 2
    assert "requires the event engine" in capsys.readouterr().err


def test_fleet_exits_2_on_job_value_error(monkeypatch, capsys):
    from repro.service import jobs

    def refuse(spec, **_kwargs):
        raise ValueError("refused by the job")

    monkeypatch.setattr(jobs, "execute_job", refuse)
    assert cli.main(["fleet", "--calls", "1", "--duration", "1"]) == 2
    assert "error: refused by the job" in capsys.readouterr().err
