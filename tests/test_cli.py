"""Command line behavior: subcommands, exit codes, deterministic outputs."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

import graphfill
from graphfill import backends, cli, harness
from graphfill.cli import build_parser, main
from graphfill.datasets import load_bundle
from graphfill.harness import RunResult
from graphfill.messenger import PromptTemplate
from graphfill.signals import MaskSpec, read_mask_file

ROOT = Path(__file__).parent.parent
TOY = str(ROOT / "fixtures" / "toy" / "manifest.txt")


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- synth/mask


def test_synth_writes_loadable_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_cli("synth", "--out", str(out), "--nodes", "12", "--steps", "7",
                   "--seed", "4", "--units", "m/s") == 0
    graph, series, units = load_bundle(out / "manifest.txt")
    assert graph.num_nodes == 12
    assert series.num_steps == 7
    assert units == "m/s"
    assert "12 nodes" in capsys.readouterr().out


def run_under_an_ascii_locale(*argv):
    """The command line in a child process whose locale's encoding is ASCII."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONCOERCECLOCALE": "0",
           "LC_ALL": "C", "PYTHONUTF8": "0"}
    return subprocess.run([sys.executable, "-m", "graphfill.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def test_synth_writes_utf8_under_an_ascii_locale(tmp_path):
    """Files are UTF-8 whatever the locale: the unit label "°C" round-trips."""
    out = tmp_path / "bundle"
    done = run_under_an_ascii_locale("synth", "--out", out, "--nodes", "10", "--steps", "5", "--units", "°C")
    assert done.returncode == 0, done.stderr
    assert load_bundle(out / "manifest.txt")[2] == "°C"


def test_synth_refuses_units_a_manifest_cannot_hold(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_cli("synth", "--out", str(out), "--nodes", "10", "--steps", "5", "--units", "m\ns") == 2
    assert "'m\\ns'" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_units_utf8_cannot_encode(tmp_path, capsys):
    # The command line decodes the byte 0xff of --units $'\xff' as the lone surrogate "\udcff".
    out = tmp_path / "bundle"
    assert run_cli("synth", "--out", str(out), "--nodes", "10", "--steps", "5", "--units", "\udcff") == 2
    assert "units label '\\udcff'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_writes_its_csv_under_an_ascii_locale(tmp_path):
    """stdout escapes what an ASCII terminal cannot show; the CSV is UTF-8 all the same."""
    bundle, runs, table = tmp_path / "bundle", tmp_path / "runs", tmp_path / "table.csv"
    assert run_under_an_ascii_locale("synth", "--out", bundle, "--nodes", "10", "--steps", "5",
                                     "--units", "°C").returncode == 0
    for predictor in ("mock", "zero"):
        assert run_under_an_ascii_locale("run", "--manifest", bundle / "manifest.txt", "--predictor", predictor,
                                         "--runs", "1", "--out", runs).returncode == 0
    done = run_under_an_ascii_locale("compare", runs / "mock.json", runs / "zero.json", "--csv", table)
    assert done.returncode == 0, done.stderr
    assert "units=°C" in table.read_text(encoding="utf-8")
    assert "units=\\xb0C" in done.stdout


def test_mask_subcommand(tmp_path):
    out = tmp_path / "mask.txt"
    assert run_cli("mask", "--nodes", "10", "--fraction", "0.3", "--seed", "2",
                   "--out", str(out)) == 0
    assert read_mask_file(out).num_missing == 3


def test_mask_from_manifest(tmp_path):
    out = tmp_path / "mask.txt"
    assert run_cli("mask", "--manifest", TOY, "--fraction", "0.3", "--seed", "0",
                   "--out", str(out)) == 0
    assert read_mask_file(out).num_nodes == 3


# ---------------------------------------------------------------- run


def test_run_mock_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "results"
    code = run_cli("run", "--manifest", TOY, "--predictor", "mock", "--runs", "5",
                   "--seed", "3", "--out", str(out))
    assert code == 0
    result = RunResult.load(out / "mock.json")
    assert result.runs == 5
    assert len(result.per_run_mse) == 5
    assert (out / "mock_per_step.csv").is_file()
    assert (out / "mock_mse_over_time.csv").is_file()
    assert "mse_all" in capsys.readouterr().out


def test_run_with_explicit_mask_file(tmp_path):
    mask_path = tmp_path / "mask.txt"
    mask_path.write_text("1 0 1\n")
    out = tmp_path / "results"
    assert run_cli("run", "--manifest", TOY, "--predictor", "glms", "--bandwidth", "2",
                   "--mask-file", str(mask_path), "--runs", "2", "--out", str(out)) == 0
    result = RunResult.load(out / "glms.json")
    assert result.config["mask"]["mode"] == "explicit"


def test_run_glms_and_compare(tmp_path, capsys):
    for predictor in ("glms", "gsign", "mock"):
        assert run_cli("run", "--manifest", TOY, "--predictor", predictor, "--bandwidth", "2",
                       "--runs", "2", "--seed", "1", "--out", str(tmp_path / predictor)) == 0
    capsys.readouterr()
    code = run_cli(
        "compare",
        str(tmp_path / "glms" / "glms.json"),
        str(tmp_path / "gsign" / "gsign.json"),
        str(tmp_path / "mock" / "mock.json"),
        "--csv", str(tmp_path / "table.csv"),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("\n[") == 3  # one config footnote per model
    assert (tmp_path / "table.csv").read_text().count("\n") == 4


def test_compare_creates_the_directory_of_its_csv(tmp_path, capsys):
    assert run_cli("run", "--manifest", TOY, "--predictor", "zero", "--runs", "1",
                   "--out", str(tmp_path / "r")) == 0
    table = tmp_path / "r" / "new" / "dir" / "t.csv"
    assert run_cli("compare", str(tmp_path / "r" / "zero.json"), "--csv", str(table)) == 0
    assert table.read_text(encoding="utf-8").startswith("model,mse_all,")
    assert f"table written to {table}" in capsys.readouterr().out


def test_run_byte_identical_outputs(tmp_path):
    args = ["run", "--manifest", TOY, "--predictor", "mock", "--runs", "4", "--seed", "11"]
    assert run_cli(*args, "--out", str(tmp_path / "a"), "--svg") == 0
    assert run_cli(*args, "--out", str(tmp_path / "b"), "--svg") == 0
    for name in ("mock.json", "mock_per_step.csv", "mock_mse_over_time.csv", "mock.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_zero_predictor(tmp_path):
    assert run_cli("run", "--manifest", TOY, "--predictor", "zero", "--runs", "1",
                   "--out", str(tmp_path)) == 0


def test_svg_title_is_escaped(tmp_path):
    name = "a&b<c>d"
    assert run_cli("run", "--manifest", TOY, "--predictor", "mock", "--name", name,
                   "--svg", "--out", str(tmp_path)) == 0
    doc = minidom.parse(str(tmp_path / f"{name}.svg"))  # raises on malformed XML
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert texts[-1] == name


def bundle_copy(tmp_path):
    """The toy bundle, a mask file and the default template as files under ``tmp_path``."""
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for src in Path(TOY).parent.iterdir():
        (bundle / src.name).write_bytes(src.read_bytes())
    (bundle / "mask.txt").write_text("1 0 1\n")
    (bundle / "template.txt").write_text(PromptTemplate.default().body)
    return bundle


@pytest.mark.parametrize("name", ["manifest.txt", "edges.txt", "signal.csv", "mask.txt", "template.txt",
                                  "replay.jsonl"])
def test_every_input_file_may_start_with_a_byte_order_mark(tmp_path, name):
    bundle = bundle_copy(tmp_path)
    inputs = ["--manifest", str(bundle / "manifest.txt"), "--mask-file", str(bundle / "mask.txt"),
              "--template", str(bundle / "template.txt"), "--runs", "1"]
    assert run_cli("replay-record", *inputs, "--predictor", "mock", "--out", str(tmp_path / "record"),
                   "--replay-out", str(bundle / "replay.jsonl")) == 0
    args = ["run", *inputs, "--predictor", "llm", "--backend", "replay", "--replay-file", str(bundle / "replay.jsonl")]

    def outputs(out):
        assert run_cli(*args, "--out", str(out)) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    plain = outputs(tmp_path / "plain")
    path = bundle / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert outputs(tmp_path / "bom") == plain


@pytest.mark.parametrize("name", ["manifest.txt", "mask.txt", "template.txt", "replay.jsonl"])
def test_an_input_file_that_is_not_utf8_is_a_load_error_naming_it(tmp_path, capsys, name):
    bundle = bundle_copy(tmp_path)
    inputs = ["--manifest", str(bundle / "manifest.txt"), "--mask-file", str(bundle / "mask.txt"),
              "--template", str(bundle / "template.txt"), "--runs", "1"]
    assert run_cli("replay-record", *inputs, "--predictor", "mock", "--out", str(tmp_path / "record"),
                   "--replay-out", str(bundle / "replay.jsonl")) == 0
    path = bundle / name
    path.write_bytes(path.read_bytes() + b"\xff")
    capsys.readouterr()
    assert run_cli("run", *inputs, "--predictor", "llm", "--backend", "replay",
                   "--replay-file", str(bundle / "replay.jsonl"), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff"), err


@pytest.mark.parametrize("edit, reason", [
    (lambda text: b"\xef\xbb\xbf" + text, None),
    (lambda text: text + b"\xff", "'utf-8' codec can't decode byte 0xff"),
    (lambda text: text[: len(text) // 2], "not a saved result: "),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "runs"}).encode(),
     "not a saved result: no field 'runs'"),
    (lambda text: json.dumps([json.loads(text)]).encode(), "not a saved result: "),
    (lambda text: b"[" * 100_000 + b"]" * 100_000, "not a saved result: maximum recursion depth"),
], ids=["bom", "0xff", "truncated", "missing-key", "top-level-list", "deeply-nested"])
def test_compare_names_a_result_file_it_cannot_read(tmp_path, capsys, edit, reason):
    assert run_cli("run", "--manifest", TOY, "--predictor", "zero", "--runs", "1", "--out", str(tmp_path)) == 0
    good, bad = tmp_path / "zero.json", tmp_path / "bad.json"
    bad.write_bytes(edit(good.read_bytes()))
    capsys.readouterr()
    code = run_cli("compare", str(good), str(bad))
    err = capsys.readouterr().err
    if reason is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err.startswith(f"error: {bad}: {reason}"), err


def test_toy_mock_run_calls_each_wrapped_stage_once_per_node(tmp_path, monkeypatch):
    # Traced benchmark runs wrap these module names to time the per-node stages,
    # so a run must call each of them, under that name, once per node.
    calls = {}
    for module, name in ((harness, "build_task"), (harness, "render_prompt"), (harness, "parse_response"),
                         (backends, "mock_predict")):
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run_cli("run", "--manifest", TOY, "--predictor", "mock", "--runs", "1", "--out", str(tmp_path)) == 0
    (run,) = json.loads((tmp_path / "mock.json").read_text())["runs"]
    hidden = run["mask_observed"].count(0) * len(run["estimates"][0])
    feasible = hidden - run["stats"]["infeasible_tasks"]
    assert hidden > 0
    assert calls == {"build_task": hidden, "render_prompt": feasible, "parse_response": feasible,
                     "mock_predict": feasible}


@pytest.mark.parametrize("make", [lambda: harness.FilterPredictor("glms"),
                                  lambda: harness.MessengerPredictor(backends.MockBackend(0.5))],
                         ids=["glms", "mock"])
def test_a_reset_wrapped_on_the_instance_is_called_once_per_run(make):
    # The benchmark's job boundary (perfbench/worker.py, _install_boundary) splits
    # a job's timed segments by setting a wrapper of ``predictor.reset`` on the
    # instance, which returns what the wrapped call returns. So a run must call
    # it, under that name, once per run, and step the run it returns.
    predictor = make()
    reset, returned = predictor.reset, []

    def counted(*args, **kwargs):
        returned.append(reset(*args, **kwargs))
        return returned[-1]

    predictor.reset = counted
    graph, series, _ = load_bundle(TOY)
    result = harness.run_online(predictor, graph, series, MaskSpec(0.3, seed=0), runs=3)
    assert len(returned) == 3
    assert all(stats is run.stats for stats, run in zip(result.per_run_stats, returned))


# ---------------------------------------------------------------- replay


def test_replay_record_and_replay_back(tmp_path):
    replay = tmp_path / "replay.jsonl"
    out_a = tmp_path / "record"
    # drill: record the deterministic mock instead of a live endpoint
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "mock",
                   "--runs", "2", "--seed", "6", "--out", str(out_a),
                   "--replay-out", str(replay)) == 0
    assert replay.is_file() and replay.read_text().strip()

    out_b = tmp_path / "replayed"
    assert run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                   "--replay-file", str(replay), "--runs", "2", "--seed", "6",
                   "--name", "mock", "--out", str(out_b)) == 0
    a = json.loads((out_a / "mock.json").read_text())
    b = json.loads((out_b / "mock.json").read_text())
    for run_a, run_b in zip(a["runs"], b["runs"]):
        assert run_a["estimates"] == run_b["estimates"]


def test_replay_record_refuses_to_append_to_the_file_it_replays(tmp_path, capsys):
    replay = tmp_path / "r.jsonl"
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "mock", "--runs", "1",
                   "--out", str(tmp_path / "record"), "--replay-out", str(replay)) == 0
    before = replay.read_bytes()
    capsys.readouterr()
    same = str(tmp_path / "record" / ".." / "r.jsonl")  # compared resolved
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                   "--replay-file", str(replay), "--runs", "1", "--out", str(tmp_path / "again"),
                   "--replay-out", same) == 1
    message = f"--replay-out {same!r} is the --replay-file it would append every reply to again"
    assert capsys.readouterr().err.strip() == message
    assert replay.read_bytes() == before and not (tmp_path / "again").exists()


@pytest.mark.parametrize("replay_args", [["--model", "B"], ["--model", "A"], ["--temperature", "0.5"]])
def test_replay_answers_only_the_model_and_temperature_it_recorded(tmp_path, capsys, replay_args):
    replay = tmp_path / "r.jsonl"
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "llm", "--backend", "mock", "--runs", "1",
                   "--model", "A", "--temperature", "0.5", "--replay-out", str(replay),
                   "--out", str(tmp_path / "record")) == 0
    replay_run = ["run", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                  "--replay-file", str(replay), "--runs", "1"]
    capsys.readouterr()
    assert run_cli(*replay_run, *replay_args, "--out", str(tmp_path / "never")) == 2
    assert f"{replay}:1: recorded for model 'A' at temperature 0.5" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert run_cli(*replay_run, "--model", "A", "--temperature", "0.5", "--out", str(tmp_path / "replay")) == 0
    recorded, replayed = (json.loads((tmp_path / d / "llm.json").read_text()) for d in ("record", "replay"))
    assert (replayed["mse_all"], replayed["mse_missing"]) == (recorded["mse_all"], recorded["mse_missing"])
    assert replayed["config"]["model"] == "A" and replayed["config"]["temperature"] == 0.5


def test_remote_replay_record_writes_its_records_in_request_order(tmp_path, monkeypatch):
    # While one request waits out a backoff the next ones are posted, so replies arrive out of
    # request order; the replay file must not show it.
    assert run_cli("synth", "--out", str(tmp_path / "bundle"), "--nodes", "16", "--steps", "6",
                   "--seed", "3") == 0
    monkeypatch.setenv("GRAPHFILL_TEST_KEY", "k")
    posted, limited = [], set()

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        posted.append(prompt)
        fault = backends.prompt_sha256(prompt)[0]  # faults keyed on the prompt's hash
        if fault in "0123" and prompt not in limited:
            limited.add(prompt)
            return 429, {}
        if fault in "45":
            return 500, {}
        if fault == "6":
            raise backends.TransportFailure("connection reset")
        if fault == "7":
            return 200, {"choices": []}
        return 200, {"choices": [{"message": {"content": str(len(prompt))}}]}

    monkeypatch.setattr(cli, "make_backend",
                        lambda cfg: backends.make_backend(cfg, transport=transport, sleep=lambda s: None))

    def record(name):
        posted.clear()
        limited.clear()
        assert run_cli("replay-record", "--manifest", str(tmp_path / "bundle" / "manifest.txt"), "--runs", "1",
                       "--predictor", "llm", "--credential-env", "GRAPHFILL_TEST_KEY",
                       "--replay-out", str(tmp_path / f"{name}.jsonl"), "--out", str(tmp_path / name)) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        return list(posted), {**written, "replay": (tmp_path / f"{name}.jsonl").read_bytes()}

    overlapped_posts, overlapped = record("overlapped")
    monkeypatch.setattr(backends.RemoteBackend, "complete_each", backends.Backend.complete_each)
    sequential_posts, sequential = record("sequential")
    assert overlapped_posts != sequential_posts and sorted(overlapped_posts) == sorted(sequential_posts)
    assert overlapped == sequential


def test_replay_record_creates_the_directory_of_its_replay_file(tmp_path, capsys):
    replay = tmp_path / "replays" / "new" / "replay.jsonl"
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "mock", "--runs", "1",
                   "--replay-out", str(replay), "--out", str(tmp_path / "record")) == 0
    assert len(replay.read_text(encoding="utf-8").splitlines()) > 0
    assert f"replay file captured at {replay}" in capsys.readouterr().out


@pytest.mark.parametrize("args, code", [
    pytest.param(["--manifest", "ghost.txt"], 2, id="missing-manifest"),
    pytest.param(["--mask-file", "mask.txt"], 1, id="mask-of-the-wrong-size"),
    pytest.param(["--temperature=-1"], 2, id="negative-temperature"),
    pytest.param(["--fraction", "0"], 0, id="no-reply-to-record"),  # no hidden node
])
def test_replay_record_makes_its_file_when_the_run_starts(tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mask.txt").write_text("1 1\n")
    common = ["--manifest", TOY, "--predictor", "mock", "--runs", "1", *args]
    assert run_cli("replay-record", *common, "--replay-out", "q/r.jsonl", "--out", "out") == code
    if code:  # a refused run leaves nothing behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mask.txt"]
        return
    assert (tmp_path / "q" / "r.jsonl").read_bytes() == b""
    assert run_cli("run", *common, "--predictor", "llm", "--backend", "replay", "--replay-file", "q/r.jsonl",
                   "--name", "mock", "--out", "replayed") == 0


def test_replay_record_honours_an_explicit_backend(tmp_path, monkeypatch):
    # An explicit --backend is kept, so recording the offline mock needs no credential.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    common = ["--manifest", TOY, "--predictor", "llm", "--runs", "1"]
    assert run_cli("replay-record", *common, "--backend", "mock", "--replay-out", "rr/r.jsonl",
                   "--out", "rr/out") == 0
    assert run_cli("run", *common, "--backend", "replay", "--replay-file", "rr/r.jsonl", "--out", "replayed") == 0
    assert run_cli("run", *common, "--backend", "mock", "--out", "mocked") == 0
    mse = [json.loads((tmp_path / d / "llm.json").read_text(encoding="utf-8"))["mse_all"]
           for d in ("rr/out", "replayed", "mocked")]
    assert mse[0] == mse[1] == mse[2]


@pytest.mark.parametrize("alpha", ["0.2", "0.9"])
def test_replay_record_config_holds_the_mock_alpha(tmp_path, alpha):
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "mock", "--runs", "1",
                   "--mock-alpha", alpha, "--replay-out", str(tmp_path / "replay.jsonl"),
                   "--out", str(tmp_path / "record")) == 0
    config = json.loads((tmp_path / "record" / "mock.json").read_text(encoding="utf-8"))["config"]
    assert config["backend"] == "record+mock"
    assert config["mock_alpha"] == float(alpha)


# ---------------------------------------------------------------- exit codes


def test_usage_error_bad_fraction(tmp_path, capsys):
    code = run_cli("run", "--manifest", TOY, "--fraction", "1.5", "--out", str(tmp_path))
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_usage_error_unknown_flag(capsys):
    assert run_cli("run", "--manifest", TOY, "--out", "x", "--frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_usage_error_no_subcommand(capsys):
    assert run_cli() == 1


def test_usage_error_unknown_subcommand(capsys):
    assert run_cli("transmogrify") == 1


@pytest.mark.parametrize("name", ["../escaped", "a/b", "..", ""])
def test_usage_error_name_that_is_not_a_plain_file_name(tmp_path, capsys, name):
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", TOY, "--predictor", "zero", "--name", name, "--out", str(out))
    assert code == 1
    assert "--name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written, in --out or beside it
    # The name is checked before the bundle is read.
    code = run_cli("run", "--manifest", str(tmp_path / "ghost.txt"), "--predictor", "zero",
                   "--name", name, "--out", str(out))
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--manifest", TOY, "--seed", "-1", "--out", "out"],
    ["mask", "--nodes", "4", "--seed", "-2", "--out", "mask.txt"],
    ["synth", "--seed", "-1", "--out", "bundle"],
])
def test_usage_error_negative_seed(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def never_run(*args, **kwargs):
    raise AssertionError("run_online was called")


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["run", "replay-record"])
def test_usage_error_out_that_is_a_file(tmp_path, monkeypatch, capsys, command, below):
    monkeypatch.setattr(cli, "run_online", never_run)
    out = tmp_path / "o1"
    out.write_text("")
    code = run_cli(command, "--manifest", TOY, "--predictor", "mock", "--runs", "2", "--out", str(out / below),
                   *(["--replay-out", str(tmp_path / "new" / "r.jsonl")] if command == "replay-record" else []))
    assert code == 1
    assert f"--out must be a directory, but {str(out)!r} exists" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out]  # no replay directory either


def test_usage_error_replay_out_that_is_a_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_online", never_run)
    replay = tmp_path / "replays"
    replay.mkdir()
    code = run_cli("replay-record", "--manifest", TOY, "--predictor", "mock", "--replay-out", str(replay),
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"--replay-out must be a file, but {str(replay)!r} is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [replay] and list(replay.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["replay-record", "--replay-out", "a/b/llm.json"],
    ["replay-record", "--replay-out", "a/b"],
    ["replay-record", "--replay-out", "a"],  # a folder above --out
    ["replay-record", "--replay-out", "a/b/c/../llm_per_step.csv"],  # compared resolved
    ["replay-record", "--replay-out", "a/b/llm.svg", "--svg"],
    ["run", "--replay-file", "a/b/x.json", "--name", "x"],
    ["run", "--replay-file", "a/b/llm_mse_over_time.csv"],
])
def test_usage_error_replay_file_the_run_writes(tmp_path, monkeypatch, capsys, argv):
    # Results written over the recording, or the recording over results: refused before the backend is built.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "make_backend", never_run)
    if argv[0] == "run":  # a recording that stays as it is
        Path("a/b").mkdir(parents=True)
        Path(argv[2]).write_text("{}\n")
    before = sorted(tmp_path.rglob("*"))
    backend = "mock" if argv[0] == "replay-record" else "replay"
    assert run_cli(*argv, "--manifest", TOY, "--predictor", "llm", "--backend", backend, "--out", "a/b") == 1
    message = f"{argv[1]} {argv[2]!r} is --out, a folder above it or a file the run writes there"
    assert capsys.readouterr().err.strip() == message
    assert sorted(tmp_path.rglob("*")) == before
    assert argv[0] == "replay-record" or Path(argv[2]).read_text() == "{}\n"


@pytest.mark.parametrize("argv", [
    ["replay-record", "--manifest", TOY, "--predictor", "mock", "--replay-out", "o1/r.jsonl", "--out", "out"],
    ["replay-record", "--manifest", TOY, "--predictor", "mock", "--replay-out", "o1/new/r.jsonl", "--out", "out"],
    ["replay-record", "--manifest", TOY, "--predictor", "mock", "--replay-out", "", "--out", "out"],
    ["mask", "--manifest", TOY, "--out", "o1/m.txt"],
    ["mask", "--nodes", "3", "--out", "d1"],
    ["mask", "--nodes", "3", "--out", ""],
    ["synth", "--nodes", "5", "--steps", "3", "--out", "o1/b"],
    ["synth", "--nodes", "5", "--steps", "3", "--out", "o1"],
    ["synth", "--nodes", "5", "--steps", "3", "--out", ""],
    ["run", "--manifest", TOY, "--predictor", "zero", "--out", ""],
    ["compare", "r.json", "--csv", "o1/t.csv"],
    ["compare", "r.json", "--csv", "d1"],
    ["compare", "r.json", "--csv", ""],
])
def test_usage_error_output_path_that_cannot_be_written(tmp_path, monkeypatch, capsys, argv):
    # o1 is a file and d1 a directory: each refusal names its flag and path, before any work.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_online", never_run)
    monkeypatch.setattr(cli, "load_bundle", never_run)
    monkeypatch.setattr(cli, "synth_bandlimited", never_run)
    monkeypatch.setattr(RunResult, "load", never_run)
    (tmp_path / "o1").write_text("")
    (tmp_path / "d1").mkdir()
    flag = next(arg for arg in argv if arg in ("--replay-out", "--out", "--csv"))
    path = argv[argv.index(flag) + 1]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(flag) and (repr(path) in err or "'o1' exists and is not one" in err)
    assert sorted(os.listdir(tmp_path)) == ["d1", "o1"] and os.listdir("d1") == []


def test_remote_backend_with_an_empty_endpoint_sends_nothing(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(backends, "_urllib_transport", lambda *args: calls.append(args))
    monkeypatch.setenv("GRAPHFILL_TEST_KEY", "k")
    code = run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "remote", "--endpoint", "",
                   "--credential-env", "GRAPHFILL_TEST_KEY", "--runs", "1", "--out", str(tmp_path / "out"))
    assert code != 0
    assert "endpoint" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_replay_record_without_a_credential_leaves_no_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_online", never_run)
    monkeypatch.delenv("GRAPHFILL_UNSET_KEY", raising=False)
    code = run_cli("replay-record", "--manifest", TOY, "--predictor", "llm", "--credential-env",
                   "GRAPHFILL_UNSET_KEY", "--replay-out", str(tmp_path / "new" / "r.jsonl"),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "GRAPHFILL_UNSET_KEY" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_name_utf8_cannot_encode(tmp_path, capsys):
    # With --svg the name is also written into the SVG's UTF-8 text.
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", TOY, "--predictor", "zero", "--name", "\udcff", "--svg", "--out", str(out))
    assert code == 1
    assert "--name must be a plain file name, got '\\udcff'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--predictor", "glms", "--mu", "0"],
    ["--predictor", "mock", "--mock-alpha", "2"],
    ["--predictor", "glms", "--bandwidth", "9"],
    ["--predictor", "glms", "--mu", "inf"],
])
def test_runtime_error_value_the_library_refuses(tmp_path, capsys, args):
    out = tmp_path / "never"
    assert run_cli("run", "--manifest", TOY, *args, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # no result files


# "{units.upper}" used to render a bound method's address, so no two runs sent the same prompt.
@pytest.mark.parametrize("extra", ["{bogus}", "{node_id.x}", "{units.upper}", "{node_id[0]}"])
def test_runtime_error_template_that_cannot_render(tmp_path, capsys, extra):
    template = tmp_path / "bad.txt"
    template.write_text("{neighbor_block}\n{instruction_block}\n" + extra)
    # The template is checked when it is loaded, before the bundle is read.
    code = run_cli("run", "--manifest", str(tmp_path / "ghost.txt"), "--predictor", "mock",
                   "--template", str(template), "--out", str(tmp_path / "never"))
    assert code == 2
    err = capsys.readouterr().err
    assert "placeholder" in err or "malformed template" in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("body", ["Values: {{neighbor_block}}\n{instruction_block}",
                                  "{neighbor_block}\n{{instruction_block}}"])
def test_runtime_error_template_with_an_escaped_required_placeholder(tmp_path, capsys, body):
    template = tmp_path / "bad.txt"
    template.write_text(body)
    code = run_cli("run", "--manifest", TOY, "--predictor", "mock",
                   "--template", str(template), "--out", str(tmp_path / "never"))
    assert code == 2
    assert "template body is missing the {" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_runtime_error_template_with_a_field_in_a_format_spec(tmp_path, capsys):
    template = tmp_path / "bad.txt"
    template.write_text("{neighbor_block}\n{instruction_block}\n{node_id:{units}}")
    # Refused when loaded, not by the first prompt after the bundle is read.
    code = run_cli("run", "--manifest", "/nonexistent", "--predictor", "mock",
                   "--template", str(template), "--out", str(tmp_path / "never"))
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed template" in err and "format spec" in err
    assert "nonexistent" not in err
    assert not (tmp_path / "never").exists()


def test_runtime_error_missing_manifest(tmp_path, capsys):
    code = run_cli("run", "--manifest", str(tmp_path / "ghost.txt"), "--out", str(tmp_path))
    assert code == 2
    assert "error" in capsys.readouterr().err


def write_bundle(tmp_path, signal="1,2\n3,4\n5,6\n", edges=None, coords=None):
    """A three-node bundle with the given file texts; edges, else coordinates, else a path graph."""
    (tmp_path / "signal.csv").write_text(signal)
    lines = ["signal = signal.csv"]
    if coords is not None:
        (tmp_path / "coords.csv").write_text(coords)
        lines += ["coordinates = coords.csv", "knn_k = 1"]
    else:
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n" if edges is None else edges)
        lines.append("edges = edges.txt")
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    return str(tmp_path / "manifest.txt")


LONG_CELL = "1" * 200_000  # longer than csv's field limit of 131,072 characters


@pytest.mark.parametrize("name, files", [
    ("signal.csv", {"signal": f"{LONG_CELL},2\n3,4\n5,6\n"}),  # not csv-parsed: a non-finite cell
    ("signal.csv", {"signal": f'"{LONG_CELL}",2\n3,4\n5,6\n'}),
    ("coords.csv", {"coords": f'node_id,x\n0,"{LONG_CELL}"\n1,1\n2,2\n'}),
])
def test_runtime_error_over_long_csv_field(tmp_path, capsys, name, files):
    code = run_cli("run", "--manifest", write_bundle(tmp_path, **files), "--predictor", "zero",
                   "--out", str(tmp_path / "never"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("name, files, reason", [
    ("signal.csv", {"signal": "t0,t1\n1,2\n3,x\n5,6\n"}, "row 3, column 2: not a number: 'x'"),
    ("edges.txt", {"edges": "0 1\n1 z\n"}, ":2: invalid literal for int() with base 10: 'z'"),
    ("coords.csv", {"coords": "node_id,x\n0,0\n1,abc\n2,2\n"}, "row 3, column 2: not a number: 'abc'"),
])
def test_runtime_error_bad_bundle_file_is_named_once(tmp_path, capsys, name, files, reason):
    code = run_cli("run", "--manifest", write_bundle(tmp_path, **files), "--predictor", "zero",
                   "--out", str(tmp_path / "never"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(str(tmp_path / name)) == 1
    assert err.startswith(f"error: {tmp_path / name}") and reason in err


def test_run_has_no_record_option(tmp_path, capsys):
    # replay-record is the one way to capture a replay file
    assert run_cli("run", "--manifest", TOY, "--record", str(tmp_path / "r.jsonl"), "--out", str(tmp_path)) == 1
    assert "unrecognized arguments: --record" in capsys.readouterr().err


def test_runtime_error_missing_credential(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    code = run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "remote",
                   "--out", str(tmp_path / "never"))
    assert code == 2
    assert "OPENAI_API_KEY" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()  # failed before any computation


@pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
def test_runtime_error_non_finite_or_negative_temperature(tmp_path, capsys, temperature):
    out = tmp_path / "never"
    code = run_cli("run", "--manifest", TOY, "--predictor", "mock",
                   f"--temperature={temperature}", "--out", str(out))
    assert code == 2
    assert "temperature" in capsys.readouterr().err
    assert not out.exists()  # no result files


@pytest.mark.parametrize("record", [
    {"prompt_sha256": "0" * 64, "response_text": 2.5},
    {"prompt_sha256": ["0" * 64], "response_text": "2.5"},
])
def test_runtime_error_replay_record_that_is_not_text(tmp_path, capsys, record):
    replay, out = tmp_path / "replay.jsonl", tmp_path / "never"
    replay.write_text(json.dumps(record) + "\n")
    code = run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                   "--replay-file", str(replay), "--out", str(out))
    assert code == 2
    assert "bad replay record" in capsys.readouterr().err
    assert not out.exists()  # no result files


def test_runtime_error_replay_without_file(tmp_path, capsys):
    code = run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                   "--out", str(tmp_path))
    assert code == 2


# ---------------------------------------------------------------- golden outputs

# SHA-256 of what ``graphfill run --manifest fixtures/toy/manifest.txt`` writes
# with default options (5 runs, 30% hidden, seed 0) plus each case's arguments.
# These predictors do no linear algebra, so the bytes do not depend on BLAS.
GOLDEN = {
    "mock": (["--predictor", "mock"], {
        "mock.json": "72af933dd7ef9882a00e00d8b91c213a8e0c4b273357f47fc734c10397f3a9fd",
        "mock_per_step.csv": "2845d4d9964b09373c8614fdcf809bdbc0b759b30aca22a293e00a6c6787f25e",
        "mock_mse_over_time.csv": "ccd28105a9f5ea14dcd1ee82a39623b130053579a182579be3fe15b48fb01940",
    }),
    "mock-batch": (["--predictor", "mock", "--batch"], {
        "mock.json": "5feb5c45511a34746db91dc186895ba4ed2bfac218f129a85aa5454861a1cb10",
        "mock_per_step.csv": "2845d4d9964b09373c8614fdcf809bdbc0b759b30aca22a293e00a6c6787f25e",
        "mock_mse_over_time.csv": "ccd28105a9f5ea14dcd1ee82a39623b130053579a182579be3fe15b48fb01940",
    }),
    "mock-observed-only": (
        ["--predictor", "mock", "--neighbor-mode", "observed-only", "--fraction", "0.6"], {
            "mock.json": "50880acd16639d6f1b7f43edd6d4cda1bbb9d2666a4bba81ce795bfb33a291ce",
            "mock_per_step.csv": "1c94599779751ddb165194b2fe9aef96fd03a423d3125564b0a9e6673947449b",
            "mock_mse_over_time.csv": "3e007ce1396121899658d179a0cd5c591ad4409f15ae8920d10229d397dfd4c7",
        }),
    "zero": (["--predictor", "zero"], {
        "zero.json": "7c2bf47a073a6e5ddd069096575a663e3850d1dffbc2cfd5ef5cb870f50ce04b",
        "zero_per_step.csv": "3680773882dba5934e83b1893d475c42e30cf37cd1187e1ccaaeab8b7b5c7ad3",
        "zero_mse_over_time.csv": "45cd4348368b1407b5cfd28d0cf4560719ed4412f82bf08b72bd8a31e0f541a5",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_toy_run_outputs_match_golden_hashes(tmp_path, case):
    args, hashes = GOLDEN[case]
    assert run_cli("run", "--manifest", TOY, *args, "--out", str(tmp_path)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == hashes


# SHA-256 of the replay file a 1-run mock ``replay-record`` writes for the toy
# bundle, and of what replaying it through the llm predictor writes. Replay
# keys are prompt hashes, so the replay file pins every prompt byte.
REPLAY_GOLDEN = {
    "replay.jsonl": "87ee1cbac5d83e5cc2d5453dae6d1383dcab7423f0b3d494e18a312614886976",
    "llm.json": "412a8fc033208429e32564b365ff54652bea5b09a0d59efb152c495e6cfeac90",
    "llm_per_step.csv": "ccbbff5b50ffc8b4dc4f88a0c4db38f0503573ea76b3b2f8e10113e50c000522",
    "llm_mse_over_time.csv": "58dc70ff1c79943f4b935e6f55c040f3485a541a5dac934a0961b06b6c957d0d",
}


def test_toy_replay_record_matches_golden_hashes(tmp_path):
    replay = tmp_path / "replay.jsonl"
    assert run_cli("replay-record", "--manifest", TOY, "--predictor", "mock", "--runs", "1",
                   "--out", str(tmp_path / "record"), "--replay-out", str(replay)) == 0
    out = tmp_path / "replayed"
    assert run_cli("run", "--manifest", TOY, "--predictor", "llm", "--backend", "replay",
                   "--replay-file", str(replay), "--runs", "1", "--out", str(out)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in [replay, *out.iterdir()]}
    assert written == REPLAY_GOLDEN


# SHA-256 of a toy mock run with the explicit mask file "1 0 1" (node 1 hidden
# in all five runs), and of ``compare`` over the default toy glms, zero and mock
# runs: the table text it prints and the file its --csv writes.
EXPLICIT_MASK_GOLDEN = {
    "mock.json": "f4bc90ecab60f46ffa622f76e19691c276ff8aadc4bad5b122087f7dbf438a19",
    "mock_per_step.csv": "77ea2803dd44365137d4529227f4c2f78d00d6708c6423014456fc50acd68c45",
    "mock_mse_over_time.csv": "057ce44946de179baf0138ccc745b0846feb95d7d3ed283ef09d08aef75ad447",
}
COMPARE_GOLDEN = {
    "table.txt": "164c07095c76969c4a7b0e938f85261e95ab8a3a97b894f324d60b09fe5a0876",
    "table.csv": "f5383de033cce5a2b410442cedef75c5a067e05750f9659bb920b383ff1ff990",
}


def test_toy_explicit_mask_run_matches_golden_hashes(tmp_path):
    mask = tmp_path / "mask.txt"
    mask.write_text("1 0 1\n")
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", TOY, "--predictor", "mock", "--mask-file", str(mask),
                   "--out", str(out)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == EXPLICIT_MASK_GOLDEN


def test_toy_compare_table_matches_golden_hashes(tmp_path, capsys):
    for predictor in ("glms", "zero", "mock"):
        assert run_cli("run", "--manifest", TOY, "--predictor", predictor,
                       "--out", str(tmp_path)) == 0
    capsys.readouterr()
    table = tmp_path / "table.csv"
    assert run_cli("compare", *(str(tmp_path / f"{p}.json") for p in ("glms", "zero", "mock")),
                   "--csv", str(table)) == 0
    text = capsys.readouterr().out
    assert text.endswith(f"table written to {table}\n")
    text = text[: -len(f"table written to {table}\n")]
    written = {"table.txt": hashlib.sha256(text.encode()).hexdigest(),
               "table.csv": hashlib.sha256(table.read_bytes()).hexdigest()}
    assert written == COMPARE_GOLDEN


# ---------------------------------------------------------------- README

README = (ROOT / "README.md").read_text()


def readme_commands():
    """Every ``graphfill ...`` command in the README's sh blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.strip().startswith("graphfill ")]


def subcommand_parsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return sub.choices


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])  # a bad flag or value raises UsageError
        assert args.command == argv[1]


def test_readme_library_example_runs(capsys):
    """The "Library use" block runs as written: a removed or renamed export fails here."""
    (block,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["model", "mse", "mse_missing", "fallbacks"]
    assert {line.split()[0] for line in lines[2:4]} == {"glms", "mock"}


def test_package_names_are_each_modules_all():
    modules = (graphfill.graphs, graphfill.signals, graphfill.filters, graphfill.messenger,
               graphfill.backends, graphfill.harness, graphfill.datasets)
    names = ["__version__"] + [name for module in modules for name in module.__all__]
    assert graphfill.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(graphfill, name) is getattr(module, name)
    assert {"graph_spectrum", "NEIGHBOR_MODES", "TransportFailure", "append_replay_record", "graph_sha256",
            "signal_sha256", "PAPER_NODES", "PAPER_STEPS"} <= set(names)


def test_readme_flags_belong_to_the_cli():
    above_benchmark = README.split("\n## Benchmark", 1)[0]
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", above_benchmark))
    assert "--svg" in flags and "--batch" in flags
    known = {flag for p in subcommand_parsers().values() for flag in p._option_string_actions}
    assert flags - known == set()
