"""Command line behavior: subcommands, exit codes, deterministic outputs."""

import hashlib
import json
import re
import shlex
from pathlib import Path
from xml.dom import minidom

import pytest

from graphfill import backends, harness
from graphfill.cli import build_parser, main
from graphfill.datasets import load_bundle
from graphfill.harness import RunResult
from graphfill.messenger import PromptTemplate
from graphfill.signals import read_mask_file

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


@pytest.mark.parametrize("args", [
    ["--predictor", "glms", "--mu", "0"],
    ["--predictor", "mock", "--mock-alpha", "2"],
    ["--predictor", "glms", "--bandwidth", "9"],
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
    ("coords.csv", {"coords": "node_id,x\n0,0\n1,abc\n2,2\n"}, ":3: could not convert string to float: 'abc'"),
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


def test_readme_flags_belong_to_the_cli():
    above_benchmark = README.split("\n## Benchmark", 1)[0]
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", above_benchmark))
    assert "--svg" in flags and "--batch" in flags
    known = {flag for p in subcommand_parsers().values() for flag in p._option_string_actions}
    assert flags - known == set()
