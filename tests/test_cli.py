"""Command-line pipeline, exercised through real subprocesses."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from cjtk import cli, codec, ops

from conftest import NOISE_EXTENSION_PATH
from gmlvariants import SQUARE_VARIANTS
from helpers import as_text, cube_tree
from test_codec import hostile_inputs, hostile_models
from test_extensions import hostile_extension_files, noise_building_tree
from test_gml_import import hostile_documents
from test_ops import town_tree


def run_cli(*args, stdin_text=None, cwd=None):
    env = os.environ.copy()
    env.pop("CJTK_EXTENSIONS", None)
    return subprocess.run([sys.executable, "-m", "cjtk.cli", *args],
                          input=stdin_text, capture_output=True, text=True,
                          env=env, cwd=cwd)


@pytest.fixture()
def town_path(tmp_path):
    path = tmp_path / "town.city.json"
    path.write_text(as_text(town_tree()), encoding="utf-8")
    return path


def test_validate_clean_file_exits_zero(town_path):
    proc = run_cli(str(town_path), "validate")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_validate_warnings_exit_one(tmp_path):
    tree = cube_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "warn.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() \
        == ["warning: [ORPHAN_VERTEX] vertices/8 — vertex is referenced "
            "by no geometry"]


def test_validate_errors_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(as_text(cube_tree(cotype="Skyscraper")), encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 2
    assert proc.stdout.startswith("error: [UNKNOWN_COTYPE]")


def test_validate_json_lines(tmp_path):
    tree = cube_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "warn.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "validate", "--json")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines == [{"code": "ORPHAN_VERTEX", "path": "vertices/8",
                      "message": "vertex is referenced by no geometry",
                      "severity": "warning", "stage": "consistency"}]


def test_syntax_error_reported_through_validate(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"type": "CityJSON"', encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 2
    assert "[SYNTAX_ERROR]" in proc.stdout


def test_chained_stages(town_path, tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(str(town_path), "compress", "--digits", "3",
                   "subset", "--bbox", "0", "0", "10", "10",
                   "save", str(out))
    assert proc.returncode == 0
    model = codec.load(out)
    assert set(model.city_objects) == {"sw"}
    assert model.transform is not None
    assert model.transform.scale == [0.001, 0.001, 0.001]


def test_stdin_and_stdout(town_path):
    text = town_path.read_text(encoding="utf-8")
    proc = run_cli("-", "subset", "--id", "ne", "save", "-",
                   stdin_text=text)
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert set(tree["CityObjects"]) == {"ne"}
    assert "\n" not in proc.stdout.strip()


def test_save_pretty_and_stdout_refusal(town_path, tmp_path):
    out = tmp_path / "pretty.json"
    assert run_cli(str(town_path), "save", "--pretty", str(out)) \
        .returncode == 0
    assert out.read_text(encoding="utf-8").startswith('{\n  "type"')
    proc = run_cli(str(town_path), "save", "--pretty", "-")
    assert proc.returncode == 3
    assert "usage error" in proc.stderr


def test_partition_writes_part_files(town_path, tmp_path):
    out_dir = tmp_path / "parts"
    proc = run_cli(str(town_path), "partition", "--grid", "2x2",
                   "--out-dir", str(out_dir))
    assert proc.returncode == 0
    echoed = [line for line in proc.stdout.splitlines()]
    want = [str(out_dir / f"town.city_{pid}.json")
            for pid in ("r0c0", "r0c1", "r1c0", "r1c1")]
    assert echoed == want
    for path in want:
        part = codec.load(path)
        assert len(part.city_objects) == 1


def test_partition_ends_the_pipeline(town_path, tmp_path):
    proc = run_cli(str(town_path), "partition", "--by-type",
                   "--out-dir", str(tmp_path / "x"), "save", "-")
    assert proc.returncode == 3
    assert "already ended" in proc.stderr


def test_partition_wants_exactly_one_strategy(town_path):
    proc = run_cli(str(town_path), "partition", "--grid", "2x2", "--by-type")
    assert proc.returncode == 3
    proc = run_cli(str(town_path), "partition")
    assert proc.returncode == 3


def test_import_stage(tmp_path):
    src = tmp_path / "square.gml"
    src.write_text(SQUARE_VARIANTS["poslist-one-line"](), encoding="utf-8")
    proc = run_cli(str(src), "import", "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert set(tree["CityObjects"]) == {"sq-1"}
    report_lines = [json.loads(line) for line in proc.stderr.splitlines()]
    assert report_lines[0]["record"] == "summary"
    assert report_lines[0]["features"] == {"Building": 1}


def test_import_must_come_first(town_path):
    proc = run_cli(str(town_path), "compress", "import")
    assert proc.returncode == 3
    assert "first stage" in proc.stderr


def test_extension_flag(tmp_path):
    path = tmp_path / "noise.city.json"
    path.write_text(as_text(noise_building_tree()), encoding="utf-8")
    with_schema = run_cli("--extension", str(NOISE_EXTENSION_PATH),
                          str(path), "validate")
    assert with_schema.returncode == 0
    without = run_cli(str(path), "validate")
    assert without.returncode == 2
    assert "[MISSING_EXTENSION_SCHEMA]" in without.stdout


def test_merge_stage(town_path, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(as_text(town_tree()), encoding="utf-8")
    proc = run_cli(str(town_path), "merge", "--policy", "suffix",
                   str(other), "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert len(tree["CityObjects"]) == 8
    assert "sw-2" in tree["CityObjects"]


def test_merge_stages_chain(town_path, tmp_path):
    second = tmp_path / "second.json"
    third = tmp_path / "third.json"
    second.write_text(as_text(town_tree()), encoding="utf-8")
    third.write_text(as_text(town_tree()), encoding="utf-8")
    proc = run_cli(str(town_path),
                   "merge", "--policy", "suffix", str(second),
                   "merge", "--policy", "suffix", str(third),
                   "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert len(tree["CityObjects"]) == 12
    assert {"sw", "sw-2", "sw-3"} <= set(tree["CityObjects"])


def test_info_stage(town_path):
    proc = run_cli(str(town_path), "info")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["cityObjects"] == 4
    assert body["byGeometryKind"] == {"Solid": 4}


def test_metadata_and_cleanup_stages(tmp_path):
    tree = town_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "dirty.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "clean", "dedupe", "metadata", "save", "-")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["vertices"]) == 32
    assert out["metadata"]["geographicalExtent"] == [0, 0, 0, 30, 30, 10]
    assert out["metadata"]["presentLoDs"] == {"2": 4}


def test_compress_decompress_pipeline(town_path):
    proc = run_cli(str(town_path), "compress", "--digits", "2",
                   "decompress", "save", "-")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert "transform" not in out
    assert out["vertices"][6] == [10, 10, 10]


def test_stage_failures_exit_two(town_path):
    proc = run_cli(str(town_path), "subset", "--id", "nobody")
    assert proc.returncode == 2
    assert "subset: [UNKNOWN_ID]" in proc.stderr


def test_usage_errors_exit_three(tmp_path, town_path):
    assert run_cli(str(tmp_path / "missing.json"), "validate") \
        .returncode == 3
    proc = run_cli(str(town_path), "compress", "--digits", "15")
    assert proc.returncode == 3


@pytest.mark.parametrize("name", sorted(hostile_inputs()))
def test_hostile_input_exits_two_with_a_coded_finding(name, tmp_path):
    data = hostile_inputs()[name]
    path = tmp_path / "hostile.json"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    proc = run_cli(str(path), "validate", "--json")
    assert proc.returncode == 2
    findings = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(f["code"], f["stage"]) for f in findings] \
        == [("SYNTAX_ERROR", "syntax")]
    proc = run_cli(str(path), "compress", "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert "[SYNTAX_ERROR]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_validate_first_parses_the_input_once(town_path, tmp_path,
                                              monkeypatch):
    monkeypatch.delenv("CJTK_EXTENSIONS", raising=False)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: calls.append(1) or loads(*a, **k))
    result = CliRunner().invoke(cli.cli, [
        str(town_path), "validate", "compress",
        "save", str(tmp_path / "out.json")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_extension_files_are_loaded_by_validate_only(town_path, tmp_path):
    bad = tmp_path / "bad.ext.json"
    bad.write_text('{"type": "CityJSON"}', encoding="utf-8")
    proc = run_cli("--extension", str(bad), str(town_path),
                   "save", str(tmp_path / "out.json"))
    assert proc.returncode == 0
    proc = run_cli("--extension", str(bad), str(town_path), "validate")
    assert proc.returncode == 2
    assert "validate: [NOT_EXTENSION]" in proc.stderr


@pytest.mark.parametrize("name,stage", [
    pytest.param(name, stage, id=f"{name}-{stage[0]}")
    for name, (_, stages) in sorted(hostile_models().items())
    for stage in sorted(stages)])
def test_hostile_models_exit_two_with_a_coded_message(name, stage, tmp_path):
    text, stages = hostile_models()[name]
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    if stage == ("validate",):
        proc = run_cli(str(path), "validate", "--json")
        codes = [json.loads(line)["code"] for line in proc.stdout.splitlines()]
        assert stages[stage] in codes
    else:
        proc = run_cli(str(path), *stage, "save", str(tmp_path / "out.json"))
        assert f"{stage[0]}: [{stages[stage]}]" in proc.stderr
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_an_unreadable_input_is_a_usage_error(tmp_path):
    proc = run_cli(str(tmp_path), "validate")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_dedupe_refuses_a_nan_tolerance(town_path, tmp_path):
    proc = run_cli(str(town_path), "dedupe", "--tolerance", "nan",
                   "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert "dedupe: [BAD_TRANSFORM]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_crashing_stage_exits_two_with_internal_error(town_path,
                                                        monkeypatch, capsys):
    def crash(model):
        raise RuntimeError("boom")

    monkeypatch.setattr(ops, "refresh_metadata", crash)
    monkeypatch.setattr(sys, "argv", ["cjtk", str(town_path), "metadata"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "metadata: [INTERNAL_ERROR] RuntimeError: boom" \
        in capsys.readouterr().err


def test_dedupe_with_a_tiny_tolerance_writes_the_tolerance_zero_file(
        tmp_path):
    path = tmp_path / "cube.city.json"
    path.write_text(as_text(cube_tree(origin=(85000.0, 0.0, 0.0))),
                    encoding="utf-8")
    outputs = []
    for tolerance in ("1e-310", "0"):
        out = tmp_path / f"out-{tolerance}.json"
        proc = run_cli(str(path), "dedupe", "--tolerance", tolerance,
                       "save", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", sorted(hostile_documents()))
def test_hostile_citygml_exits_two_with_a_coded_message(name, tmp_path):
    text, code, _ = hostile_documents()[name]
    path = tmp_path / "hostile.gml"
    path.write_text(text, encoding="utf-8")
    proc = run_cli(str(path), "import", "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert f"import: [{code}]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(hostile_extension_files()))
def test_hostile_extension_files_are_coded_or_skipped(name, town_path,
                                                      tmp_path):
    data, code = hostile_extension_files()[name]
    bad = tmp_path / "bad.ext.json"
    bad.write_bytes(data)
    proc = run_cli("--extension", str(bad), str(town_path), "validate")
    assert proc.returncode == 2
    assert f"validate: [{code}]" in proc.stderr
    assert "Traceback" not in proc.stderr
    env = dict(os.environ, CJTK_EXTENSIONS=str(bad))
    proc = subprocess.run([sys.executable, "-m", "cjtk.cli", str(town_path),
                           "validate"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
