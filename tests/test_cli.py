import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodfind.cli import build_parser, dispatch


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end workspace: corpus, checkpoint, index."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    code = dispatch(["gen-dataset", "--out", str(data), "--bases", "2",
                     "--per-base", "6", "--seed", "3", "--val-fraction", "0.25"])
    assert code == 0
    ckpt = root / "model.ckpt"
    log = root / "train.csv"
    code = dispatch(["train", "--manifest", str(data / "manifest.csv"),
                     "--out", str(ckpt), "--log", str(log),
                     "--epochs", "2", "--batch-size", "3", "--lr", "1e-4",
                     "--seed", "1"])
    assert code == 0
    index = root / "gallery.idx"
    code = dispatch(["index", "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.csv"),
                     "--out", str(index), "--split", "all"])
    assert code == 0
    return root, data, ckpt, index


def test_importing_the_package_and_cli_loads_no_numpy():
    # --threads sets the BLAS thread variables in dispatch(); they only take
    # effect if numpy has not been loaded by then
    import rodfind

    code = ("import sys, rodfind\n"
            "from rodfind import LinkingRodSpec\n"
            "import rodfind.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
            "assert rodfind.nn.conv3d_forward and rodfind.geometry.voxelize\n"
            "assert 'numpy' in sys.modules\n")
    src = str(Path(rodfind.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_arguments_prints_usage_and_exits_1(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["gen-dataset", "--bogus"]) == 1


def test_unknown_command_is_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_missing_file_is_runtime_error(capsys, tmp_path):
    code = dispatch(["voxelize", "--stl", str(tmp_path / "missing.stl"),
                     "--out", str(tmp_path / "o.nrrd")])
    assert code == 2
    assert "missing.stl" in capsys.readouterr().err


@pytest.mark.parametrize("count", [["--per-base", "-1"], ["--total", "0"]])
def test_gen_dataset_refuses_a_count_below_one_and_writes_nothing(tmp_path, capsys, count):
    assert dispatch(["gen-dataset", "--out", str(tmp_path / "data"), "--bases", "2",
                     *count]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_gen_dataset_refuses_a_bad_val_fraction_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    assert dispatch(["gen-dataset", "--out", str(out), "--bases", "2",
                     "--per-base", "3", "--val-fraction", "1.5"]) == 2
    assert "val_fraction must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-dataset", "voxelize"])
def test_grid_edge_is_not_an_option(command, tmp_path, capsys):
    # the shape encoder reads only 16^3 grids, so both commands write those
    out = tmp_path / "out"
    options = {"gen-dataset": ["--bases", "2", "--per-base", "4"],
               "voxelize": ["--stl", str(tmp_path / "part.stl")]}[command]
    assert dispatch([command, "--out", str(out), *options, "--resolution", "8"]) == 1
    assert "unrecognized arguments: --resolution 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_usage_error(threads, capsys):
    # refused before any handler runs, so no BLAS pool is configured or started
    assert dispatch(["--threads", threads, "eval", "--checkpoint", "missing.ckpt",
                     "--manifest", "missing.csv"]) == 1
    err = capsys.readouterr().err
    assert f"argument --threads: must be an integer of at least 1, got '{threads}'" in err


@pytest.mark.parametrize("argv", [
    ["--threads", "x", "gen-dataset"],
    ["query", "--index", "missing.idx", "--checkpoint", "missing.ckpt",
     "--text", "the shaft", "--k", "x"],
    ["eval", "--checkpoint", "missing.ckpt", "--manifest", "missing.csv", "--k", "1,x"],
], ids=["threads", "query k", "eval k"])
def test_non_integer_count_names_the_option_not_the_parser(argv, capsys):
    # one message for a non-integer and a below-one count, and none names a
    # private function of the CLI
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "must be an integer of at least 1, got 'x'" in err
    assert "_at_least_one" not in err and "_k_values" not in err


def test_readme_command_lines_parse():
    # every `rodfind ...` line of the README's usage block, continuations
    # joined, is a command line the parser accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("rodfind ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_gen_dataset_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert dispatch(["gen-dataset", "--out", str(tmp_path / name),
                         "--bases", "2", "--per-base", "5", "--seed", "7"]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    for grid in sorted((a / "grids").iterdir()):
        assert grid.read_bytes() == (b / "grids" / grid.name).read_bytes()


def test_gen_dataset_writes_valid_manifest(workspace):
    _, data, _, _ = workspace
    from rodfind import dataset as ds

    manifest = ds.read_manifest(data / "manifest.csv")
    assert len(manifest.rows) == 12
    assert manifest.meta["resolution"] == 16
    splits = {row.split for row in manifest.rows}
    assert splits == {"train", "val"}


def test_voxelize_command(tmp_path):
    from rodfind import dataset as ds
    from rodfind import geometry as geo

    stl = tmp_path / "cube.stl"
    stl.write_bytes(geo.write_stl(geo.cuboid_mesh((0, 0, 0), (8, 8, 8))))
    out = tmp_path / "cube.nrrd"
    assert dispatch(["voxelize", "--stl", str(stl), "--out", str(out)]) == 0
    grid = ds.read_nrrd(out.read_bytes())
    assert grid.resolution == 16
    assert grid.occupied_count == 16 ** 3


def test_train_writes_log_and_checkpoint(workspace):
    root, _, ckpt, _ = workspace
    lines = (root / "train.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_recall1,wall_seconds"
    assert len(lines) == 3
    assert ckpt.exists() and ckpt.stat().st_size > 1000


def test_query_returns_k_rows(workspace, capsys):
    root, data, ckpt, index = workspace
    from rodfind import dataset as ds

    manifest = ds.read_manifest(data / "manifest.csv")
    text = manifest.rows[0].text
    code = dispatch(["query", "--index", str(index), "--checkpoint", str(ckpt),
                     "--text", text, "--k", "8"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["rank", "id", "distance"]
    assert len(lines) == 9
    distances = [float(line.split("\t")[2]) for line in lines[1:]]
    assert distances == sorted(distances)


def test_query_json_and_previews(workspace, capsys, tmp_path):
    root, data, ckpt, index = workspace
    from rodfind import dataset as ds

    text = ds.read_manifest(data / "manifest.csv").rows[0].text
    previews = tmp_path / "previews"
    code = dispatch(["query", "--index", str(index), "--checkpoint", str(ckpt),
                     "--text", text, "--k", "3", "--json",
                     "--previews", str(previews)])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[:out.index("previews under")].strip()
                         if "previews under" in out else out)
    assert len(payload["matches"]) == 3
    assert len(list(previews.glob("*.obj"))) == 3


def test_query_previews_refuse_an_entry_without_nrrd_path(workspace, capsys, tmp_path):
    root, data, ckpt, index_path = workspace
    from rodfind import dataset as ds
    from rodfind import encoders as enc
    from rodfind import retrieval as rt

    # what `build_index` stores when it is given no `nrrd_paths`
    index = rt.load_index(index_path)
    bare = rt.ShapeIndex(index.ids, index.embeddings, [""] * len(index), index.texts,
                         index.fingerprint, index.resolution)
    bare_path = tmp_path / "bare.idx"
    rt.save_index(bare, bare_path)
    text = ds.read_manifest(data / "manifest.csv").rows[0].text
    top = rt.query(text, bare, enc.load_checkpoint(ckpt), k=1).matches[0][0]
    code = dispatch(["query", "--index", str(bare_path), "--checkpoint", str(ckpt),
                     "--text", text, "--k", "1", "--previews", str(tmp_path / "p")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert top in err and "no NRRD path" in err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command", ["train", "tune"])
def test_train_and_tune_read_the_manifest_once(workspace, tmp_path, monkeypatch,
                                               command):
    from rodfind import dataset as ds

    _, data, _, _ = workspace
    calls = []
    read_manifest = ds.read_manifest

    def counted_read_manifest(*args, **kwargs):
        calls.append(args)
        return read_manifest(*args, **kwargs)

    monkeypatch.setattr(ds, "read_manifest", counted_read_manifest)
    manifest = str(data / "manifest.csv")
    if command == "train":
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "m.ckpt"),
                "--epochs", "1", "--batch-size", "3"]
    else:
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"kind": "full_factorial", "factors": [
            {"name": "epochs", "levels": [1, 2]}]}))
        argv = ["tune", "--manifest", manifest, "--design", str(design),
                "--out", str(tmp_path / "report.csv")]
    assert dispatch(argv) == 0
    assert len(calls) == 1


def test_eval_prints_recall(workspace, capsys, monkeypatch):
    from rodfind import encoders as enc

    root, data, ckpt, _ = workspace
    embedded = []
    shape_forward = enc.shape_forward

    def counted_shape_forward(params, grids):
        embedded.append(len(grids))
        return shape_forward(params, grids)

    monkeypatch.setattr(enc, "shape_forward", counted_shape_forward)
    code = dispatch(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.csv"),
                     "--split", "val", "--k", "1,8", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["recall"]) == {"1", "8"}
    assert 0.0 <= payload["recall"]["1"] <= payload["recall"]["8"] <= 1.0
    # every k is ranked from one pass of the shape encoder over the split
    assert sum(embedded) == payload["count"] == 3


@pytest.mark.parametrize("k", ["x", "0", "1,0", "1,,8", ""])
def test_eval_bad_k_is_usage_error_before_loading(k, tmp_path, capsys):
    code = dispatch(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--manifest", str(tmp_path / "missing.csv"), "--k", k])
    assert code == 1
    err = capsys.readouterr().err
    assert "--k" in err and "missing" not in err


@pytest.mark.parametrize("k", ["x", "0", "-1"])
def test_query_bad_k_is_usage_error_before_loading(k, tmp_path, capsys):
    code = dispatch(["query", "--index", str(tmp_path / "missing.idx"),
                     "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--text", "the shaft", "--k", k])
    assert code == 1
    err = capsys.readouterr().err
    assert "--k" in err and "missing" not in err


def test_eval_k_from_config_file(workspace, capsys, tmp_path):
    root, data, ckpt, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checkpoint": str(ckpt), "k": 8,
                                  "manifest": str(data / "manifest.csv")}))
    assert dispatch(["--config", str(config), "eval"]) == 0
    assert capsys.readouterr().out.startswith("recall@8\t")
    config.write_text(json.dumps({"checkpoint": str(ckpt), "k": 0,
                                  "manifest": str(data / "manifest.csv")}))
    assert dispatch(["--config", str(config), "eval"]) == 1


def test_train_zero_epochs_is_refused_before_loading(tmp_path, capsys):
    code = dispatch(["train", "--manifest", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "model.ckpt"), "--epochs", "0"])
    assert code == 2
    assert "epochs must be at least 1" in capsys.readouterr().err


def test_tune_runs_a_tiny_design(workspace, capsys, tmp_path, monkeypatch):
    from rodfind import training as tr

    root, data, _, _ = workspace
    counts = {"epochs": 0, "evaluations": 0}
    fit, evaluate_recall = tr.fit, tr.evaluate_recall

    def counted_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        counts["epochs"] += len(result.log)
        return result

    def counted_evaluate_recall(*args, **kwargs):
        counts["evaluations"] += 1
        return evaluate_recall(*args, **kwargs)

    monkeypatch.setattr(tr, "fit", counted_fit)
    monkeypatch.setattr(tr, "evaluate_recall", counted_evaluate_recall)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "kind": "full_factorial",
        "factors": [{"name": "learning rate", "levels": [1e-4, 1e-3]},
                    {"name": "epochs", "levels": [1, 2]}],
    }))
    report = tmp_path / "report.csv"
    code = dispatch(["tune", "--manifest", str(data / "manifest.csv"),
                     "--design", str(design), "--out", str(report),
                     "--seed", "5"])
    assert code == 0
    text = report.read_text()
    assert "# range analysis" in text and "# anova" in text
    # stdout is the report file's CSV, then the recommendation
    assert capsys.readouterr().out.startswith(text + "\nbest combination")
    # each row's score is the val recall@1 fit logged after its last epoch
    assert counts["evaluations"] == counts["epochs"] == 1 + 2 + 1 + 2


def test_tune_trains_with_the_train_defaults_its_design_leaves_out(
        workspace, tmp_path, monkeypatch):
    from types import SimpleNamespace

    from rodfind import training as tr

    _, data, _, _ = workspace
    seen = []

    def recorded_fit(train, val, config, shape_config):
        seen.append((config, shape_config.num_conv_layers))
        return SimpleNamespace(log=[SimpleNamespace(val_recall1=config.batch_size / 10)])

    monkeypatch.setattr(tr, "fit", recorded_fit)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"kind": "full_factorial", "factors": [
        {"name": "batch size", "levels": [2, 3]}]}))
    assert dispatch(["tune", "--manifest", str(data / "manifest.csv"),
                     "--design", str(design), "--out", str(tmp_path / "report.csv"),
                     "--seed", "5"]) == 0
    # `rodfind train`'s defaults, as its --help lists them
    assert [(c.batch_size, c.margin, c.learning_rate, c.epochs, c.mu, c.seed, layers)
            for c, layers in seen] == [(2, 0.5, 1e-5, 100, 1.0, 5, 7),
                                       (3, 0.5, 1e-5, 100, 1.0, 5, 7)]


def test_tune_refuses_a_bad_level_before_any_row_trains(workspace, tmp_path, capsys,
                                                        monkeypatch):
    from types import SimpleNamespace

    from rodfind import training as tr

    _, data, _, _ = workspace
    calls = []

    def recorded_fit(train, val, config, shape_config):
        calls.append(config)
        return SimpleNamespace(log=[SimpleNamespace(val_recall1=0.5)])

    monkeypatch.setattr(tr, "fit", recorded_fit)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"kind": "L9_3level", "factors": [
        {"name": "batch size", "levels": [2, 3, 1]},
        {"name": "epochs", "levels": [1, 2, 3]}]}))
    assert dispatch(["tune", "--manifest", str(data / "manifest.csv"),
                     "--design", str(design), "--out", str(tmp_path / "report.csv"),
                     "--seed", "5"]) == 2
    # row 7 is the first with batch size 1; rows 1-6 would have trained first
    assert calls == []
    err = capsys.readouterr().err
    assert "failed on row 7 ({'batch size': 1, 'epochs': 1})" in err
    assert "batch_size must be at least 2" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("factor, levels, message", [
    ("batch size", [2, 3, 2.5], "batch_size must be an integer, got 2.5"),
    ("epoch", [1, 2, 1.5], "epochs must be an integer, got 1.5"),
    ("layers", [5, 6, 3.5], "num_conv_layers must be an integer of at least 1, got 3.5"),
], ids=["batch size", "epoch", "layers"])
def test_tune_refuses_a_fractional_size_level_before_any_row_trains(
        workspace, tmp_path, capsys, monkeypatch, factor, levels, message):
    from types import SimpleNamespace

    from rodfind import training as tr

    _, data, _, _ = workspace
    calls = []

    def recorded_fit(train, val, config, shape_config):
        calls.append(config)
        return SimpleNamespace(log=[SimpleNamespace(val_recall1=0.5)])

    monkeypatch.setattr(tr, "fit", recorded_fit)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"kind": "L9_3level", "factors": [
        {"name": factor, "levels": levels},
        {"name": "learning rate", "levels": [1e-4, 1e-3, 1e-2]}]}))
    assert dispatch(["tune", "--manifest", str(data / "manifest.csv"),
                     "--design", str(design), "--out", str(tmp_path / "report.csv"),
                     "--seed", "5"]) == 2
    # row 7 is the first with the fractional level
    assert calls == []
    err = capsys.readouterr().err
    assert f"failed on row 7 ({{'{factor}': {levels[2]}, 'learning rate': 0.0001}})" in err
    assert message in err
    assert not (tmp_path / "report.csv").exists()


def test_tune_refuses_two_factors_for_one_option(workspace, tmp_path, capsys, monkeypatch):
    from rodfind import training as tr

    _, data, _, _ = workspace
    calls = []
    monkeypatch.setattr(tr, "fit", lambda *args: calls.append(args))
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"kind": "full_factorial", "factors": [
        {"name": "epoch", "levels": [1, 2]}, {"name": "epochs", "levels": [3, 4]}]}))
    assert dispatch(["tune", "--manifest", str(data / "manifest.csv"),
                     "--design", str(design), "--out", str(tmp_path / "report.csv"),
                     "--seed", "5"]) == 2
    assert calls == []
    assert "design factors 'epoch' and 'epochs' both set epochs" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_tune_has_no_budget_option(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget": 9}))
    assert dispatch(["--config", str(config), "tune"]) == 1
    assert "'budget' is not an option of tune" in capsys.readouterr().err
    assert dispatch(["tune", "--manifest", "m.csv", "--design", "d.json",
                     "--out", str(tmp_path / "r.csv"), "--budget", "9"]) == 1
    assert "unrecognized arguments: --budget 9" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bases": 1, "per_base": 4, "seed": 9,
                                  "out": str(tmp_path / "data")}))
    assert dispatch(["--config", str(config), "gen-dataset"]) == 0
    from rodfind import dataset as ds

    manifest = ds.read_manifest(tmp_path / "data" / "manifest.csv")
    assert len(manifest.rows) == 4


def test_config_supplies_required_options_and_rejects_unknown_keys(tmp_path, capsys):
    from rodfind import geometry as geo

    stl = tmp_path / "cube.stl"
    stl.write_bytes(geo.write_stl(geo.cuboid_mesh((0, 0, 0), (8, 8, 8))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stl": str(stl), "out": str(tmp_path / "cube.nrrd"),
                                  "mode": "surface"}))
    assert dispatch(["--config", str(config), "voxelize"]) == 0
    from rodfind import dataset as ds

    # the cube's surface cells only: the 16^3 grid less its 14^3 interior
    grid = ds.read_nrrd((tmp_path / "cube.nrrd").read_bytes())
    assert grid.occupied_count == 16 ** 3 - 14 ** 3

    config.write_text(json.dumps({"per-base": 4}))
    assert dispatch(["--config", str(config), "voxelize"]) == 1
    assert "'per-base' is not an option of voxelize" in capsys.readouterr().err
