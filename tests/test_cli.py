import csv
import json
import filecmp
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from musedec import cli, diffcore, msed, neurodata, trainer


CONFIG = {
    "train": {
        "learning_rate": 1e-3,
        "batch_size": 16,
        "max_epochs": 2,
        "patience": 5,
        "seed": 0,
        "weights": {"lambda_perp": 0.001, "lambda_llv": 0.1, "lambda_hlv": 0.001},
    },
    "model": {"layers": 1, "heads": 2, "d_model": 8},
    "split": {"mode": "same-stimuli", "counts": [40, 10, 10], "seed": 0},
}

GEN_ARGS = [
    "gen-synth",
    "--subjects", "2",
    "--samples", "60",
    "--classes", "4",
    "--patches", "4",
    "--patch-dim", "6",
    "--d-llv", "8",
    "--d-hlv", "12",
    "--snr", "5",
    "--scramble", "1.0",
    "--seed", "0",
]


@pytest.fixture()
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(GEN_ARGS + ["--out", str(data_dir)]) == cli.EXIT_OK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    return tmp_path, data_dir / "manifest.json", config_path


class TestGenSynth:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(GEN_ARGS + ["--out", str(a)]) == cli.EXIT_OK
        assert cli.main(GEN_ARGS + ["--out", str(b)]) == cli.EXIT_OK
        # the manifest embeds the experiment (directory) name; everything
        # else must be byte-identical
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("experiment"), mb.pop("experiment")
        assert ma == mb
        for rel in (
            "features/llv.msed",
            "features/hlv.msed",
            "features/labels.csv",
            "sub_00/responses.msed",
            "sub_01/responses.msed",
            "sub_00/stimulus_ids.json",
            "ground_truth/style_map.msed",
        ):
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    @pytest.mark.parametrize(
        "flag, value",
        [("--snr", "0"), ("--subjects", "0"), ("--samples", "0"), ("--classes", "0"), ("--patches", "0"),
         ("--patch-dim", "0"), ("--d-llv", "0"), ("--d-hlv", "-1"), ("--snr", "nan"), ("--scramble", "nan"),
         ("--scramble", "inf"), ("--scramble", "-1"), ("--seed", "-1")],
    )
    def test_bad_gen_synth_value_is_usage_error(self, tmp_path, capsys, flag, value):
        args = list(GEN_ARGS)
        args[args.index(flag) + 1] = value
        assert cli.main(args + ["--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_manifest_loadable(self, workspace):
        _, manifest_path, _ = workspace
        manifest, datasets, features = cli.load_experiment(manifest_path)
        assert manifest["mode"] == "same-stimuli"
        assert len(datasets) == 2
        assert datasets[0].responses.shape == (60, 4, 6)
        assert features.labels.shape == (60, 4)


def test_experiment_io_lives_in_neurodata():
    assert cli.load_experiment is neurodata.load_experiment
    assert cli.write_experiment is neurodata.write_experiment


class TestTrainEval:
    def test_train_then_eval_consistent(self, workspace, capsys):
        tmp_path, manifest_path, config_path = workspace
        run_dir = tmp_path / "run"
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path),
             "--out", str(run_dir)]
        )
        assert code == cli.EXIT_OK
        assert (run_dir / "checkpoint" / "header.json").exists()
        train_out = capsys.readouterr().out
        assert "val_map=" in train_out
        reported = float(train_out.rsplit("val_map=", 1)[1].split()[0])

        eval_dir = tmp_path / "eval"
        code = cli.main(
            ["eval", "--checkpoint", str(run_dir / "checkpoint"),
             "--config", str(config_path), "--data", str(manifest_path),
             "--out", str(eval_dir)]
        )
        assert code == cli.EXIT_OK
        lines = (eval_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,seed,method,split,map,auc,hamming"
        rows = {ln.split(",")[3]: ln.split(",") for ln in lines[1:]}
        assert set(rows) == {"val", "test"}
        # best-params val mAP re-computed at eval time matches training's print
        assert float(rows["val"][4]) == pytest.approx(reported, abs=5e-5)
        for split in rows:
            for v in rows[split][4:]:
                assert 0.0 <= float(v) <= 1.0

    def test_repeated_subject_id_is_data_error(self, workspace, capsys):
        tmp_path, manifest_path, config_path = workspace
        manifest = json.loads(manifest_path.read_text())
        manifest["subjects"][1]["id"] = "sub_00"
        manifest_path.write_text(json.dumps(manifest))
        code = cli.main(["train", "--config", str(config_path), "--data", str(manifest_path),
                         "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: subject sub_00: id listed more than once\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: {**m, "subjects": 5}, "manifest field 'subjects' is not a list of objects"),
            (lambda m: {**m, "subjects": [{**m["subjects"][0], "id": 7}]}, "subject #0: id 7 is not a string"),
        ],
        ids=["subjects-int", "id-int"],
    )
    def test_malformed_manifest_structure_is_data_error(self, workspace, capsys, edit, message):
        tmp_path, manifest_path, config_path = workspace
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        code = cli.main(["train", "--config", str(config_path), "--data", str(manifest_path),
                         "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize(
        "where, code, message",
        [("--seed", cli.EXIT_USAGE, "usage error: seed must be >= 0, got -1"),
         ("split.seed", cli.EXIT_DATA, "data error: split seed must be >= 0, got -1")],
        ids=["flag", "split"],
    )
    def test_negative_train_seed_is_rejected(self, workspace, capsys, where, code, message):
        tmp_path, manifest_path, config_path = workspace
        args = ["train", "--config", str(config_path), "--data", str(manifest_path), "--out", str(tmp_path / "run")]
        if where == "--seed":
            args += ["--seed", "-1"]
        else:
            config_path.write_text(json.dumps({**CONFIG, "split": {**CONFIG["split"], "seed": -1}}))
        assert cli.main(args) == code
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "run").exists()

    def test_train_override_method_and_seed(self, workspace, capsys):
        tmp_path, manifest_path, config_path = workspace
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path),
             "--method", "ms-smodel", "--seed", "7", "--out", str(tmp_path / "ms")]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "method=ms-smodel seed=7" in out

    def test_unknown_method_usage_error(self, workspace):
        tmp_path, manifest_path, config_path = workspace
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path),
             "--method", "svm", "--out", str(tmp_path / "bad")]
        )
        assert code == cli.EXIT_USAGE

    def test_missing_data_exit_code(self, workspace):
        tmp_path, _, config_path = workspace
        code = cli.main(
            ["train", "--config", str(config_path),
             "--data", str(tmp_path / "nowhere" / "manifest.json"),
             "--out", str(tmp_path / "r")]
        )
        assert code == cli.EXIT_DATA

    def test_diverged_training_exit_code(self, workspace, monkeypatch, capsys):
        tmp_path, manifest_path, config_path = workspace
        _, gelu_backward = diffcore._RULES["gelu"]
        monkeypatch.setitem(
            diffcore._RULES, "gelu", (lambda ins, attrs: (np.full_like(ins[0], np.nan), None), gelu_backward)
        )
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path),
             "--out", str(tmp_path / "diverged")]
        )
        assert code == cli.EXIT_NUMERIC == 4
        assert "training diverged" in capsys.readouterr().err

    def test_config_missing_section(self, workspace):
        tmp_path, manifest_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": CONFIG["train"]}))
        code = cli.main(
            ["train", "--config", str(bad), "--data", str(manifest_path),
             "--out", str(tmp_path / "r2")]
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "section, key", [("train", "lr"), ("train.weights", "lambda_rsa"), ("model", "dmodel"), ("split", "folds")]
    )
    def test_unknown_config_key_is_usage_error(self, workspace, capsys, section, key):
        tmp_path, manifest_path, _ = workspace
        cfg = json.loads(json.dumps(CONFIG))
        target = cfg["train"]["weights"] if section == "train.weights" else cfg[section]
        target[key] = 64
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(
            ["train", "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "typo")]
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(key) in err and repr(section) in err
        assert not (tmp_path / "typo").exists()

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("model", {"heads": 3, "d_model": 8}, "d_model must be divisible by heads"),
            ("train.weights", {"lambda_llv": -0.1}, "loss weights must be non-negative"),
            ("train", {"max_epochs": 0}, "max_epochs must be >= 1"),
            ("train", {"grad_clip": -1.0}, "grad_clip must be positive"),
            ("train", {"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_config_value_is_usage_error(self, workspace, capsys, section, values, message):
        tmp_path, manifest_path, _ = workspace
        cfg = json.loads(json.dumps(CONFIG))
        (cfg["train"]["weights"] if section == "train.weights" else cfg[section]).update(values)
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["train", "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "r5")])
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, message",
        [
            (None, {"train": 5}, "config section 'train' is not a JSON object"),
            ("train", {"weights": 3}, "config section 'train.weights' is not a JSON object"),
            ("train", {"max_epochs": "2"}, 'config value train.max_epochs = "2" is not an integer'),
            ("train", {"batch_size": 8.5}, "config value train.batch_size = 8.5 is not an integer"),
            ("model", {"d_model": "32"}, 'config value model.d_model = "32" is not an integer'),
            ("model", {"layers": 1.5}, "config value model.layers = 1.5 is not an integer"),
            ("split", {"counts": [40, 10]}, "config value split.counts = [40, 10] is not a list of 3 numbers or null"),
            ("split", {"counts": "abc"}, 'config value split.counts = "abc" is not a list of 3 numbers or null'),
            # Python's json reads NaN and Infinity, which once trained into "diverged" or a traceback
            ("train", {"learning_rate": float("nan")}, "config value train.learning_rate = NaN is not a finite number"),
            ("train", {"weights": {"lambda_perp": float("nan")}},
             "config value train.weights.lambda_perp = NaN is not a finite number"),
            ("split", {"counts": None, "fractions": [float("nan"), 0.2, 0.2]},
             "config value split.fractions = [NaN, 0.2, 0.2] is not a list of 3 numbers or null"),
            ("split", {"counts": None, "fractions": [float("inf"), 0.2, 0.2]},
             "config value split.fractions = [Infinity, 0.2, 0.2] is not a list of 3 numbers or null"),
            ("train", {"learning_rate": 10**400}, f"config value train.learning_rate = {10**400} is not a finite number"),
        ],
        ids=["train-int", "weights-int", "epochs-str", "batch-float", "d_model-str", "layers-float",
             "counts-short", "counts-str", "learning-rate-nan", "weight-nan", "fraction-nan", "fraction-infinity",
             "learning-rate-beyond-float"],
    )
    def test_config_value_of_wrong_json_type_is_usage_error(self, workspace, capsys, section, values, message):
        tmp_path, manifest_path, _ = workspace
        cfg = json.loads(json.dumps(CONFIG))
        (cfg if section is None else cfg[section]).update(values)
        bad = tmp_path / "bad_type.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["train", "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "r6")])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "r6").exists()

    def test_config_not_json_is_usage_error(self, workspace, capsys):
        tmp_path, manifest_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"seed": 0,}}')
        code = cli.main(["train", "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "r4")])
        assert code == cli.EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit", [lambda row: row[:-1] + ["x"], lambda row: row[:-1]], ids=["letter-cell", "missing-last-cell"]
    )
    def test_malformed_labels_csv_is_data_error(self, workspace, capsys, edit):
        tmp_path, manifest_path, config_path = workspace
        labels_csv = manifest_path.parent / "features" / "labels.csv"
        lines = labels_csv.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        labels_csv.write_text("\n".join(lines) + "\n")
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path), "--out", str(tmp_path / "r6")]
        )
        assert code == cli.EXIT_DATA == 3
        assert "features/labels.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subjects, reshape, message",
        [
            (["sub_01"], lambda r: r[:, :3], "sub_01: patches (M, d_in) = (3, 6)"),
            (["sub_00", "sub_01"], lambda r: r.reshape(60, 2, 2, 6), "(60, 2, 2, 6)"),
        ],
        ids=["subjects-disagree", "volumes"],
    )
    def test_response_shape_is_data_error(self, workspace, capsys, subjects, reshape, message):
        tmp_path, manifest_path, config_path = workspace
        for sub in subjects:
            responses_path = manifest_path.parent / sub / "responses.msed"
            msed.write_tensor(responses_path, reshape(msed.read_tensor(responses_path)))
        code = cli.main(
            ["train", "--config", str(config_path), "--data", str(manifest_path), "--out", str(tmp_path / "r5")]
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    def test_degenerate_val_split_is_data_error(self, workspace, capsys):
        tmp_path, manifest_path, _ = workspace
        cfg = json.loads(json.dumps(CONFIG))
        cfg["split"]["counts"] = [40, 1, 10]  # one val row: every class is degenerate for AUC
        bad = tmp_path / "one_val.json"
        bad.write_text(json.dumps(cfg))
        code = cli.main(["train", "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "r6")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: every class is degenerate for AUC")

    def test_no_subcommand_usage(self):
        assert cli.main([]) == cli.EXIT_USAGE


class TestCompare:
    def test_compare_artifacts(self, workspace, capsys):
        tmp_path, manifest_path, config_path = workspace
        out_dir = tmp_path / "cmp"
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "clip-mused,ms-smodel", "--seeds", "0,1",
             "--out", str(out_dir)]
        )
        assert code == cli.EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["methods"] == ["clip-mused", "ms-smodel"]
        assert len(report["per_run"]["clip-mused"]) == 2
        assert "ms-smodel" in report["significance"]["auc"]
        lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x seeds
        printed = capsys.readouterr().out
        assert "clip-mused: map=" in printed

    def test_artifacts_are_bitwise_equal_on_one_and_three_workers(self, workspace, patch_cpus):
        tmp_path, manifest_path, config_path = workspace
        for cpus in (1, 3):
            patch_cpus(cpus)
            code = cli.main(
                ["compare", "--config", str(config_path), "--data", str(manifest_path),
                 "--methods", "clip-mused,ms-smodel,ss-mlp", "--seeds", "0,1", "--out", str(tmp_path / f"{cpus}" / "cmp")]
            )
            assert code == cli.EXIT_OK
            assert multiprocessing.active_children() == []
        for name in ("metrics.csv", "report.json"):
            assert (tmp_path / "1" / "cmp" / name).read_bytes() == (tmp_path / "3" / "cmp" / name).read_bytes(), name

    def test_numeric_failure_in_a_child_exits_4(self, workspace, capsys, in_compare_children, numeric_failure):
        tmp_path, manifest_path, config_path = workspace
        in_compare_children(numeric_failure[0])
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "ms-smodel,ms-emb", "--seeds", "0,1", "--out", str(tmp_path / "cmp7")]
        )
        assert code == cli.EXIT_NUMERIC == 4
        assert "non-finite values" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_child_that_dies_is_a_system_error(self, workspace, capsys, in_compare_children, time_limit):
        tmp_path, manifest_path, config_path = workspace
        in_compare_children(lambda train, *a, **k: os._exit(1))
        time_limit(20)
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "ms-smodel,ms-emb", "--seeds", "0,1", "--out", str(tmp_path / "cmp8")]
        )
        assert code == cli.EXIT_SYSTEM == 1
        assert capsys.readouterr().err == (
            "system error: a compare worker process ended without sending its results (exit code 1)\n"
        )
        assert multiprocessing.active_children() == []

    def test_unknown_method(self, workspace):
        tmp_path, manifest_path, config_path = workspace
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "clip-mused,decision-tree", "--seeds", "0,1",
             "--out", str(tmp_path / "cmp2")]
        )
        assert code == cli.EXIT_USAGE

    def test_one_seed_against_clip_mused_is_usage_error(self, workspace, capsys, monkeypatch):
        tmp_path, manifest_path, config_path = workspace
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before the seeds were checked"))
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "clip-mused,ms-smodel", "--seeds", "1", "--out", str(tmp_path / "cmp4")]
        )
        assert code == cli.EXIT_USAGE
        assert "at least two seeds" in capsys.readouterr().err
        assert not (tmp_path / "cmp4").exists()

    @pytest.mark.parametrize(
        "methods, seeds", [("clip-mused,ss-mlp", "0,0"), ("clip-mused,ms-smodel,ms-smodel", "0,1")], ids=["seed", "method"]
    )
    def test_repeated_method_or_seed_is_usage_error(self, workspace, capsys, monkeypatch, methods, seeds):
        tmp_path, manifest_path, config_path = workspace
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before the repeats were checked"))
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", methods, "--seeds", seeds, "--out", str(tmp_path / "cmp5")]
        )
        assert code == cli.EXIT_USAGE
        assert "repeated" in capsys.readouterr().err
        assert not (tmp_path / "cmp5").exists()

    @pytest.mark.parametrize("seeds", ["-1,2", "1,-1"])
    def test_negative_seed_is_usage_error(self, workspace, capsys, monkeypatch, seeds):
        tmp_path, manifest_path, config_path = workspace
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before the seeds were checked"))
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "clip-mused,ss-mlp", f"--seeds={seeds}", "--out", str(tmp_path / "cmp6")]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "cmp6").exists()

    def test_bad_seed_is_usage_error(self, workspace, capsys, monkeypatch):
        tmp_path, manifest_path, config_path = workspace
        monkeypatch.setattr(cli, "load_experiment", lambda path: pytest.fail("data loaded before the seeds were checked"))
        code = cli.main(
            ["compare", "--config", str(config_path), "--data", str(manifest_path),
             "--methods", "clip-mused", "--seeds", "1,x", "--out", str(tmp_path / "cmp3")]
        )
        assert code == cli.EXIT_USAGE
        assert "'1,x'" in capsys.readouterr().err


class TestExports:
    @pytest.fixture()
    def trained(self, workspace):
        tmp_path, manifest_path, config_path = workspace
        run_dir = tmp_path / "run"
        assert (
            cli.main(
                ["train", "--config", str(config_path), "--data", str(manifest_path),
                 "--out", str(run_dir)]
            )
            == cli.EXIT_OK
        )
        return tmp_path, manifest_path, config_path, run_dir / "checkpoint"

    def test_export_attn_rows_normalized(self, trained):
        tmp_path, manifest_path, config_path, ckpt = trained
        out_dir = tmp_path / "attn"
        code = cli.main(
            ["export-attn", "--checkpoint", str(ckpt), "--config", str(config_path),
             "--data", str(manifest_path), "--out", str(out_dir)]
        )
        assert code == cli.EXIT_OK
        lines = (out_dir / "attention.csv").read_text().strip().splitlines()
        assert lines[0] == "subject,token,patch_index,roi,mean_weight"
        sums: dict = {}
        for ln in lines[1:]:
            subject, token, _, _, w = ln.split(",")
            sums[(subject, token)] = sums.get((subject, token), 0.0) + float(w)
        assert set(t for _, t in sums) == {"llv", "hlv"}
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("command", ["eval", "export-attn"])
    def test_subject_without_token_is_data_error(self, trained, command, capsys):
        tmp_path, _, config_path, ckpt = trained
        args = list(GEN_ARGS)
        args[args.index("--subjects") + 1] = "3"  # a third, untrained subject
        wider = tmp_path / "wider"
        assert cli.main(args + ["--out", str(wider)]) == cli.EXIT_OK
        code = cli.main(
            [command, "--checkpoint", str(ckpt), "--config", str(config_path),
             "--data", str(wider / "manifest.json"), "--out", str(tmp_path / command)]
        )
        assert code == cli.EXIT_DATA
        assert "sub_02" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "export-attn"])
    def test_patch_shape_unlike_checkpoint_is_data_error(self, trained, command, capsys):
        tmp_path, _, config_path, ckpt = trained
        args = list(GEN_ARGS)
        args[args.index("--patches") + 1] = "5"  # the checkpoint was trained on 4 patches
        other = tmp_path / "other"
        assert cli.main(args + ["--out", str(other)]) == cli.EXIT_OK
        code = cli.main(
            [command, "--checkpoint", str(ckpt), "--config", str(config_path),
             "--data", str(other / "manifest.json"), "--out", str(tmp_path / command)]
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(5, 6)" in err and "(4, 6)" in err

    @pytest.mark.parametrize("command", ["train", "eval", "export-attn"])
    def test_non_finite_responses_are_data_error(self, trained, command, capsys):
        tmp_path, manifest_path, config_path, ckpt = trained
        responses_path = manifest_path.parent / "sub_00" / "responses.msed"
        r = msed.read_tensor(responses_path)
        r[:, 1, 2] = np.nan
        msed.write_tensor(responses_path, r)
        args = [command, "--config", str(config_path), "--data", str(manifest_path), "--out", str(tmp_path / "nan")]
        code = cli.main(args + ([] if command == "train" else ["--checkpoint", str(ckpt)]))
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: subject sub_00: responses hold non-finite values\n"

    @pytest.mark.parametrize("command, counts", [("train", [40, 0, 10]), ("eval", [40, 10, 0])])
    def test_empty_split_part_is_data_error(self, trained, command, counts, capsys):
        tmp_path, manifest_path, _, ckpt = trained
        cfg = json.loads(json.dumps(CONFIG))
        cfg["split"]["counts"] = counts
        bad = tmp_path / "empty_part.json"
        bad.write_text(json.dumps(cfg))
        args = [command, "--config", str(bad), "--data", str(manifest_path), "--out", str(tmp_path / "empty")]
        code = cli.main(args + ([] if command == "train" else ["--checkpoint", str(ckpt)]))
        assert code == cli.EXIT_DATA
        assert "leaves a part empty" in capsys.readouterr().err
        assert not (tmp_path / "empty").exists()

    @pytest.mark.parametrize(
        "text",
        ["5", "[[1], [2]]", "not json", '{"a": 1}', "[true, false]"],
        ids=["number", "nested-lists", "not-json", "object", "bools"],
    )
    def test_malformed_stimulus_ids_is_data_error(self, trained, capsys, text):
        tmp_path, manifest_path, config_path, ckpt = trained
        ids_path = manifest_path.parent / "sub_00" / "stimulus_ids.json"
        ids_path.write_text(text)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                         "--data", str(manifest_path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ids_path}: "), err
        assert not (tmp_path / "out").exists()

    def test_bad_roi_names_is_data_error(self, trained, capsys):
        tmp_path, manifest_path, config_path, ckpt = trained
        manifest = json.loads(manifest_path.read_text())
        manifest["roi_names"] = ["a", "b"]  # the data have 4 patches
        manifest_path.write_text(json.dumps(manifest))
        code = cli.main(
            ["export-attn", "--checkpoint", str(ckpt), "--config", str(config_path),
             "--data", str(manifest_path), "--out", str(tmp_path / "attn")]
        )
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: roi_names must be a list of 4 strings")

    def test_non_finite_params_are_numeric_error(self, trained, capsys):
        tmp_path, manifest_path, config_path, ckpt = trained
        state = trainer.load_checkpoint(ckpt)
        state.best_params["embed/E"][0, 0] = np.nan
        trainer.save_checkpoint(tmp_path / "nan_ckpt", state)
        code = cli.main(
            ["eval", "--checkpoint", str(tmp_path / "nan_ckpt"), "--config", str(config_path),
             "--data", str(manifest_path), "--out", str(tmp_path / "nan_eval")]
        )
        assert code == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure: node 2 (matmul) produced non-finite values")

    def test_non_finite_tokens_in_a_threaded_forward_are_numeric_error(self, trained, capsys, patch_cpus, thread_pools):
        """Two 300-row val splits are one forward of three chunks; the second subject's NaN tokens fail
        chunks 1 and 2 with the same message on 1 and 3 workers."""
        tmp_path, _, config_path, ckpt = trained
        big = tmp_path / "big"
        assert cli.main([*GEN_ARGS, "--samples", "600", "--out", str(big)]) == cli.EXIT_OK
        config = json.loads(config_path.read_text())
        config["split"]["counts"] = [40, 300, 10]
        (tmp_path / "big.json").write_text(json.dumps(config))
        state = trainer.load_checkpoint(ckpt)
        sid = sorted(ds["id"] for ds in json.loads((big / "manifest.json").read_text())["subjects"])[1]
        state.best_params[f"token/llv/{sid}"][:] = np.nan
        trainer.save_checkpoint(tmp_path / "nan_ckpt", state)
        errors = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            code = cli.main(
                ["eval", "--checkpoint", str(tmp_path / "nan_ckpt"), "--config", str(tmp_path / "big.json"),
                 "--data", str(big / "manifest.json"), "--out", str(tmp_path / f"nan_eval{cpus}")]
            )
            assert code == cli.EXIT_NUMERIC == 4
            errors.append(capsys.readouterr().err)
        assert thread_pools == [2]  # on 3 workers: the caller and two threads share the three chunks
        assert errors[0] == errors[1] and errors[0].startswith("numeric failure: node ")
        assert "(take-rows) produced non-finite values" in errors[0]

    def test_export_rsm_properties(self, trained):
        tmp_path, _, _, ckpt = trained
        out_dir = tmp_path / "rsm"
        code = cli.main(["export-rsm", "--checkpoint", str(ckpt), "--out", str(out_dir)])
        assert code == cli.EXIT_OK
        for name in ("token_rsm_llv.csv", "token_rsm_hlv.csv"):
            lines = (out_dir / name).read_text().strip().splitlines()
            subjects = lines[0].split(",")[1:]
            mat = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
            assert mat.shape == (len(subjects), len(subjects))
            np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-12)
            np.testing.assert_allclose(mat, mat.T, atol=1e-12)

    def test_export_rsm_of_one_subject_is_data_error(self, trained, capsys):
        tmp_path, _, _, ckpt = trained
        state = trainer.load_checkpoint(ckpt)
        for group in (state.params, state.best_params, state.m, state.v):
            del group["token/llv/sub_01"], group["token/hlv/sub_01"]
        trainer.save_checkpoint(tmp_path / "one", state)
        code = cli.main(["export-rsm", "--checkpoint", str(tmp_path / "one"), "--out", str(tmp_path / "rsm1")])
        assert code == cli.EXIT_DATA
        assert "at least two subjects" in capsys.readouterr().err

    MALFORMED_CHECKPOINTS = [
        ("header-not-json", "eval", "header.json is not valid JSON"),
        ("header-lacks-field", "export-rsm", "missing field(s) ['best_epoch']"),
        ("extra-row", "eval", "header.json: param_shapes head/W2 is (9, 4), expected (8, 4)"),
        ("extra-row", "export-attn", "header.json: param_shapes head/W2 is (9, 4), expected (8, 4)"),
        ("short-token", "export-rsm", "header.json: param_shapes token/llv/sub_00 is (3,), expected (8,)"),
        ("map-rows", "export-rsm", "header.json: param_shapes map/Pl is (7, 5); it needs d_model = 8 rows"),
        ("groups-differ", "eval", "m.msed holds shape (1212,); param_shapes needs (1228,)"),
        ("file-short", "export-rsm", "v.msed holds shape (1187,); param_shapes needs (1188,)"),
        ("shape-negative", "eval", "header.json: param_shapes is not a JSON object of lists of non-negative integers"),
        ("shape-bool", "export-rsm", "header.json: param_shapes is not a JSON object of lists of non-negative integers"),
        ("shape-string", "export-attn", "header.json: param_shapes is not a JSON object of lists of non-negative integers"),
        ("old-layout", "eval", "header.json: param_names marks an older musedec's per-parameter layout, which is not read"),
        ("heads-bool", "eval", "config value model_cfg.heads = true is not an integer"),
        ("d_model-float", "export-rsm", "config value model_cfg.d_model = 8.0 is not an integer"),
        ("batch-float", "eval", "config value train_cfg.batch_size = 8.5 is not an integer"),
        # well-typed values that the configs themselves reject
        ("batch-one", "eval", "header.json: invalid value in train_cfg: batch size must be >= 2"),
        ("rate-negative", "export-rsm", "header.json: invalid value in train_cfg: learning rate must be positive"),
        ("heads-three", "export-attn", "header.json: invalid value in model_cfg: d_model must be divisible by heads"),
        ("variant-unknown", "eval", "header.json: invalid value in model_cfg: unknown variant 'nope'"),
        ("weight-negative", "export-rsm", "header.json: invalid value in train_cfg: loss weights must be non-negative"),
        ("conv-retired", "export-rsm", "header.json: unknown key(s) 'conv' in config section 'model_cfg'"),
    ]
    HEADER_VALUES = {
        "heads-bool": ("model_cfg", "heads", True),
        "d_model-float": ("model_cfg", "d_model", 8.0),
        "batch-float": ("train_cfg", "batch_size", 8.5),
        "batch-one": ("train_cfg", "batch_size", 1),
        "rate-negative": ("train_cfg", "learning_rate", -1.0),
        "heads-three": ("model_cfg", "heads", 3),
        "variant-unknown": ("model_cfg", "variant", "nope"),
        "weight-negative": ("train_cfg", "weights", {"lambda_perp": -0.5}),
        "conv-retired": ("model_cfg", "conv", {"input_shape": [5, 5, 5], "channels": [2], "kernels": [3], "strides": [2]}),
        "shape-negative": ("param_shapes", "head/W2", [-1]),
        "shape-bool": ("param_shapes", "head/W2", [True]),
        "shape-string": ("param_shapes", "head/W2", "8"),
    }

    @pytest.mark.parametrize(
        "case, command, message", MALFORMED_CHECKPOINTS, ids=[f"{case}-{cmd}" for case, cmd, _ in MALFORMED_CHECKPOINTS]
    )
    def test_malformed_checkpoint_is_data_error(self, trained, capsys, case, command, message):
        tmp_path, manifest_path, config_path, ckpt = trained
        header_path = ckpt / "header.json"
        header = json.loads(header_path.read_text())
        if case == "header-not-json":
            header_path.write_text(header_path.read_text()[:-2])
        elif case == "header-lacks-field":
            del header["best_epoch"]
            header_path.write_text(json.dumps(header))
        elif case in self.HEADER_VALUES:
            section, key, value = self.HEADER_VALUES[case]
            header[section][key] = value
            header_path.write_text(json.dumps(header))
        elif case == "old-layout":  # the header every earlier musedec wrote next to one file per parameter
            header["param_names"] = list(header.pop("param_shapes"))
            header_path.write_text(json.dumps(header))
        elif case == "file-short":
            msed.write_tensor(ckpt / "v.msed", msed.read_tensor(ckpt / "v.msed")[:-1])
        else:  # a saved state whose param_shapes or group files are not the model's
            state = trainer.load_checkpoint(ckpt)
            for group in trainer.TENSOR_GROUPS:
                tensors = getattr(state, group)
                if case == "extra-row":
                    tensors["head/W2"] = np.vstack([tensors["head/W2"], tensors["head/W2"][:1]])
                elif case == "short-token":
                    tensors["token/llv/sub_00"] = np.zeros(3)
                else:  # a mapping projection next to the model's parameters
                    cols = 3 if case == "groups-differ" and group == "m" else 5
                    tensors["map/Pl"] = np.zeros((7 if case == "map-rows" else 8, cols))
            trainer.save_checkpoint(ckpt, state)
        args = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")]
        if command != "export-rsm":
            args += ["--config", str(config_path), "--data", str(manifest_path)]
        assert cli.main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "compare", "export-rsm"])
    def test_out_that_is_a_file_is_data_error(self, trained, capsys, monkeypatch, command):
        tmp_path, manifest_path, config_path, ckpt = trained
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before --out was checked"))
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        args = [command, "--out", str(out)]
        if command != "export-rsm":
            args += ["--config", str(config_path), "--data", str(manifest_path)]
        args += ["--methods", "ss-mlp", "--seeds", "0"] if command == "compare" else ["--checkpoint", str(ckpt)]
        assert cli.main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err and "Traceback" not in err, err

    def test_exports_quote_ids_and_roi_names(self, workspace):
        """Subject ids and ROI names holding a comma, a quote, a newline or a bare \\r, and a run id holding the
        first three, read back as single fields."""
        tmp_path, manifest_path, config_path = workspace
        ids = ["car\rriage", 'say, "hi"\nthen']
        rois = ["v1,left", 'q"uote\ntwo lines', "re\rturn", "plain"]
        manifest = json.loads(manifest_path.read_text())
        for sub, sid in zip(manifest["subjects"], ids):
            sub["id"] = sid
        manifest["roi_names"] = rois
        manifest_path.write_text(json.dumps(manifest))
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_path), "--data", str(manifest_path), "--out", str(run)]) == 0
        ckpt = str(run / "checkpoint")
        out = tmp_path / 'ev,"al"\nx'
        run_args = ["--checkpoint", ckpt, "--config", str(config_path), "--data", str(manifest_path), "--out", str(out)]
        for args in (["eval", *run_args], ["export-attn", *run_args], ["export-rsm", "--checkpoint", ckpt, "--out", str(out)]):
            assert cli.main(args) == cli.EXIT_OK, args

        def read(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))

        metrics_rows = read("metrics.csv")
        assert metrics_rows[0] == ["run_id", "seed", "method", "split", "map", "auc", "hamming"]
        assert [row[:4] for row in metrics_rows[1:]] == [[out.name, "0", "clip-mused", s] for s in ("val", "test")]
        attention = read("attention.csv")
        assert attention[0] == ["subject", "token", "patch_index", "roi", "mean_weight"]
        want = [[sid, token, str(i), roi] for sid in ids for token in ("llv", "hlv") for i, roi in enumerate(rois)]
        assert [row[:4] for row in attention[1:]] == want
        assert all(0.0 <= float(row[4]) <= 1.0 for row in attention[1:])
        for name in ("token_rsm_llv.csv", "token_rsm_hlv.csv"):
            rsm = read(name)
            assert rsm[0] == ["subject", *sorted(ids)]
            assert [row[0] for row in rsm[1:]] == sorted(ids)
            mat = np.array([[float(v) for v in row[1:]] for row in rsm[1:]])
            np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-12)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 40 MiB and 0.4 s at import; metrics needs only scipy.special
    src = str(Path(cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import musedec.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
