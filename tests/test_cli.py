import json
import os

import numpy as np
import pytest

from wrinet import data as data_io
from wrinet.cli import main
from wrinet.builder import build_network, builtin_config
from wrinet.graph import load_checkpoint
from wrinet.optim import TrainConfig


@pytest.fixture
def cifar_dir(tmp_path):
    d = tmp_path / "cifar"
    d.mkdir()
    train = data_io.synthesize_cifar_records(64, seed=0, class_signal=0.6)
    test = data_io.synthesize_cifar_records(32, seed=1, class_signal=0.0)
    data_io.write_cifar(str(d / "data_batch_1.bin"), train)
    data_io.write_cifar(str(d / "test_batch.bin"), test)
    return str(d)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_text_reports_totals(capsys):
    code, out, _ = run(capsys, "analyze", "--net", "wr-inception")
    assert code == 0
    assert "2,733,530" in out
    assert "ratio 0.9444" in out


def test_analyze_json_matches_text_totals(capsys):
    code, out, _ = run(capsys, "analyze", "--net", "wrn-16-4", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["totals"]["params"] == 2748890
    assert abs(parsed["totals"]["params"] - 2.8e6) <= 0.02 * 2.8e6
    code2, text_out, _ = run(capsys, "analyze", "--net", "wrn-16-4")
    assert "2,748,890" in text_out


def test_analyze_unknown_net_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--net", "nosuch")
    assert code == 2
    assert "nosuch" in err


@pytest.mark.parametrize("shape", ["a,b,c", "3,32", "3,0,32"])
def test_analyze_bad_input_shape_exits_2(capsys, shape):
    code, _, err = run(capsys, "analyze", "--net", "wrn-16-4", "--input-shape", shape)
    assert code == 2
    assert err.startswith("error:") and "--input-shape" in err


def test_analyze_accepts_config_file(tmp_path, capsys):
    cfg = builtin_config("wrn-16-4")
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code, out, _ = run(capsys, "analyze", "--net", str(path))
    assert code == 0 and "2,748,890" in out



@pytest.mark.parametrize("text", ['{"name": "x"}', '{"name": "x", "stages": ',
                                  '{"name": "x", "stages": 3}'])
def test_analyze_malformed_config_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "analyze", "--net", str(path))
    assert code == 2
    assert err.startswith("error:") and str(path) in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--net", "wrn-16-4", "--bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes_and_is_deterministic(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "3", "--json")
    assert code == 0
    first = json.loads(out)
    assert all(r["passed"] for r in first)
    code2, out2, _ = run(capsys, "gradcheck", "--seed", "3", "--json")
    assert json.loads(out2) == first


def test_gradcheck_corrupt_fixture_exits_1(capsys, monkeypatch):
    import wrinet.cli as cli
    from wrinet.gradcheck import CheckResult

    monkeypatch.setattr(cli, "run_suite", lambda seed: [CheckResult("conv", 1.0)])
    code, out, _ = run(capsys, "gradcheck")
    assert code == 1
    assert "FAIL" in out


def test_gradcheck_rejects_other_precision():
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--precision", "32"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def mini_config_file(tmp_path):
    from wrinet.gradcheck import miniature_config

    cfg = miniature_config(num_classes=10)
    cfg = type(cfg)(name="mini10", input_shape=(3, 32, 32), conv1=cfg.conv1,
                    stages=cfg.stages, num_classes=10)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def test_train_writes_log_checkpoint_and_run_json(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train", "--net", net, "--dataset", "cifar10",
                       "--data-dir", cifar_dir, "--subset", "32", "--epochs", "2",
                       "--batch-size", "16", "--lr", "0.01", "--json",
                       "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs_run"] == 2
    assert (out_dir / "log.csv").exists()
    assert (out_dir / "checkpoint-final.wrin").exists()
    run_record = json.loads((out_dir / "run.json").read_text())
    assert run_record["dataset"] == "cifar10"
    assert len(run_record["normalization"]["mean"]) == 3
    lines = (out_dir / "log.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,step,lr,loss,acc"
    assert len(lines) == 3


def test_train_epochs_zero_checkpoint_equals_initialization(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    out_dir = tmp_path / "run0"
    code, _, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                     "--subset", "16", "--epochs", "0", "--out", str(out_dir))
    assert code == 0
    from wrinet.builder import NetworkConfig

    cfg = NetworkConfig.from_dict(json.loads(open(net).read()))
    reference = build_network(cfg, seed=0)
    loaded = build_network(cfg, seed=0)
    load_checkpoint(loaded, str(out_dir / "checkpoint-final.wrin"))
    for a, b in zip(reference.state_entries().values(),
                    loaded.state_entries().values()):
        assert a.tobytes() == b.tobytes()


def test_train_missing_data_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("WRINET_DATA_DIR", raising=False)
    net = mini_config_file(tmp_path)
    code, _, err = run(capsys, "train", "--net", net)
    assert code == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "train", "--net", net, "--data-dir", str(empty))
    assert code == 2


def test_data_dir_env_var(tmp_path, cifar_dir, capsys, monkeypatch):
    monkeypatch.setenv("WRINET_DATA_DIR", cifar_dir)
    net = mini_config_file(tmp_path)
    code, _, _ = run(capsys, "train", "--net", net, "--subset", "16",
                     "--epochs", "1", "--batch-size", "16")
    assert code == 0


def test_eval_untrained_net_near_chance(tmp_path, capsys):
    """Labels in this synthetic test split are independent of the images, so
    an untrained 10-class network sits at chance: 90% +/- 3% error."""
    d = tmp_path / "cifar_big"
    d.mkdir()
    data_io.write_cifar(str(d / "data_batch_1.bin"),
                        data_io.synthesize_cifar_records(64, seed=0))
    data_io.write_cifar(str(d / "test_batch.bin"),
                        data_io.synthesize_cifar_records(2000, seed=1,
                                                         class_signal=0.0))
    net = mini_config_file(tmp_path)
    code, out, _ = run(capsys, "eval", "--net", net, "--data-dir", str(d),
                       "--json")
    assert code == 0
    result = json.loads(out)
    assert result["samples"] == 2000
    assert 0.87 <= result["top1_error"] <= 0.93


def test_train_resume_continues_from_checkpoint(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    first = tmp_path / "first"
    code, _, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                     "--subset", "32", "--epochs", "1", "--batch-size", "16",
                     "--out", str(first))
    assert code == 0
    second = tmp_path / "second"
    code, out, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                       "--subset", "32", "--epochs", "1", "--batch-size", "16",
                       "--resume", str(first / "checkpoint-final.wrin"),
                       "--out", str(second), "--json")
    assert code == 0
    # resumed run starts from trained weights, not from the seed-0 init
    cold = json.loads((first / "run.json").read_text())
    assert cold["train"]["seed"] == 0
    summary = json.loads(out)
    assert summary["epochs_run"] == 1


def test_train_then_eval_with_run_config(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    out_dir = tmp_path / "run2"
    code, _, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                     "--subset", "32", "--epochs", "1", "--batch-size", "16",
                     "--out", str(out_dir))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--config", str(out_dir / "run.json"),
                       "--checkpoint", str(out_dir / "checkpoint-final.wrin"),
                       "--data-dir", cifar_dir, "--json")
    assert code == 0
    assert "top1_error" in json.loads(out)


@pytest.mark.parametrize("text", ['{"network": {"name": "x"}}', '{"network": ', '[]'])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_run_config_exits_2(tmp_path, cifar_dir, capsys, command, text):
    path = tmp_path / "run.json"
    path.write_text(text)
    code, _, err = run(capsys, command, "--net", "wrn-16-4", "--config", str(path),
                       "--data-dir", cifar_dir)
    assert code == 2
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("argv", [
    ("eval", "--config", "nosuch.json"),
    ("train", "--net", "wrn-16-4", "--config", "nosuch.json"),
    ("eval", "--net", "wrn-16-4", "--checkpoint", "nosuch.wrin"),
    ("train", "--net", "wrn-16-4", "--resume", "nosuch.wrin"),
])
def test_missing_named_file_exits_2(tmp_path, cifar_dir, capsys, argv):
    argv = [str(tmp_path / a) if a.startswith("nosuch") else a for a in argv]
    code, _, err = run(capsys, *argv, "--data-dir", cifar_dir)
    assert code == 2
    assert err.startswith("error:") and argv[-1] in err


def test_eval_truncated_checkpoint_exits_2(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                     "--subset", "16", "--epochs", "0", "--out", str(out_dir))
    assert code == 0
    path = tmp_path / "cut.wrin"
    path.write_bytes((out_dir / "checkpoint-final.wrin").read_bytes()[:5])
    code, _, err = run(capsys, "eval", "--net", net, "--checkpoint", str(path),
                       "--data-dir", cifar_dir)
    assert code == 2
    assert err.startswith("error:") and str(path) in err


def train_with_config(capsys, tmp_path, cifar_dir, record: dict, *flags):
    net = mini_config_file(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(record))
    return run(capsys, "train", "--net", net, "--data-dir", cifar_dir, "--subset", "16",
               "--config", str(path), *flags)


@pytest.mark.parametrize("block, named", [
    ({"epoch": 1, "lr": 0.5}, "epoch"),  # misspelt key
    ({"freeze": "conv1/"}, "conv1/"),  # a string, not a list of prefixes
    ({"schedule": {"boundaries": "60"}}, "60"),
    ({"schedule": {"kind": "step"}}, "step"),
    ({"stop_acc": "0.9"}, "0.9"),
    ({"epochs": "2"}, "epochs"),
    ({"epochs": -1}, "epochs"),
    ({"batch_size": 8.0}, "batch_size"),
    ({"seed": True}, "seed"),
    ({"checkpoint_every": -2}, "checkpoint_every"),
    ({"augment": "no"}, "augment"),
    ({"seed": -3}, "seed"),
])
def test_bad_train_block_in_run_config_exits_2(tmp_path, cifar_dir, capsys, block, named):
    code, _, err = train_with_config(capsys, tmp_path, cifar_dir, {"train": block})
    assert code == 2
    assert err.startswith("error:") and str(tmp_path / "config.json") in err
    assert named in err


def test_run_config_schedule_is_read_and_recorded(tmp_path, cifar_dir, capsys):
    schedule = {"kind": "iteration", "boundaries": [1], "factor": 0.5}
    out_dir = tmp_path / "run"
    code, _, _ = train_with_config(
        capsys, tmp_path, cifar_dir,
        {"train": {"epochs": 1, "batch_size": 8, "schedule": schedule}}, "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "run.json").read_text())["train"]["schedule"] == schedule
    lrs = [float(line.split(",")[2]) for line in
           (out_dir / "log.csv").read_text().strip().splitlines()[1:]]
    assert lrs == [0.1 * 0.5]  # the epoch's last step is past the boundary


def test_run_json_alone_reproduces_the_train_config(tmp_path, cifar_dir, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = train_with_config(
        capsys, tmp_path, cifar_dir,
        {"train": {"epochs": 1, "batch_size": 8, "momentum": 0.5, "freeze": ["conv1/"],
                   "schedule": {"kind": "epoch", "boundaries": [3, 5], "factor": 0.1}}},
        "--out", str(first))
    assert code == 0
    recorded = json.loads((first / "run.json").read_text())["train"]
    assert set(recorded) == set(TrainConfig.__dataclass_fields__)
    # flags that disagree with the recorded config lose to it
    code, _, _ = run(capsys, "train", "--net", "wrn-16-4", "--data-dir", cifar_dir,
                     "--subset", "16", "--epochs", "3", "--lr", "0.5", "--seed", "7",
                     "--no-augment", "--config", str(first / "run.json"),
                     "--out", str(second))
    assert code == 0
    assert json.loads((second / "run.json").read_text())["train"] == recorded


def test_run_json_reproduces_an_early_stopped_run(tmp_path, cifar_dir, capsys):
    net = mini_config_file(tmp_path)
    common = ("train", "--net", net, "--data-dir", cifar_dir, "--subset", "16",
              "--batch-size", "8", "--epochs", "4", "--json")
    code, _, _ = run(capsys, *common, "--out", str(tmp_path / "full"))
    assert code == 0
    accs = [float(line.split(",")[4]) for line in
            (tmp_path / "full" / "log.csv").read_text().strip().splitlines()[1:]]
    stop_acc = accs[2]
    first = tmp_path / "first"
    code, out, _ = run(capsys, *common, "--stop-acc", str(stop_acc), "--out", str(first))
    assert code == 0
    epochs_run = json.loads(out)["epochs_run"]
    assert epochs_run == 1 + next(i for i, acc in enumerate(accs) if acc >= stop_acc) < 4
    assert json.loads((first / "run.json").read_text())["train"]["stop_acc"] == stop_acc
    second = tmp_path / "second"
    code, out, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                       "--subset", "16", "--json", "--config", str(first / "run.json"),
                       "--out", str(second))
    assert code == 0
    assert json.loads(out)["epochs_run"] == epochs_run
    assert (second / "log.csv").read_bytes() == (first / "log.csv").read_bytes()


@pytest.mark.parametrize("command, name", [("train", "data_batch_1.bin"),
                                           ("eval", "test_batch.bin")])
def test_empty_split_file_exits_2(cifar_dir, capsys, command, name):
    path = os.path.join(cifar_dir, name)
    open(path, "wb").close()
    flags = ("--epochs", "0") if command == "train" else ()
    code, _, err = run(capsys, command, "--net", "wrn-16-4", "--data-dir", cifar_dir, *flags)
    assert code == 2
    assert err.startswith("error:") and f"{path}: file holds no records" in err


@pytest.mark.parametrize("subset", ["0", "-30"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_nonpositive_subset_exits_2(cifar_dir, capsys, command, subset):
    flags = ("--epochs", "0") if command == "train" else ()
    code, _, err = run(capsys, command, "--net", "wrn-16-4", "--data-dir", cifar_dir,
                       "--subset", subset, *flags)
    assert code == 2
    assert err.startswith("error:") and f"positive image count, got {subset}" in err


@pytest.mark.parametrize("flag, value", [("--epochs", "-1"), ("--checkpoint-every", "-1"),
                                         ("--batch-size", "0"), ("--lr", "0"),
                                         ("--seed", "-1")])
def test_bad_train_flag_exits_2(cifar_dir, capsys, flag, value):
    code, _, err = run(capsys, "train", "--net", "wrn-16-4", "--data-dir", cifar_dir,
                       "--subset", "16", flag, value)
    assert code == 2
    assert err.startswith("error:")


def test_negative_eval_seed_exits_2(cifar_dir, capsys):
    code, _, err = run(capsys, "eval", "--net", "wrn-16-4", "--data-dir", cifar_dir,
                       "--seed", "-1")
    assert code == 2
    assert err.startswith("error:") and "--seed" in err


def test_negative_gradcheck_seed_exits_2(capsys):
    code, _, err = run(capsys, "gradcheck", "--seed", "-1")
    assert code == 2
    assert err.startswith("error:") and "--seed" in err


@pytest.mark.parametrize("source", ["--net", "--config"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_network_with_too_few_classes_exits_2(tmp_path, cifar_dir, capsys, command, source):
    """A 4-class network cannot score CIFAR-10's labels: train and eval stop
    before any step or batch, naming the file the network came from."""
    from wrinet.gradcheck import miniature_config

    network = miniature_config(num_classes=4).to_dict()
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network if source == "--net" else {"network": network}))
    out_dir = tmp_path / "run"
    argv = ["--net", str(path)] if source == "--net" else ["--net", "wrn-16-4",
                                                           "--config", str(path)]
    if command == "train":
        argv += ["--epochs", "1", "--out", str(out_dir)]
    code, _, err = run(capsys, command, *argv, "--data-dir", cifar_dir, "--subset", "16")
    assert code == 2
    assert err.startswith(f"error: {path}:") and "4 classes, cifar10 has 10" in err
    assert not out_dir.exists()


def test_eval_truncated_train_split_exits_2(cifar_dir, capsys):
    path = os.path.join(cifar_dir, "data_batch_1.bin")
    with open(path, "r+b") as fh:
        fh.truncate(100)
    code, _, err = run(capsys, "eval", "--net", "wrn-16-4", "--data-dir", cifar_dir)
    assert code == 2
    assert err.startswith("error:") and path in err


@pytest.mark.parametrize("node", ["stage1/unit0/conv2", "stage1/unit0/conv1"])
@pytest.mark.parametrize("command", ["eval", "resume"])
def test_eval_nonfinite_checkpoint_exits_3(tmp_path, cifar_dir, capsys, node, command):
    """A NaN weight is caught when the checkpoint loads, also one ahead of a
    pre-activation, whose clamp would map it to 0."""
    net = mini_config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                     "--subset", "16", "--epochs", "0", "--out", str(out_dir))
    assert code == 0
    from wrinet.builder import NetworkConfig
    from wrinet.graph import save_checkpoint

    graph = build_network(NetworkConfig.from_dict(json.loads(open(net).read())))
    load_checkpoint(graph, str(out_dir / "checkpoint-final.wrin"))
    graph.nodes[node].conv.weights[0, 0, 0, 0] = np.nan
    path = tmp_path / "nan.wrin"
    save_checkpoint(graph, str(path))
    if command == "eval":
        flags = ("eval", "--checkpoint", str(path))
    else:
        flags = ("train", "--resume", str(path), "--subset", "16", "--epochs", "1")
    code, _, err = run(capsys, *flags, "--net", net, "--data-dir", cifar_dir)
    assert code == 3
    assert node in err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_training_exits_3(tmp_path, cifar_dir, capsys, monkeypatch):
    net = mini_config_file(tmp_path)
    import wrinet.cli as cli

    real_build = cli.build_network

    def sabotaged(config, seed=0, dtype=np.float32):
        g = real_build(config, seed=seed, dtype=dtype)
        g.nodes["conv1"].conv.weights[...] = np.inf
        return g

    monkeypatch.setattr(cli, "build_network", sabotaged)
    code, _, err = run(capsys, "train", "--net", net, "--data-dir", cifar_dir,
                       "--subset", "16", "--epochs", "1")
    assert code == 3
    assert "conv1" in err


# ---------------------------------------------------------------------------
# detect-eval
# ---------------------------------------------------------------------------

CAR = "Car 0.00 0 0.0 {x0} {y0} {x1} {y1} 1.5 1.6 3.0 0.0 1.5 20.0 0.0"


def write_kitti(d, name, lines):
    (d / f"{name}.txt").write_text("\n".join(lines) + "\n" if lines else "")


@pytest.fixture
def kitti_dirs(tmp_path):
    gt = tmp_path / "gt"
    det = tmp_path / "det"
    gt.mkdir()
    det.mkdir()
    # image a: one gt, matched by the top detection; one FP. image b: one gt
    # matched by a lower-scored detection.
    write_kitti(gt, "a", [CAR.format(x0=100, y0=100, x1=300, y1=260)])
    write_kitti(gt, "b", [CAR.format(x0=500, y0=200, x1=700, y1=400)])
    write_kitti(det, "a", [
        CAR.format(x0=100, y0=100, x1=300, y1=260) + " 0.9",
        CAR.format(x0=800, y0=100, x1=900, y1=200) + " 0.8",
    ])
    write_kitti(det, "b", [CAR.format(x0=500, y0=200, x1=700, y1=400) + " 0.7"])
    return gt, det


def test_detect_eval_reproduces_hand_computed_ap(kitti_dirs, capsys):
    gt, det = kitti_dirs
    code, out, _ = run(capsys, "detect-eval", "--gt-dir", str(gt),
                       "--det-dir", str(det), "--difficulty", "all", "--json")
    assert code == 0
    result = json.loads(out)
    assert result["mAP"] == pytest.approx(28 / 33)
    assert result["mAR"] == 1.0
    assert f"{100 * 28 / 33:.2f}" != "" and abs(result["mAP"] - 0.8485) < 1e-3


def test_detect_eval_perfect_detections(tmp_path, capsys):
    gt = tmp_path / "gt"
    det = tmp_path / "det"
    gt.mkdir()
    det.mkdir()
    line = CAR.format(x0=100, y0=100, x1=300, y1=260)
    write_kitti(gt, "img0", [line])
    write_kitti(det, "img0", [line + " 1.0"])
    code, out, _ = run(capsys, "detect-eval", "--gt-dir", str(gt), "--det-dir",
                       str(det), "--json")
    result = json.loads(out)
    assert code == 0
    assert result["mAP"] == 1.0 and result["mAR"] == 1.0


def test_detect_eval_empty_det_dir(tmp_path, capsys):
    gt = tmp_path / "gt"
    det = tmp_path / "det"
    gt.mkdir()
    det.mkdir()
    write_kitti(gt, "img0", [CAR.format(x0=100, y0=100, x1=300, y1=260)])
    code, out, _ = run(capsys, "detect-eval", "--gt-dir", str(gt), "--det-dir",
                       str(det), "--json")
    assert code == 0
    assert json.loads(out)["mAP"] == 0.0


def test_detect_eval_orphan_detections_exit_2(kitti_dirs, capsys):
    gt, det = kitti_dirs
    write_kitti(det, "zzz", [CAR.format(x0=1, y0=1, x1=30, y1=30) + " 0.5"])
    code, _, err = run(capsys, "detect-eval", "--gt-dir", str(gt),
                       "--det-dir", str(det))
    assert code == 2
    assert "zzz" in err


@pytest.mark.parametrize("bad", ["malformed", "directory"])
def test_detect_eval_unreadable_label_file_exits_2(kitti_dirs, capsys, bad):
    gt, det = kitti_dirs
    path = det / "a.txt"
    path.unlink()
    if bad == "malformed":
        path.write_text("Car 0.00 0 0.0 100 100\n")
    else:
        path.mkdir()
    code, _, err = run(capsys, "detect-eval", "--gt-dir", str(gt), "--det-dir", str(det))
    assert code == 2
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("side", ["gt", "det"])
def test_detect_eval_inverted_box_exits_2(kitti_dirs, capsys, side):
    gt, det = kitti_dirs
    path = (gt if side == "gt" else det) / "b.txt"
    path.write_text(CAR.format(x0=700, y0=200, x1=500, y1=400)
                    + (" 0.7" if side == "det" else "") + "\n")
    code, _, err = run(capsys, "detect-eval", "--gt-dir", str(gt), "--det-dir", str(det))
    assert code == 2
    assert err.startswith("error:") and str(path) in err and "700.0" in err


@pytest.mark.parametrize("side", ["gt", "det"])
def test_detect_eval_non_finite_field_exits_2(kitti_dirs, capsys, side):
    gt, det = kitti_dirs
    path = (gt if side == "gt" else det) / "b.txt"
    line = CAR.format(x0=500, y0=200, x1=700, y1=400)
    path.write_text(line + " nan\n" if side == "det" else line.replace("700", "inf") + "\n")
    code, _, err = run(capsys, "detect-eval", "--gt-dir", str(gt), "--det-dir", str(det))
    assert code == 2
    assert err.startswith("error:") and str(path) in err and "non-finite" in err


def test_detect_eval_text_and_json_agree(kitti_dirs, capsys):
    gt, det = kitti_dirs
    code, text, _ = run(capsys, "detect-eval", "--gt-dir", str(gt),
                        "--det-dir", str(det), "--difficulty", "easy")
    code2, raw, _ = run(capsys, "detect-eval", "--gt-dir", str(gt),
                        "--det-dir", str(det), "--difficulty", "easy", "--json")
    parsed = json.loads(raw)
    assert f"{100 * parsed['mAP']:.2f}" in text
