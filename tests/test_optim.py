import numpy as np
import pytest

from wrinet import data as data_io
from wrinet import layers
from wrinet.builder import build_network, execute
from wrinet.gradcheck import miniature_config
from wrinet.graph import NodeNonFiniteError
from wrinet.optim import (LRSchedule, OptimizerState,
                          TrainConfig, classification_defaults,
                          detection_defaults, evaluate_classifier,
                          first_nonfinite_node, lr_at, sgd_nesterov_step,
                          train_epochs)


def single_param(value: float):
    params = {"w": np.array([value], dtype=np.float64)}
    return params, OptimizerState.for_parameters(params)


def test_step_reduces_to_vanilla_sgd_without_momentum():
    params, state = single_param(1.0)
    sgd_nesterov_step(params, {"w": np.array([0.1])}, state, lr=0.1,
                      momentum=0.0, weight_decay=0.0)
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.1, abs=1e-15)


def test_step_hand_computed_nesterov_update():
    # g = 0.1, v' = 0.9*0 + 0.1 = 0.1, w' = 1 - 0.1*(0.1 + 0.9*0.1) = 0.981
    params, state = single_param(1.0)
    sgd_nesterov_step(params, {"w": np.array([0.1])}, state, lr=0.1,
                      momentum=0.9, weight_decay=0.0)
    assert state.velocity["w"][0] == pytest.approx(0.1, abs=1e-15)
    assert params["w"][0] == pytest.approx(0.981, abs=1e-15)


def test_frozen_parameter_never_moves():
    params = {"stage1/w": np.ones(3), "head/w": np.ones(3)}
    state = OptimizerState.for_parameters(params)
    grads = {"stage1/w": np.full(3, 0.5), "head/w": np.full(3, 0.5)}
    before = params["stage1/w"].tobytes()
    for _ in range(100):
        sgd_nesterov_step(params, grads, state, 0.1, 0.9, 0.0, freeze=("stage1/",))
    assert params["stage1/w"].tobytes() == before
    assert np.all(state.velocity["stage1/w"] == 0.0)
    assert params["head/w"][0] != 1.0


def test_weight_decay_shrinks_weights_with_zero_gradient():
    params, state = single_param(2.0)
    sgd_nesterov_step(params, {"w": np.zeros(1)}, state, lr=0.1,
                      momentum=0.9, weight_decay=0.01)
    assert 0 < params["w"][0] < 2.0
    params2, state2 = single_param(-2.0)
    sgd_nesterov_step(params2, {"w": np.zeros(1)}, state2, lr=0.1,
                      momentum=0.9, weight_decay=0.01)
    assert -2.0 < params2["w"][0] < 0


def test_lr_schedule_multiplicative_boundaries():
    sched = LRSchedule("epoch", (60, 120, 160), 0.2)
    assert lr_at(sched, 0, 0.1) == pytest.approx(0.1)
    assert lr_at(sched, 59, 0.1) == pytest.approx(0.1)
    assert lr_at(sched, 60, 0.1) == pytest.approx(0.02)
    assert lr_at(sched, 120, 0.1) == pytest.approx(0.004)
    assert lr_at(sched, 160, 0.1) == pytest.approx(0.0008)
    assert lr_at(sched, 199, 0.1) == pytest.approx(0.0008)


def test_lr_schedule_iteration_kind():
    sched = detection_defaults().schedule
    assert sched.kind == "iteration"
    assert lr_at(sched, 0, 0.001) == pytest.approx(0.001)
    assert lr_at(sched, 39999, 0.001) == pytest.approx(0.001)
    assert lr_at(sched, 40000, 0.001) == pytest.approx(0.0001)
    assert lr_at(sched, 80000, 0.001) == pytest.approx(0.00001)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LRSchedule("epoch", (10, 10), 0.2)
    with pytest.raises(ValueError):
        LRSchedule("epoch", (10, 5), 0.2)
    with pytest.raises(ValueError):
        LRSchedule("epoch", (10,), 1.5)
    with pytest.raises(ValueError):
        LRSchedule("century", (10,), 0.2)


def test_default_configs_carry_expected_hyperparameters():
    c = classification_defaults()
    assert (c.lr_initial, c.momentum, c.weight_decay, c.batch_size, c.epochs) == \
        (0.1, 0.9, 0.005, 128, 200)
    d = detection_defaults()
    assert (d.lr_initial, d.momentum, d.weight_decay, d.batch_size) == \
        (0.001, 0.9, 0.0005, 32)


def tiny_dataset(n=24, seed=0, classes=4):
    rng = np.random.default_rng(seed)
    templates = rng.normal(size=(classes, 3, 8, 8))
    labels = np.arange(n) % classes
    images = (templates[labels] + 0.25 * rng.normal(size=(n, 3, 8, 8))
              ).astype(np.float32)
    return data_io.ClassificationDataset(images=images,
                                         labels=labels.astype(np.int64))


def tiny_train_config(**overrides):
    base = dict(lr_initial=0.01, momentum=0.9, weight_decay=0.0005, batch_size=8,
                schedule=LRSchedule("epoch", (60,), 0.2), epochs=2, seed=0,
                augment=False)
    base.update(overrides)
    return TrainConfig(**base)


def test_loss_decreases_over_ten_steps_on_fixed_batch():
    g = build_network(miniature_config(), seed=0)
    ds = tiny_dataset()
    x, y = ds.images[:8], ds.labels[:8]
    params = g.parameters()
    state = OptimizerState.for_parameters(params)
    losses = []
    for _ in range(11):
        r = execute(g, x, mode="train", labels=y)
        losses.append(r.loss)
        sgd_nesterov_step(params, r.grads, state, 0.01, 0.9, 0.0)
    assert losses[10] < losses[0]


def test_zero_learning_rate_keeps_parameters_bit_identical():
    g = build_network(miniature_config(), seed=1)
    before = {k: v.tobytes() for k, v in g.parameters().items()}
    cfg = tiny_train_config(lr_initial=1e-30, epochs=1)  # positive per contract
    params = g.parameters()
    state = OptimizerState.for_parameters(params)
    ds = tiny_dataset()
    r = execute(g, ds.images[:8], mode="train", labels=ds.labels[:8])
    sgd_nesterov_step(params, r.grads, state, 0.0, cfg.momentum, cfg.weight_decay)
    after = {k: v.tobytes() for k, v in g.parameters().items()}
    assert before == after


def test_training_is_deterministic_per_seed():
    logs = []
    for _ in range(2):
        g = build_network(miniature_config(), seed=5)
        log = train_epochs(g, tiny_dataset(), tiny_train_config(epochs=3, seed=5))
        logs.append([(r.loss, r.acc, r.lr) for r in log.epochs])
    assert logs[0] == logs[1]
    g = build_network(miniature_config(), seed=5)
    other = train_epochs(g, tiny_dataset(), tiny_train_config(epochs=3, seed=6))
    assert [(r.loss,) for r in other.epochs] != [(l,) for l, _, _ in logs[0]]


def test_frozen_bytes_identical_across_run():
    g = build_network(miniature_config(), seed=2)
    freeze = ("conv1", "stage1/")
    frozen_before = {k: v.tobytes() for k, v in g.parameters().items()
                     if k.startswith(freeze)}
    train_epochs(g, tiny_dataset(), tiny_train_config(epochs=2, freeze=freeze))
    frozen_after = {k: v.tobytes() for k, v in g.parameters().items()
                    if k.startswith(freeze)}
    assert frozen_before == frozen_after
    moved = [k for k, v in g.parameters().items()
             if not k.startswith(freeze)]
    assert moved  # something still trains


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_loss_aborts_with_node_name():
    g = build_network(miniature_config(), seed=3)
    g.nodes["stage2/unit0/shared"].conv.weights[...] = np.inf
    with pytest.raises(NodeNonFiniteError) as err:
        train_epochs(g, tiny_dataset(), tiny_train_config(epochs=1))
    assert err.value.node != "loss"
    assert err.value.node in g.nodes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_gradient_aborts_before_the_update():
    """One NaN weight ahead of a batch norm: the ReLU clamps that channel's NaN
    to 0, so the loss is finite while gradients are not. Training stops at
    the first step, names the node, and writes no NaN into other weights."""
    g = build_network(miniature_config(), seed=0)
    g.nodes["stage1/unit0/conv1"].conv.weights[0, 0, 0, 0] = np.nan
    with pytest.raises(NodeNonFiniteError) as err:
        train_epochs(g, tiny_dataset(), tiny_train_config(epochs=1))
    assert (err.value.node, err.value.step) == ("stage1/unit0/conv1", 0)
    assert str(err.value) == \
        "non-finite values first appear at node 'stage1/unit0/conv1' (step 0)"
    assert [k for k, v in g.parameters().items()
            if not np.all(np.isfinite(v))] == ["stage1/unit0/conv1/weight"]


def test_nonfinite_gradient_of_finite_forward_names_its_node(monkeypatch):
    """Loss, outputs and weights all finite, one conv's weight gradient NaN:
    the re-run forward finds nothing, so the gradient's node is named."""
    g = build_network(miniature_config(), seed=0)
    bad = g.nodes["stage2/unit0/b/conv"].conv
    real = layers.conv2d_backward

    def nan_dw(dy, cache, **kwargs):
        dx, dw, db = real(dy, cache, **kwargs)
        if cache[1] is bad:
            dw = np.full_like(dw, np.nan)
        return dx, dw, db

    monkeypatch.setattr(layers, "conv2d_backward", nan_dw)
    before = {k: v.copy() for k, v in g.parameters().items()}
    with pytest.raises(NodeNonFiniteError) as err:
        train_epochs(g, tiny_dataset(), tiny_train_config(epochs=1))
    assert (err.value.node, err.value.step) == ("stage2/unit0/b/conv", 0)
    assert all(np.array_equal(v, before[k]) for k, v in g.parameters().items())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_first_nonfinite_node_reports_topologically_first():
    g = build_network(miniature_config(), seed=3)
    g.nodes["stage2/unit0/shared"].conv.weights[...] = np.inf
    node = first_nonfinite_node(g, tiny_dataset().images[:4])
    assert node == "stage2/unit0/shared"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad, want", [(None, "loss"),
                                       ("stage3/unit0/conv2", "stage3/unit0/conv2")])
def test_train_mode_diagnosis_leaves_buffers_unchanged(bad, want):
    """The diagnostic forward runs in train mode, which folds batch
    statistics into the running ones; every buffer comes back byte for byte,
    also when the pass stops part way, after some batch norms have run."""
    g = build_network(miniature_config(), seed=3)
    x = tiny_dataset().images[:4]
    execute(g, x, mode="train", labels=np.arange(4))  # nontrivial running stats
    if bad:
        g.nodes[bad].conv.weights[...] = np.inf
    before = {k: v.tobytes() for k, v in g.buffers().items()}
    assert first_nonfinite_node(g, x) == want
    assert {k: v.tobytes() for k, v in g.buffers().items()} == before


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("entry, mode", [("gamma", "train"), ("running_var", "infer")])
def test_nonfinite_bn_parameter_is_localized(entry, mode):
    """The ReLU of a pre-activation maps the NaN its batch norm makes to 0;
    the node that holds the NaN is still the one reported: the
    pre-activation for its ``gamma``, the normalisation of its input for
    the running statistics."""
    holder = {"gamma": "stage1/unit0/bn2", "running_var": "stage1/unit0/conv1/norm"}[entry]
    g = build_network(miniature_config(), seed=0)
    assert g.nodes["stage1/unit0/bn2"].inputs == ["stage1/unit0/conv1/norm"]
    getattr(g.nodes[holder].params, entry)[0] = np.nan
    node = first_nonfinite_node(g, tiny_dataset().images[:4], mode=mode)
    assert node == holder


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_overflowing_preactivation_is_charged_to_it_not_its_conv(mode):
    """A finite but huge ``gamma`` and ``beta`` make the affine of
    ``stage1/unit0/bn2`` overflow to +Inf, which its ReLU keeps. A forward
    lets ``conv2``, its one reader, apply that pre-activation as it copies
    its input, so no map of it is made and the Inf first shows in the
    conv's output; the diagnostic pass still names the pre-activation."""
    g = build_network(miniature_config(), seed=0)
    readers = [name for name, node in g.nodes.items() if "stage1/unit0/bn2" in node.inputs]
    assert readers == ["stage1/unit0/conv2"]
    affine = g.nodes["stage1/unit0/bn2"].affine
    affine.gamma[...] = affine.beta[...] = np.finfo(np.float32).max / 2
    x = tiny_dataset().images[:4]
    conv2 = g.forward(x, mode=mode, keep=readers)[readers[0]]
    assert not np.all(np.isfinite(conv2))
    assert first_nonfinite_node(g, x, mode=mode) == "stage1/unit0/bn2"


def test_checkpoint_cadence_and_log(tmp_path):
    g = build_network(miniature_config(), seed=4)
    out = tmp_path / "run"
    cfg = tiny_train_config(epochs=4, checkpoint_every=2)
    log = train_epochs(g, tiny_dataset(), cfg, out_dir=str(out))
    assert (out / "checkpoint-epoch2.wrin").exists()
    assert (out / "checkpoint-epoch4.wrin").exists()
    assert (out / "checkpoint-final.wrin").exists()
    lines = (out / "log.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,step,lr,loss,acc"
    assert len(lines) == 1 + len(log.epochs)


def test_iteration_schedule_records_each_epochs_last_step_lr():
    g = build_network(miniature_config(), seed=0)
    cfg = tiny_train_config(epochs=3, schedule=LRSchedule("iteration", (2, 4), 0.5))
    log = train_epochs(g, tiny_dataset(), cfg)  # 24 images, batch 8: 3 steps an epoch
    assert [r.step for r in log.epochs] == [3, 6, 9]
    assert [r.lr for r in log.epochs] == [0.01 * 0.5, 0.01 * 0.5 ** 2, 0.01 * 0.5 ** 2]


def test_stop_acc_ends_training_after_the_epoch_that_reaches_it():
    full = train_epochs(build_network(miniature_config(), seed=6), tiny_dataset(),
                        tiny_train_config(epochs=6))
    accs = [r.acc for r in full.epochs]
    stop_acc = accs[3]
    first = next(i for i, acc in enumerate(accs) if acc >= stop_acc)
    log = train_epochs(build_network(miniature_config(), seed=6), tiny_dataset(),
                       tiny_train_config(epochs=6, stop_acc=stop_acc))
    assert log.epochs == full.epochs[:first + 1]
    one = train_epochs(build_network(miniature_config(), seed=6), tiny_dataset(),
                       tiny_train_config(epochs=6, stop_acc=0.0))
    assert len(one.epochs) == 1


def test_evaluate_classifier_counts_correctly():
    g = build_network(miniature_config(), seed=7)
    ds = tiny_dataset(n=16)
    acc = evaluate_classifier(g, ds, batch_size=5)
    logits = execute(g, ds.images, mode="infer").logits
    manual = float((logits.argmax(axis=1) == ds.labels).mean())
    assert acc == pytest.approx(manual)


def test_nonfinite_logits_fail_evaluation_with_node_name():
    """A NaN made after the last join reaches the logits: evaluation names
    the node that makes it instead of scoring the NaN."""
    g = build_network(miniature_config(), seed=7)
    g.nodes["head/fc"].fc.bias[0] = np.nan
    with pytest.raises(NodeNonFiniteError) as err:
        evaluate_classifier(g, tiny_dataset(n=16))
    assert err.value.node == "head/fc"


def _labels_past_four_classes():
    ds = tiny_dataset(n=16, classes=5)
    assert ds.labels.max() == 4
    return ds


def test_evaluate_classifier_rejects_labels_it_cannot_predict():
    """A label at or past the network's class count is an error naming the
    label and the count, not a silently lower accuracy."""
    g = build_network(miniature_config(), seed=7)
    with pytest.raises(ValueError, match="label 4 is not one of the 4 classes"):
        evaluate_classifier(g, _labels_past_four_classes())


def test_train_epochs_rejects_labels_it_cannot_predict_before_any_step(tmp_path):
    """The trainer makes the evaluator's label check before its first step:
    no parameter or buffer moves and no file is written."""
    g = build_network(miniature_config(), seed=7)
    before = {k: v.tobytes() for k, v in g.state_entries().items()}
    with pytest.raises(ValueError, match="label 4 is not one of the 4 classes"):
        train_epochs(g, _labels_past_four_classes(), tiny_train_config(),
                     out_dir=str(tmp_path / "run"))
    assert {k: v.tobytes() for k, v in g.state_entries().items()} == before
    assert not (tmp_path / "run").exists()
