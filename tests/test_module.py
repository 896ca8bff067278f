"""Tests for Module/Parameter registration, state dicts, optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Module, Parameter, Sequential, Tensor
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU
from repro.nn.module import ModuleList
from repro.nn.optim import SGD, Adam, CosineDecay, ExponentialDecay, StepDecay
from repro.nn.serialization import load_model, save_model


class _Toy(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))
        self.act = ReLU()

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestModule:
    def test_parameter_discovery(self):
        m = _Toy()
        names = [n for n, _ in m.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(m.parameters()) == 4

    def test_num_parameters(self):
        m = _Toy()
        assert m.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_parameter_bytes(self):
        m = _Toy()
        assert m.parameter_bytes() == m.num_parameters() * 4

    def test_train_eval_recursive(self):
        m = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4))
        m.eval()
        assert all(not sub.training for sub in m.modules())
        m.train()
        assert all(sub.training for sub in m.modules())

    def test_zero_grad(self):
        m = _Toy()
        x = Tensor(np.ones((2, 4)))
        m(x).sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_buffers_in_state_dict(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_state_dict_roundtrip(self):
        m1, m2 = _Toy(), _Toy()
        m2.fc1.weight.data += 1.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(m2.fc1.weight.data, m1.fc1.weight.data)

    def test_load_rejects_shape_mismatch(self):
        m = _Toy()
        bad = m.state_dict()
        bad["fc1.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            m.load_state_dict(bad)

    def test_load_rejects_missing_keys(self):
        m = _Toy()
        state = m.state_dict()
        del state["fc2.bias"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_sequential_iteration_and_indexing(self):
        layers = [ReLU(), ReLU()]
        seq = Sequential(*layers)
        assert len(seq) == 2
        assert seq[0] is layers[0]
        assert list(seq) == layers

    def test_module_list(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(ml) == 2
        assert len(list(ml[0].parameters())) == 2
        # parameters of children are registered on the parent
        holder = Module.__new__(Module)
        Module.__init__(holder)
        holder.items = ml
        assert len(holder.parameters()) == 4

    def test_named_modules(self):
        m = _Toy()
        names = dict(m.named_modules())
        assert names[""] is m
        assert names["fc1"] is m.fc1
        nested = Sequential(_Toy())
        assert "0.fc1" in dict(nested.named_modules())


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        m1, m2 = _Toy(), _Toy()
        m1.fc1.weight.data += 3.0
        path = str(tmp_path / "ckpt" / "model.npz")
        save_model(m1, path)
        load_model(m2, path)
        np.testing.assert_allclose(m2.fc1.weight.data, m1.fc1.weight.data)


class TestOptimizers:
    def _quadratic_problem(self):
        p = Parameter(np.array([5.0, -3.0]))
        return p

    def test_sgd_converges_on_quadratic(self):
        p = self._quadratic_problem()
        opt = SGD([p], lr=0.1, momentum=0.0)
        for _ in range(200):
            p.grad = 2 * p.data  # d/dp ||p||^2
            opt.step()
        assert np.abs(p.data).max() < 1e-6

    def test_sgd_momentum_faster_than_plain(self):
        def run(momentum):
            p = self._quadratic_problem()
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(50):
                p.grad = 2 * p.data
                opt.step()
            return float(np.abs(p.data).max())

        assert run(0.9) < run(0.0)

    def test_sgd_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9)

    def test_sgd_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_sgd_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad set: no movement, no crash
        assert p.data[0] == 1.0

    def test_adam_converges_on_quadratic(self):
        p = self._quadratic_problem()
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            p.grad = 2 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-4

    def test_adam_bias_correction_first_step(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # with bias correction the first step has magnitude ~lr
        assert p.data[0] == pytest.approx(-0.1, rel=1e-4)

    def test_zero_grad_helper(self):
        p = Parameter(np.zeros(1))
        p.grad = np.ones(1)
        Adam([p]).zero_grad()
        assert p.grad is None


class TestSchedulers:
    def _opt(self, lr=1e-2):
        return SGD([Parameter(np.zeros(1))], lr=lr)

    def test_exponential_reaches_final_lr(self):
        opt = self._opt(1e-4)
        sched = ExponentialDecay(opt, total_steps=100, final_lr=1e-7)
        for _ in range(100):
            sched.step()
        assert opt.lr == pytest.approx(1e-7, rel=1e-6)

    def test_exponential_is_geometric(self):
        opt = self._opt(1.0)
        sched = ExponentialDecay(opt, total_steps=10, final_lr=0.001)
        lrs = [sched.step() for _ in range(10)]
        ratios = [lrs[i + 1] / lrs[i] for i in range(8)]
        assert max(ratios) - min(ratios) < 1e-9

    def test_exponential_clamps_past_total(self):
        opt = self._opt(1.0)
        sched = ExponentialDecay(opt, total_steps=5, final_lr=0.1)
        for _ in range(20):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_step_decay(self):
        opt = self._opt(1.0)
        sched = StepDecay(opt, total_steps=30, step_size=10, gamma=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_endpoints(self):
        opt = self._opt(1.0)
        sched = CosineDecay(opt, total_steps=100, min_lr=0.0)
        first = sched.lr_at(0)
        last = sched.lr_at(100)
        assert first == pytest.approx(1.0)
        assert last == pytest.approx(0.0, abs=1e-12)

    def test_invalid_total_steps(self):
        with pytest.raises(ValueError):
            ExponentialDecay(self._opt(), total_steps=0, final_lr=0.1)
