"""Tensor construction, op semantics, reverse-mode gradients, serialization."""

import ast
from pathlib import Path

import numpy as np
import pytest

from castnet import model as M
from castnet import preprocess as P
from castnet import tensor as T
from castnet.errors import (
    DomainError,
    FormatError,
    InvalidShape,
    NotScalar,
    NumericalFailure,
    ShapeMismatch,
)


class TestConstruction:
    def test_zeros(self):
        t = T.zeros((2, 2))
        np.testing.assert_array_equal(t.data, [[0, 0], [0, 0]])
        assert not t.requires_grad

    def test_constant_fill(self):
        t = T.Tensor(np.full((3,), 2.5))
        np.testing.assert_array_equal(t.data, [2.5, 2.5, 2.5])

    def test_uniform_deterministic_per_seed(self):
        a = T.uniform((4,), 0, 1, seed=7)
        b = T.uniform((4,), 0, 1, seed=7)
        assert np.array_equal(a.data, b.data)
        c = T.uniform((4,), 0, 1, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_gaussian_deterministic_per_seed(self):
        a = T.gaussian((5, 5), 0, 1, seed=3)
        b = T.gaussian((5, 5), 0, 1, seed=3)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (-1, 3)])
    def test_invalid_shapes_rejected(self, shape):
        with pytest.raises(InvalidShape):
            T.zeros(shape)


class TestMatmul:
    def test_identity(self):
        eye = T.Tensor(np.eye(2))
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(eye, m).data, m.data)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[11.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (5, 4))
        b = rng.uniform(-2, 2, (4, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.ones((2, 3)), T.ones((2, 3)))

    def test_batched_equals_per_index_products(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (3, 5, 4))
        b = rng.uniform(-2, 2, (3, 4, 2))
        w = rng.uniform(-2, 2, (4, 2))
        batched = T.matmul(T.Tensor(a), T.Tensor(b)).data
        shared = T.matmul(T.Tensor(a), T.Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], a[i] @ b[i], atol=1e-12, rtol=0)
            np.testing.assert_allclose(shared[i], a[i] @ w, atol=1e-12, rtol=0)

    def test_batched_leading_axes_must_match(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.ones((2, 3, 4)), T.ones((3, 4, 2)))
        with pytest.raises(ShapeMismatch):
            T.matmul(T.ones((4,)), T.ones((4, 2)))


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(T.Tensor([0.0])).item() == 0.5

    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_sigmoid_saturation_without_overflow(self):
        out = T.sigmoid(T.Tensor([1e4, -1e4]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_trailing_vector_broadcast(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = T.Tensor([10.0, 20.0])
        np.testing.assert_array_equal(T.add(a, v).data, [[11, 22], [13, 24]])
        np.testing.assert_array_equal(T.mul(a, v).data, [[10, 40], [30, 80]])

    def test_incompatible_broadcast_rejected(self):
        with pytest.raises(ShapeMismatch):
            T.add(T.ones((2, 3)), T.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            T.add(T.ones((2, 3)), T.ones((2,)))  # only trailing dim may broadcast

    def test_relu_matches_where_formulation(self):
        rng = np.random.default_rng(8)
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300])
        x = np.concatenate([special, rng.standard_normal(200)])
        got = T.relu(T.Tensor(x)).data
        want = np.where(x > 0, x, 0.0)
        assert np.array_equal(got, want)  # NaN maps to 0, so no NaN remains
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 -> +0.0

    def test_log_domain(self):
        with pytest.raises(DomainError):
            T.log(T.Tensor([1.0, 0.0]))

    def test_softplus_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 101)
        got = T.softplus(T.Tensor(x)).data
        np.testing.assert_allclose(got, np.log1p(np.exp(x)), atol=1e-12)

    def test_softplus_finite_at_extremes(self):
        out = T.softplus(T.Tensor([1e4, -1e4])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1e4, 0.0], atol=1e-12)

    def test_ops_bitwise_deterministic(self):
        x = T.uniform((16,), -2, 2, seed=11)
        a = T.sigmoid(x).data
        b = T.sigmoid(x).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_quadratic(self):
        w = T.Tensor([1.0, -2.0], requires_grad=True)
        loss = T.sum_all(T.mul(w, w))
        grads = T.backward(loss)
        np.testing.assert_array_equal(grads.of(w).data, [2.0, -4.0])

    def test_sigmoid_derivative_at_zero(self):
        w = T.Tensor([0.0], requires_grad=True)
        grads = T.backward(T.sigmoid(w))
        np.testing.assert_allclose(grads.of(w).data, [0.25], atol=1e-15)

    def test_three_layer_composition_vs_finite_differences(self):
        rng = np.random.default_rng(42)
        w1 = T.Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        w2 = T.Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        w3 = T.Tensor(rng.uniform(-2, 2, (3, 1)), requires_grad=True)
        x = T.Tensor(rng.uniform(-2, 2, (2, 4)))

        def build():
            h1 = T.sigmoid(T.matmul(x, w1))
            h2 = T.relu(T.matmul(h1, w2))
            return T.sum_all(T.sigmoid(T.matmul(h2, w3)))

        err = T.grad_check(build, [w1, w2, w3], eps=1e-5)
        assert err < 1e-6

    def test_repeated_backward_does_not_accumulate(self):
        w = T.Tensor([1.5, -0.5], requires_grad=True)
        loss = T.sum_all(T.mul(w, w))
        first = T.backward(loss).of(w).data
        np.testing.assert_array_equal(T.backward(loss).of(w).data, first)

    def test_leaves_of_one_add_get_separate_gradients(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0, 4.0], requires_grad=True)
        grads = T.backward(T.sum_all(T.add(a, b)))
        ga, gb = grads.of(a).data, grads.of(b).data
        np.testing.assert_array_equal(ga, [1.0, 1.0])
        np.testing.assert_array_equal(gb, [1.0, 1.0])
        assert not np.shares_memory(ga, gb)

    def test_non_scalar_loss_rejected(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NotScalar):
            T.backward(T.mul(w, w))

    def test_unreachable_leaf_gets_zeros(self):
        w = T.Tensor([1.0], requires_grad=True)
        u = T.Tensor([5.0], requires_grad=True)
        _ = T.sum_all(u)  # registers u as a leaf, not connected to loss
        loss = T.sum_all(T.mul(w, w))
        grads = T.backward(loss)
        np.testing.assert_array_equal(grads.of(u).data, [0.0])

    def test_constant_loss_zero_gradients(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)

        def build():
            return T.Tensor([3.0])

        assert T.grad_check(build, [w]) == 0.0


def _loss_through(op_fn, inputs):
    """Project an op output to a scalar with a fixed random weighting so the
    loss is sensitive to every output entry."""
    out = op_fn(*inputs)
    r = T.Tensor(np.random.default_rng(99).uniform(0.5, 1.5, out.shape))
    return T.sum_all(T.mul(out, r))


class TestPerOpGradients:
    """Every differentiable op matches central differences below 1e-6."""

    def _check(self, op_fn, param_shapes, low=-2.0, high=2.0, seed=0):
        rng = np.random.default_rng(seed)
        params = [T.Tensor(rng.uniform(low, high, s), requires_grad=True)
                  for s in param_shapes]
        err = T.grad_check(lambda: _loss_through(op_fn, params), params, eps=1e-5)
        assert err < 1e-6, f"{op_fn}: {err}"

    def test_matmul(self):
        self._check(T.matmul, [(3, 4), (4, 2)])

    def test_batched_matmul(self):
        self._check(T.matmul, [(2, 3, 4), (2, 4, 2)])  # per-index operands
        self._check(T.matmul, [(2, 3, 4), (4, 2)])     # one shared matrix
        self._check(T.matmul, [(2, 2, 3, 4), (2, 2, 4, 3)])

    def test_add_sub_mul_same_shape(self):
        self._check(T.add, [(3, 4), (3, 4)])
        self._check(T.sub, [(3, 4), (3, 4)])
        self._check(T.mul, [(3, 4), (3, 4)])

    def test_broadcast_ops(self):
        self._check(T.add, [(3, 4), (4,)])
        self._check(T.sub, [(4,), (3, 4)])
        self._check(T.mul, [(3, 4), (4,)])

    def test_trailing_block_broadcast(self):
        self._check(T.add, [(2, 3, 4), (3, 4)])
        self._check(T.sub, [(3, 4), (2, 3, 4)])
        self._check(T.mul, [(2, 3, 4), (4,)])

    def test_scale(self):
        self._check(lambda a: T.scale(a, -1.7), [(3, 4)])

    def test_sigmoid_exp_softplus(self):
        self._check(T.sigmoid, [(3, 4)])
        self._check(T.exp, [(3, 4)])
        self._check(T.softplus, [(3, 4)])

    def test_log(self):
        self._check(T.log, [(3, 4)], low=0.5, high=2.5)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (4, 4))
        x[np.abs(x) < 0.05] = 0.5  # keep clear of the non-differentiable point
        p = T.Tensor(x, requires_grad=True)
        err = T.grad_check(lambda: _loss_through(T.relu, [p]), [p])
        assert err < 1e-6

    def test_shape_ops(self):
        self._check(lambda a: T.reshape(a, (2, 6)), [(3, 4)])
        self._check(T.transpose, [(3, 4)])
        self._check(lambda a: T.transpose(a, (2, 0, 1)), [(2, 3, 4)])
        self._check(T.mean_axis0, [(5, 3)])
        self._check(lambda v: T.repeat_rows(v, 4), [(3,)])

    def test_batched_shape_ops(self):
        self._check(T.transpose, [(2, 3, 4)])  # default swaps the last two axes
        self._check(lambda a: T.mean_axis0(a, axis=-2), [(2, 5, 3)])
        self._check(lambda v: T.repeat_rows(v, 4), [(2, 3)])

    def test_concat_stack(self):
        self._check(lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 4)])
        self._check(lambda a, b: T.stack([a, b]), [(3, 2), (3, 2)])

    def test_sum_all(self):
        self._check(T.sum_all, [(3, 4)])


class TestGradCheckHarness:
    def test_linear_regression_loss(self):
        rng = np.random.default_rng(1)
        x = T.Tensor(rng.uniform(-1, 1, (8, 3)))
        y = T.Tensor(rng.uniform(-1, 1, (8, 1)))
        w = T.Tensor(rng.uniform(-1, 1, (3, 1)), requires_grad=True)

        def build():
            r = T.sub(T.matmul(x, w), y)
            return T.scale(T.sum_all(T.mul(r, r)), 1.0 / 8.0)

        assert T.grad_check(build, [w], eps=1e-5) < 1e-7

    def test_eps_validated(self):
        w = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.sum_all(w), [w], eps=0.5)

    def test_non_finite_loss_raises(self):
        w = T.Tensor([1.0], requires_grad=True)

        def build():
            return T.Tensor([np.inf])

        with pytest.raises(NumericalFailure):
            T.grad_check(build, [w])


class TestDebugChecks:
    def test_nan_check_flags_overflow(self):
        T.set_debug_nan_checks(True)
        try:
            with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
                T.exp(T.Tensor([1e4]))
        finally:
            T.set_debug_nan_checks(False)


def _global_statements(source: str) -> list[tuple[int, list[str]]]:
    """(line, names) of each global statement in a module's source."""
    return sorted((node.lineno, node.names) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


# per-thread or process-wide stores that outlive the call that fills them
_LASTING_STORES = {("threading", "local"), ("functools", "lru_cache"),
                   ("functools", "cache")}


def _lasting_stores(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use or import of a _LASTING_STORES name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        found += [(node.lineno, ".".join(n)) for n in names if n in _LASTING_STORES]
    return sorted(found)


# how a module can name numpy's 32-bit float
_FLOAT32_SPELLINGS = {"float32", "f4", "<f4", "=f4", ">f4"}


def _dtype_knobs(source: str) -> list[tuple[str, str]]:
    """(top-level statement, what) for each parameter named dtype and each
    float32 name or dtype string in a module's source. A top-level
    statement is named by the function, class or variable it defines."""
    found = []
    for top in ast.parse(source).body:
        targets = getattr(top, "targets", [top])
        where = getattr(top, "name", None) or getattr(targets[0], "id", str(top.lineno))
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                found += [(where, f"{getattr(node, 'name', 'lambda')}(dtype)")
                          for arg in args if arg.arg == "dtype"]
            elif isinstance(node, ast.Attribute) and node.attr in _FLOAT32_SPELLINGS:
                found.append((where, node.attr))
            elif isinstance(node, ast.Name) and node.id in _FLOAT32_SPELLINGS:
                found.append((where, node.id))
            elif isinstance(node, ast.Constant) and node.value in _FLOAT32_SPELLINGS:
                found.append((where, repr(node.value)))
    return found


def _scan_sources(scan) -> dict[str, list]:
    found = {}
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        hits = scan(path.read_text(encoding="utf-8"))
        if hits:
            found[path.name] = hits
    return found


class TestModuleState:
    def test_no_global_statement(self):
        # state a caller changes lives in its context, so callers in
        # different threads never see each other's
        assert _scan_sources(_global_statements) == {}

    def test_no_thread_local_or_function_cache(self):
        # buffers and caches live in a context (nn.workspace), so nothing
        # keeps them after the run that made them
        assert _scan_sources(_lasting_stores) == {}

    def test_layout_scan_sees_lasting_stores(self):
        src = ("import functools, threading\nfrom functools import cache, partial\n"
               "x = threading.local()\n@functools.lru_cache(maxsize=16)\n"
               "def f():\n    return threading.get_ident()\n")
        assert _lasting_stores(src) == [(2, "functools.cache"), (3, "threading.local"),
                                        (4, "functools.lru_cache")]

    def test_float64_only(self):
        # every tensor holds float64: no function takes a dtype, and float32
        # is named only where a tensor read maps the f32 tag to float64
        assert _scan_sources(_dtype_knobs) == {"tensor.py": [("_TAG_DTYPES", "'<f4'")]}

    def test_layout_scan_sees_dtype_knobs(self):
        src = ('"""float32 in a docstring is prose."""\nimport numpy as np\n'
               "def zeros(shape, dtype=None):\n    return np.zeros(shape, dtype)\n"
               "class C:\n    def m(self, *, dtype):\n        return np.float32(1)\n"
               "f = lambda x, dtype: x\nTAGS = {0: '<f4', 1: 'f8'}\n"
               "def g(x):\n    return x.astype(float32)\n")
        assert _dtype_knobs(src) == [("zeros", "zeros(dtype)"), ("C", "m(dtype)"),
                                     ("C", "float32"), ("f", "lambda(dtype)"),
                                     ("TAGS", "'<f4'"), ("g", "float32")]

    def test_layout_scan_sees_nested_globals(self):
        src = ("x = 0\ndef f():\n    global x\n    x = 1\n"
               "    def g():\n        global y, z\n"
               "class C:\n    def m(self):\n        global x\n")
        assert _global_statements(src) == [(3, ["x"]), (6, ["y", "z"]), (9, ["x"])]


class TestSerialization:
    def test_round_trip_f64(self):
        t = T.uniform((3, 4, 2), -5, 5, seed=13)
        buf = T.tensor_to_bytes(t)
        back, end = T.tensor_from_bytes(buf)
        assert end == len(buf)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, t.data)

    def test_f32_files_read_as_float64(self, tmp_path):
        # castnet writes only f64, but an f32-tagged tensor or clip made
        # elsewhere reads into float64 and scores as the same values stored f64
        cfg = M.CastConfig(backbone_channels=(4, 8), d=8, encoder_layers=1, heads=2,
                           ffn_dim=16, fusion_heads=2, clip_len=2)
        vals = np.random.default_rng(2).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        f32 = (T.pack_magic(T.TENSOR_MAGIC, T.TENSOR_VERSION)
               + T.pack_struct("BB4Q", 0, 4, *vals.shape) + vals.astype("<f4").tobytes())
        back, end = T.tensor_from_bytes(f32)
        assert end == len(f32)
        assert back.data.dtype == np.float64
        np.testing.assert_array_equal(back.data, vals)

        clips = []
        for name, frames in (("f32", f32), ("f64", T.tensor_to_bytes(T.Tensor(vals)))):
            path = tmp_path / f"{name}.clip"
            path.write_bytes(T.pack_magic(P.CLIP_MAGIC, P.CLIP_VERSION) + T.pack_struct("b", 1)
                             + T.pack_text(name, "source_id") + T.pack_struct("dd", 30.0, 1.0)
                             + frames)
            clips.append(P.read_clip(path))
        assert clips[0].frames.data.dtype == np.float64
        np.testing.assert_array_equal(clips[0].frames.data, vals)
        params = M.init_cast_params(cfg, seed=3)
        logits = [M.forward([c], params, cfg).clip_logit.data for c in clips]
        assert logits[0].tobytes() == logits[1].tobytes()

    def test_header_layout(self):
        buf = T.tensor_to_bytes(T.zeros((2, 3)))
        assert buf[:8] == b"CASTTNSR"
        assert buf[8:10] == b"\x01\x00"  # version 1, little-endian u16
        assert buf[10] == 1  # f64 tag
        assert buf[11] == 2  # rank
        assert len(buf) == 12 + 16 + 6 * 8

    def test_bad_magic(self):
        buf = bytearray(T.tensor_to_bytes(T.zeros((2,))))
        buf[0] = ord(b"X")
        with pytest.raises(FormatError):
            T.tensor_from_bytes(bytes(buf))

    def test_truncation(self):
        buf = T.tensor_to_bytes(T.uniform((4, 4), 0, 1, seed=1))
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf[:-3])

    def test_dims_whose_product_overflows_int64(self):
        # 2**33 * 2**31 elements: np.prod wraps to 0 and reshape fails later
        buf = T.TENSOR_MAGIC + bytes([1, 0, 1, 2]) + (2 ** 33).to_bytes(8, "little") \
            + (2 ** 31).to_bytes(8, "little") + b"\x00" * 64
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf)
