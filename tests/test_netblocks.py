import hashlib
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssadvae import gradcore as gc
from ssadvae import models as md
from ssadvae import netblocks as nb


CARDIO_SPEC = nb.MlpSpec(widths=(32, 16, 8))


def test_spec_rejects_missing_hidden_layer():
    with pytest.raises(ValueError):
        nb.MlpSpec(widths=(8,))
    with pytest.raises(ValueError):
        nb.MlpSpec(widths=(32, 0, 8))


@pytest.mark.parametrize("leak", [0.0, 1.5, -0.1, float("nan")])
def test_spec_rejects_leak_outside_unit_interval(leak):
    # leaky_relu is max(x, leak*x): leak 0 would turn +inf into nan, and
    # leak > 1 is not a leaky relu; activation = relu covers leak 0
    with pytest.raises(ValueError, match="leak"):
        nb.MlpSpec(widths=(8, 2), leak=leak)


def test_spec_accepts_leak_in_unit_interval():
    for leak in (1e-3, 0.1, 1.0):
        assert nb.MlpSpec(widths=(8, 2), leak=leak).leak == leak


def test_init_same_seed_bit_identical():
    a = nb.init_encoder(CARDIO_SPEC, 21, seed=7)
    b = nb.init_encoder(CARDIO_SPEC, 21, seed=7)
    for ta, tb in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_init_different_seeds_differ():
    a = nb.init_encoder(CARDIO_SPEC, 21, seed=1)
    b = nb.init_encoder(CARDIO_SPEC, 21, seed=2)
    assert any(not np.array_equal(ta.data, tb.data)
               for ta, tb in zip(a.tensors(), b.tensors()))


def test_init_layers_fan_in_bound_and_zero_bias():
    enc = nb.init_encoder(CARDIO_SPEC, 21, seed=3)
    dec = nb.init_decoder(CARDIO_SPEC, 21, seed=3)
    ws = [w for w, _ in enc.layers + dec.layers]
    bs = [b for _, b in enc.layers + dec.layers]
    assert [w.shape for w in ws] == [(21, 32), (32, 16), (16, 8), (16, 8),
                                     (8, 16), (16, 32), (32, 21)]
    for w in ws:
        assert np.abs(w.data).max() <= 1.0 / np.sqrt(w.shape[0])
    for b in bs:
        np.testing.assert_array_equal(b.data, 0.0)


def test_encoder_shapes_cardio():
    enc = nb.init_encoder(CARDIO_SPEC, 21, seed=0)
    x = nb.philox_rng(0, 9).standard_normal((128, 21))
    post = nb.encode(enc, x)
    assert post.mu.shape == (128, 8)
    assert post.logvar.shape == (128, 8)


def test_zero_weight_encoder_maps_to_zero():
    enc = nb.init_encoder(CARDIO_SPEC, 4, seed=0)
    for t in enc.tensors():
        t.data[...] = 0.0
    post = nb.encode(enc, np.ones((5, 4)))
    np.testing.assert_array_equal(post.mu.data, 0.0)
    np.testing.assert_array_equal(post.logvar.data, 0.0)


def test_encoder_rejects_nonfinite_and_bad_dims():
    enc = nb.init_encoder(CARDIO_SPEC, 4, seed=0)
    bad = np.ones((2, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        nb.encode(enc, bad)
    with pytest.raises(ValueError, match="expects"):
        nb.encode(enc, np.ones((2, 5)))


def test_logvar_clamped():
    enc = nb.init_encoder(nb.MlpSpec(widths=(4, 2)), 3, seed=0)
    enc.layers[-1][1].data[...] = 50.0  # the log-variance head's bias
    post = nb.encode(enc, np.zeros((2, 3)))
    assert post.logvar.data.max() <= nb.LOGVAR_MAX


def test_reparameterize_cases():
    mu = gc.constant([[2.0]])
    post = nb.GaussianPosterior(gc.constant([[0.0]]), gc.constant([[0.0]]))
    np.testing.assert_array_equal(
        nb.reparameterize(post, np.zeros((1, 1))).data, [[0.0]])
    np.testing.assert_array_equal(
        nb.reparameterize(post, np.ones((1, 1))).data, [[1.0]])
    post2 = nb.GaussianPosterior(mu, gc.constant([[np.log(4.0)]]))
    np.testing.assert_allclose(
        nb.reparameterize(post2, -np.ones((1, 1))).data, [[0.0]], atol=1e-12)


def test_reparameterize_shape_mismatch_rejected():
    post = nb.GaussianPosterior(gc.constant(np.zeros((2, 3))),
                                gc.constant(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="noise shape"):
        nb.reparameterize(post, np.zeros((2, 2)))


def test_reparameterized_z_affine_in_noise():
    enc = nb.init_encoder(CARDIO_SPEC, 6, seed=5)
    x = nb.philox_rng(5, 9).standard_normal((4, 6))
    post = nb.encode(enc, x)
    a = nb.philox_rng(6, 9).standard_normal((4, 8))
    z_a = nb.reparameterize(post, a).data
    z_0 = nb.reparameterize(post, np.zeros((4, 8))).data
    # affine to rounding: the mu +/- cancellation costs at most a few ulp
    np.testing.assert_allclose(z_a - z_0, np.exp(post.logvar.data / 2.0) * a,
                               rtol=0, atol=1e-14)


def test_noise_gets_no_gradient():
    post = nb.GaussianPosterior(gc.parameter([[1.0]]), gc.parameter([[0.2]]))
    eps = gc.parameter([[0.7]])
    z = nb.reparameterize(post, eps)
    gc.backward(gc.reduce_sum(gc.square(z)))
    assert eps.grad is None
    assert post.mu.grad is not None and post.logvar.grad is not None


def test_decoder_shapes_mirror_encoder():
    dec = nb.init_decoder(CARDIO_SPEC, 21, seed=0)
    assert [w.shape for w, _ in dec.layers] == [(8, 16), (16, 32), (32, 21)]
    z = nb.philox_rng(1, 9).standard_normal((128, 8))
    assert nb.decode(dec, z).shape == (128, 21)


def test_zero_weight_decoder_outputs_zero():
    dec = nb.init_decoder(CARDIO_SPEC, 5, seed=0)
    for t in dec.tensors():
        t.data[...] = 0.0
    np.testing.assert_array_equal(nb.decode(dec, np.ones((3, 8))).data, 0.0)


def test_bernoulli_logits_zero_give_half_probability():
    out = gc.sigmoid(gc.constant(np.zeros((2, 4))))
    np.testing.assert_array_equal(out.data, 0.5)


def test_forward_is_deterministic():
    enc = nb.init_encoder(CARDIO_SPEC, 6, seed=5)
    x = nb.philox_rng(5, 9).standard_normal((4, 6))
    p1 = nb.encode(enc, x)
    p2 = nb.encode(enc, x)
    np.testing.assert_array_equal(p1.mu.data, p2.mu.data)
    np.testing.assert_array_equal(p1.logvar.data, p2.logvar.data)


def test_no_bias_network_still_forward_and_backward():
    spec = nb.MlpSpec(widths=(8, 4), use_bias=False)
    enc = nb.init_encoder(spec, 3, seed=1)
    dec = nb.init_decoder(spec, 3, seed=1)
    x = nb.philox_rng(2, 9).standard_normal((5, 3))
    post = nb.encode(enc, x)
    z = nb.reparameterize(post, np.zeros((5, 4)))
    out = nb.decode(dec, z)
    gc.backward(gc.reduce_mean(gc.square(out)))
    assert all(t.grad is not None for t in enc.tensors())


def test_detached_decoder_shares_buffers():
    dec = nb.init_decoder(CARDIO_SPEC, 5, seed=0)
    frozen = dec.detached()
    assert all(f.data is t.data for f, t in zip(frozen.tensors(), dec.tensors()))
    assert not any(t.requires_grad for t in frozen.tensors())


# sha256 of the .bin and .json that save_params writes for a fresh
# (widths 6,4,3; 5 features; seed 11) encoder and decoder: any change to
# the Philox draw order or to the order of the saved tensors moves them
FRESH_INIT_SHA256 = {
    False: ("f756231a9231d9385b2daa217c2c259ba8b9869319494ebe19c2443865e027d5",
            "5d03b0ffdf694d9a2a879a75b2efc5099be66a3b32dfdec5c976ad155fd23b97"),
    True: ("59696d2ee78f19012a72a7dc9a0b92f106e8ecb11282123d442d62115b034daa",
           "a4c96b50518adb612df2f7e58038df9ce7e8dd000dc0b09bad1be97eb54f12b6"),
}


@pytest.mark.parametrize("use_bias", [False, True])
def test_fresh_init_file_bytes_are_pinned(use_bias, tmp_path):
    spec = nb.MlpSpec(widths=(6, 4, 3), use_bias=use_bias)
    paths = (tmp_path / "m.bin", tmp_path / "m.json")
    nb.save_params(*paths, nb.init_encoder(spec, 5, seed=11),
                   nb.init_decoder(spec, 5, seed=11))
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert got == FRESH_INIT_SHA256[use_bias]


@pytest.mark.parametrize("use_bias", [True, False])
def test_member_view_shares_buffers_and_passes_no_gradient(use_bias):
    # one input feature: the first weight is (K, 1, 6), shaped like a bias,
    # yet member k's views have the shapes and bytes of its own init
    spec = nb.MlpSpec(widths=(6, 4, 3), use_bias=use_bias)
    model = md.SsadModel.create(spec, 1, "vae", [0, 1])
    for k in range(2):
        views = model.encoder.member(k).tensors() + model.decoder.member(k).tensors()
        alone = (nb.init_encoder(spec, 1, seed=k).tensors()
                 + nb.init_decoder(spec, 1, seed=k).tensors())
        for view, stacked, ref in zip(views, model.parameters(), alone, strict=True):
            assert view.data.shape == ref.data.shape
            assert view.data.tobytes() == ref.data.tobytes()
            assert np.shares_memory(view.data, stacked.data)
            assert not view.requires_grad
    # a trainable input, so backward runs through every layer of the views
    x = gc.parameter(nb.philox_rng(3, 9).standard_normal((4, 1)))
    post = nb.encode(model.encoder.member(1), x)
    out = nb.decode(model.decoder.member(1), post.mu)
    gc.backward(gc.add(gc.reduce_sum(gc.add(post.mu, post.logvar)), gc.reduce_sum(out)))
    assert x.grad is not None
    assert all(t.grad is None for t in model.parameters())


def test_serialization_roundtrip(tmp_path):
    spec = nb.MlpSpec(widths=(16, 8, 4))
    enc = nb.init_encoder(spec, 9, seed=42)
    dec = nb.init_decoder(spec, 9, seed=42, family="bernoulli")
    pbin = tmp_path / "m.bin"
    pjson = tmp_path / "m.json"
    nb.save_params(pbin, pjson, enc, dec)
    enc2, dec2 = nb.load_params(pbin, pjson)
    assert dec2.family == "bernoulli"
    for a, b in zip(enc.tensors() + dec.tensors(), enc2.tensors() + dec2.tensors()):
        np.testing.assert_array_equal(a.data, b.data)


def test_serialization_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        nb.read_arrays(p)


def test_serialization_truncated_rejected(tmp_path):
    good = tmp_path / "good.bin"
    nb.write_arrays(good, [np.arange(12.0).reshape(3, 4)])
    data = good.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data[:-8])  # drop the last value
    with pytest.raises(ValueError, match="truncated"):
        nb.read_arrays(bad)


def test_serialization_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "m.bin"
    nb.write_arrays(p, [np.ones(3)])
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        nb.read_arrays(p)


def test_serialization_oversized_header_rejected(tmp_path):
    # a header claiming ~2^96 values must fail on the file length, not try
    # to read or allocate what it claims
    p = tmp_path / "m.bin"
    p.write_bytes(b"SSADVAE1" + struct.pack("<5I", 1, 3, *(2**32 - 1,) * 3))
    with pytest.raises(ValueError, match="truncated array data"):
        nb.read_arrays(p)


F64_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=150, deadline=None)
@given(st.lists(F64_ARRAYS, min_size=0, max_size=5))
def test_serialization_round_trip_property(arrays):
    # any number of arrays, 0-d and zero-size ones included, come back with
    # their shapes and bytes (nan payloads and signed zeros too)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.bin")
        nb.write_arrays(path, arrays)
        back = nb.read_arrays(path)
    assert len(back) == len(arrays)
    for a, b in zip(arrays, back):
        assert b.shape == a.shape and b.dtype == np.float64
        assert b.tobytes() == np.ascontiguousarray(a, dtype="<f8").tobytes()
