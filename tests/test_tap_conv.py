"""Parity of the output convolution by taps against the window-matrix kernels.

The oracles below are the surrogate's earlier output layer: the forward
pass as one GEMM against the (Cin*K, X*B) window matrix, the weight
gradient as a GEMM of the output gradient against that matrix, and the
adjoint as ``W.T @ g`` overlap-added tap by tap into padded rows (an outer
product for one output channel). The tap-by-tap kernels add the same
products in a different order, so they agree to a pinned tolerance rather
than bit for bit. The backward kernels under test both read the folded
gradient windows of ``surrogate._windows_adjoint``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gits import surrogate

TOL = 1e-13  # relative to the largest entry of the oracle's result


# ----------------------------------------------------------------------
# oracles: the window-matrix output layer and its overlap-add adjoint
# ----------------------------------------------------------------------

def oracle_windows(z, pad, ws):
    """(G, Cin, X, B) rows -> their (G, Cin*K, X*B) window matrix."""
    stack, c_in, x_len, b_sz = z.shape
    k = pad.size - x_len + 1
    win = np.empty((stack, c_in, k, x_len, b_sz))
    surrogate._windows(z, pad, win, ws)
    return win.reshape(stack, c_in * k, -1)


def oracle_conv(w, z, pad, ws):
    """Forward: ``w`` (…, Cout, Cin*K) @ the window matrix of ``z``: (G, Cout, X*B)."""
    return np.matmul(w, oracle_windows(z, pad, ws))


def oracle_weight_grad(z, g, pad, ws):
    """Weight gradient (G, Cout, Cin*K) for the output gradient ``g`` (G, Cout, X*B)."""
    return np.matmul(g, oracle_windows(z, pad, ws).transpose(0, 2, 1))


def oracle_windows_adjoint(w, g, pad, b_sz, ws, name):
    """Adjoint of the window gather applied to ``w.T @ g`` (G, Cout, X*B): (G, Cin, X*B)."""
    stack, _, cols = g.shape
    x_len = cols // b_sz
    r = (pad.size - x_len) // 2
    k = 2 * r + 1
    c_in = w.shape[-1] // k
    g_pad = ws.get(f"{name}.g_pad", (stack, c_in, x_len + k - 1, b_sz))
    g_pad.fill(0.0)
    if w.shape[-2] == 1:
        scratch = ws.get(f"{name}.scratch", (stack, c_in, x_len, b_sz))
        w_taps = w.reshape(*w.shape[:-2], c_in, k, 1, 1)
        g_cells = g.reshape(stack, 1, x_len, b_sz)
        for j in range(k):
            g_pad[:, :, j : j + x_len] += np.multiply(w_taps[..., j, :, :], g_cells, out=scratch)
    else:
        scratch = ws.get(f"{name}.scratch", (stack, c_in * k, cols))
        g_win = np.matmul(np.swapaxes(w, -1, -2), g, out=scratch).reshape(stack, c_in, k, x_len,
                                                                           b_sz)
        for j in range(k):
            g_pad[:, :, j : j + x_len] += g_win[:, :, j]
    for p in (*range(r), *range(x_len + r, x_len + 2 * r)):
        g_pad[:, :, r + pad[p]] += g_pad[:, :, p]
    return g_pad.reshape(stack, c_in, -1)[:, :, r * b_sz : (r + x_len) * b_sz]


# ----------------------------------------------------------------------
# the kernels under test
# ----------------------------------------------------------------------

def tap_conv(w, z, pad, ws):
    """:func:`surrogate._tap_conv` with ``w`` in the parameter layout (…, Cout, Cin*K)."""
    stack, c_in, x_len, b_sz = z.shape
    out = np.empty((stack, w.shape[-2], x_len, b_sz))
    surrogate._tap_conv(np.swapaxes(surrogate._tap_major(w, c_in), -1, -2), z, pad, out, ws)
    return out.reshape(stack, w.shape[-2], -1)


def input_grad(w, windows, c_in):
    """The adjoint: the tap-flipped weights (…, Cin, Cout*K) @ the folded windows."""
    return np.matmul(surrogate._tap_major(w, c_in, flip=True), windows)


def assert_close(got, ref, what):
    assert got.shape == ref.shape, what
    assert np.max(np.abs(got - ref)) <= TOL * np.max(np.abs(ref)), what


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("padding", surrogate.PADDINGS)
def test_tap_conv_and_its_adjoints_match_the_window_matrix(padding, r):
    # reflect padding with X <= r folds several edge cells onto one cell
    rng = np.random.default_rng(10 + r)
    c_in, k = 3, 2 * r + 1
    ws = surrogate._Workspace()  # one workspace, its buffers reused at every shape
    for x_len in (1, 2, 5, 64):
        pad = surrogate._pad_index(x_len, r, padding)
        for b_sz in (1, 6, 64):
            for stack in (1, 3):
                for c_out in (1, 2, 8):
                    z = rng.normal(size=(stack, c_in, x_len, b_sz))
                    g = rng.normal(size=(stack, c_out, x_len * b_sz))
                    for lead in ((), (stack,)):  # shared and per-slice weights
                        shape = (x_len, b_sz, stack, c_out, lead)
                        w = rng.normal(size=(*lead, c_out, c_in * k))
                        oracle_ws = surrogate._Workspace()
                        assert_close(tap_conv(w, z, pad, ws), oracle_conv(w, z, pad, oracle_ws),
                                     ("forward", shape))
                        windows = surrogate._windows_adjoint(g, pad, b_sz, ws)
                        assert_close(input_grad(w, windows, c_in),
                                     oracle_windows_adjoint(w, g, pad, b_sz, oracle_ws, "adj"),
                                     ("adjoint", shape))
                        assert_close(surrogate._tap_conv_weight_grad(
                                         z.reshape(stack, c_in, -1), windows, k),
                                     oracle_weight_grad(z, g, pad, oracle_ws),
                                     ("weight gradient", shape))


@settings(max_examples=100, deadline=None)
@given(padding=st.sampled_from(surrogate.PADDINGS), r=st.integers(0, 3),
       x_len=st.integers(1, 12), b_sz=st.integers(1, 5), stack=st.integers(1, 3),
       c_in=st.integers(1, 4), c_out=st.integers(1, 3), per_slice=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_tap_conv_adjoint_identity(padding, r, x_len, b_sz, stack, c_in, c_out, per_slice,
                                   seed):
    # <conv_w(z), g> = <z, adjoint(g)> = <w, weight gradient(z, g)>
    rng = np.random.default_rng(seed)
    k = 2 * r + 1
    pad = surrogate._pad_index(x_len, r, padding)
    ws = surrogate._Workspace()
    w = rng.normal(size=(*((stack,) if per_slice else ()), c_out, c_in * k))
    z = rng.normal(size=(stack, c_in, x_len, b_sz))
    g = rng.normal(size=(stack, c_out, x_len * b_sz))
    conv = tap_conv(w, z, pad, ws)
    windows = surrogate._windows_adjoint(g, pad, b_sz, ws)
    g_z = input_grad(w, windows, c_in)
    g_w = surrogate._tap_conv_weight_grad(z.reshape(stack, c_in, -1), windows, k)
    lhs = float(np.sum(conv * g))
    # every side sums the same products w * z * g, so their magnitudes bound the rounding
    bound = 1e-12 * float(np.sum(tap_conv(np.abs(w), np.abs(z), pad, ws) * np.abs(g)))
    assert abs(lhs - float(np.sum(z.reshape(g_z.shape) * g_z))) <= bound
    assert abs(lhs - float(np.sum(np.broadcast_to(w, g_w.shape) * g_w))) <= bound
