"""Every integer argument of the package goes through ``errors.integer``:
a bool, float, string or array is refused with ShapeMismatch naming the
argument, a numpy integer is taken as an int, and a value below the
argument's lower bound is refused."""

import re

import numpy as np
import pytest

import endotrack as et
from endotrack import kernels, tree
from endotrack.errors import ShapeMismatch

X = np.arange(72.0).reshape(2, 6, 6)
W = np.ones((2, 2, 3, 3))
W_GROUPED = np.ones((2, 1, 3, 3))
EYE2 = np.stack([np.eye(3)] * 2)

# Message name -> (the call with the value in that argument's place, a valid value).
CALLS = {
    "stride": (lambda v: kernels.conv2d(X, W, stride=v), 2),
    "pad": (lambda v: kernels.conv2d(X, W, pad=v), 1),
    "groups": (lambda v: kernels.conv2d(X, W_GROUPED, groups=v), 2),
    "stride k": (lambda v: et.Trajectory(EYE2, np.zeros((2, 3)), k=v), 3),
    "start": (lambda v: et.Trajectory(EYE2, np.zeros((2, 3)), start=v), 6),
    "n": (lambda v: et.synth_trajectory(v), 5),
    "height": (lambda v: et.PipelineConfig(height=v), 16),
    "width": (lambda v: et.PipelineConfig(width=v), 16),
    "in_channels": (lambda v: et.decoder_init(v, 6), 7),
    "channels": (lambda v: et.decoder_init(6, v), 9),
    "steps": (lambda v: et.descend_loss_weights(0.5, 0.05, steps=v), 3),
}
# Each argument's lower bound, where ``integer`` checks one.
LEAST = {"stride": 1, "pad": 0, "groups": 1, "stride k": 1, "steps": 0}

NOT_INTEGERS = [2.5, 3.0, "8", True, np.float64(4.0), np.array(2)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_non_integer_refused_naming_the_argument(name, value):
    call, _ = CALLS[name]
    # A stride or pad that is an array may also be a pair, and its message says so.
    message = rf"^{re.escape(name)} must be an integer( or a pair of them)?, got {re.escape(repr(value))}$"
    with pytest.raises(ShapeMismatch, match=message):
        call(value)


@pytest.mark.parametrize("name", CALLS)
def test_numpy_integer_taken_as_int(name):
    call, valid = CALLS[name]
    expect = tree.flatten(call(valid))
    got = tree.flatten(call(np.int64(valid)))
    assert got.keys() == expect.keys()
    for path, leaf in expect.items():
        assert type(got[path]) is type(leaf), path
        assert np.array_equal(got[path], leaf), path


@pytest.mark.parametrize("name", LEAST)
def test_below_lower_bound_refused(name):
    call, _ = CALLS[name]
    least = LEAST[name]
    message = rf"^{re.escape(name)} must be an integer >= {least}, got {least - 1}$"
    with pytest.raises(ShapeMismatch, match=message):
        call(np.int64(least - 1))


@pytest.mark.parametrize("name", ["stride", "pad", "groups"])
def test_plain_int_below_lower_bound_refused(name):
    # conv2d settles a plain int by its exact type; one below the bound
    # still gets integer's refusal.
    call, _ = CALLS[name]
    least = LEAST[name]
    message = rf"^{re.escape(name)} must be an integer >= {least}, got {least - 1}$"
    with pytest.raises(ShapeMismatch, match=message):
        call(least - 1)


def test_cases_that_used_to_pass_silently():
    with pytest.raises(ShapeMismatch, match="^steps must be an integer >= 0"):
        et.descend_loss_weights(0.5, 0.05, steps=-1)
