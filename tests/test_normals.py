"""The C standard-normal draw (``_kernel.normals``): numpy's bytes and
numpy's Philox state after every draw, on every path a stream can take.

Every comparison is against ``np.random.Generator(np.random.Philox(...))``
itself, and ``NoiseStream`` keeps numpy's ``Generator`` wherever the draw
is missing, so these tests also pin the stream's sequence across the two.
"""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

import mlangevin._kernel as _kernel
from mlangevin import NoiseStream
from mlangevin.sde import _MAX_LEVEL_INDEX
from test_kernel import needs_cc, python_in

U64 = (1 << 64) - 1


@pytest.fixture
def draw():
    if shutil.which(_kernel._CC) is None or not _kernel._ARCHIVE.exists():
        pytest.skip("no C draw: no compiler or numpy ships no archive")
    fn = _kernel.normals()
    assert fn is not None, "the C draw is off: it failed its load check"
    return fn


def numpy_twin(stream):
    """numpy's Philox on the stream's key, and its Generator."""
    key = np.array([stream.master_seed,
                    stream.run_index * _MAX_LEVEL_INDEX + stream.level_index],
                   dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    return bitgen, np.random.Generator(bitgen)


def words_of(bitgen):
    return _kernel.philox_words(bitgen.state)


@pytest.mark.parametrize("seed, level, run", [
    (U64, 0, 0),
    ((1 << 63) + 1, (1 << 20) - 1, (1 << 44) - 1),
    (12345, (1 << 20) - 2, (1 << 44) - 3),
    (0, 7, 1 << 43),
])
def test_the_draw_is_numpys_bytes_and_state(draw, seed, level, run):
    stream = NoiseStream(seed, level, run_index=run)
    bitgen, gen = numpy_twin(stream)
    assert stream._words.tobytes() == words_of(bitgen).tobytes()
    # sizes that walk the buffer position through 1..4 and across blocks
    for size in (1, 1, 1, 1, 2, 3, 5, 2, 31, 32, 33, 127, 4, 1000):
        got = stream.standard_normal(size)
        assert got.tobytes() == gen.standard_normal(size).tobytes()
        assert stream._words.tobytes() == words_of(bitgen).tobytes()
    value = stream.standard_normal()
    assert isinstance(value, float) and value == gen.standard_normal()
    shaped = stream.standard_normal((3, 5))
    assert shaped.shape == (3, 5)
    assert shaped.tobytes() == gen.standard_normal((3, 5)).tobytes()
    out = np.full((2, 9), np.nan)
    assert stream.standard_normal((2, 9), out=out) is out
    assert out.tobytes() == gen.standard_normal((2, 9)).tobytes()
    assert stream.standard_normal(0).shape == (0,)
    assert stream.standard_normal(()).tobytes() == gen.standard_normal(
        ()).tobytes()
    assert stream._words.tobytes() == words_of(bitgen).tobytes()


def test_slow_path_words_run_numpys_tail_and_wedges(draw):
    bitgen = np.random.Philox(key=np.array([U64, 99], dtype=np.uint64))
    words = words_of(bitgen)
    out = np.empty(250_000)
    slow = draw(words.ctypes.data, out.size, np.ctypeslib.as_ctypes(out))
    assert slow >= 1000
    want = np.random.Generator(bitgen).standard_normal(out.size)
    assert out.tobytes() == want.tobytes()
    assert words.tobytes() == words_of(bitgen).tobytes()
    # a slow-path word asks numpy's code for at least one word more
    counter = int(words[0]) + (int(words[1]) << 64)
    assert counter * 4 - (4 - int(words[10])) - out.size >= slow


@pytest.mark.parametrize("counter, pos", [
    ([U64 - 4, 0, 0, 0], 4),
    ([U64 - 4, U64, U64, 5], 2),
    ([U64, U64, U64, U64], 1),
])
def test_the_counter_carries_as_numpys(draw, counter, pos):
    bitgen = np.random.Philox(key=np.array([3, 1 << 63], dtype=np.uint64))
    state = bitgen.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer"] = np.array([11, 22, 33, 44], dtype=np.uint64)
    state["buffer_pos"] = pos
    bitgen.state = state
    words = words_of(bitgen)
    gen = np.random.Generator(bitgen)
    for size in (3, 40, 1, 300):
        out = np.empty(size)
        draw(words.ctypes.data, size, np.ctypeslib.as_ctypes(out))
        assert out.tobytes() == gen.standard_normal(size).tobytes()
        assert words.tobytes() == words_of(bitgen).tobytes()


def test_a_stream_continues_across_the_two_paths(draw, monkeypatch):
    stream = NoiseStream(5, 2, run_index=9)
    _, gen = numpy_twin(stream)
    parts = [stream.standard_normal(7)]
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_lib", None)  # as test_numpy_path.py reads it
        assert _kernel.normals() is None
        parts.append(stream.standard_normal(6))
        parts.append(stream.standard_normal((2, 3)).ravel())
    assert _kernel.normals() is draw
    parts.append(stream.standard_normal(9))
    assert np.concatenate(parts).tobytes() == gen.standard_normal(
        28).tobytes()


def test_threads_sharing_a_stream_take_turns(draw):
    stream = NoiseStream(1, 0)
    # calls long enough that another thread comes in while one draws
    size, calls, threads = 4099, 40, 6
    want = numpy_twin(stream)[1].standard_normal(size * calls * threads)
    got = []

    def work():
        for _ in range(calls):
            got.append(stream.standard_normal(size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    # every call drew a whole run of the sequence, and together all of it
    starts = []
    for part in got:
        at = int(np.flatnonzero(want == part[0])[0])
        assert part.tobytes() == want[at:at + size].tobytes()
        starts.append(at)
    assert sorted(starts) == list(range(0, want.size, size))


def test_threads_that_load_at_once_load_once(monkeypatch):
    loads = []
    load = _kernel._load

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.2)
        return load()

    monkeypatch.setattr(_kernel, "_lib", _kernel._UNLOADED)
    monkeypatch.setattr(_kernel, "_normals", None)
    monkeypatch.setattr(_kernel, "_load", slow_load)
    got = []
    threads = [threading.Thread(target=lambda: got.append(_kernel.lib()))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1 and len(got) == 2 and got[0] is got[1]


# each child prints whether the library loaded, whether its draw is on,
# and whether NoiseStream drew numpy's bytes and a level ticked in C
CHILD_DRAWS = """
import numpy as np
import mlangevin._kernel as k
from mlangevin import NoiseStream, QuadraticPotential, make_langevin_model
from mlangevin import norm_observable, run_level0
from mlangevin.model import _row_map
{setup}
stream = NoiseStream(7, 3, run_index=11)
got = np.concatenate([stream.standard_normal(5), stream.standard_normal(500)])
key = np.array([7, 11 * 2**20 + 3], dtype=np.uint64)
want = np.random.Generator(np.random.Philox(key=key)).standard_normal(505)
model = make_langevin_model(QuadraticPotential(3), 1.0)
run_level0(model, np.zeros(3), 0.1, 0.0, 2.0, norm_observable(),
           NoiseStream(0, 0))
print(k.lib() is not None, k.normals() is not None,
      got.tobytes() == want.tobytes(), _row_map(model) is not None)
"""


@needs_cc
def test_a_failed_load_check_keeps_numpys_draw(tmp_path):
    # the check's reference draw reads another key, so no byte agrees
    setup = ("real = np.random.Philox\n"
             "np.random.Philox = lambda key: real(key=key ^ np.uint64(1))\n"
             "k.lib()\n"
             "np.random.Philox = real")
    out, err = python_in(tmp_path, CHILD_DRAWS.format(setup=setup)) \
        .communicate(timeout=300)
    assert (out, err) == ("True False True True\n", "")


@needs_cc
@pytest.mark.parametrize("archive", ["missing", "no archive"])
def test_without_numpys_archive_the_ticks_build_without_the_draw(
        archive, tmp_path):
    path = tmp_path / "libnpyrandom.a"
    if archive == "no archive":  # found, but the link with it fails
        path.write_bytes(b"not an archive")
    setup = f"from pathlib import Path\nk._ARCHIVE = Path({str(path)!r})"
    out, err = python_in(tmp_path, CHILD_DRAWS.format(setup=setup)) \
        .communicate(timeout=300)
    assert (out, err) == ("True False True True\n", "")
    built = list((tmp_path / "mlangevin").iterdir())
    assert len(built) == 1
    with_draw = python_in(tmp_path, CHILD_DRAWS.format(setup=""))
    expected = ("True True True True\n" if _kernel._ARCHIVE.exists()
                else "True False True True\n")
    assert with_draw.communicate(timeout=300) == (expected, "")
