"""constants.descend on forked workers: the runs do not depend on the number
of workers, and a worker's failure reaches the caller without leaving a
process behind."""
import copy
import json
import os
import select
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import constants, solver
from nehari_frac.cli import main as cli_main
from nehari_frac.constants import StopRule, descend
from nehari_frac.errors import ConfigError, ConvergenceError

from conftest import DESK, assert_same_runs

P3 = {"p": 3.0, "s": 0.1, "q": 2.5, "alpha": 30.0 / 17.0, "beta": 30.0 / 17.0}  # perfbench's p3_solve
DESK_CONFIG = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk.json").read_text())
INITS = [np.array([3.0, 4.0]) * (k + 1) for k in range(5)]
STOP = StopRule(max_iter=50, flat_tol=-np.inf, grad_rtol=1e-8, armijo=1e-4)


@pytest.fixture(autouse=True)
def deadline():
    """A test that waits on a worker for a minute fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still waiting on a descent worker after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _square(raws):
    return [(x, float(np.dot(x, x)), 2.0 * x) for x in raws]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_worker(action):
    """An evaluate that runs action(raws) in a forked worker and _square here."""
    main = os.getpid()
    return lambda raws: _square(raws) if os.getpid() == main else action(raws)


def _fail(raws):
    raise ConvergenceError("no step from here", last_value=2.5)


def _p3_config(tmp_path, m):
    cfg = copy.deepcopy(DESK_CONFIG)
    cfg["grid"]["m"] = m
    cfg["params"].update(P3)
    path = tmp_path / f"p3_m{m}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_slab_workers_fork_only_the_p_ne_2_pass(monkeypatch):
    monkeypatch.setattr(constants, "WORKERS", 3)
    assert constants.slab_workers(nf.build_grid(2, 6, 1.0, 1.0, nf.ModelParams(**{**DESK, **P3}))) == 3
    assert constants.slab_workers(nf.build_grid(2, 6, 1.0, 1.0, nf.ModelParams(**DESK))) == 1


def test_p3_runs_do_not_depend_on_the_worker_count(monkeypatch):
    """compute_S_coupled and solve_two at p = 3 (m = 6) give every start the
    same run, and report the same start, its norm maximum and the same
    state, with 1, 2 and 3 workers."""
    params = nf.ModelParams(**{**DESK, **P3}).with_weights(3.56, 3.56)  # the desk weights
    dom = nf.build_grid(2, 6, 1.0, 1.0, params)
    made = []
    for module in (constants, solver):
        monkeypatch.setattr(module, "descend", lambda *a, real=descend: made.append(real(*a)) or made[-1])
    found = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(constants, "WORKERS", workers)
        made.clear()
        s_d, _, s_ab_d, pair_min = nf.compute_S_coupled(dom, params, seed=7)
        plus, minus = nf.solve_two(params, dom, seed=7, s_ab_minimizer=pair_min)
        found[workers] = list(made), (s_d, s_ab_d, plus.to_dict(), minus.to_dict())
        _assert_no_child()
    (runs, reports), starts = found[1], [len(runs) for runs in found[1][0]]
    assert starts == [10, 11, 1, 1, 4, 6]  # S, S_ab, the two back-solves, N+, N- (with the S_ab minimizer)
    assert reports[2]["iterate_norm_max"] > 0.0
    for workers in (2, 3):
        assert found[workers][1] == reports
        for these, those in zip(found[workers][0], runs, strict=True):
            assert_same_runs(these, those)


def test_forked_descents_with_a_live_thread(monkeypatch):
    """compute_S_coupled at p = 3 (m = 6) forks two workers while a Python
    thread waits on an Event, and every start's run equals its one-worker run
    bit for bit.  From Python 3.12 a fork with live threads warns
    (DeprecationWarning), which pyproject's filterwarnings turns into a
    failure of this test: the risk of ROADMAP item 23."""
    params = nf.ModelParams(**{**DESK, **P3}).with_weights(3.56, 3.56)
    dom = nf.build_grid(2, 6, 1.0, 1.0, params)
    made = []
    monkeypatch.setattr(constants, "descend", lambda *a, real=descend: made.append(real(*a)) or made[-1])
    found = {}
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    try:
        for workers in (1, 2):
            monkeypatch.setattr(constants, "WORKERS", workers)
            if workers == 2:
                waiter.start()
            made.clear()
            found[workers] = nf.compute_S_coupled(dom, params, seed=7)[0], list(made)
            assert waiter.is_alive() is (workers == 2)
    finally:
        release.set()
    waiter.join(timeout=10)
    assert not waiter.is_alive()
    _assert_no_child()
    assert found[2][0] == found[1][0]
    for these, those in zip(found[2][1], found[1][1], strict=True):
        assert_same_runs(these, those)


def test_p3_solve_writes_the_same_bytes_with_one_worker(tmp_path, monkeypatch):
    """The CLI solve on the p3_solve config (m = 20) with one worker and with
    the default count."""
    config = _p3_config(tmp_path, 20)
    written = []
    for workers in (1, constants.WORKERS):
        monkeypatch.setattr(constants, "WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert cli_main(["solve", "--config", str(config), "--quiet", "--out", str(out)]) == 0
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[0] == written[1]


def test_worker_error_reaches_the_caller():
    with pytest.raises(ConvergenceError, match="no step from here") as caught:
        descend(INITS, _in_worker(_fail), STOP, workers=3)
    assert caught.value.last_value == 2.5
    _assert_no_child()
    assert len(descend(INITS, _in_worker(_square), STOP, workers=3)) == len(INITS)
    _assert_no_child()


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (ConvergenceError, 1)])
def test_worker_error_keeps_the_cli_exit_code(tmp_path, monkeypatch, capsys, error, code):
    """An error raised by evaluate in a worker of the p = 3 quotient solve."""
    build, main = constants.stacked_evaluate, os.getpid()

    def failing(*args):
        evaluate = build(*args)

        def checked(raws):
            if os.getpid() != main:
                raise error("raised in a worker")
            return evaluate(raws)

        return checked

    monkeypatch.setattr(constants, "WORKERS", 2)
    monkeypatch.setattr(constants, "stacked_evaluate", failing)
    argv = ["constants", "--config", str(_p3_config(tmp_path, 6)), "--quiet", "--out", str(tmp_path / "out")]
    assert cli_main(argv) == code
    assert "raised in a worker" in capsys.readouterr().err
    _assert_no_child()


def test_worker_that_dies_without_its_runs_raises():
    with pytest.raises(ChildProcessError, match="descent worker 1 ended without its runs"):
        descend(INITS, _in_worker(lambda raws: os._exit(0)), STOP, workers=3)
    _assert_no_child()


def test_workers_leave_without_the_callers_cleanup(tmp_path):
    log = tmp_path / "cleanup"

    def solve(evaluate):
        try:
            return descend(INITS, evaluate, STOP, workers=3)
        finally:
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")

    solve(_square)
    with pytest.raises(ConvergenceError):
        solve(_in_worker(_fail))
    assert log.read_text().split() == [str(os.getpid())] * 2
    _assert_no_child()


def test_worker_stops_when_its_parent_is_gone():
    """The caller of descend dies in its own share; its worker, which would
    otherwise descend for hours, ends: the pipe end it inherited closes."""
    read, write = os.pipe()
    caller = os.fork()
    if not caller:
        try:
            os.close(read)
            me, values = os.getpid(), iter(range(0, -10 ** 9, -1))

            def evaluate(raws):
                if os.getpid() == me:
                    os._exit(0)
                return [(x, float(next(values)), np.ones_like(x)) for x in raws]

            descend(INITS[:2], evaluate, StopRule(max_iter=10 ** 9, flat_tol=-np.inf), workers=2)
        finally:
            os._exit(1)
    os.close(write)
    try:
        assert os.waitpid(caller, 0)[1] == 0
        ready, _, _ = select.select([read], [], [], 30.0)
        assert ready and os.read(read, 1) == b""
    finally:
        os.close(read)
