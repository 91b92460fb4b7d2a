"""CLI behavior: suites, compute routes, export determinism, exit codes."""

import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import dp3
from dp3 import calibration, cli, diamonds, laurent, matchings, quiver
from dp3.cli import main
from dp3.diamonds import covering_monomial, pm_count_closed
from dp3.tiling import Labeling
from support import Y1, Y1P, empty_recurrence_memo, x


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "4")
        assert code == 0
        assert "FAIL" not in out
        assert "suite counts: pass" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "4")
        assert code == 0
        assert out.count("suite ") == 5

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quiver",
                           "--max-half-order", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["overall"] == "pass"
        assert all(c["status"] == "pass" for c in docs[0]["checks"])

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "counts", "--max-half-order", "0")
        assert code == 2
        assert "error" in err

    def test_bad_suite_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_check_counts_per_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "4",
                           "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert {d["suite"]: len(d["checks"]) for d in docs} == {
            "theorem": 8, "counts": 8, "recursions": 62, "quiver": 18, "oracle": 24}
        ids = [c["id"] for d in docs for c in d["checks"]]
        assert len(ids) == len(set(ids))

    def test_mismatch_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recurrence_y", lambda n: (x(1), x(2)))
        code, out, _ = run(capsys, "verify", "--suite", "quiver", "--max-half-order", "1")
        assert code == 1
        assert "FAIL  quiver/seed-vs-recurrence/N<=1" in out

    def test_fail_shows_difference(self, capsys, monkeypatch):
        # a deliberately wrong right-hand side: y_1 + x1 instead of y_1
        real = cli.recurrence_y
        monkeypatch.setattr(cli, "recurrence_y", lambda n: (real(n)[0] + x(1), real(n)[1]))
        code, out, _ = run(capsys, "verify", "--suite", "theorem", "--max-half-order", "1")
        assert code == 1
        lines = out.splitlines()
        fail = lines.index(next(l for l in lines if l.startswith("FAIL  theorem/y/N=1")))
        assert lines[fail + 1] == ("      lhs_terms=2, rhs_terms=3, diff_terms=1, "
                                   "lhs_minus_rhs=-x1")
        assert lines[fail + 2].startswith("PASS  theorem/yprime/N=1")

        code, out, _ = run(capsys, "verify", "--suite", "theorem", "--max-half-order", "1",
                           "--format", "json")
        assert code == 1
        failed, passed = json.loads(out)[0]["checks"]
        assert failed["diff"] == {"lhs_terms": 2, "rhs_terms": 3, "diff_terms": 1,
                                  "lhs_minus_rhs": "-x1"}
        assert "diff" not in passed

    def test_fail_shows_values_of_non_polynomials(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "pm_count_closed", lambda n: 3)
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "1")
        assert code == 1
        assert "FAIL  counts/pm/N=1" in out
        assert "\n      lhs=2, rhs=3\n" in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(dp3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "dp3", "verify", "--suite", "counts",
                               "--max-half-order", "2"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "suite counts: pass (4 checks)" in proc.stdout

    def test_recursion_check_ids_and_order(self, capsys):
        # literal ids in their order, so that a check renamed or moved shows
        code, out, _ = run(capsys, "verify", "--suite", "recursions", "--max-half-order", "7")
        assert code == 0
        ids = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
        assert [i for i in ids if "/weights/" in i] == [
            "recursions/weights/kind1/n=2", "recursions/weights/kind1/n=3",
            "recursions/weights/kind2/n=1", "recursions/weights/kind2/n=2",
            "recursions/weights/kind2/n=3", "recursions/weights/kind2/n=4"]
        assert [i for i in ids if "/cover-rec" in i and "/product/" in i] == [
            "recursions/cover-rec1/product/n=2", "recursions/cover-rec1/product/n=3",
            "recursions/cover-rec1/product/n=4", "recursions/cover-rec1/product/n=5",
            "recursions/cover-rec2/product/n=1", "recursions/cover-rec2/product/n=2",
            "recursions/cover-rec2/product/n=3", "recursions/cover-rec2/product/n=4",
            "recursions/cover-rec2/product/n=5"]
        # each product check closes the unprimed and primed checks of its n
        rec = [i for i in ids if "/cover-rec" in i]
        assert [i.split("/")[2] for i in rec] == ["unprimed", "primed", "product"] * 9
        assert [i.replace("/unprimed/", "/product/") for i in rec[::3]] == rec[2::3]

    def test_cover_product_matches_both_families(self):
        # the closed forms of m(D_N) m(D_{N-3}) that the even (kind 1, N = 2n)
        # and odd (kind 2, N = 2n + 1) checks had before they were merged
        for big in range(3, 61):
            n = big // 2
            if big % 2 == 0:
                want = (2 * n * n - 3 * n + 3, 2 * n * n - 3 * n + 3, 2 * n * n - n + 2,
                        2 * n * n - 3 * n + 2, 2 * n * n - 3 * n + 3, 2 * n * n - n + 1)
            else:
                want = (2 * n * n - n + 2, 2 * n * n - n + 2, 2 * n * n + n + 2,
                        2 * n * n - n + 1, 2 * n * n - n + 2, 2 * n * n + n + 1)
            assert cli._cover_product(big) == want, big


class TestSharedSums:
    """The theorem and recursions suites take every w(D) from the sums that
    ``_work_ahead`` returns, and the counts suite takes the count of a
    summed diamond from its sum."""

    @pytest.fixture
    def calls(self, monkeypatch, scheme):
        """The diamonds that ``verify`` builds, sums and counts, in this
        process; the scheme fixture calibrates first, whose N=1 checks are
        not counted."""
        built, summed, counted = Counter(), Counter(), Counter()

        def counting(fn, calls, key):
            def wrapper(*args):
                calls[key(*args)] += 1
                return fn(*args)
            return wrapper

        for module in (cli, matchings):
            monkeypatch.setattr(module, "build_diamond",
                                counting(module.build_diamond, built, lambda n, p, s: (n, p)))
            monkeypatch.setattr(module, "weighted_pm_sum", counting(
                module.weighted_pm_sum, summed, lambda g, *o: (g.half_order, g.primed, *o)))
        monkeypatch.setattr(cli, "count_pm", counting(
            cli.count_pm, counted, lambda g, *o: (g.half_order, g.primed, *o)))
        # in-process, so that every call is counted here
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        return built, summed, counted

    def test_each_diamond_summed_once(self, capsys, calls):
        # the oracle suite recomputes on purpose: its 8 diamonds are built
        # again and swept in both orders, and only its sweeps count
        built, summed, counted = calls
        code, _, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "6")
        assert code == 0
        # theorem: N = 1..6, both primings; recursions adds D_0 and D_{7/2};
        # counts: the unprimed N = 1..6, from the theorem's sums
        want = Counter({(n, p): 1 for n in range(1, 7) for p in (False, True)})
        want.update([(0, False), (7, False)])
        oracle = Counter({(n, p): 1 for n in range(1, 5) for p in (False, True)})
        assert built == want + oracle
        assert summed == want + oracle + Counter({(*k, "xy"): 1 for k in oracle})
        assert counted == oracle + Counter({(*k, "xy"): 1 for k in oracle})

    def test_counts_alone_count_every_diamond(self, capsys, calls):
        built, summed, counted = calls
        code, _, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "6")
        assert code == 0
        want = Counter({(n, False): 1 for n in range(1, 7)})
        assert (built, summed, counted) == (want, Counter(), want)

    def test_recursions_alone_match_all_suites(self, capsys):
        def recursions(suite):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--max-half-order", "6",
                               "--format", "json")
            assert code == 0
            doc, = [d for d in json.loads(out) if d["suite"] == "recursions"]
            return [(c["id"], c["status"], c["lhs"], c["rhs"]) for c in doc["checks"]]

        alone = recursions("recursions")
        assert len(alone) == 64
        assert alone == recursions("all")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within(seconds: int, hang: str):
    """Turn a hang of the block longer than ``seconds`` into a TimeoutError
    that says ``hang``, instead of a hung test."""
    def timeout(*_):
        raise TimeoutError(hang)

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkers:
    """``dp3 verify`` runs the suites' independent jobs (the recurrence,
    then the diamonds) from one queue that forked workers, one per usable
    CPU, pull while the calling process runs the seed route; ``_usable_cpus``
    pins how many.  Which worker runs a job is not fixed, so most of these
    tests check exit codes and messages only."""

    @pytest.fixture(autouse=True)
    def calibrated(self, scheme):
        """Calibrate first: calibration calls the kernels these tests patch,
        and run alone a test would otherwise fail there."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked while the test runs."""
        pids, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    def verify(self, capsys, monkeypatch, cpus, *argv):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        return run(capsys, "verify", *argv)

    def test_forked_report_equals_in_process(self, capsys, monkeypatch, forks):
        for suite in cli.SUITES + ("all",):
            reports = []
            for cpus in (3, 1):
                code, out, _ = self.verify(capsys, monkeypatch, cpus, "--suite", suite,
                                           "--max-half-order", "8", "--format", "json")
                assert code == 0
                reports.append(re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', out))
            assert reports[0] == reports[1], suite
        # three workers for each suite with diamonds to sum or count, one for
        # the quiver suite's recurrence job, none for the oracle suite
        assert len(forks) == 3 * 4 + 1
        no_child_left()

    def worker_fails(self, capsys, monkeypatch, suite, where, fail, owner=cli):
        """Exit code and stderr of a ``suite`` run with three usable CPUs in
        which the function ``where`` of the module ``owner`` calls ``fail``
        inside a worker."""
        parent, real = os.getpid(), getattr(owner, where)

        def failing(*args):
            if os.getpid() != parent:
                fail(*args)
            return real(*args)

        monkeypatch.setattr(owner, where, failing)
        code, _, err = self.verify(capsys, monkeypatch, 3, "--suite", suite,
                                   "--max-half-order", "6")
        no_child_left()
        return code, err

    def test_worker_exception_is_raised_again(self, capsys, monkeypatch):
        # whichever process sums D'_{5/2} fails: a worker at three CPUs, the
        # calling process at one; str(MemoryError()) is empty, so its message
        # is main()'s own
        kernel = matchings.weighted_pm_sum
        for error, message in ((ValueError("no sum for D'_{5/2}"), "no sum for D'_{5/2}"),
                               (MemoryError(), "out of memory")):
            def failing_kernel(graph, *args, error=error):
                if (graph.half_order, graph.primed) == (5, True):
                    raise error
                return kernel(graph, *args)

            for module in (cli, matchings):
                monkeypatch.setattr(module, "weighted_pm_sum", failing_kernel)
            for cpus in (3, 1):
                got = self.verify(capsys, monkeypatch, cpus, "--suite", "theorem",
                                  "--max-half-order", "6")
                assert got == (2, "", f"error: {message}\n")
                no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmSize")
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_address_space_limit_exits_2(self, cpus):
        # a real MemoryError: each process may map 4 MiB more than the calling
        # process holds after its imports, and the DP at N=14 needs more
        src = str(Path(dp3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import resource, sys; from dp3 import cli; "
                f"cli._usable_cpus = lambda: {cpus}; "
                "vm = next(int(line.split()[1]) for line in open('/proc/self/status') "
                "if line.startswith('VmSize:')) * 1024; "
                "resource.setrlimit(resource.RLIMIT_AS, (vm + 4 * 2**20,) * 2); "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, "verify", "--suite", "theorem",
                               "--max-half-order", "14"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")

    def test_worker_exception_that_cannot_be_pickled(self, capsys, monkeypatch):
        class Local(ValueError):  # pickle finds no class by this name
            pass

        def fail(graph, *args):
            if (graph.half_order, graph.primed) == (5, True):
                raise Local("cannot travel")

        got = self.worker_fails(capsys, monkeypatch, "theorem", "weighted_pm_sum", fail)
        assert got == (2, "error: Local: cannot travel\n")

    def test_worker_that_dies_is_an_error(self, capsys, monkeypatch):
        def die(graph, *args):
            if (graph.half_order, graph.primed) == (5, True):
                os._exit(9)

        code, err = self.worker_fails(capsys, monkeypatch, "theorem", "weighted_pm_sum", die)
        assert code == 2
        assert err.startswith("error: ") and "status 9" in err

    def test_worker_that_cannot_send_its_result_exits_non_zero(self, capfd, monkeypatch):
        # pickle.dumps raises in every worker, for its results and for both
        # fallbacks: a worker names the error on stderr and exits 1, and the
        # run exits 2 naming that status
        import pickle

        def fail(*args, **kwargs):
            raise RuntimeError("no pickling here")

        monkeypatch.setattr(pickle, "dumps", fail)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        code = main(["verify", "--suite", "counts", "--max-half-order", "2"])
        err = capfd.readouterr().err
        assert code == 2
        assert "error: a worker exited with status 1 without a result\n" in err
        assert "dp3 worker: RuntimeError: no pickling here\n" in err
        no_child_left()

    def test_worker_that_sends_part_of_its_result_exits_non_zero(self, capfd, monkeypatch):
        # a worker's pipe takes half the result, then the write fails: the
        # parent goes by the exit status, not by the bytes that arrived
        parent, fdopen = os.getpid(), os.fdopen

        class Torn:
            def __init__(self, fd, mode):
                self.pipe = fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.pipe.close()

            def write(self, data):
                self.pipe.write(data[: len(data) // 2])
                self.pipe.flush()
                raise OSError("pipe torn")

        monkeypatch.setattr(os, "fdopen", lambda *a: Torn(*a) if os.getpid() != parent
                            else fdopen(*a))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        code = main(["verify", "--suite", "counts", "--max-half-order", "2"])
        err = capfd.readouterr().err
        assert code == 2
        assert "error: a worker exited with status 1 without a result\n" in err
        assert "dp3 worker: OSError: pipe torn\n" in err
        no_child_left()

    def test_seed_route_failure_exits_2(self, capsys, monkeypatch, forks):
        # the seed route fails in the calling process while the one worker
        # of the quiver suite runs the recurrence
        def fail(steps):
            raise ValueError(f"no seed route of {steps} steps")

        monkeypatch.setattr(cli, "run_periodic_sequence", fail)
        got = self.verify(capsys, monkeypatch, 3, "--suite", "quiver", "--max-half-order", "6")
        assert got == (2, "", "error: no seed route of 12 steps\n")
        assert len(forks) == 1
        no_child_left()

    def test_recurrence_fails_in_a_worker(self, capsys, monkeypatch):
        def fail(n):
            raise ValueError(f"no y_{n}")

        got = self.worker_fails(capsys, monkeypatch, "quiver", "recurrence_y", fail, quiver)
        assert got == (2, "error: no y_1\n")

    def test_seed_route_here_and_recurrence_in_a_worker(self, capsys, monkeypatch, tmp_path):
        # every mutation, and every recurrence step the memo lacks, is logged
        # with the pid of the process that takes it; cli's binding of the
        # recurrence is logged too, so a step taken here would show
        log = tmp_path / "steps"

        def logged(route, fn):
            def wrapper(*args):
                if route == "seed" or (args[0] >= 1 and args[0] not in quiver._Y):
                    with open(log, "a") as f:
                        f.write(f"{route} {os.getpid()}\n")
                return fn(*args)
            return wrapper

        monkeypatch.setattr(quiver, "mutate_seed", logged("seed", quiver.mutate_seed))
        for owner in (quiver, cli):
            monkeypatch.setattr(owner, "recurrence_y", logged("recurrence", quiver.recurrence_y))
        with empty_recurrence_memo():
            code, _, _ = self.verify(capsys, monkeypatch, 3, "--suite", "quiver",
                                     "--max-half-order", "4")
        assert code == 0
        runs = Counter(tuple(line.split()) for line in log.read_text().splitlines())
        here = str(os.getpid())
        assert runs[("seed", here)] == 8 and sum(runs.values()) == 8 + 4
        (route, pid), = set(runs) - {("seed", here)}
        assert route == "recurrence" and pid != here
        no_child_left()

    @pytest.mark.parametrize("cpus", [3, 1])
    def test_theorem_jobs_return_the_covering_monomials(self, monkeypatch, forks, scheme, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        _, covers, _, _ = cli._work_ahead(("theorem",), 8, scheme)
        assert covers == {(n, p): covering_monomial(n, p, scheme)
                          for n in range(1, 9) for p in (False, True)}
        assert len(forks) == (3 if cpus > 1 else 0)
        no_child_left()

    def test_covering_monomials_in_workers_only(self, capsys, monkeypatch, tmp_path):
        # every covering monomial made, through cli's binding or through
        # covering_monomial, is logged with the pid of the process making it
        log = tmp_path / "covers"

        def logged(fn):
            def wrapper(*args):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()}\n")
                return fn(*args)
            return wrapper

        for owner in (cli, diamonds):
            monkeypatch.setattr(owner, "patch_covering_monomial",
                                logged(diamonds.patch_covering_monomial))
        code, _, _ = self.verify(capsys, monkeypatch, 3, "--suite", "theorem",
                                 "--max-half-order", "6")
        assert code == 0
        pids = log.read_text().split()
        assert len(pids) == 12 and str(os.getpid()) not in pids
        no_child_left()

    def test_wrong_recurrence_in_this_process_stays_here(self, capsys, monkeypatch):
        # cli's binding returns wrong values; the recurrence job calls the
        # quiver module's own function, so none of them reaches the memo
        monkeypatch.setattr(cli, "recurrence_y", lambda n: (x(1), x(2)))
        with empty_recurrence_memo():
            code, out, _ = self.verify(capsys, monkeypatch, 3, "--suite", "quiver",
                                       "--max-half-order", "2")
            assert code == 1
            assert "FAIL  quiver/seed-vs-recurrence/N<=2" in out
            assert quiver.recurrence_y(1) == (Y1, Y1P)
        no_child_left()

    def test_count_sweep_fails_in_a_worker(self, capsys, monkeypatch):
        def fail(graph, *args):
            if graph.half_order == 3:
                raise ValueError("no count for D_{3/2}")

        got = self.worker_fails(capsys, monkeypatch, "counts", "count_pm", fail)
        assert got == (2, "error: no count for D_{3/2}\n")

    def test_parent_failure_kills_the_workers(self, capsys, monkeypatch):
        # the workers' jobs, the recurrence and the diamond sums, would sleep
        # longer than the test may take; the calling process fails in the
        # seed route it runs meanwhile, and every worker is killed and reaped
        def slow(*args):
            time.sleep(30)

        def failing_seed_route(steps):
            raise ValueError("seed route failed")

        monkeypatch.setattr(quiver, "recurrence_y", slow)
        monkeypatch.setattr(cli, "weighted_pm_sum", slow)
        monkeypatch.setattr(cli, "run_periodic_sequence", failing_seed_route)
        start = time.monotonic()
        code, _, err = self.verify(capsys, monkeypatch, 3, "--suite", "all",
                                   "--max-half-order", "4")
        assert (code, err) == (2, "error: seed route failed\n")
        assert time.monotonic() - start < 20
        no_child_left()

    def test_first_failure_stops_the_run(self, monkeypatch):
        # the other workers' jobs would sleep longer than the test may take;
        # the failure of job 0 is raised as soon as it arrives
        def work(job):
            if job == 0:
                raise ValueError("job 0 failed")
            time.sleep(30)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        with within(20, "the run went on after a failure"):
            with pytest.raises(ValueError, match="job 0 failed"):
                cli._run_jobs(list(range(300)), work, lambda: None)
        no_child_left()

    def test_worker_that_dies_holding_the_queue(self, monkeypatch):
        # the worker running job 0 takes the next index from the queue and
        # dies, so the other workers wait on an empty queue for ever; they
        # are killed once its death is seen
        pipes, pipe = [], os.pipe

        def recording_pipe():
            pipes.append(pipe())
            return pipes[-1]

        def work(job):
            if job == 0:
                os.read(pipes[0][0], 8)  # the first pipe made is the queue
                os._exit(9)
            time.sleep(0.01)  # so that the queue is not drained first
            return job

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        with within(60, "the workers were not killed"):
            with pytest.raises(ChildProcessError, match="status 9"):
                cli._run_jobs(list(range(300)), work, lambda: None)
        no_child_left()

    def test_every_job_runs_once_in_a_worker(self, monkeypatch, tmp_path):
        # the calling process runs none, so what it runs (and what a tracer
        # in it sees) does not depend on which worker is faster
        log = tmp_path / "jobs"

        def work(job):
            with open(log, "a") as f:
                f.write(f"{job} {os.getpid()}\n")
            return -job

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        assert cli._run_jobs(list(range(300)), work, lambda: None) == (
            [-j for j in range(300)], None)
        runs = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(job) for job, _ in runs) == list(range(300))
        assert str(os.getpid()) not in {pid for _, pid in runs}
        no_child_left()

    @pytest.mark.parametrize("jobs, cpus", [([3, 1, 2], 1), ([], 1), ([], 3)],
                             ids=["one-cpu", "no-job-one-cpu", "no-job-three-cpus"])
    def test_runs_in_this_process_without_workers(self, monkeypatch, forks, jobs, cpus):
        # with nothing to overlap, the jobs run here in order, then meanwhile
        order = []

        def work(job):
            order.append(job)
            return job, os.getpid()

        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        got = cli._run_jobs(jobs, work, lambda: order.append("meanwhile") or "ahead")
        assert got == ([(job, os.getpid()) for job in jobs], "ahead")
        assert (forks, order) == ([], [*jobs, "meanwhile"])

    def test_queue_never_blocks(self, monkeypatch, forks):
        # more jobs than a 64 KiB pipe holds 8-byte records
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        jobs = list(range(20_000))
        with within(60, "the job queue blocked"):
            got = cli._run_jobs(jobs, lambda j: 2 * j, lambda: "ahead")
        assert got == ([2 * j for j in jobs], "ahead")
        assert len(forks) == 3
        no_child_left()

    @pytest.mark.parametrize("launch", [
        ["-m", "dp3"],
        # three workers pull jobs even on a one-CPU machine
        ["-c", "import sys; from dp3 import cli; "
               "cli._usable_cpus = lambda: 3; sys.exit(cli.main(sys.argv[1:]))"],
    ], ids=["python-m", "three-workers"])
    def test_dev_mode_with_warnings_as_errors(self, launch):
        # an unclosed pipe warns (ResourceWarning), and so does a fork from a
        # threaded process on Python 3.12+
        src = str(Path(dp3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", *launch, "verify",
                               "--suite", "all", "--max-half-order", "6"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [line for line in proc.stdout.splitlines() if line.startswith("suite ")] == [
            "suite theorem: pass (12 checks)", "suite counts: pass (12 checks)",
            "suite recursions: pass (64 checks)", "suite quiver: pass (22 checks)",
            "suite oracle: pass (24 checks)"]


class TestSuiteReport:
    def test_seconds_are_gaps_between_checks(self, monkeypatch):
        ticks = iter([10.0, 10.5, 12.0, 12.25])
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        rep = cli.SuiteReport("stub")
        rep.check("a", 1, 1)
        rep.check("b", 1, 2)
        rep.check("c", "x", "x")
        assert [c.seconds for c in rep.checks] == [0.5, 1.5, 0.25]
        assert [c.ok for c in rep.checks] == [True, False, True]
        assert sum(c.seconds for c in rep.checks) == 12.25 - 10.0

    def test_equal_polynomials_are_formatted_once(self, monkeypatch):
        formatted = []

        def counting(p):
            formatted.append(p)
            return fmt(p)

        fmt = laurent.format_poly
        monkeypatch.setattr(laurent, "format_poly", counting)
        rep = cli.SuiteReport("stub")
        y, y2 = x(1) + x(2), x(2) + x(1)
        rep.check("pass", y, y2)
        assert formatted == [y]
        assert rep.checks[0].lhs_digest == rep.checks[0].rhs_digest == cli._digest(y2)

        formatted.clear()
        rep.check("fail", y, y + x(3))
        assert formatted[:2] == [y, y + x(3)]
        assert rep.checks[1].diff["lhs_minus_rhs"] == "-x3"
        assert rep.checks[1].lhs_digest != rep.checks[1].rhs_digest

        # True == 1, but the two print differently, so both are digested
        rep.check("bool", True, 1)
        assert rep.checks[2].ok
        assert rep.checks[2].lhs_digest != rep.checks[2].rhs_digest

    def test_suite_seconds_include_work_between_checks(self, monkeypatch, scheme):
        # each diamond build advances the stub clock by one second; the oracle
        # suite builds its diamonds before the checks that use them
        clock = [0.0]
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        build = cli.build_diamond

        def slow_build(*args):
            clock[0] += 1.0
            return build(*args)

        monkeypatch.setattr(cli, "build_diamond", slow_build)
        rep = cli.suite_oracle(2, scheme)
        assert [c.seconds for c in rep.checks] == [1.0, 0.0, 0.0] * 4
        assert sum(c.seconds for c in rep.checks) == clock[0] == 4.0

    def test_work_done_ahead_is_charged_to_the_first_check(self, capsys, monkeypatch):
        # the counts are taken before the suite runs, on graphs whose builds
        # each advance the stub clock by one second; in-process, so that
        # every build moves this process's clock
        clock = [0.0]
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        build = cli.build_diamond

        def slow_build(*args):
            clock[0] += 1.0
            return build(*args)

        monkeypatch.setattr(cli, "build_diamond", slow_build)
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "2",
                           "--format", "json")
        assert code == 0
        seconds = [c["seconds"] for c in json.loads(out)[0]["checks"]]
        assert seconds == [2.0, 0.0, 0.0, 0.0]
        assert sum(seconds) == clock[0] == 2.0


#: cli._digest of (y_N, y'_N) for N = 1..14, as the term-by-term formatter
#: printed them
Y_DIGESTS = {
    1: ("3f84042a281c", "3a36993278cc"),
    2: ("ed78fe4eaf96", "3c2496c4cc30"),
    3: ("fb2fb66bb064", "e8c00d844d93"),
    4: ("cc42da8c4ec7", "352d9dcd6585"),
    5: ("18bc2620d851", "203ab2e809ff"),
    6: ("6a6a949be6ac", "898baa6f82a4"),
    7: ("77c577d00242", "cd772cc2f778"),
    8: ("24c4e716562e", "00e3bd0ef8e9"),
    9: ("1ad79d118c1d", "ee2cac57fa36"),
    10: ("5246a3191b1f", "e1e53f8974c1"),
    11: ("fd547fd5bdd1", "850b630de974"),
    12: ("10e39e3af55f", "6e495ba0586f"),
    13: ("99e3afdb48f5", "07e6b83bf475"),
    14: ("6ac9430ae401", "00c2c2cddd05"),
}


def test_digests_of_y_are_pinned():
    got = {n: tuple(map(cli._digest, quiver.recurrence_y(n))) for n in Y_DIGESTS}
    assert got == Y_DIGESTS


def test_digest_is_hashlib_sha256():
    # _digest takes sha256 from CPython's built-in module, not from hashlib
    for value in (quiver.recurrence_y(10)[0], (1, "x", None), True):
        assert cli._digest(value) == hashlib.sha256(str(value).encode()).hexdigest()[:12]


def test_start_up_loads_neither_openssl_nor_json():
    # -S: no site module, so that only dp3 can load them
    src = str(Path(dp3.__file__).resolve().parent.parent)
    code = ("import sys, dp3.cli\n"
            "from dp3 import calibration\n"
            "calibration.default_scheme()\n"
            "print(sorted({'_hashlib', 'hashlib', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_sigma_pair_fails_on_a_perturbed_base(monkeypatch, scheme):
    # y'_0 = -x6 instead of x6 substitutes x6 -> -x6 everywhere, so every
    # division stays exact, but sigma (which swaps x3 and x6) no longer maps
    # y_N to y'_N
    real = quiver.recurrence_y
    monkeypatch.setattr(quiver, "recurrence_y", lambda n: (x(3), -x(6)) if n == 0 else real(n))
    with empty_recurrence_memo():
        rep = cli.suite_quiver(4, scheme, quiver.run_periodic_sequence(8))
    failed = [c.check_id for c in rep.checks if not c.ok]
    assert [i for i in failed if i.startswith("quiver/sigma-pair/")]
    assert "quiver/positivity/N=1" in failed  # y_1 = (x3 x5 - x1 x6) / x2


class TestCompute:
    def test_y1_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "y", "--n", "1")
        assert code == 0
        assert out.splitlines()[0] == "x1 x2^-1 x6 + x2^-1 x3 x5"

    def test_routes_agree(self, capsys):
        outs = []
        for via in ("recurrence", "seed", "matchings"):
            code, out, _ = run(capsys, "compute", "--target", "y", "--n", "2", "--via", via)
            assert code == 0
            outs.append(out.splitlines()[0])
        assert outs[0] == outs[1] == outs[2]

    def test_yprime_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "yp", "--n", "3",
                           "--via", "matchings", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eval_at_ones"] == pm_count_closed(3) == 16
        assert doc["term_count"] == 10

    def test_base_values_via_recurrence(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "y", "--n", "-2")
        assert code == 0
        assert out.splitlines()[0] == "x2"

    def test_matchings_requires_positive_n(self, capsys):
        code, _, err = run(capsys, "compute", "--target", "y", "--n", "0",
                           "--via", "matchings")
        assert code == 2
        assert "N >= 1" in err

    def test_recurrence_requires_n_at_least_minus_2(self, capsys):
        code, _, err = run(capsys, "compute", "--target", "y", "--n", "-3")
        assert code == 2
        assert "N >= -2" in err

    def test_too_deep_for_recursion_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "compute", "--target", "y", "--n", "1500")
        assert code == 2
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")
        assert "Traceback" not in err


class TestExport:
    def test_json_export(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, _ = run(capsys, "export", "--half-order", "2",
                         "--format", "json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert sorted(f["label"] for f in doc["faces"]) == [2, 4, 5]

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "export", "--half-order", "3", "--format", "svg", "--out", str(a))
        run(capsys, "export", "--half-order", "3", "--format", "svg", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dot_cycle(self, capsys, tmp_path):
        out_file = tmp_path / "d.dot"
        code, _, _ = run(capsys, "export", "--half-order", "1",
                         "--format", "dot", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().count(" -- ") == 4

    def test_primed_labels(self, capsys, tmp_path):
        plain, primed = tmp_path / "p.json", tmp_path / "q.json"
        run(capsys, "export", "--half-order", "3", "--format", "json", "--out", str(plain))
        run(capsys, "export", "--half-order", "3", "--primed", "--format", "json",
            "--out", str(primed))
        sigma = {1: 5, 2: 4, 3: 6, 4: 2, 5: 1, 6: 3}
        a = sorted(sigma[f["label"]] for f in json.loads(plain.read_text())["faces"])
        b = sorted(f["label"] for f in json.loads(primed.read_text())["faces"])
        assert a == b

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "file"
        target.write_text("")
        code, _, err = run(capsys, "export", "--half-order", "1",
                           "--out", str(target / "x.json"))
        assert code == 2
        assert "error" in err


class TestCalibrateCommand:
    """``dp3 calibrate`` runs the search; every other command takes the
    process's default scheme, which runs the same search on first need."""

    def test_prints_the_labeling(self, capsys):
        assert run(capsys, "calibrate") == (
            0, "computed: up=(4, 6, 5) down=(1, 3, 2) rho_center=(9, 6)\n", "")

    @pytest.mark.parametrize("argv", [
        ("verify", "--calibration", "cal.json"),
        ("compute", "--target", "y", "--n", "1", "--calibration", "cal.json"),
        ("export", "--half-order", "1", "--out", "d.json", "--calibration", "cal.json"),
        ("calibrate", "--out", "cal.json"),
        ("calibrate", "--recalibrate"),
    ], ids=["verify", "compute", "export", "calibrate-out", "calibrate-recalibrate"])
    def test_calibration_file_options_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "verify"])
    @pytest.mark.parametrize("survivors", [0, 2], ids=["none", "two"])
    def test_failed_search_exits_1(self, capsys, monkeypatch, survivors, command):
        # the real search, in which only the labelings in ``passing`` pass
        calibration.default_scheme.cache_clear()  # so verify searches again
        passing = [Labeling(up=(1, 2, 3), down=(4, 5, 6)),
                   Labeling(up=(1, 2, 3), down=(4, 6, 5))][:survivors]
        monkeypatch.setattr(calibration, "labeling_failures",
                            lambda lab: [] if lab in passing else ["patched out"])
        message = (f"2 labelings survive calibration: {passing}" if passing
                   else "no labeling satisfies the calibration oracles")
        with pytest.raises(calibration.CalibrationError) as exc:
            calibration.calibrate()
        assert str(exc.value) == message
        argv = {"calibrate": ("calibrate",),
                "verify": ("verify", "--suite", "quiver", "--max-half-order", "1")}[command]
        assert run(capsys, *argv) == (1, "", f"calibration failed: {message}\n")
